#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

/// The repo's modules that the benchmark times, plus two pseudo-layers:
/// `bench` is the benchmark's own code (loops, checks) and `idle` is time a
/// driver thread spends waiting on purpose (an open-loop schedule, a
/// socket poll). Together they make a thread's timeline add up.
enum class Layer : uint8_t {
  kTpch,
  kCatalog,
  kOptimizer,
  kExec,
  kStorage,
  kWorkload,
  kMl,
  kQpp,
  kServe,
  kNet,
  kCard,
  kKde,
  kBench,
  kIdle,
};
inline constexpr int kNumLayers = 14;
const char* LayerName(Layer layer);

int64_t NowNs();

/// One timed call into a layer. `parent` indexes the same thread's span
/// buffer (-1 for a root); spans never cross threads.
struct Span {
  const char* name = "";
  Layer layer = Layer::kBench;
  int32_t parent = -1;
  uint64_t request_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-layer rollup of a thread set's spans.
struct LayerRow {
  double self_ms = 0.0;
  uint64_t count = 0;
};

/// \brief In-memory span recorder for the benchmark's own call sites.
///
/// Disabled, a ScopedSpan costs one branch and reads no clock. Enabled,
/// each thread appends to its own buffer (registered once under a mutex),
/// so recording never contends. Spans are kept until the run ends, then
/// summarised and written out.
class Tracer {
 public:
  static Tracer& Get();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its index (or -1 when
  /// tracing is off). Close with End().
  int32_t Begin(Layer layer, const char* name, uint64_t request_id);
  void End(int32_t index);

  /// Self time and call count per layer over every recorded thread; a
  /// span's self time is its duration minus its children's. Also returns
  /// the summed duration of root spans (the traced wall time of all
  /// driver threads).
  std::vector<LayerRow> LayerTable(double* root_ms) const;

  /// Durations (ms) of every closed span with this name, in record order.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes every span as one tab-separated line: thread, index, parent,
  /// layer, name, request id, start ns, end ns.
  bool WriteTsv(const std::string& path) const;

 private:
  /// Spans live in fixed-size chunks, so recording never moves what is
  /// already recorded (a growing vector would stall the traced thread on
  /// every reallocation).
  static constexpr size_t kChunkSpans = 1 << 16;
  struct ThreadBuffer {
    uint32_t thread = 0;
    size_t size = 0;
    std::vector<std::unique_ptr<Span[]>> chunks;
    std::vector<int32_t> open;

    Span& at(size_t i) { return chunks[i / kChunkSpans][i % kChunkSpans]; }
    const Span& at(size_t i) const {
      return chunks[i / kChunkSpans][i % kChunkSpans];
    }
  };
  ThreadBuffer* Local();

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuffer>> threads_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(Layer layer, const char* name, uint64_t request_id = 0)
      : index_(Tracer::Get().enabled()
                   ? Tracer::Get().Begin(layer, name, request_id)
                   : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::Get().End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int32_t index_;
};

}  // namespace e2e
