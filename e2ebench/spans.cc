#include "spans.h"

#include <chrono>
#include <fstream>

namespace e2e {

const char* LayerName(Layer layer) {
  static const char* const kNames[kNumLayers] = {
      "tpch", "catalog", "optimizer", "exec", "storage", "workload", "ml",
      "qpp",  "serve",   "net",       "card", "kde",     "bench",    "idle"};
  return kNames[static_cast<int>(layer)];
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer* Tracer::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadBuffer>());
    local = threads_.back().get();
    local->thread = static_cast<uint32_t>(threads_.size() - 1);
  }
  return local;
}

int32_t Tracer::Begin(Layer layer, const char* name, uint64_t request_id) {
  ThreadBuffer* t = Local();
  Span s;
  s.name = name;
  s.layer = layer;
  s.parent = t->open.empty() ? -1 : t->open.back();
  s.request_id = request_id;
  if (t->size == t->chunks.size() * kChunkSpans) {
    t->chunks.push_back(std::make_unique<Span[]>(kChunkSpans));
  }
  const auto index = static_cast<int32_t>(t->size++);
  s.start_ns = NowNs();
  t->at(static_cast<size_t>(index)) = s;
  t->open.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  ThreadBuffer* t = Local();
  t->at(static_cast<size_t>(index)).end_ns = NowNs();
  t->open.pop_back();
}

std::vector<LayerRow> Tracer::LayerTable(double* root_ms) const {
  std::vector<LayerRow> rows(kNumLayers);
  double roots = 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    std::vector<int64_t> child_ns(t->size, 0);
    for (size_t i = 0; i < t->size; ++i) {
      const Span& s = t->at(i);
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < t->size; ++i) {
      const Span& s = t->at(i);
      const int64_t dur = s.end_ns - s.start_ns;
      LayerRow& row = rows[static_cast<size_t>(s.layer)];
      row.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
      ++row.count;
      if (s.parent < 0) roots += static_cast<double>(dur) / 1e6;
    }
  }
  *root_ms = roots;
  return rows;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    for (size_t i = 0; i < t->size; ++i) {
      const Span& s = t->at(i);
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
  }
  return out;
}

bool Tracer::WriteTsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\tindex\tparent\tlayer\tname\trequest_id\tstart_ns\tend_ns\n";
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    for (size_t i = 0; i < t->size; ++i) {
      const Span& s = t->at(i);
      out << t->thread << '\t' << i << '\t' << s.parent << '\t'
          << LayerName(s.layer) << '\t' << s.name << '\t' << s.request_id
          << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

}  // namespace e2e
