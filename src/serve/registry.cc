#include "serve/registry.h"

#include <cassert>

#include "obs/metrics.h"

namespace qpp::serve {

uint64_t ModelRegistry::Publish(
    std::shared_ptr<const QueryPerformancePredictor> predictor,
    std::string source) {
  assert(predictor != nullptr && predictor->trained());
  // Process-wide swap telemetry; cheap enough to resolve per publish
  // (publishing is rare and already takes a mutex).
  static obs::Gauge* version_gauge =
      obs::MetricsRegistry::Global()->GetGauge("serve.registry.version");
  static obs::Counter* swap_counter =
      obs::MetricsRegistry::Global()->GetCounter("serve.registry.swaps");
  return versions_.Publish([&](uint64_t version) {
    // Inside the publisher serialization, so racing publishes leave the
    // gauge at the newest version.
    version_gauge->Set(static_cast<double>(version));
    swap_counter->Increment();
    return std::make_shared<const ModelVersion>(
        ModelVersion{version, std::move(source), std::move(predictor)});
  });
}

}  // namespace qpp::serve
