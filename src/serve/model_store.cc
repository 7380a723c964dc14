#include "serve/model_store.h"

#include "common/bundle.h"

namespace qpp::serve {
namespace {

constexpr BundleFormat kModelFormat{"qpp-model-bundle v1", "model bundle"};

}  // namespace

Status SaveModelBundle(const QueryPerformancePredictor& predictor,
                       const std::string& path) {
  QPP_ASSIGN_OR_RETURN(const std::string payload, predictor.SerializeModels());
  return WriteBundle(
      path, kModelFormat, payload,
      {{"method", PredictionMethodName(predictor.config().method)}});
}

Result<QueryPerformancePredictor> LoadModelBundle(const std::string& path) {
  QPP_ASSIGN_OR_RETURN(const std::string payload,
                       ReadBundlePayload(path, kModelFormat, {"method"}));
  QueryPerformancePredictor predictor;
  QPP_RETURN_NOT_OK(predictor.LoadModelsFromText(payload, path));
  return predictor;
}

Result<ModelBundleInfo> ReadModelBundleInfo(const std::string& path) {
  QPP_ASSIGN_OR_RETURN(const BundleHeader header,
                       ReadBundleHeader(path, kModelFormat, {"method"}));
  ModelBundleInfo info;
  info.method = header.values[0];
  info.payload_bytes = header.payload_bytes;
  info.checksum = header.checksum;
  return info;
}

}  // namespace qpp::serve
