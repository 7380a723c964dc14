#include "ml/model.h"

#include "common/bundle.h"
#include "ml/linreg.h"
#include "ml/svr.h"

namespace qpp {

const char* ModelTypeName(ModelType t) {
  switch (t) {
    case ModelType::kLinearRegression: return "linreg";
    case ModelType::kSvr: return "svr";
  }
  return "?";
}

Result<std::unique_ptr<RegressionModel>> DeserializeModel(
    const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty model payload");
  const std::vector<std::string> fields = SplitPipe(text);
  if (fields[0] == "linreg") return LinearRegression::Deserialize(fields);
  if (fields[0] == "svr") return SvRegression::Deserialize(fields);
  return Status::InvalidArgument("unknown model family: " + fields[0]);
}

}  // namespace qpp
