#include "common/flags.h"

#include <cmath>

namespace qplex {

Result<double> ParseDoubleFlag(const std::string& flag,
                               const std::string& value) {
  double parsed = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (value.empty() || ec != std::errc{} || ptr != end ||
      !std::isfinite(parsed)) {
    return Status::InvalidArgument("bad number for " + flag + ": '" + value +
                                   "'");
  }
  return parsed;
}

Status FlagParser::Parse(int argc, char** argv) const {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return Status::InvalidArgument("help requested");
    }
    if (const auto flag = switches_.find(arg); flag != switches_.end()) {
      *flag->second = true;
      continue;
    }
    const auto flag = values_.find(arg);
    if (flag == values_.end()) {
      return Status::InvalidArgument("unknown flag: " + arg);
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("missing value for " + arg);
    }
    QPLEX_RETURN_IF_ERROR(flag->second(argv[++i]));
  }
  return Status::Ok();
}

}  // namespace qplex
