#ifndef QPLEX_COMMON_FLAGS_H_
#define QPLEX_COMMON_FLAGS_H_

/// \file
/// Strict command-line parsing shared by every tool. Numbers must be the
/// whole value in the target type: no leading whitespace or '+', no
/// trailing junk, no overflow, no empty string, and doubles must be finite.
/// A typo fails with InvalidArgument instead of silently becoming another
/// setting.

#include <charconv>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

#include "common/status.h"

namespace qplex {

/// Parses `value` as a `T` with std::from_chars; anything else fails with
/// "bad integer for <flag>: '<value>'".
template <typename T>
Result<T> ParseIntFlag(const std::string& flag, const std::string& value) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (value.empty() || ec != std::errc{} || ptr != end) {
    return Status::InvalidArgument("bad integer for " + flag + ": '" + value +
                                   "'");
  }
  return parsed;
}

/// Parses `value` as a finite double with std::from_chars; "nan", "inf",
/// overflow and partial parses fail with "bad number for <flag>: '<value>'".
Result<double> ParseDoubleFlag(const std::string& flag,
                               const std::string& value);

/// One argv walk: register every flag with where its value goes, then
/// Parse(). "--help"/"-h" fail with "help requested", an unregistered flag
/// with "unknown flag: <arg>", a value flag at the end of argv with
/// "missing value for <arg>"; the first failing value stops the walk.
class FlagParser {
 public:
  using Apply = std::function<Status(const std::string& value)>;

  /// A value flag handled by `apply` (custom checks, accumulation).
  void Custom(const std::string& name, Apply apply) {
    values_[name] = std::move(apply);
  }
  /// A value flag stored verbatim.
  void String(const std::string& name, std::string* out) {
    Custom(name, [out](const std::string& value) {
      *out = value;
      return Status::Ok();
    });
  }
  /// A value flag parsed with ParseIntFlag<T> or ParseDoubleFlag; a value
  /// below `min` fails with "<name> must be >= <min>".
  template <typename T>
  void Number(const std::string& name, T* out,
              T min = std::numeric_limits<T>::lowest()) {
    Custom(name, [name, out, min](const std::string& value) -> Status {
      if constexpr (std::is_floating_point_v<T>) {
        QPLEX_ASSIGN_OR_RETURN(*out, ParseDoubleFlag(name, value));
      } else {
        QPLEX_ASSIGN_OR_RETURN(*out, ParseIntFlag<T>(name, value));
      }
      if (*out < min) {
        std::ostringstream bound;
        bound << min;
        return Status::InvalidArgument(name + " must be >= " + bound.str());
      }
      return Status::Ok();
    });
  }
  /// A flag without a value; sets `*out` to true.
  void Switch(const std::string& name, bool* out) { switches_[name] = out; }

  Status Parse(int argc, char** argv) const;

 private:
  std::map<std::string, Apply> values_;
  std::map<std::string, bool*> switches_;
};

}  // namespace qplex

#endif  // QPLEX_COMMON_FLAGS_H_
