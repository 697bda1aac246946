// Minimal command-line flag parsing for the example and bench binaries.
//
// Supports `--name=value`, `--name value`, and boolean `--name` /
// `--no-name`. Unknown flags are reported; positional arguments are
// collected. No global registry: each binary constructs a `FlagSet`,
// registers typed references, and parses argv.

#ifndef P2P_UTIL_FLAGS_H_
#define P2P_UTIL_FLAGS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace p2p {
namespace util {

/// \brief A set of typed command-line flags bound to caller-owned variables.
class FlagSet {
 public:
  /// \name Registration. `help` is shown by Usage(). The bound variable keeps
  /// its current value as the default.
  /// @{
  void Int64(const std::string& name, int64_t* var, const std::string& help);
  void Int32(const std::string& name, int* var, const std::string& help);
  void UInt32(const std::string& name, uint32_t* var, const std::string& help);
  void Double(const std::string& name, double* var, const std::string& help);
  void Bool(const std::string& name, bool* var, const std::string& help);
  void String(const std::string& name, std::string* var, const std::string& help);
  /// @}

  /// Parses argv (skipping argv[0]); on success, positional (non-flag)
  /// arguments are available via positional().
  Status Parse(int argc, char** argv);

  /// Non-flag arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Renders a usage block listing every registered flag and its default.
  std::string Usage(const std::string& program) const;

 private:
  struct Entry {
    std::string help;
    std::string default_value;
    bool is_bool = false;
    std::function<Status(const std::string&)> set;
  };

  void Register(const std::string& name, Entry entry);

  std::map<std::string, Entry> entries_;
  std::vector<std::string> positional_;
};

/// Returns OK when `lo <= value <= hi`, else an InvalidArgument naming
/// `--flag` and the accepted range. For flags parsed into a wider type than
/// their destination, so an out-of-range value fails instead of wrapping.
Status CheckFlagRange(const std::string& flag, int64_t value, int64_t lo,
                      int64_t hi);

}  // namespace util
}  // namespace p2p

#endif  // P2P_UTIL_FLAGS_H_
