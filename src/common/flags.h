#ifndef KLINK_COMMON_FLAGS_H_
#define KLINK_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace klink {

/// Minimal command-line flag parser for the CLI tools: accepts
/// `--key=value` and `--key value` tokens plus bare positional arguments.
/// Unknown flags are kept (callers validate), repeated flags keep the last
/// value. No dependencies, no global state.
class FlagParser {
 public:
  /// Parses argv (excluding argv[0]). Returns InvalidArgument on malformed
  /// tokens (e.g. `--` with no name).
  Status Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const;

  /// Typed getters returning `fallback` when the flag is absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  /// Checked numeric getters: set `*out` to the flag's value, or to
  /// `fallback` when the flag is absent. A present value must parse whole:
  /// an empty value, trailing characters, a value outside the type's range
  /// (the int overload checks int's), NaN or an infinity is
  /// InvalidArgument naming the flag, and leaves `*out` unchanged.
  Status GetInt(const std::string& name, int64_t fallback,
                int64_t* out) const;
  Status GetInt(const std::string& name, int fallback, int* out) const;
  Status GetDouble(const std::string& name, double fallback,
                   double* out) const;
  /// Unchecked forms: `fallback` also when the value is malformed. Only
  /// perfbench_driver, which reports no flag errors, still calls them.
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;

  /// Enumerated flag: returns the flag's value when it is one of `allowed`,
  /// `fallback` when the flag is absent, and InvalidArgument (naming the
  /// allowed values) when present but unrecognized — so `--executor=foo`
  /// fails loudly instead of silently running the default backend.
  Status GetChoice(const std::string& name,
                   const std::vector<std::string>& allowed,
                   const std::string& fallback, std::string* out) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::map<std::string, std::string>& flags() const { return flags_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace klink

#endif  // KLINK_COMMON_FLAGS_H_
