#ifndef KLINK_COMMON_FLAGS_H_
#define KLINK_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace klink {

/// Whole-string number parses of one flag value, shared by FlagParser's
/// checked getters and the parts of compound flags such as
/// `--reshard=COUNT@SECONDS`. An empty value, trailing characters, a value
/// outside int64's (double's) range, NaN or an infinity is InvalidArgument
/// naming `--name`, and leaves `*out` unchanged.
Status ParseIntFlag(const std::string& name, const std::string& value,
                    int64_t* out);
Status ParseDoubleFlag(const std::string& name, const std::string& value,
                       double* out);

/// Minimal command-line flag parser for the CLI tools: accepts
/// `--key=value` and `--key value` tokens plus bare positional arguments.
/// Parse keeps every flag; CheckKnown rejects the ones a tool does not
/// take. Repeated flags keep the last value. No dependencies, no global
/// state.
class FlagParser {
 public:
  /// Parses argv (excluding argv[0]). Returns InvalidArgument on malformed
  /// tokens (e.g. `--` with no name).
  Status Parse(int argc, const char* const* argv);

  /// InvalidArgument naming the first positional argument, or else the
  /// first flag (in name order) not in `known`.
  Status CheckKnown(const std::vector<std::string>& known) const;

  bool Has(const std::string& name) const;

  /// Typed getter returning `fallback` when the flag is absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;

  /// Checked getters: set `*out` to the flag's value, or to `fallback`
  /// when the flag is absent. A present number must parse whole
  /// (ParseIntFlag, ParseDoubleFlag), the int overload also checks int's
  /// range, and a boolean is one of true/false/1/0/yes/no/on/off (a bare
  /// `--name` reads true). A bad value leaves `*out` unchanged.
  Status GetInt(const std::string& name, int64_t fallback,
                int64_t* out) const;
  Status GetInt(const std::string& name, int fallback, int* out) const;
  Status GetDouble(const std::string& name, double fallback,
                   double* out) const;
  Status GetBool(const std::string& name, bool fallback, bool* out) const;
  /// Unchecked forms: `fallback` also when the value is malformed. Only
  /// perfbench_driver, which reports no flag errors, still calls them.
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

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
