#include "src/common/flags.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace klink {
namespace {

Status Malformed(const std::string& name, const char* what,
                 const std::string& value) {
  return Status::InvalidArgument("--" + name + " expects " + what +
                                 ", got '" + value + "'");
}

Status OutOfRange(const std::string& name, const std::string& value) {
  return Status::InvalidArgument("--" + name + " value '" + value +
                                 "' is out of range");
}

}  // namespace

Status ParseIntFlag(const std::string& name, const std::string& value,
                    int64_t* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0') {
    return Malformed(name, "an integer", value);
  }
  if (errno == ERANGE) return OutOfRange(name, value);
  *out = static_cast<int64_t>(v);
  return Status::Ok();
}

Status ParseDoubleFlag(const std::string& name, const std::string& value,
                       double* out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0') return Malformed(name, "a number", value);
  if (errno == ERANGE) return OutOfRange(name, value);
  if (!std::isfinite(v)) return Malformed(name, "a finite number", value);
  *out = v;
  return Status::Ok();
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 0; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      positional_.push_back(token);
      continue;
    }
    std::string body = token.substr(2);
    if (body.empty()) {
      return Status::InvalidArgument("bare '--' is not a valid flag");
    }
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` form when the next token is not itself a flag;
    // otherwise a boolean `--key`.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
  return Status::Ok();
}

Status FlagParser::CheckKnown(const std::vector<std::string>& known) const {
  if (!positional_.empty()) {
    return Status::InvalidArgument("unexpected argument '" + positional_[0] +
                                   "'");
  }
  for (const auto& [name, value] : flags_) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
  }
  return Status::Ok();
}

bool FlagParser::Has(const std::string& name) const {
  return flags_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

Status FlagParser::GetInt(const std::string& name, int64_t fallback,
                          int64_t* out) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    *out = fallback;
    return Status::Ok();
  }
  return ParseIntFlag(name, it->second, out);
}

Status FlagParser::GetInt(const std::string& name, int fallback,
                          int* out) const {
  int64_t v = fallback;
  const Status st = GetInt(name, int64_t{fallback}, &v);
  if (!st.ok()) return st;
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    return OutOfRange(name, flags_.at(name));
  }
  *out = static_cast<int>(v);
  return Status::Ok();
}

Status FlagParser::GetDouble(const std::string& name, double fallback,
                             double* out) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    *out = fallback;
    return Status::Ok();
  }
  return ParseDoubleFlag(name, it->second, out);
}

int64_t FlagParser::GetInt(const std::string& name, int64_t fallback) const {
  int64_t v = fallback;
  return GetInt(name, fallback, &v).ok() ? v : fallback;
}

double FlagParser::GetDouble(const std::string& name, double fallback) const {
  double v = fallback;
  return GetDouble(name, fallback, &v).ok() ? v : fallback;
}

Status FlagParser::GetChoice(const std::string& name,
                             const std::vector<std::string>& allowed,
                             const std::string& fallback,
                             std::string* out) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    *out = fallback;
    return Status::Ok();
  }
  for (const std::string& a : allowed) {
    if (it->second == a) {
      *out = it->second;
      return Status::Ok();
    }
  }
  std::string msg = "--" + name + " must be one of {";
  for (size_t i = 0; i < allowed.size(); ++i) {
    if (i > 0) msg += ", ";
    msg += allowed[i];
  }
  msg += "}, got '" + it->second + "'";
  return Status::InvalidArgument(msg);
}

Status FlagParser::GetBool(const std::string& name, bool fallback,
                           bool* out) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    *out = fallback;
    return Status::Ok();
  }
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") {
    *out = true;
  } else if (v == "false" || v == "0" || v == "no" || v == "off") {
    *out = false;
  } else {
    return Malformed(name, "true or false", v);
  }
  return Status::Ok();
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  bool v = fallback;
  return GetBool(name, fallback, &v).ok() ? v : fallback;
}

}  // namespace klink
