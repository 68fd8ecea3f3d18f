#include "common/string_util.h"

#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace dbim {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r' || s[b] == '\n')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r' ||
                   s[e - 1] == '\n')) {
    --e;
  }
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  if (n > 0) {
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

bool ParseUint64(const std::string& token, uint64_t max, uint64_t* out,
                 std::string* error) {
  if (token.empty() || token.size() > 20) {
    *error = "bad unsigned integer: " + token;
    return false;
  }
  uint64_t v = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      *error = "bad unsigned integer: " + token;
      return false;
    }
    if (v > (std::numeric_limits<uint64_t>::max() - (c - '0')) / 10) {
      *error = "unsigned integer overflow: " + token;
      return false;
    }
    v = v * 10 + (c - '0');
  }
  if (v > max) {
    *error = "integer out of range: " + token;
    return false;
  }
  *out = v;
  return true;
}

bool ParseInt64(const std::string& token, int64_t* out, std::string* error) {
  const bool negative = !token.empty() && token[0] == '-';
  const bool signed_token =
      !token.empty() && (token[0] == '-' || token[0] == '+');
  const uint64_t limit =
      negative ? uint64_t{1} << 63
               : static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
  uint64_t magnitude = 0;
  if (!ParseUint64(token.substr(signed_token ? 1 : 0), limit, &magnitude,
                   error)) {
    *error = "bad integer: " + token;
    return false;
  }
  // -2^63 has no positive int64_t counterpart; negate in unsigned space.
  *out = negative ? static_cast<int64_t>(0 - magnitude)
                  : static_cast<int64_t>(magnitude);
  return true;
}

bool ParseDouble(const std::string& token, double* out, std::string* error) {
  if (token.empty()) {
    *error = "empty number";
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  // ERANGE underflow (subnormal results) is fine — strtod returned the
  // nearest representable value; only overflow to +-HUGE_VAL is rejected.
  const bool overflow = errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL);
  if (end != token.c_str() + token.size() || overflow || std::isnan(v)) {
    *error = "bad number: " + token;
    return false;
  }
  *out = v;
  return true;
}

}  // namespace dbim
