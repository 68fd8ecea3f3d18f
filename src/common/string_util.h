#ifndef DBIM_COMMON_STRING_UTIL_H_
#define DBIM_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dbim {

/// Splits `s` on `sep`, keeping empty pieces ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins the pieces with `sep` between them.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses a plain decimal unsigned integer (digits only: no sign, no
/// whitespace) no greater than `max`. Returns false and sets *error on
/// anything else, including overflow.
bool ParseUint64(const std::string& token, uint64_t max, uint64_t* out,
                 std::string* error);

/// Parses a plain decimal signed integer: an optional '+' or '-', then
/// digits only (no whitespace), within int64_t. Returns false and sets
/// *error on anything else, including overflow.
bool ParseInt64(const std::string& token, int64_t* out, std::string* error);

/// Parses a whole token as a double (strtod syntax). Returns false and sets
/// *error on an empty token, trailing bytes, overflow to infinity or a NaN
/// (which no ordered comparison can place).
bool ParseDouble(const std::string& token, double* out, std::string* error);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace dbim

#endif  // DBIM_COMMON_STRING_UTIL_H_
