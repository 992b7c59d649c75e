// Small string helpers shared across modules.
#ifndef CROWDER_COMMON_STRING_UTIL_H_
#define CROWDER_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace crowder {

/// \brief Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// \brief Splits `s` on runs of whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// \brief Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// \brief Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// \brief ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// \brief True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// \brief printf-style float formatting helper: fixed `digits` decimals.
std::string FormatDouble(double value, int digits);

/// \brief Renders 12345 as "12,345" for table output.
std::string WithThousands(long long value);

/// \brief Parses the whole of `text` as one number of type T (int,
/// uint32_t, uint64_t or double) with std::from_chars. Errors
/// (InvalidArgument, naming the text) on an empty string, leading
/// whitespace or '+', trailing bytes ("12abc"), a minus sign on an unsigned
/// T ("-1", which a stoul-and-cast would wrap to 4294967295), a value
/// outside T's range ("5999999999999999999997"), and — for double — a value
/// that is not finite ("nan", "inf").
template <typename T>
Result<T> ParseNumber(std::string_view text);

/// \brief Parses a byte size with an optional binary-unit suffix, upper- or
/// lowercase: "4096" -> 4096, "64K" == "64k" -> 65536, "256M" -> 2^28,
/// "1G" -> 2^30. Errors (InvalidArgument) on an empty string, a missing
/// leading number ("K"), an unknown or multi-letter suffix ("10KB"), a
/// number that does not fit ("999999999999999999999"), and a value whose
/// multiplied result overflows 64 bits.
Result<uint64_t> ParseByteSize(const std::string& text);

}  // namespace crowder

#endif  // CROWDER_COMMON_STRING_UTIL_H_
