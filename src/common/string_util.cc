#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <type_traits>

namespace crowder {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return std::string(buf);
}

std::string WithThousands(long long value) {
  const bool neg = value < 0;
  unsigned long long v =
      neg ? 0ULL - static_cast<unsigned long long>(value) : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(v);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count > 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (neg) out.push_back('-');
  return std::string(out.rbegin(), out.rend());
}


namespace {

Status NumberError(const char* what, std::string_view text) {
  return Status::InvalidArgument(std::string(what) + ": '" + std::string(text) + "'");
}

}  // namespace

template <typename T>
Result<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error == std::errc::result_out_of_range) return NumberError("number out of range", text);
  if (std::is_unsigned_v<T> && !text.empty() && text[0] == '-') {
    return NumberError("negative value where none is allowed", text);
  }
  if (error != std::errc() || stop != end) return NumberError("not a number", text);
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return NumberError("not a finite number", text);
  }
  return value;
}

template Result<int> ParseNumber<int>(std::string_view);
template Result<uint32_t> ParseNumber<uint32_t>(std::string_view);
template Result<uint64_t> ParseNumber<uint64_t>(std::string_view);
template Result<double> ParseNumber<double>(std::string_view);

Result<uint64_t> ParseByteSize(const std::string& text) {
  if (text.empty()) return Status::InvalidArgument("empty byte size");
  size_t digits = 0;
  while (digits < text.size() && std::isdigit(static_cast<unsigned char>(text[digits]))) {
    ++digits;
  }
  if (digits == 0) return Status::InvalidArgument("byte size must start with digits: " + text);
  const Result<uint64_t> value = ParseNumber<uint64_t>(std::string_view(text).substr(0, digits));
  if (!value.ok()) return Status::InvalidArgument("unparseable byte size: " + text);
  const std::string suffix = text.substr(digits);
  uint64_t multiplier = 1;
  if (suffix == "K" || suffix == "k") {
    multiplier = 1ULL << 10;
  } else if (suffix == "M" || suffix == "m") {
    multiplier = 1ULL << 20;
  } else if (suffix == "G" || suffix == "g") {
    multiplier = 1ULL << 30;
  } else if (!suffix.empty()) {
    return Status::InvalidArgument("unknown byte-size suffix '" + suffix +
                                   "' (use K/M/G, either case)");
  }
  uint64_t bytes = 0;
  if (__builtin_mul_overflow(*value, multiplier, &bytes)) {
    return Status::InvalidArgument("byte size overflows 64 bits: " + text);
  }
  return bytes;
}

}  // namespace crowder
