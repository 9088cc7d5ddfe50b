// Exact-round-trip token serialization for the engine's disk cache.
//
// A document is a flat sequence of space-separated tokens: integers
// (decimal), doubles (C99 %a hex-floats, which round-trip bit-exactly
// through strtod), and length-prefixed strings ("5:hello") that may contain
// any byte, including spaces and newlines. Writer and Reader invert each
// other exactly. Reader never throws: malformed input sets fail() and
// subsequent reads return zero values, so callers validate once at the end
// (the cache store treats any failure as a cold start).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

namespace mbs::util::serde {

/// Room for any double in format_hex_double's output.
constexpr std::size_t kHexDoubleMax = 32;

/// Writes `v` into `buf` exactly as printf's "%a" does ("0x1.8p+1",
/// "-0x0p+0") and returns the length. Normal numbers and zeros are
/// formatted here, several times faster than snprintf; subnormals,
/// infinities and NaNs are left to snprintf.
inline std::size_t format_hex_double(double v, char* buf) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  const int exp = static_cast<int>(bits >> 52 & 0x7ff);
  const std::uint64_t man = bits & ((std::uint64_t{1} << 52) - 1);
  if (exp == 0x7ff || (exp == 0 && man != 0))
    return static_cast<std::size_t>(
        std::snprintf(buf, kHexDoubleMax, "%a", v));
  char* p = buf;
  if (bits >> 63) *p++ = '-';
  *p++ = '0';
  *p++ = 'x';
  *p++ = exp == 0 ? '0' : '1';
  if (man != 0) {
    *p++ = '.';
    int digits = 13;  // the mantissa's nibbles, trailing zeros dropped
    while ((man >> (52 - 4 * digits) & 0xf) == 0) --digits;
    for (int i = 1; i <= digits; ++i)
      *p++ = "0123456789abcdef"[man >> (52 - 4 * i) & 0xf];
  }
  int e = exp == 0 ? 0 : exp - 1023;
  *p++ = 'p';
  *p++ = e < 0 ? '-' : '+';
  if (e < 0) e = -e;
  char rev[8];
  int n = 0;
  do {
    rev[n++] = static_cast<char>('0' + e % 10);
    e /= 10;
  } while (e > 0);
  while (n > 0) *p++ = rev[--n];
  return static_cast<std::size_t>(p - buf);
}

class Writer {
 public:
  void put_int(std::int64_t v) {
    sep();
    out_ += std::to_string(v);
  }

  void put_double(double v) {
    char buf[kHexDoubleMax];
    const std::size_t n = format_hex_double(v, buf);
    sep();
    out_.append(buf, n);
  }

  void put_string(std::string_view s) {
    sep();
    out_ += std::to_string(s.size());
    out_ += ':';
    out_.append(s.data(), s.size());
  }

  const std::string& str() const { return out_; }

 private:
  void sep() {
    if (!out_.empty()) out_.push_back(' ');
  }

  std::string out_;
};

class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  std::int64_t read_int() {
    const std::string tok(token());
    if (fail_) return 0;
    char* end = nullptr;
    const long long v = std::strtoll(tok.c_str(), &end, 10);
    if (end != tok.c_str() + tok.size() || tok.empty()) fail_ = true;
    return fail_ ? 0 : static_cast<std::int64_t>(v);
  }

  double read_double() {
    const std::string tok(token());
    if (fail_) return 0;
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size() || tok.empty()) fail_ = true;
    return fail_ ? 0 : v;
  }

  std::string read_string() {
    skip_ws();
    std::size_t len = 0;
    bool any_digit = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      // No in-bounds length exceeds the document size; capping here keeps
      // the accumulation from overflowing and wrapping the bounds check.
      if (len > text_.size()) {
        fail_ = true;
        return {};
      }
      len = len * 10 + static_cast<std::size_t>(text_[pos_++] - '0');
      any_digit = true;
    }
    if (!any_digit || len > text_.size() || pos_ >= text_.size() ||
        text_[pos_] != ':' || pos_ + 1 + len > text_.size()) {
      fail_ = true;
      return {};
    }
    ++pos_;  // ':'
    std::string out(text_.substr(pos_, len));
    pos_ += len;
    return out;
  }

  bool fail() const { return fail_; }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

 private:
  std::string_view token() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() && !is_ws(text_[pos_])) ++pos_;
    if (pos_ == start) fail_ = true;
    return text_.substr(start, pos_ - start);
  }

  void skip_ws() {
    while (pos_ < text_.size() && is_ws(text_[pos_])) ++pos_;
  }

  static bool is_ws(char c) { return c == ' ' || c == '\n'; }

  std::string_view text_;
  std::size_t pos_ = 0;
  bool fail_ = false;
};

}  // namespace mbs::util::serde
