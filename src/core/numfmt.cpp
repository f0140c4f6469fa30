#include "core/numfmt.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <iterator>

namespace wlansim::core {

namespace {

/// Appends `%.{p}g`'s text of the value whose shortest scientific form is
/// [text, end) ("-d.ddde+XX", p significant digits, no trailing zero) and
/// whose correctly rounded p-digit form has the same digits.
void append_g_from_scientific(std::string& out, const char* text,
                              const char* end) {
  const char* e = text;
  while (*e != 'e') ++e;
  const char* mant = *text == '-' ? text + 1 : text;
  const int digits = e - mant > 1 ? static_cast<int>(e - mant) - 1 : 1;
  int exp10 = 0;
  std::from_chars(e[1] == '+' ? e + 2 : e + 1, end, exp10);
  // %g picks %e below 1e-4 and from p integer digits on: the shortest
  // scientific text is then already the answer.
  if (exp10 < -4 || exp10 >= digits) {
    out.append(text, end);
    return;
  }
  char d[17];  // the significant digits, point dropped
  d[0] = mant[0];
  for (int i = 1; i < digits; ++i) d[i] = mant[i + 1];
  out.append(text, mant);  // the sign
  if (exp10 >= 0) {
    out.append(d, static_cast<std::size_t>(exp10) + 1);
    if (digits > exp10 + 1) {
      out.push_back('.');
      out.append(d + exp10 + 1, static_cast<std::size_t>(digits - exp10 - 1));
    }
  } else {
    out.append("0.");
    out.append(static_cast<std::size_t>(-exp10 - 1), '0');
    out.append(d, static_cast<std::size_t>(digits));
  }
}

}  // namespace

void append_shortest(std::string& out, double v) {
  // Room for the longest `%.17g` text: "-1.2345678901234567e-308", or 17
  // digits in fixed notation behind "-0.000".
  char buf[32];
  if (!std::isfinite(v)) {
    out.append(buf, std::to_chars(buf, std::end(buf), v).ptr);
    return;
  }
  // The shortest round-trip form has `shortest` significant digits, so no
  // `%.{p}g` with a smaller p can read back as v.
  char* end =
      std::to_chars(buf, std::end(buf), v, std::chars_format::scientific).ptr;
  // Where v's rounding interval is symmetric (every double but the powers
  // of two above the smallest normal), the correctly rounded p-digit
  // decimal is at least as close to v as the shortest form, so it lies in
  // the interval too, and the shortest form is the closest p-digit decimal
  // there: the two are one digit string (an exact tie rounds half-even in
  // both). `%.{p}g` is then that string in %g's layout.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  if ((bits & 0x000fffffffffffffull) != 0 || ((bits >> 52) & 0x7ff) <= 1) {
    append_g_from_scientific(out, buf, end);
    return;
  }
  // A power of two has half the room below it that it has above, so the
  // correctly rounded p-digit text may miss the interval the shortest form
  // lies in: try each precision from there on.
  int shortest = 0;
  for (const char* c = buf; c != end && *c != 'e'; ++c)
    shortest += (*c >= '0' && *c <= '9') ? 1 : 0;
  for (int p = shortest; p <= 17; ++p) {
    end = std::to_chars(buf, std::end(buf), v, std::chars_format::general, p)
              .ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v || p == 17) break;
  }
  out.append(buf, end);
}

}  // namespace wlansim::core
