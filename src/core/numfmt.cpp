#include "core/numfmt.h"

#include <charconv>
#include <cmath>
#include <iterator>

namespace wlansim::core {

void append_shortest(std::string& out, double v) {
  // Room for the longest `%.17g` text: "-1.2345678901234567e-308", or 17
  // digits in fixed notation behind "-0.000".
  char buf[32];
  if (!std::isfinite(v)) {
    out.append(buf, std::to_chars(buf, std::end(buf), v).ptr);
    return;
  }
  // The shortest round-trip form has `shortest` significant digits, so no
  // `%.{p}g` with a smaller p can read back as v. From there on, the
  // correctly rounded p-digit text may still miss (the shortest form need
  // not be the nearest one), hence the round-trip check per precision.
  char* end =
      std::to_chars(buf, std::end(buf), v, std::chars_format::scientific).ptr;
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
