// Shortest round-trip decimal text for doubles: the one number printer
// behind the scenario traces (scenario/trace.h) and the service's JSON
// codec (service/json.h), so every output of the toolchain prints a value
// the same way and reads back bit-identically.
#pragma once

#include <string>

namespace wlansim::core {

/// Appends `v` to `out` as printf's `%.{p}g` at the smallest precision
/// p in [1, 17] whose text parses back to the identical double: 0.5 prints
/// "0.5", 1e-5 "1e-05", 100000 "1e+05", -0.0 "-0", and 0.1 "0.1" (not
/// "0.10000000000000001"). Infinities and NaNs print as `%g` prints them
/// ("inf", "-inf", "nan", "-nan"). The text is a pure function of the bit
/// pattern: no locale, no allocation beyond growing `out`.
void append_shortest(std::string& out, double v);

}  // namespace wlansim::core
