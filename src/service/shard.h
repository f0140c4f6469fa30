// Forwarding header for service/server.h, which declares
// connect_unix_retry. It exists only because e2ebench/src/service.cpp
// includes this path and the benchmark's sources change only in benchmark
// changes; delete it once that include names service/server.h.
#pragma once

#include "service/server.h"
