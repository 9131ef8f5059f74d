// Exists only because the benchmark (spearbench/) includes it.
#pragma once

#include "common/stats.h"

namespace spear::infer {
using spear::hist_percentile;
}  // namespace spear::infer
