// Backoff schedule for the service's async index (re)load path: the
// capped exponential delay between failed load attempts. A pure function
// so tests can pin the schedule without spinning up a service. (The
// check that a loaded index describes the serving reference is
// index_matches_reference in index/hash_index.hpp, shared with the CLI.)
#pragma once

#include <chrono>

#include "base/common.hpp"

namespace manymap {

/// Delay before reload attempt `attempt` (0-based: the delay after the
/// first failure is `initial`). Doubles per attempt, capped at `cap`;
/// `initial <= 0` disables waiting entirely (test schedules).
std::chrono::milliseconds reload_backoff(u32 attempt, std::chrono::milliseconds initial,
                                         std::chrono::milliseconds cap);

}  // namespace manymap
