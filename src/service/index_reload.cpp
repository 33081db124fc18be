#include "service/index_reload.hpp"

#include <algorithm>

namespace manymap {

std::chrono::milliseconds reload_backoff(u32 attempt, std::chrono::milliseconds initial,
                                         std::chrono::milliseconds cap) {
  if (initial.count() <= 0) return std::chrono::milliseconds{0};
  if (cap < initial) cap = initial;
  // 2^20 * initial already exceeds any sane cap; clamping the shift keeps
  // the multiply in range for absurd attempt numbers.
  const u32 shift = std::min<u32>(attempt, 20);
  const u64 scaled = static_cast<u64>(initial.count()) << shift;
  return std::min(std::chrono::milliseconds(static_cast<i64>(scaled)), cap);
}

}  // namespace manymap
