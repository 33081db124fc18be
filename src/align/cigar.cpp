#include "align/cigar.hpp"

#include <algorithm>
#include <cctype>

#include "align/scoring.hpp"
#include "sequence/dna.hpp"

namespace manymap {

void Cigar::push(char op, u32 len) {
  if (len == 0) return;
  MM_REQUIRE(op == 'M' || op == 'I' || op == 'D', "unsupported CIGAR op");
  if (!ops_.empty() && ops_.back().op == op) {
    ops_.back().len += len;
  } else {
    ops_.push_back({op, len});
  }
}

void Cigar::reverse() { std::reverse(ops_.begin(), ops_.end()); }

u64 Cigar::target_span() const {
  u64 n = 0;
  for (const auto& o : ops_)
    if (o.op == 'M' || o.op == 'D') n += o.len;
  return n;
}

u64 Cigar::query_span() const {
  u64 n = 0;
  for (const auto& o : ops_)
    if (o.op == 'M' || o.op == 'I') n += o.len;
  return n;
}

std::string Cigar::to_string() const {
  std::string s;
  for (const auto& o : ops_) {
    s += std::to_string(o.len);
    s.push_back(o.op);
  }
  return s;
}

Cigar Cigar::from_string(std::string_view s) {
  Cigar c;
  u32 len = 0;
  for (char ch : s) {
    if (std::isdigit(static_cast<unsigned char>(ch))) {
      len = len * 10 + static_cast<u32>(ch - '0');
    } else {
      c.push(ch, len);
      len = 0;
    }
  }
  MM_REQUIRE(len == 0, "trailing digits in CIGAR string");
  return c;
}

i64 Cigar::score(const std::vector<u8>& target, const std::vector<u8>& query, u64 t_off,
                 u64 q_off, const ScoreParams& params) const {
  i64 total = 0;
  u64 ti = t_off, qi = q_off;
  for (const auto& o : ops_) {
    switch (o.op) {
      case 'M':
        for (u32 k = 0; k < o.len; ++k) {
          MM_REQUIRE(ti < target.size() && qi < query.size(), "CIGAR overruns sequences");
          total += params.sub(target[ti++], query[qi++]);
        }
        break;
      case 'D':
        total -= params.gap_open + static_cast<i64>(o.len) * params.gap_ext;
        ti += o.len;
        break;
      case 'I':
        total -= params.gap_open + static_cast<i64>(o.len) * params.gap_ext;
        qi += o.len;
        break;
      default:
        MM_REQUIRE(false, "unsupported CIGAR op in score()");
    }
  }
  return total;
}

PathStats Cigar::stats(std::span<const u8> target, std::span<const u8> query, u64 t_off,
                       u64 q_off, const ScoreParams& params) const {
  PathStats st;
  u64 ti = t_off, qi = q_off;
  for (const auto& o : ops_) {
    st.length += o.len;
    if (o.op == 'M') {
      MM_REQUIRE(ti + o.len <= target.size() && qi + o.len <= query.size(),
                 "CIGAR overruns sequences");
      const u64 m = count_matches(target.data() + ti, query.data() + qi, o.len);
      st.matches += m;
      st.score += static_cast<i64>(m) * params.match -
                  static_cast<i64>(o.len - m) * params.mismatch;
      ti += o.len;
      qi += o.len;
    } else {
      st.score -= params.gap_open + static_cast<i64>(o.len) * params.gap_ext;
      (o.op == 'D' ? ti : qi) += o.len;
    }
  }
  return st;
}

}  // namespace manymap
