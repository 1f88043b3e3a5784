#include "lt/decoder.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <functional>
#include <stdexcept>

#include "kern/kernels.hpp"

namespace fountain::lt {

namespace {

// Bit-vector helpers over `words`-wide GF(2) mask rows.
bool test_bit(const std::uint64_t* m, std::size_t b) {
  return ((m[b >> 6] >> (b & 63)) & 1U) != 0;
}

void flip_bit(std::uint64_t* m, std::size_t b) { m[b >> 6] ^= 1ULL << (b & 63); }

void xor_words(std::uint64_t* dst, const std::uint64_t* src,
               std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) dst[i] ^= src[i];
}

std::int64_t lowest_bit(const std::uint64_t* m, std::size_t words) {
  for (std::size_t w = 0; w < words; ++w) {
    if (m[w] != 0) {
      return static_cast<std::int64_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(m[w])));
    }
  }
  return -1;
}

/// Reduces `row` against `count` pivot rows `stride` words apart, whose
/// pivot columns are vars[0..count). One sequential pass suffices: pivot
/// p's row is zero on every earlier pivot column, so bits a fold introduces
/// belong to later pivots. Rows may carry a payload after their mask; it
/// rides along in every fold.
void reduce(std::uint64_t* row, const std::uint64_t* pivots,
            std::size_t stride, const std::uint32_t* vars, std::size_t count) {
  for (std::size_t p = 0; p < count; ++p) {
    if (test_bit(row, vars[p])) xor_words(row, pivots + p * stride, stride);
  }
}

// Four-Russians grouping (M4RI; Albrecht, Bard and Hart, ACM TOMS 2010):
// every kGroup consecutive pivots form a group. Once a group's rows are
// final, a table holds all 2^kGroup combinations of them, and a later row
// clears the group's pivot columns with one table row instead of up to
// kGroup pivot rows.
constexpr std::size_t kGroup = 8;
constexpr std::size_t kTableRows = std::size_t{1} << kGroup;

/// Fills `table` with kTableRows rows of `stride` words from one group's
/// final rows, `stride` words apart, with pivot columns vars[0..kGroup):
/// entry b is the one combination of them whose bits at those columns read
/// b. The unit entries are the group in reduced echelon form.
void fill_table(std::vector<std::uint64_t>& table, const std::uint64_t* rows,
                std::size_t stride, const std::uint32_t* vars) {
  table.resize(kTableRows * stride);
  const auto entry = [&](std::size_t b) { return &table[b * stride]; };
  std::fill(entry(0), entry(0) + stride, 0);
  // Row t is zero on the earlier pivots' columns already; clear the later
  // ones, last row first.
  for (std::size_t t = kGroup; t-- > 0;) {
    std::uint64_t* unit = entry(std::size_t{1} << t);
    std::copy(rows + t * stride, rows + (t + 1) * stride, unit);
    for (std::size_t u = t + 1; u < kGroup; ++u) {
      if (test_bit(unit, vars[u])) {
        xor_words(unit, entry(std::size_t{1} << u), stride);
      }
    }
  }
  // In Gray-code order, entry gray(i) is entry gray(i-1) XOR the unit entry
  // of i's lowest bit.
  for (std::size_t i = 1, prev = 0; i < kTableRows; ++i) {
    const std::size_t gray = i ^ (i >> 1);
    if (!std::has_single_bit(gray)) {
      const std::uint64_t* from = entry(prev);
      std::transform(from, from + stride,
                     entry(std::size_t{1} << std::countr_zero(i)),
                     entry(gray), std::bit_xor<>());
    }
    prev = gray;
  }
}

/// Clears the group with pivot columns vars[0..kGroup) from `row` with the
/// one table entry its bits at those columns select.
void fold_group(std::uint64_t* row, const std::vector<std::uint64_t>& table,
                std::size_t stride, const std::uint32_t* vars) {
  std::size_t b = 0;
  for (std::size_t t = 0; t < kGroup; ++t) {
    b |= static_cast<std::size_t>(test_bit(row, vars[t])) << t;
  }
  if (b != 0) xor_words(row, &table[b * stride], stride);
}

}  // namespace

void InactivationPlan::clear() {
  words = 0;
  resolved.clear();
  resolved_masks.clear();
  inactive.clear();
  pivot_check.clear();
  pivot_var.clear();
  pivot_masks.clear();
}

// ---- LtDecoderCore ----

LtDecoderCore::LtDecoderCore(const LtCode& code)
    : code_(&code),
      k_(code.source_count()),
      gen_(code.distribution(), code.params().seed),
      known_(k_, 0),
      adj_(k_) {
  check_begin_.push_back(0);
}

LtDecoderCore::AddResult LtDecoderCore::insert(std::uint32_t index) {
  AddResult r;
  if (complete()) return r;
  if (!seen_.insert(index).second) return r;  // duplicate
  r.new_index = true;
  ++distinct_;

  gen_.generate(index, nbrs_);
  std::uint32_t unknown = 0;
  for (const auto n : nbrs_) unknown += known_[n] == 0 ? 1U : 0U;
  if (unknown == 0) return r;  // redundant: every neighbor already known

  const auto c = static_cast<std::uint32_t>(unknown_count_.size());
  nbr_.insert(nbr_.end(), nbrs_.begin(), nbrs_.end());
  check_begin_.push_back(static_cast<std::uint32_t>(nbr_.size()));
  unknown_count_.push_back(unknown);
  for (const auto n : nbrs_) {
    if (known_[n] == 0) adj_[n].push_back(c);
  }
  if (unknown == 1) fire_.push_back(c);
  r.check = c;
  return r;
}

void LtDecoderCore::propagate(std::vector<PeelEvent>& events) {
  while (!fire_.empty()) {
    const auto c = fire_.back();
    fire_.pop_back();
    if (unknown_count_[c] != 1) continue;  // stale queue entry
    std::uint32_t s = 0;
    for (const auto n : check_neighbors(c)) {
      if (known_[n] == 0) {
        s = n;
        break;
      }
    }
    known_[s] = 1;
    ++known_count_;
    ++peeled_;
    events.push_back({c, s});
    // c itself sits in adj_[s], so this loop also retires c to zero.
    for (const auto c2 : adj_[s]) {
      if (--unknown_count_[c2] == 1) fire_.push_back(c2);
    }
    adj_[s].clear();
  }
}

bool LtDecoderCore::should_attempt() const {
  if (complete() || distinct_ < k_) return false;
  return distinct_ - distinct_at_attempt_ >= last_deficit_;
}

bool LtDecoderCore::try_inactivation() {
  if (!plan_open_) {
    ++plans_;
    return plan_from_scratch();
  }
  // The open plan stays valid across peels: every stored check is a true
  // equation, and new ones are expressed in the plan-time state.
  ++extensions_;
  const std::size_t checks = unknown_count_.size();
  for (auto c = static_cast<std::uint32_t>(plan_checks_);
       c < checks && plan_.pivot_var.size() < plan_.inactive.size(); ++c) {
    eliminate(c);
  }
  plan_checks_ = checks;
  return settle();
}

bool LtDecoderCore::plan_from_scratch() {
  plan_.clear();
  const std::size_t checks = unknown_count_.size();
  const std::size_t unknowns = k_ - known_count_;

  // Residual degree per unknown source (count of residual checks covering
  // it). plan_pos_ doubles as the rd[] scratch here; it is overwritten with
  // resolution ordinals once the candidate order is fixed.
  plan_pos_.assign(k_, 0);
  std::size_t residual_checks = 0;
  for (std::uint32_t c = 0; c < checks; ++c) {
    if (unknown_count_[c] < 2) continue;
    ++residual_checks;
    for (const auto n : check_neighbors(c)) {
      if (known_[n] == 0) ++plan_pos_[n];
    }
  }

  // A source no residual check covers is unreachable: the system misses at
  // least one independent equation per uncovered source, and a new symbol
  // raises the rank by at most one — fail without touching any masks.
  std::size_t uncovered = 0;
  plan_order_.clear();
  for (std::uint32_t s = 0; s < k_; ++s) {
    if (known_[s] != 0) continue;
    if (plan_pos_[s] == 0) {
      ++uncovered;
    } else {
      plan_order_.push_back(s);
    }
  }
  if (uncovered > 0) return fail(uncovered);

  // Counting fast-fail, before any re-peel work: the re-peel below resolves
  // or inactivates every unknown and spends one residual check per
  // resolution, so (inactivated - equations left) = unknowns - residual
  // checks, and the rank is at most the number of equations.
  if (residual_checks < unknowns) return fail(unknowns - residual_checks);

  // Inactivation candidates: highest residual degree first (removing a
  // high-degree source unlocks the most checks), source id as the
  // deterministic tie-break via stable sort over the ascending-id list.
  std::stable_sort(plan_order_.begin(), plan_order_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return plan_pos_[a] > plan_pos_[b];
                   });

  // Symbolic re-peel: run the ripple on a copy of the unknown counts; every
  // time it dies, inactivate the next candidate and continue with it counted
  // as known. Each pop defines exactly one source in triangular order.
  plan_ucnt_.assign(unknown_count_.begin(), unknown_count_.end());
  plan_state_.assign(k_, kKnown);
  plan_used_.assign(checks, 0);
  plan_fire_.clear();
  std::size_t remaining = unknowns;
  std::size_t cand = 0;
  while (remaining > 0) {
    if (plan_fire_.empty()) {
      while (plan_state_[plan_order_[cand]] != kKnown) ++cand;
      const auto s = plan_order_[cand];
      plan_state_[s] = kInactive;
      plan_.inactive.push_back(s);
      --remaining;
      for (const auto c2 : adj_[s]) {
        if (--plan_ucnt_[c2] == 1) plan_fire_.push_back(c2);
      }
    } else {
      const auto c = plan_fire_.back();
      plan_fire_.pop_back();
      if (plan_ucnt_[c] != 1) continue;
      std::uint32_t s = 0;
      bool found = false;
      for (const auto n : check_neighbors(c)) {
        if (known_[n] == 0 && plan_state_[n] == kKnown) {
          s = n;
          found = true;
          break;
        }
      }
      assert(found && "defining check lost its active member");
      if (!found) continue;
      plan_state_[s] = kResolved;
      plan_used_[c] = 1;
      plan_.resolved.push_back({c, s});
      --remaining;
      for (const auto c2 : adj_[s]) {
        if (--plan_ucnt_[c2] == 1) plan_fire_.push_back(c2);
      }
    }
  }

  const std::size_t ninact = plan_.inactive.size();
  const std::size_t words = (ninact + 63) / 64;
  plan_.words = words;
  for (std::size_t j = 0; j < plan_.resolved.size(); ++j) {
    plan_pos_[plan_.resolved[j].source] = static_cast<std::uint32_t>(j);
  }
  for (std::size_t b = 0; b < ninact; ++b) {
    plan_pos_[plan_.inactive[b]] = static_cast<std::uint32_t>(b);
  }

  // Express every resolved source as a combination over the inactive set:
  // its defining check's other members are known (constants), inactive (unit
  // bit) or resolved earlier (their masks — already built, triangular
  // order). The source itself adds its own row, still zero while it is
  // built in the scratch row.
  plan_.resolved_masks.assign(plan_.resolved.size() * words, 0);
  for (std::size_t j = 0; j < plan_.resolved.size(); ++j) {
    plan_row_.assign(words, 0);
    plan_mask(plan_.resolved[j].check, plan_row_.data());
    std::copy(plan_row_.begin(), plan_row_.end(),
              plan_.resolved_masks.data() + j * words);
  }

  // Grouped GE over the unused residual checks, accept-as-you-go in check
  // order; the file comment in decoder.hpp says why the plan matches a
  // one-pivot-at-a-time pass. A row meets the open group's pivots one by
  // one; when kGroup pivots are accepted the group closes, and its table
  // clears it from every later row in one fold. The plan stays open for
  // extension should it fall short.
  plan_cand_.clear();
  for (std::uint32_t c = 0; c < checks; ++c) {
    if (unknown_count_[c] >= 2 && plan_used_[c] == 0) plan_cand_.push_back(c);
  }
  const std::size_t ncand = plan_cand_.size();
  plan_rows_.assign(ncand * words, 0);
  for (std::size_t i = 0; i < ncand; ++i) {
    plan_mask(plan_cand_[i], plan_rows_.data() + i * words);
  }
  plan_.pivot_masks.reserve(ninact * words);
  std::size_t group = 0;  // first pivot of the open group
  for (std::size_t i = 0; i < ncand && plan_.pivot_var.size() < ninact; ++i) {
    std::uint64_t* row = plan_rows_.data() + i * words;
    reduce(row, plan_.pivot_masks.data() + group * words, words,
           plan_.pivot_var.data() + group, plan_.pivot_var.size() - group);
    if (!accept(plan_cand_[i], row) ||
        plan_.pivot_var.size() - group < kGroup) {
      continue;
    }
    const std::uint32_t* vars = plan_.pivot_var.data() + group;
    fill_table(plan_table_, plan_.pivot_masks.data() + group * words, words,
               vars);
    for (std::size_t r = i + 1; r < ncand; ++r) {
      fold_group(plan_rows_.data() + r * words, plan_table_, words, vars);
    }
    group += kGroup;
  }
  plan_open_ = true;
  plan_checks_ = checks;
  return settle();
}

void LtDecoderCore::plan_mask(std::uint32_t check, std::uint64_t* mask) {
  const std::size_t words = plan_.words;
  mask_gather_.clear();
  for (const auto n : check_neighbors(check)) {
    if (plan_state_[n] == kInactive) {
      flip_bit(mask, plan_pos_[n]);
    } else if (plan_state_[n] == kResolved) {
      mask_gather_.push_back(reinterpret_cast<const std::uint8_t*>(
          plan_.resolved_masks.data() + plan_pos_[n] * words));
    }
  }
  kern::xor_block_rows(reinterpret_cast<std::uint8_t*>(mask),
                       mask_gather_.data(), mask_gather_.size(),
                       words * sizeof(std::uint64_t));
}

void LtDecoderCore::eliminate(std::uint32_t check) {
  plan_row_.assign(plan_.words, 0);
  plan_mask(check, plan_row_.data());
  reduce(plan_row_.data(), plan_.pivot_masks.data(), plan_.words,
         plan_.pivot_var.data(), plan_.pivot_var.size());
  accept(check, plan_row_.data());
}

bool LtDecoderCore::accept(std::uint32_t check, const std::uint64_t* row) {
  const auto var = lowest_bit(row, plan_.words);
  if (var < 0) return false;  // dependent equation
  plan_.pivot_check.push_back(check);
  plan_.pivot_var.push_back(static_cast<std::uint32_t>(var));
  plan_.pivot_masks.insert(plan_.pivot_masks.end(), row, row + plan_.words);
  return true;
}

bool LtDecoderCore::settle() {
  const std::size_t ninact = plan_.inactive.size();
  const std::size_t rank = plan_.pivot_var.size();
  if (rank < ninact) return fail(ninact - rank);
  inactivated_ += ninact;
  last_deficit_ = 0;
  distinct_at_attempt_ = distinct_;
  return true;
}

bool LtDecoderCore::fail(std::size_t deficit) {
  last_deficit_ = std::max<std::size_t>(deficit, 1);
  distinct_at_attempt_ = distinct_;
  return false;
}

void LtDecoderCore::finish_plan() {
  std::fill(known_.begin(), known_.end(), static_cast<std::uint8_t>(1));
  known_count_ = k_;
  for (auto& a : adj_) a.clear();
  fire_.clear();
  plan_open_ = false;
}

void LtDecoderCore::reset() {
  seen_.clear();
  distinct_ = 0;
  nbr_.clear();
  check_begin_.clear();
  check_begin_.push_back(0);
  unknown_count_.clear();
  std::fill(known_.begin(), known_.end(), static_cast<std::uint8_t>(0));
  for (auto& a : adj_) a.clear();
  fire_.clear();
  known_count_ = 0;
  last_deficit_ = 0;
  distinct_at_attempt_ = 0;
  plans_ = 0;
  extensions_ = 0;
  inactivated_ = 0;
  peeled_ = 0;
  plan_.clear();
  plan_open_ = false;
  plan_checks_ = 0;
}

bool LtDecoderCore::add_index(std::uint32_t index) {
  if (complete()) return true;
  if (insert(index).check >= 0) {
    events_.clear();
    propagate(events_);
  }
  if (should_attempt() && try_inactivation()) finish_plan();
  return complete();
}

// ---- LtDataDecoder ----

LtDataDecoder::LtDataDecoder(const LtCode& code)
    : core_(code),
      symbol_size_(code.symbol_size()),
      nodes_(code.source_count(), code.symbol_size()),
      // About 1 MiB of rows per chunk.
      chunk_shift_(static_cast<unsigned>(std::countr_zero(std::bit_floor(
          std::max<std::size_t>(1, (std::size_t{1} << 20) / symbol_size_))))) {}

void LtDataDecoder::store_payload(std::uint32_t check,
                                  util::ConstByteSpan data) {
  while (payload_.size() <= check >> chunk_shift_) {
    payload_.push_back(std::make_unique_for_overwrite<std::uint8_t[]>(
        symbol_size_ << chunk_shift_));
  }
  std::memcpy(payload_row(check), data.data(), symbol_size_);
}

void LtDataDecoder::fold(const std::vector<PeelEvent>& events,
                         bool skip_inactive) {
  // Events arrive in triangular order, so every member folded in already
  // holds its value when its fold runs; one cache-blocked multi-row pass per
  // source.
  for (const auto& [c, s] : events) {
    auto dst = nodes_.row(s);
    std::memcpy(dst.data(), payload_row(c), symbol_size_);
    gather_.clear();
    for (const auto n : core_.check_neighbors(c)) {
      if (n == s || (skip_inactive && core_.plan_inactive(n))) continue;
      gather_.push_back(nodes_.row(n).data());
    }
    kern::xor_block_rows(dst.data(), gather_.data(), gather_.size(),
                         symbol_size_);
  }
}

void LtDataDecoder::apply_plan() {
  // Every member is classified by the plan's marks alone: a source peeled
  // after the plan was made is still treated by its plan-time role.
  const InactivationPlan& plan = core_.plan();
  const std::size_t words = plan.words;
  const std::size_t np = plan.pivot_var.size();

  // 1. Partial values for resolved sources, triangular order: B(s) = defining
  // check payload XOR known/earlier-resolved members (inactive skipped).
  // nodes_.row(s) holds B(s) until step 4.
  fold(plan.resolved, /*skip_inactive=*/true);

  // 2. Dense-system right-hand sides. Row j is pivot j's equation: its
  // plan-time mask, then its payload with every non-inactive member folded
  // in (final value or B row). The rows replay the planner's groups: each
  // group's rows are finished one by one against its earlier pivots, then
  // one table entry of mask and payload clears the group from each later
  // row.
  const std::size_t stride = words + (symbol_size_ + 7) / 8;
  const auto equation = [&](std::size_t j) {
    return rows_.data() + j * stride;
  };
  const auto rhs = [&](std::size_t j) {
    return reinterpret_cast<std::uint8_t*>(equation(j) + words);
  };
  rows_.assign(np * stride, 0);
  for (std::size_t j = 0; j < np; ++j) {
    const auto c = plan.pivot_check[j];
    core_.plan_mask(c, equation(j));
    std::memcpy(rhs(j), payload_row(c), symbol_size_);
    gather_.clear();
    for (const auto n : core_.check_neighbors(c)) {
      if (!core_.plan_inactive(n)) gather_.push_back(nodes_.row(n).data());
    }
    kern::xor_block_rows(rhs(j), gather_.data(), gather_.size(),
                         symbol_size_);
  }
  for (std::size_t first = 0; first < np; first += kGroup) {
    const std::size_t end = std::min(first + kGroup, np);
    const std::uint32_t* vars = plan.pivot_var.data() + first;
    for (std::size_t j = first; j < end; ++j) {
      reduce(equation(j), equation(first), stride, vars, j - first);
      assert(std::equal(equation(j), equation(j) + words,
                        plan.pivot_masks.begin() + j * words) &&
             "payload elimination diverged from the structural plan");
    }
    if (end == np) break;
    fill_table(table_, equation(first), stride, vars);
    for (std::size_t j = end; j < np; ++j) {
      fold_group(equation(j), table_, stride, vars);
    }
  }

  // 3. Back-substitution, reverse acceptance order: every non-pivot bit of a
  // reduced row belongs to a later pivot, already solved when we get there.
  for (std::size_t j = np; j-- > 0;) {
    const auto* row = plan.pivot_masks.data() + j * words;
    gather_.clear();
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t bits = row[w];
      while (bits != 0) {
        const auto b =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (b == plan.pivot_var[j]) continue;
        gather_.push_back(nodes_.row(plan.inactive[b]).data());
      }
    }
    kern::xor_block_rows(rhs(j), gather_.data(), gather_.size(),
                         symbol_size_);
    std::memcpy(nodes_.row(plan.inactive[plan.pivot_var[j]]).data(), rhs(j),
                symbol_size_);
  }

  // 4. Second triangular pass through the sparse defining checks: every
  // other member of a resolved source's check is known, inactive (solved in
  // step 3) or resolved earlier in this pass.
  fold(plan.resolved, /*skip_inactive=*/false);
}

bool LtDataDecoder::add_symbol(std::uint32_t index, util::ConstByteSpan data) {
  if (data.size() != symbol_size_) {
    throw std::invalid_argument("LtDataDecoder: wrong symbol size");
  }
  if (core_.complete()) return true;
  const auto r = core_.insert(index);
  if (r.check >= 0) {
    store_payload(static_cast<std::uint32_t>(r.check), data);
    events_.clear();
    core_.propagate(events_);
    fold(events_, /*skip_inactive=*/false);
  }
  if (!core_.complete() && core_.should_attempt() &&
      core_.try_inactivation()) {
    apply_plan();
    core_.finish_plan();
  }
  return core_.complete();
}

void LtDataDecoder::reset() { core_.reset(); }

}  // namespace fountain::lt
