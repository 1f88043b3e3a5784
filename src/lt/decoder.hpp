// LT decoding: belief-propagation peeling with an inactivation fallback.
//
// Phase 1 — peeling (the BP workhorse, same process as Tornado rule (a)):
// every received symbol is a check node over its derived neighbor set; a
// check with exactly one unknown neighbor recovers it, newly known sources
// decrement their other checks, and the ripple runs until the queue drains.
//
// Phase 2 — inactivation (the ML closer): when peeling stalls with at least
// k distinct symbols in hand, the residual graph is re-peeled *symbolically*:
// whenever the ripple dies, one unknown source is "inactivated" (treated as
// a free variable) and peeling continues with inactivated sources counted as
// known. Every remaining unknown is thereby resolved into (defining check)
// XOR (a sparse GF(2) combination of the inactivated set), and each leftover
// residual check yields one dense equation over just the inactivated
// variables. A Gaussian elimination over those (typically a few dozen to a
// few thousand variables — never the k x k system) decides solvability. It
// runs in groups of eight pivots (the Method of Four Russians): a candidate
// row meets the open group's pivots one by one, and each time eight are
// accepted their 256 combinations fill a table, from which every later row
// XORs the one entry its bits at the group's pivot columns select. A row
// reduced against pivots 0..r-1 is the only row of its coset that is zero on
// all r pivot columns, so the pivots, their order and their masks are the
// ones a pass meeting every pivot one by one would accept.
//
// Open plan: an elimination that falls short of full rank keeps its
// triangularization. The next due attempt only reduces the checks stored
// since, each expressed in the plan-time state (a source known at plan time
// is a constant, a resolved one contributes its mask, an inactive one its
// bit), against the existing pivots. Every stored check is a true equation,
// so peels between attempts never invalidate the plan; a full re-plan
// happens only when no plan is open (before the first elimination-level
// failure, or after finish_plan()/reset()).
//
// Planning and extension are purely structural (bitmask arithmetic, zero
// payload bytes touched), so a failed attempt costs no symbol work. The
// attempt schedule is rank-driven: after a failure with rank deficit d, the
// next attempt waits for d more distinct symbols — each new symbol raises
// the system rank by at most one, so no skipped arrival could have
// succeeded, and success means the received system has rank k: the decoder
// is exact maximum-likelihood and completes on the first arrival that makes
// the file decodable, whatever order the elimination takes.
//
// On success the data decoder replays the plan over payloads with the
// cache-blocked kern:: row folds: partial values of the resolved sources
// (their defining checks without the inactive members), the dense
// elimination over the inactivated rows, then a second triangular pass that
// back-substitutes each resolved source through its sparse defining check —
// never through its dense inactive-set mask. The dense elimination replays
// the same groups over rows that carry a payload after their mask: a group's
// rows are finished one by one, then a table of their mask-and-payload
// combinations clears the group from every later row. By the coset argument
// above the payloads are byte-identical to a one-pivot-at-a-time replay.
//
// Both decoders share LtDecoderCore, the index-level machinery, which owns
// the plan; decodability depends only on which indices arrived, so the
// structural decoder *is* the core (its add_index runs insert, the ripple
// and the attempt schedule) and the two agree on the completion packet by
// construction. Decoders are pooled: reset() returns every container to
// size zero while keeping capacity, per the engine sink-pooling contract.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "fec/erasure_code.hpp"
#include "lt/lt_code.hpp"
#include "util/symbols.hpp"

namespace fountain::lt {

/// One peeling resolution: `check`'s last unknown neighbor was `source`.
struct PeelEvent {
  std::uint32_t check;
  std::uint32_t source;
};

/// A structural inactivation plan. Masks are bit vectors over the
/// inactivated set, `words` 64-bit words wide, flattened row-major (row r =
/// [r * words, (r+1) * words)).
struct InactivationPlan {
  std::size_t words = 0;
  /// Triangular resolution order: source + its defining check.
  std::vector<PeelEvent> resolved;
  /// Per resolved entry: its value's inactive-set combination.
  std::vector<std::uint64_t> resolved_masks;
  /// Inactivated source ids; bit b of any mask refers to inactive[b].
  std::vector<std::uint32_t> inactive;
  /// Accepted pivot rows of the dense GF(2) system, in acceptance order:
  /// equation check id, pivot variable (bit position), and the row's mask
  /// reduced against all earlier pivots.
  std::vector<std::uint32_t> pivot_check;
  std::vector<std::uint32_t> pivot_var;
  std::vector<std::uint64_t> pivot_masks;

  void clear();
};

/// Index-level LT decoding state shared by both decoders; as a
/// fec::StructuralDecoder it is the index-only one.
class LtDecoderCore final : public fec::StructuralDecoder {
 public:
  explicit LtDecoderCore(const LtCode& code);

  /// insert(), the ripple, then an inactivation attempt when one is due.
  bool add_index(std::uint32_t index) override;

  struct AddResult {
    bool new_index = false;   // false: duplicate (or already complete)
    std::int64_t check = -1;  // stored check id; -1 if redundant/duplicate
  };

  /// Registers `index`: duplicate detection, neighbor derivation, check
  /// storage. Does NOT run the ripple — callers copy the payload for the
  /// returned check id first, then call propagate() (two-phase so the data
  /// decoder's payload row exists before events referencing it fire).
  AddResult insert(std::uint32_t index);

  /// Runs the peeling ripple; appends one PeelEvent per recovered source.
  void propagate(std::vector<PeelEvent>& events);

  bool complete() const override { return known_count_ == k_; }
  std::size_t distinct() const { return distinct_; }
  bool known(std::uint32_t source) const { return known_[source] != 0; }

  /// Neighbor list of a stored check (derivation order, all neighbors
  /// including ones known at arrival).
  std::span<const std::uint32_t> check_neighbors(std::uint32_t check) const {
    return {nbr_.data() + check_begin_[check],
            check_begin_[check + 1] - check_begin_[check]};
  }

  /// True when an inactivation attempt is due: peeling stalled short of
  /// completion, at least k distinct symbols in hand, and enough new
  /// symbols have arrived to cover the previous attempt's rank deficit.
  bool should_attempt() const;

  /// Runs one inactivation attempt (see file comment): extends the open
  /// plan if there is one, else plans from scratch. Returns true when the
  /// received system has full rank — plan() is then complete, and the
  /// caller performs any payload work and calls finish_plan(). On false the
  /// attempt schedule is advanced and the decoding state is untouched.
  bool try_inactivation();

  /// The plan of the last attempt; complete after try_inactivation()
  /// returned true, and kept through finish_plan() until reset().
  const InactivationPlan& plan() const { return plan_; }

  /// True when `source` is in the plan's inactive set.
  bool plan_inactive(std::uint32_t source) const {
    return plan_state_[source] == kInactive;
  }

  /// XORs the plan-time mask of `check`'s equation into `mask` (plan().words
  /// wide): members known at plan time are constants, resolved members add
  /// their mask (gathered, then folded in one kern::xor_block_rows pass),
  /// inactive members their bit.
  void plan_mask(std::uint32_t check, std::uint64_t* mask);

  /// Commits a successful plan and closes it: every source becomes known.
  void finish_plan();

  void reset() override;

  // Diagnostics for tests and benches; all deterministic. Every attempt is
  // either a plan from scratch or an extension of the open plan.
  std::size_t plans() const { return plans_; }
  std::size_t extensions() const { return extensions_; }
  std::size_t inactivated() const { return inactivated_; }
  std::size_t peeled() const { return peeled_; }
  /// Bytes of the current plan's mask rows (resolved_masks + pivot_masks).
  std::size_t plan_bytes() const {
    return (plan_.resolved_masks.size() + plan_.pivot_masks.size()) *
           sizeof(std::uint64_t);
  }

 private:
  const LtCode* code_;
  std::size_t k_;
  NeighborGenerator gen_;
  std::vector<std::uint32_t> nbrs_;  // insert() scratch
  std::vector<PeelEvent> events_;    // add_index() scratch (contents unused)

  std::unordered_set<std::uint32_t> seen_;
  std::size_t distinct_ = 0;

  // Check arena: neighbor lists back to back; check c's span is
  // [check_begin_[c], check_begin_[c+1]). unknown_count_[c] counts its
  // currently unknown neighbors.
  std::vector<std::uint32_t> nbr_;
  std::vector<std::uint32_t> check_begin_;  // size = checks + 1
  std::vector<std::uint32_t> unknown_count_;

  std::vector<std::uint8_t> known_;                 // per source
  std::vector<std::vector<std::uint32_t>> adj_;     // source -> check ids
  std::vector<std::uint32_t> fire_;                 // ripple queue
  std::size_t known_count_ = 0;

  // Attempt schedule (rank-driven, see file comment).
  std::size_t last_deficit_ = 0;
  std::size_t distinct_at_attempt_ = 0;
  std::size_t plans_ = 0;
  std::size_t extensions_ = 0;
  std::size_t inactivated_ = 0;
  std::size_t peeled_ = 0;

  // The plan; open (extended by the next attempt) after an elimination that
  // fell short of full rank. Checks below plan_checks_ have been reduced.
  InactivationPlan plan_;
  bool plan_open_ = false;
  std::size_t plan_checks_ = 0;

  // Plan-time role per source: known (a constant), resolved or inactive.
  // During the symbolic re-peel kKnown on an unknown source means active.
  static constexpr std::uint8_t kKnown = 0;
  static constexpr std::uint8_t kResolved = 1;
  static constexpr std::uint8_t kInactive = 2;

  // Planning state, pooled across attempts.
  std::vector<std::uint32_t> plan_ucnt_;
  std::vector<std::uint8_t> plan_state_;  // per source: a role above
  std::vector<std::uint32_t> plan_pos_;   // resolved/inactive ordinal
  std::vector<std::uint32_t> plan_order_; // inactivation candidate order
  std::vector<std::uint32_t> plan_fire_;
  std::vector<std::uint8_t> plan_used_;   // per check: defining check flag
  std::vector<std::uint64_t> plan_row_;   // one equation row
  std::vector<const std::uint8_t*> mask_gather_;  // plan_mask() scratch
  // The grouped elimination of plan_from_scratch(): candidate check ids,
  // their rows, and the table of the last closed group.
  std::vector<std::uint32_t> plan_cand_;
  std::vector<std::uint64_t> plan_rows_;
  std::vector<std::uint64_t> plan_table_;

  bool plan_from_scratch();
  /// Reduces `check`'s plan-time row against every pivot one by one and
  /// accepts it if independent (extensions of an open plan).
  void eliminate(std::uint32_t check);
  /// Accepts `check`'s reduced row as a new pivot unless it is zero.
  bool accept(std::uint32_t check, const std::uint64_t* row);
  /// Ends an attempt: true at full rank, else fail(rank deficit).
  bool settle();
  /// Schedules the next attempt `deficit` distinct symbols on; false.
  bool fail(std::size_t deficit);
};

class LtDataDecoder final : public fec::IncrementalDecoder {
 public:
  explicit LtDataDecoder(const LtCode& code);

  bool add_symbol(std::uint32_t index, util::ConstByteSpan data) override;
  bool complete() const override { return core_.complete(); }
  void reset() override;
  util::ConstSymbolView source() const override {
    return util::ConstSymbolView(nodes_.data(), nodes_.rows(),
                                 nodes_.symbol_size());
  }

  const LtDecoderCore& core() const { return core_; }

 private:
  std::uint8_t* payload_row(std::uint32_t check) {
    return payload_[check >> chunk_shift_].get() +
           (check & ((std::uint32_t{1} << chunk_shift_) - 1)) * symbol_size_;
  }
  void store_payload(std::uint32_t check, util::ConstByteSpan data);
  /// For each event in order: value(source) = check payload XOR every other
  /// member of the check, skipping the plan's inactive members when
  /// `skip_inactive` (the partial values of apply_plan's first pass).
  void fold(const std::vector<PeelEvent>& events, bool skip_inactive);
  void apply_plan();

  LtDecoderCore core_;
  std::size_t symbol_size_;
  util::SymbolMatrix nodes_;           // k source rows (the decode target)
  // Stored check payloads, in chunks of 2^chunk_shift_ rows allocated as
  // checks arrive and kept through reset(): a stored row never moves.
  std::vector<std::unique_ptr<std::uint8_t[]>> payload_;
  unsigned chunk_shift_;
  std::vector<PeelEvent> events_;      // scratch
  std::vector<const std::uint8_t*> gather_;  // substitution-source scratch
  // apply_plan() step 2: one row per pivot (mask, then payload) and the
  // table of the last finished group.
  std::vector<std::uint64_t> rows_;
  std::vector<std::uint64_t> table_;
};

}  // namespace fountain::lt
