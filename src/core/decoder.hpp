// Tornado decoders. Both run one bidirectional peeling process,
// TornadoPeeler:
//
//  rule (a): a check node whose value is known and which has exactly one
//            unknown left neighbour recovers that neighbour
//            (value = check XOR known-neighbour-sum);
//  rule (b): a check node all of whose left neighbours are known recovers
//            its own value (it is itself a transmitted packet — and a left
//            node of the next cascade level);
//  rule (c): once the number of missing last-level packets is at most the
//            number of received RS parity packets, the Reed-Solomon tail
//            recovers the entire last level.
//
// The peeler holds the index-level state and fires the rules; what a firing
// does to payloads is a compile-time hook, so the rules exist once and the
// index-only path pays nothing for the payload path.
//
// TornadoDataDecoder carries real payloads (the paper's client). Its hook
// substitutes the moment a rule fires: the whole neighborhood is gathered
// into a pointer list and folded by one cache-blocked multi-row pass
// (kern::xor_block_rows — four sources per L1-resident destination tile).
// Each graph edge still costs exactly one P-byte XOR over the whole decode —
// the (k+l) ln(1/eps) P bound of Table 1 — but the destination packet is
// read from L1 ~d/4 times per degree-d check instead of making d
// round-trips, and there is no residual matrix at all (node storage is
// halved versus the incremental-residual design). The peeler is itself the
// structural decoder: its add_index runs the rules with an empty hook, on
// indices alone, and is what the receiver-population simulations use;
// decodability depends only on which indices arrived, so the two agree by
// construction.
//
// Contracts shared by both decoders: indices are the cascade's encoding
// index space [0, encoded_count()); duplicate deliveries are counted once
// and otherwise ignored, so feeding a carousel stream straight in is safe;
// and each decoder borrows (does not copy) its Cascade, which must outlive
// it — the paper's setting, where one agreed-upon graph serves a whole
// transfer.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/cascade.hpp"
#include "fec/erasure_code.hpp"
#include "util/symbols.hpp"

namespace fountain::core {

/// Rules (a)-(c) on indices: which nodes are known, how many unknown left
/// neighbours each check still has, and which parity symbols have arrived.
/// Work items are cascade node indices on two explicit stacks, so the whole
/// process is iterative — no recursion, no stack-depth hazards on long
/// recovery chains. A Hook is called before the rule marks its node known:
///   hook.recover(node, check, neighbors, left_off)  rule (a): `node` is
///       `check` XOR its other neighbours (left_off + each of `neighbors`);
///   hook.check_value(check)                          rule (b);
///   hook.tail()                                      rule (c): every
///       last-level node not yet known() is recovered.
/// The template members are defined in decoder.cpp, for the two hooks. As a
/// fec::StructuralDecoder the peeler runs the rules with the empty hook; it
/// starts reset with that hook.
class TornadoPeeler final : public fec::StructuralDecoder {
 public:
  explicit TornadoPeeler(const Cascade& cascade);

  /// Range check, receive(), then the rules with the empty hook.
  bool add_index(std::uint32_t index) override;
  bool complete() const override {
    return known_source_ == cascade_.source_count();
  }
  /// reset() with the empty hook.
  void reset() override;
  bool known(std::size_t node) const { return known_[node] != 0; }
  bool parity_seen(std::size_t p) const { return parity_seen_[p] != 0; }
  std::size_t parity_received() const { return parity_received_; }

  /// Marks encoding index `index` (in range) as arrived; false for a
  /// duplicate. The caller stores its payload, then calls process().
  bool receive(std::uint32_t index);
  /// Back to the empty state: rule (b) fires on degree-zero checks, which
  /// are the XOR of nothing.
  template <class Hook>
  void reset(Hook& hook);
  /// Fires rules until none applies or the source is complete.
  template <class Hook>
  void process(Hook& hook);

 private:
  void make_known(std::size_t node);
  template <class Hook>
  void trigger(std::size_t check, Hook& hook);

  const Cascade& cascade_;
  std::vector<std::uint8_t> known_;          // per cascade node
  std::vector<std::uint32_t> unknown_left_;  // per check node
  std::vector<std::uint32_t> initial_unknown_;
  std::vector<std::uint8_t> parity_seen_;
  std::vector<std::uint32_t> pending_;       // newly-known nodes to propagate
  std::vector<std::uint32_t> dirty_checks_;  // checks needing re-evaluation
  std::size_t known_source_ = 0;
  std::size_t known_tail_ = 0;
  std::size_t parity_received_ = 0;
  bool tail_done_ = false;
};

class TornadoDataDecoder final : public fec::IncrementalDecoder {
 public:
  explicit TornadoDataDecoder(const Cascade& cascade);

  bool add_symbol(std::uint32_t index, util::ConstByteSpan data) override;
  bool complete() const override { return peel_.complete(); }
  void reset() override;
  /// The decoded prefix of the node matrix — source rows are stored exactly
  /// once (no mirror copy); valid only when complete().
  util::ConstSymbolView source() const override {
    return nodes_.rows_view(0, cascade_.source_count());
  }

 private:
  friend class TornadoPeeler;  // calls the hook below
  void recover(std::size_t node, std::size_t check,
               std::span<const std::uint32_t> neighbors, std::size_t left_off);
  void check_value(std::size_t check);
  void tail();

  const Cascade& cascade_;
  TornadoPeeler peel_;
  util::SymbolMatrix nodes_;  // all cascade node values
  util::SymbolMatrix parity_data_;
  std::vector<const std::uint8_t*> gather_;  // substitution-source scratch
};

}  // namespace fountain::core
