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
// index-only path pays nothing for the payload path. Its work per edge is a
// constant (Luby, Mitzenmacher, Shokrollahi and Spielman, "Efficient erasure
// correcting codes", 2001): it reads the one cascade-wide adjacency
// (Cascade::checks_of, Cascade::neighbors_of), retires a node's edges the
// moment the node becomes known, keeps per check the count and the XOR of
// the ids of its unknown neighbours — so rule (a) reads its target from the
// XOR, the way a pure cell of an invertible Bloom lookup table yields its
// one key (Goodrich and Mitzenmacher, 2011) — and fires the rules from one
// work stack. Peeling is confluent: the closure of the rules over the
// received indices does not depend on the order in which they fire, so
// completion and the recovered bytes depend only on which indices arrived.
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
#include <vector>

#include "core/cascade.hpp"
#include "fec/erasure_code.hpp"
#include "util/symbols.hpp"

namespace fountain::core {

/// Rules (a)-(c) on indices: which nodes are known, and per check node how
/// many left neighbours are still unknown and the XOR of their ids. A node's
/// edges are retired the moment it becomes known — each check it feeds loses
/// one from its count and the node's id from its XOR — so a known check whose
/// count is one names its last unknown neighbour in the XOR, and rule (a)
/// needs no scan of the check's neighbours. One work stack holds the checks
/// a rule may now apply to: a check is pushed when it becomes known or its
/// count falls to one or zero, at most three times per decode, and the whole
/// process is iterative — no recursion, no stack-depth hazards on long
/// recovery chains. A Hook is called before the rule marks its node known:
///   hook.recover(node, check)  rule (a): `node` is `check` XOR its other
///                              neighbours (Cascade::neighbors_of);
///   hook.check_value(check)    rule (b);
///   hook.tail()                rule (c): every last-level node not yet
///                              known() is recovered.
/// Peeling is confluent: a rule that applies keeps applying as other nodes
/// become known, until its own target is known, so whatever order the stack
/// fires rules in, the process stops at the same closure of the received
/// indices. The decoders therefore complete on the same arrival as any
/// other peeling order, and recover the same bytes. The template members
/// are defined in decoder.cpp, for the two hooks. As a
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
  void make_known(std::uint32_t node);
  template <class Hook>
  void trigger(std::uint32_t check, Hook& hook);

  const Cascade& cascade_;
  std::vector<std::uint8_t> known_;      // per cascade node
  std::vector<Cascade::Tally> unknown_;  // per check node: unknown neighbours
  std::vector<std::uint8_t> parity_seen_;
  std::vector<std::uint32_t> work_;      // checks a rule may apply to
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
  void recover(std::size_t node, std::size_t check);
  void check_value(std::size_t check);
  void tail();

  const Cascade& cascade_;
  TornadoPeeler peel_;
  util::SymbolMatrix nodes_;  // all cascade node values
  util::SymbolMatrix parity_data_;
  std::vector<const std::uint8_t*> gather_;  // substitution-source scratch
};

}  // namespace fountain::core
