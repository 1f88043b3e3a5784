#include "core/decoder.hpp"

#include <cstring>
#include <stdexcept>

#include "kern/kernels.hpp"

namespace fountain::core {

namespace {
// The peeler's own hook as a structural decoder: decodability needs no
// payloads.
struct IndexOnly {
  void recover(std::size_t, std::size_t, std::span<const std::uint32_t>,
               std::size_t) {}
  void check_value(std::size_t) {}
  void tail() {}
};
}  // namespace

TornadoPeeler::TornadoPeeler(const Cascade& cascade)
    : cascade_(cascade),
      known_(cascade.node_count(), 0),
      unknown_left_(cascade.node_count() - cascade.source_count(), 0),
      initial_unknown_(cascade.node_count() - cascade.source_count(), 0),
      parity_seen_(cascade.parity_count(), 0) {
  const std::size_t k = cascade_.source_count();
  for (std::size_t j = 0; j < cascade_.graph_count(); ++j) {
    const BipartiteGraph& g = cascade_.graph(j);
    const std::size_t right_off = cascade_.level_offset(j + 1);
    for (std::size_t r = 0; r < g.right_count(); ++r) {
      initial_unknown_[right_off + r - k] =
          static_cast<std::uint32_t>(g.check_neighbors(r).size());
    }
  }
  reset();
}

template <class Hook>
void TornadoPeeler::reset(Hook& hook) {
  std::fill(known_.begin(), known_.end(), 0);
  unknown_left_ = initial_unknown_;
  std::fill(parity_seen_.begin(), parity_seen_.end(), 0);
  pending_.clear();
  dirty_checks_.clear();
  known_source_ = 0;
  known_tail_ = 0;
  parity_received_ = 0;
  tail_done_ = false;
  const std::size_t k = cascade_.source_count();
  for (std::size_t g = k; g < cascade_.node_count(); ++g) {
    if (initial_unknown_[g - k] == 0) {
      dirty_checks_.push_back(static_cast<std::uint32_t>(g));
    }
  }
  process(hook);
}

bool TornadoPeeler::receive(std::uint32_t index) {
  if (index < cascade_.node_count()) {
    if (known_[index]) return false;
    make_known(index);
    return true;
  }
  const std::size_t p = index - cascade_.node_count();
  if (parity_seen_[p]) return false;
  parity_seen_[p] = 1;
  ++parity_received_;
  return true;
}

void TornadoPeeler::make_known(std::size_t node) {
  known_[node] = 1;
  const std::size_t level = cascade_.level_of(node);
  if (node < cascade_.source_count()) ++known_source_;
  if (level >= 1) {
    // Rule (a) may already apply to this check (its value just arrived while
    // all but one neighbour were known).
    dirty_checks_.push_back(static_cast<std::uint32_t>(node));
  }
  if (level + 1 == cascade_.level_count()) ++known_tail_;
  pending_.push_back(static_cast<std::uint32_t>(node));
}

template <class Hook>
void TornadoPeeler::trigger(std::size_t g, Hook& hook) {
  const std::size_t slot = g - cascade_.source_count();
  if (known_[g]) {
    if (unknown_left_[slot] != 1) return;
    // Rule (a): exactly one neighbour is still unprocessed. If it is truly
    // unknown, recover it; if it is merely queued (already known), the check
    // carries no new information.
    const std::size_t level = cascade_.level_of(g);
    const std::size_t left_off = cascade_.level_offset(level - 1);
    const auto neighbors = cascade_.graph(level - 1).check_neighbors(
        g - cascade_.level_offset(level));
    for (const std::uint32_t l : neighbors) {
      if (!known_[left_off + l]) {
        hook.recover(left_off + l, g, neighbors, left_off);
        make_known(left_off + l);
        return;
      }
    }
  } else if (unknown_left_[slot] == 0) {
    hook.check_value(g);  // rule (b)
    make_known(g);
  }
}

template <class Hook>
void TornadoPeeler::process(Hook& hook) {
  const std::size_t k = cascade_.source_count();
  while (!complete()) {
    if (!dirty_checks_.empty()) {
      const std::uint32_t g = dirty_checks_.back();
      dirty_checks_.pop_back();
      trigger(g, hook);
      continue;
    }
    if (!pending_.empty()) {
      const std::uint32_t u = pending_.back();
      pending_.pop_back();
      const std::size_t level = cascade_.level_of(u);
      if (level < cascade_.graph_count()) {
        const BipartiteGraph& graph = cascade_.graph(level);
        const std::size_t right_off = cascade_.level_offset(level + 1);
        for (const std::uint32_t c :
             graph.left_checks(u - cascade_.level_offset(level))) {
          const std::size_t g = right_off + c;
          --unknown_left_[g - k];
          dirty_checks_.push_back(static_cast<std::uint32_t>(g));
        }
      }
      continue;
    }
    if (!tail_done_ &&
        cascade_.tail_size() - known_tail_ <= parity_received_) {
      // Rule (c), once.
      tail_done_ = true;
      const std::size_t tail_k = cascade_.tail_size();
      if (known_tail_ == tail_k) continue;
      hook.tail();
      const std::size_t tail_off =
          cascade_.level_offset(cascade_.level_count() - 1);
      for (std::size_t i = 0; i < tail_k; ++i) {
        if (!known_[tail_off + i]) make_known(tail_off + i);
      }
      continue;
    }
    break;
  }
}

void TornadoPeeler::reset() {
  IndexOnly hook;
  reset(hook);
}

bool TornadoPeeler::add_index(std::uint32_t index) {
  if (complete()) return true;
  if (index >= cascade_.encoded_count()) {
    throw std::out_of_range("TornadoPeeler: index");
  }
  if (receive(index)) {
    IndexOnly hook;
    process(hook);
  }
  return complete();
}

TornadoDataDecoder::TornadoDataDecoder(const Cascade& cascade)
    : cascade_(cascade),
      peel_(cascade),
      nodes_(cascade.node_count(), cascade.symbol_size()),
      parity_data_(cascade.parity_count(), cascade.symbol_size()) {
  // peel_ starts reset and nodes_ zeroed, which is all reset() would do:
  // the only rows it writes are degree-zero checks, whose value is zero.
}

void TornadoDataDecoder::reset() { peel_.reset(*this); }

bool TornadoDataDecoder::add_symbol(std::uint32_t index,
                                    util::ConstByteSpan data) {
  if (complete()) return true;
  if (index >= cascade_.encoded_count()) {
    throw std::out_of_range("TornadoDataDecoder: index");
  }
  if (data.size() != cascade_.symbol_size()) {
    throw std::invalid_argument("TornadoDataDecoder: payload size");
  }
  if (peel_.receive(index)) {
    const auto row = index < cascade_.node_count()
                         ? nodes_.row(index)
                         : parity_data_.row(index - cascade_.node_count());
    std::memcpy(row.data(), data.data(), data.size());
    peel_.process(*this);
  }
  return complete();
}

void TornadoDataDecoder::recover(std::size_t node, std::size_t check,
                                 std::span<const std::uint32_t> neighbors,
                                 std::size_t left_off) {
  // node = check XOR (all known neighbours), in one gathered multi-source
  // pass.
  const std::size_t bytes = cascade_.symbol_size();
  auto out = nodes_.row(node);
  std::memcpy(out.data(), nodes_.row(check).data(), bytes);
  gather_.clear();
  for (const std::uint32_t l : neighbors) {
    // Every non-target neighbour is known here (unknown_left == 1); a
    // duplicate edge to a known neighbour XORs twice and cancels, matching
    // the encoder.
    if (left_off + l != node) {
      gather_.push_back(nodes_.row(left_off + l).data());
    }
  }
  kern::xor_block_rows(out.data(), gather_.data(), gather_.size(), bytes);
}

void TornadoDataDecoder::check_value(std::size_t check) {
  // All neighbours known; the check's own value is their XOR — copy the
  // first neighbour, fold the rest in one multi-row pass.
  const std::size_t level = cascade_.level_of(check);
  const std::size_t left_off = cascade_.level_offset(level - 1);
  const auto neighbors = cascade_.graph(level - 1).check_neighbors(
      check - cascade_.level_offset(level));
  auto out = nodes_.row(check);
  if (neighbors.empty()) {
    std::fill(out.begin(), out.end(), 0);
    return;
  }
  const std::size_t bytes = cascade_.symbol_size();
  std::memcpy(out.data(), nodes_.row(left_off + neighbors[0]).data(), bytes);
  gather_.clear();
  for (std::size_t i = 1; i < neighbors.size(); ++i) {
    gather_.push_back(nodes_.row(left_off + neighbors[i]).data());
  }
  kern::xor_block_rows(out.data(), gather_.data(), gather_.size(), bytes);
}

void TornadoDataDecoder::tail() {
  // Decode straight into the last-level rows of nodes_: the tail codec reads
  // only rows marked present and reconstructs the missing rows in place, so
  // no staging matrix or copy-back is needed.
  const std::size_t tail_k = cascade_.tail_size();
  const std::size_t tail_off =
      cascade_.level_offset(cascade_.level_count() - 1);
  std::vector<bool> have(tail_k, false);
  for (std::size_t i = 0; i < tail_k; ++i) have[i] = peel_.known(tail_off + i);
  Cascade::TailCodec::Parity parity;
  parity.reserve(peel_.parity_received());
  for (std::uint32_t p = 0; p < cascade_.parity_count(); ++p) {
    if (peel_.parity_seen(p)) parity.emplace_back(p, parity_data_.row(p));
  }
  cascade_.tail().decode(nodes_.rows_view(tail_off, tail_k), have, parity);
}

}  // namespace fountain::core
