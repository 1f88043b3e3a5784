#include "core/decoder.hpp"

#include <cstring>
#include <stdexcept>

#include "kern/kernels.hpp"

namespace fountain::core {

namespace {
// The peeler's own hook as a structural decoder: decodability needs no
// payloads.
struct IndexOnly {
  void recover(std::size_t, std::size_t) {}
  void check_value(std::size_t) {}
  void tail() {}
};
}  // namespace

TornadoPeeler::TornadoPeeler(const Cascade& cascade)
    : cascade_(cascade),
      known_(cascade.node_count(), 0),
      unknown_(cascade.tallies()),
      parity_seen_(cascade.parity_count(), 0) {
  reset();
}

template <class Hook>
void TornadoPeeler::reset(Hook& hook) {
  std::fill(known_.begin(), known_.end(), 0);
  unknown_ = cascade_.tallies();  // same size: no reallocation
  std::fill(parity_seen_.begin(), parity_seen_.end(), 0);
  work_.clear();
  known_source_ = 0;
  known_tail_ = 0;
  parity_received_ = 0;
  tail_done_ = false;
  const std::size_t k = cascade_.source_count();
  for (std::size_t c = 0; c < unknown_.size(); ++c) {
    if (unknown_[c].count == 0) {
      work_.push_back(static_cast<std::uint32_t>(k + c));
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

void TornadoPeeler::make_known(std::uint32_t node) {
  known_[node] = 1;
  const std::size_t k = cascade_.source_count();
  if (node < k) {
    ++known_source_;
  } else if (unknown_[node - k].count == 1) {
    work_.push_back(node);  // rule (a) may apply to this check now
  }
  if (node >= cascade_.tail_offset()) ++known_tail_;
  // Retire the node's edges: a check left with one unknown neighbour may
  // recover it, one left with none may recover itself.
  for (const std::uint32_t c : cascade_.checks_of(node)) {
    Cascade::Tally& t = unknown_[c - k];
    t.id_xor ^= node;
    if (--t.count <= 1) work_.push_back(c);
  }
}

template <class Hook>
void TornadoPeeler::trigger(std::uint32_t check, Hook& hook) {
  const Cascade::Tally& t = unknown_[check - cascade_.source_count()];
  if (known_[check]) {
    if (t.count != 1) return;
    // Rule (a): the XOR of the unknown ids is the one unknown neighbour.
    const std::uint32_t node = t.id_xor;
    hook.recover(node, check);
    make_known(node);
  } else if (t.count == 0) {
    hook.check_value(check);  // rule (b)
    make_known(check);
  }
}

template <class Hook>
void TornadoPeeler::process(Hook& hook) {
  while (!complete()) {
    if (!work_.empty()) {
      const std::uint32_t c = work_.back();
      work_.pop_back();
      trigger(c, hook);
      continue;
    }
    if (!tail_done_ &&
        cascade_.tail_size() - known_tail_ <= parity_received_) {
      // Rule (c), once.
      tail_done_ = true;
      if (known_tail_ == cascade_.tail_size()) continue;
      hook.tail();
      for (std::size_t i = cascade_.tail_offset(); i < cascade_.node_count();
           ++i) {
        if (!known_[i]) make_known(static_cast<std::uint32_t>(i));
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

void TornadoDataDecoder::recover(std::size_t node, std::size_t check) {
  // node = check XOR (all other neighbours, known here), in one gathered
  // multi-source pass.
  const std::size_t bytes = cascade_.symbol_size();
  auto out = nodes_.row(node);
  std::memcpy(out.data(), nodes_.row(check).data(), bytes);
  gather_.clear();
  for (const std::uint32_t n : cascade_.neighbors_of(check)) {
    if (n != node) gather_.push_back(nodes_.row(n).data());
  }
  kern::xor_block_rows(out.data(), gather_.data(), gather_.size(), bytes);
}

void TornadoDataDecoder::check_value(std::size_t check) {
  // All neighbours known; the check's own value is their XOR — copy the
  // first neighbour, fold the rest in one multi-row pass.
  const auto neighbors = cascade_.neighbors_of(check);
  auto out = nodes_.row(check);
  if (neighbors.empty()) {
    std::fill(out.begin(), out.end(), 0);
    return;
  }
  const std::size_t bytes = cascade_.symbol_size();
  std::memcpy(out.data(), nodes_.row(neighbors[0]).data(), bytes);
  gather_.clear();
  for (std::size_t i = 1; i < neighbors.size(); ++i) {
    gather_.push_back(nodes_.row(neighbors[i]).data());
  }
  kern::xor_block_rows(out.data(), gather_.data(), gather_.size(), bytes);
}

void TornadoDataDecoder::tail() {
  // Decode straight into the last-level rows of nodes_: the tail codec reads
  // only rows marked present and reconstructs the missing rows in place, so
  // no staging matrix or copy-back is needed.
  const std::size_t tail_k = cascade_.tail_size();
  const std::size_t tail_off = cascade_.tail_offset();
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
