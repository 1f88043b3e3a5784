#include "proto/client.hpp"

#include <algorithm>
#include <stdexcept>

namespace fountain::proto {

StatisticalDataClient::StatisticalDataClient(const fec::ErasureCode& code,
                                             double /*initial_margin*/,
                                             double /*step*/)
    : code_(code),
      have_(code.encoded_count(), 0),
      decoder_(code.make_decoder()) {}

void StatisticalDataClient::reset() {
  std::fill(have_.begin(), have_.end(), 0);
  decoder_->reset();
  distinct_ = 0;
  rejected_ = 0;
  duplicates_ = 0;
  complete_ = false;
}

bool StatisticalDataClient::on_packet(std::uint32_t index,
                                      util::ConstByteSpan payload) {
  if (complete_) return true;
  if (index >= code_.encoded_count() ||
      payload.size() != code_.symbol_size()) {
    ++rejected_;  // adversarial or mismatched sender: drop, never decode
    return false;
  }
  if (have_[index]) {
    ++duplicates_;
    return false;
  }
  have_[index] = 1;
  ++distinct_;
  complete_ = decoder_->add_symbol(index, payload);
  return complete_;
}

util::ConstSymbolView StatisticalDataClient::source() const {
  if (!complete_) {
    throw std::logic_error("StatisticalDataClient: not complete");
  }
  return decoder_->source();
}

}  // namespace fountain::proto
