// Shared test shorthand: run one receiver against one carousel through the
// session engine — the single-receiver primitive the deleted
// carousel::simulate_reception used to hand-roll — and the conservation laws
// every engine::ReceiverReport obeys.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <utility>

#include "carousel/carousel.hpp"
#include "engine/session.hpp"
#include "engine/sources.hpp"
#include "net/loss.hpp"

namespace fountain::engine {

/// Names every field, so a failed report == says which one differs.
inline void PrintTo(const ReceiverReport& r, std::ostream* os) {
  *os << "{completed " << r.completed << ", outcome "
      << static_cast<int>(r.outcome) << ", completed_at " << r.completed_at
      << ", addressed " << r.addressed << ", received " << r.received
      << ", distinct " << r.distinct << ", lost " << r.lost << ", rejected "
      << r.rejected << ", corrupt_rejected " << r.corrupt_rejected
      << ", duplicates_dropped " << r.duplicates_dropped
      << ", level_changes " << r.level_changes << ", final_level "
      << r.final_level << ", peak_level " << r.peak_level << "}";
}

}  // namespace fountain::engine

namespace fountain::test {

/// Joins `carousel` at tick `join` behind `loss` and listens for at most
/// `max_slots` slots (one engine tick = one carousel slot).
inline engine::ReceiverReport listen_to_carousel(
    const fec::ErasureCode& code, const carousel::Carousel& carousel,
    std::unique_ptr<net::LossModel> loss, engine::Time join,
    engine::Time max_slots) {
  engine::SessionConfig config;
  config.horizon = join + max_slots;
  engine::Session session(code, config);
  const engine::SourceId source = session.add_source(
      std::make_shared<engine::CarouselSource>(carousel, code.codec_id()));
  engine::ReceiverSpec spec;
  spec.join = join;
  const engine::ReceiverId receiver = session.add_receiver(std::move(spec));
  session.subscribe(receiver, source,
                    std::make_unique<engine::LossLink>(std::move(loss)));
  return session.run().front();
}

/// Checks the conservation laws of one report:
///  - the flag agrees with the class: completed == (outcome == kCompleted);
///  - every addressed packet was received, lost or still in flight when the
///    receiver finished, and only a kDelay verdict leaves one in flight:
///    received + lost <= addressed, with equality unless `delayed`;
///  - a received packet counts as distinct only once, and never when the
///    checksum or the codec quarantine rejected it:
///    distinct + corrupt_rejected + rejected <= received;
///  - a codec decoder completes only from at least k distinct symbols
///    (pass k = 0 when the sink is not a codec decoder).
inline void expect_conserved(const engine::ReceiverReport& rep, std::size_t k,
                             bool delayed = false) {
  EXPECT_EQ(rep.completed, rep.outcome == engine::ReceiverOutcome::kCompleted);
  if (delayed) {
    EXPECT_LE(rep.received + rep.lost, rep.addressed);
  } else {
    EXPECT_EQ(rep.received + rep.lost, rep.addressed);
  }
  EXPECT_LE(rep.distinct + rep.corrupt_rejected + rep.rejected, rep.received);
  if (rep.completed) {
    EXPECT_GE(rep.distinct, k);
  }
}

}  // namespace fountain::test
