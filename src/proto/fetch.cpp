#include "proto/fetch.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/random.hpp"

namespace fountain::proto {

FetchResult fetch_control(const FetchTransport& transport,
                          std::size_t mirror_count, const FetchPolicy& policy,
                          const FetchSleeper& sleeper) {
  if (!transport) {
    throw std::invalid_argument("fetch_control: null transport");
  }
  if (mirror_count == 0) {
    throw std::invalid_argument("fetch_control: no mirrors");
  }
  if (policy.attempts_per_mirror == 0) {
    throw std::invalid_argument("fetch_control: zero attempts per mirror");
  }
  if (policy.backoff_multiplier < 1.0) {
    throw std::invalid_argument("fetch_control: backoff multiplier < 1");
  }
  // Outside [0, 1] the sleep factor 1 + jitter (2u - 1) can go negative.
  if (!(policy.jitter >= 0.0 && policy.jitter <= 1.0)) {
    throw std::invalid_argument("fetch_control: jitter outside [0, 1]");
  }

  util::Rng rng(policy.seed);
  FetchResult result;
  for (std::size_t mirror = 0; mirror < mirror_count; ++mirror) {
    if (mirror > 0) ++result.failovers;
    // Backoff restarts per mirror: a fresh mirror deserves a fresh clock.
    auto backoff = policy.initial_timeout;
    for (std::size_t attempt = 0; attempt < policy.attempts_per_mirror;
         ++attempt) {
      if (attempt > 0) {
        ++result.retries;
        // Sleep the previous backoff, jittered; then widen the window.
        const double scale =
            1.0 + policy.jitter * (2.0 * rng.uniform() - 1.0);
        const auto delay = std::chrono::milliseconds(static_cast<long long>(
            static_cast<double>(backoff.count()) * scale));
        if (sleeper) sleeper(delay);
        backoff = std::min(
            std::chrono::milliseconds(static_cast<long long>(
                static_cast<double>(backoff.count()) *
                policy.backoff_multiplier)),
            policy.max_backoff);
      }
      ++result.attempts;
      const auto reply = transport(mirror, backoff);
      if (!reply) continue;  // timed out / unreachable: retry
      const ControlParseResult parsed =
          ControlInfo::parse(util::ConstByteSpan(*reply));
      if (!parsed) {
        result.last_error = parsed.error;  // damaged reply: retry like loss
        continue;
      }
      result.status = FetchStatus::kOk;
      result.info = parsed.info;
      result.mirror = mirror;
      result.last_error = net::ParseError::kNone;
      return result;
    }
  }
  return result;
}

}  // namespace fountain::proto
