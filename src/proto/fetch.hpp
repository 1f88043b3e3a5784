// The retrying control channel. Section 7.3's client begins with one UDP
// unicast request for the ControlInfo; a single lost datagram there would
// stall the whole transfer before the fountain even starts. fetch_control
// hardens that first step: bounded retries per mirror with exponential
// backoff and seeded jitter, then failover down a mirror list — the paper's
// mirrored-server story ("symbols from any sender are interchangeable")
// applied to the one message that is NOT interchangeable loss-tolerant.
//
// The transport is injected as a function, so the same loop runs over a real
// UdpSocket (examples/udp_fountain), over an in-memory fake in unit tests,
// and the sleeper is injectable so tests assert the exact backoff schedule
// without waiting wall-clock time. All jitter derives from FetchPolicy::seed:
// two identically-seeded fetches issue identical request schedules.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "proto/control.hpp"

namespace fountain::proto {

struct FetchPolicy {
  /// Requests sent to one mirror before failing over to the next.
  std::size_t attempts_per_mirror = 3;
  /// Timeout of the first attempt at each mirror; doubles (times
  /// backoff_multiplier) per retry, capped at max_backoff. The same value is
  /// the base of the sleep before that retry.
  std::chrono::milliseconds initial_timeout{200};
  double backoff_multiplier = 2.0;
  /// Retry sleeps are scaled by a uniform factor in [1 - jitter, 1 + jitter]
  /// so a thundering herd of restarting clients decorrelates; 0 <= jitter
  /// <= 1, so no sleep is negative.
  double jitter = 0.1;
  std::chrono::milliseconds max_backoff{2000};
  /// Drives the jitter draws; identical seeds replay identical schedules.
  std::uint64_t seed = 0;
};

enum class FetchStatus : std::uint8_t {
  kOk = 0,         // a mirror answered with a parseable ControlInfo
  kExhausted = 1,  // every mirror used up its attempts
};

struct FetchResult {
  FetchStatus status = FetchStatus::kExhausted;
  ControlInfo info;          // valid iff status == kOk
  std::size_t mirror = 0;    // index of the mirror that answered (kOk)
  std::size_t attempts = 0;  // total requests issued
  std::size_t retries = 0;   // repeat requests to the same mirror
  std::size_t failovers = 0; // switches to a later mirror
  /// Parse failure of the most recent reply, when a mirror answered with
  /// bytes that did not survive ControlInfo::parse (a reply that is damaged
  /// is retried exactly like one that never came).
  net::ParseError last_error = net::ParseError::kNone;

  bool ok() const { return status == FetchStatus::kOk; }
  explicit operator bool() const { return ok(); }
};

/// One control-channel request: ask `mirror` and wait up to `timeout`;
/// nullopt models a timeout or unreachable mirror.
using FetchTransport = std::function<std::optional<std::vector<std::uint8_t>>(
    std::size_t mirror, std::chrono::milliseconds timeout)>;

/// Injected sleep between retries; a null function skips sleeping (tests).
using FetchSleeper = std::function<void(std::chrono::milliseconds)>;

/// Runs the retry/failover loop over mirrors [0, mirror_count). Throws
/// std::invalid_argument on a null transport, zero mirrors, zero attempts,
/// backoff_multiplier < 1, or jitter outside [0, 1]; never throws afterwards.
FetchResult fetch_control(const FetchTransport& transport,
                          std::size_t mirror_count, const FetchPolicy& policy,
                          const FetchSleeper& sleeper = {});

}  // namespace fountain::proto
