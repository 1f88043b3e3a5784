#include "engine/session.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <unordered_map>

#include "util/pool.hpp"

namespace fountain::engine {

namespace {

// Event kinds, in tie-break order at equal ticks: control before firings, so
// a receiver joining (or moving) at t hears t's packets and one leaving at t
// does not. Delayed arrivals land between the two: a fault-delayed packet
// surfacing at t was sent before t's firing, so it is heard first; equal-tick
// arrivals resolve by pending index, i.e. send order (FIFO reordering is
// deterministic).
enum : std::uint8_t { kJoin = 0, kMove = 1, kLeave = 2, kArrive = 3,
                      kFire = 4 };

struct Event {
  Time at;
  std::uint8_t kind;
  std::uint32_t a;  // member (control), source (fire), pending idx (arrive)
  std::uint32_t b;  // move index (kMove)

  friend bool operator>(const Event& lhs, const Event& rhs) {
    if (lhs.at != rhs.at) return lhs.at > rhs.at;
    if (lhs.kind != rhs.kind) return lhs.kind > rhs.kind;
    return lhs.a > rhs.a;
  }
};

using EventQueue =
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>;

// Marks `index` in a receiver's distinct bitmap; returns true if new. The
// bitmap is pre-sized to encoded_count() at join, but rateless sources
// address indices past n (their symbol space is unbounded), so it grows
// geometrically on demand — amortized O(1) per packet, and block codecs
// never trigger the growth path.
bool mark_seen(std::vector<std::uint8_t>& seen, std::uint32_t index) {
  if (index >= seen.size()) {
    std::size_t size = std::max<std::size_t>(seen.size(), 64);
    while (size <= index) size *= 2;
    seen.resize(size, 0);
  }
  if (seen[index] != 0) return false;
  seen[index] = 1;
  return true;
}

// Per-receiver state while its cohort runs: its sink, the subscription
// level, the synthetic congestion environment of the legacy adaptive knobs
// (drifting capacity + extra loss above it), and the spec's
// cc::ReceiverPolicy, if it carries one.
struct AdaptState {
  std::uint8_t active = 0;  // 0 = not yet joined, 1 = live, 2 = finished
  PacketSink* sink = nullptr;  // private or pooled, resolved at join
  unsigned level = 0;
  unsigned capacity = 0;
  unsigned max_level = 0;
  Time last_progress = 0;  // last tick the distinct count grew (stall clock)
  util::Rng rng{0};
  cc::ReceiverPolicy* controller = nullptr;  // null = fixed level
};

}  // namespace

struct Session::Slot {
  std::unique_ptr<PacketSink> sink;
  std::vector<std::uint8_t> seen;
};

Session::Session(const fec::ErasureCode& code, SessionConfig config)
    : code_(code), config_(config) {
  if (config_.cohort_size == 0) {
    throw std::invalid_argument("Session: cohort_size must be > 0");
  }
  sink_factory_ = [this] {
    return std::make_unique<StructuralSink>(code_.make_structural_decoder());
  };
}

SourceId Session::add_source(std::shared_ptr<const PacketSource> source,
                             Time start, Time period) {
  if (ran_) throw std::logic_error("Session: already run");
  if (!source) throw std::invalid_argument("Session: null source");
  if (period == 0) throw std::invalid_argument("Session: period must be > 0");
  SourceState state;
  state.codec_ok = source->codec_id() == code_.codec_id();
  state.max_level = source->layer_count() == 0 ? 0 : source->layer_count() - 1;
  state.source = std::move(source);
  state.start = start;
  state.period = period;
  sources_.push_back(std::move(state));
  return SourceId{static_cast<std::uint32_t>(sources_.size() - 1)};
}

ReceiverId Session::add_receiver(ReceiverSpec spec) {
  if (ran_) throw std::logic_error("Session: already run");
  if (spec.leave <= spec.join) {
    throw std::invalid_argument("Session: receiver must leave after joining");
  }
  for (std::size_t i = 1; i < spec.moves.size(); ++i) {
    if (spec.moves[i].at <= spec.moves[i - 1].at) {
      throw std::invalid_argument("Session: moves must be strictly ordered");
    }
  }
  receivers_.push_back(ReceiverState{std::move(spec), {}});
  return ReceiverId{static_cast<std::uint32_t>(receivers_.size() - 1)};
}

void Session::subscribe(ReceiverId receiver, SourceId source,
                        std::unique_ptr<LinkModel> link) {
  if (ran_) throw std::logic_error("Session: already run");
  if (receiver.value >= receivers_.size() || source.value >= sources_.size()) {
    throw std::out_of_range("Session: unknown receiver or source");
  }
  if (!link) throw std::invalid_argument("Session: null link");
  receivers_[receiver.value].subs.push_back(
      Subscription{source.value, std::move(link)});
}

void Session::set_sink_factory(SinkFactory factory) {
  if (ran_) throw std::logic_error("Session: already run");
  if (!factory) throw std::invalid_argument("Session: null sink factory");
  sink_factory_ = std::move(factory);
}

void Session::set_fault_script(FaultScript script) {
  if (ran_) throw std::logic_error("Session: already run");
  if (!fault_script_.empty()) {
    throw std::logic_error("Session: fault script already set");
  }
  fault_script_ = std::move(script);
}

std::unique_ptr<PacketSink> Session::make_pooled_sink() {
  // Serialized so user factories (and codec decoder constructors) never run
  // concurrently; at most one call per (worker, slot), so contention is nil.
  const std::lock_guard<std::mutex> lock(sink_factory_mutex_);
  return sink_factory_();
}

// Simulates one cohort of receivers [first, first + count) against the
// session's sources. Slots (pooled sinks + distinct bitmaps) persist across
// cohorts; everything else is rebuilt per cohort.
class Session::CohortRunner {
 public:
  CohortRunner(Session& session, std::vector<ReceiverReport>& reports,
               std::vector<Slot>& slots, std::size_t first, std::size_t count)
      : s_(session),
        reports_(reports),
        slots_(slots),
        first_(first),
        count_(count),
        adapt_(count),
        subscribers_(session.sources_.size()),
        live_subscribers_(session.sources_.size(), 0) {}

  void run();

 private:
  ReceiverState& member(std::size_t m) { return s_.receivers_[first_ + m]; }
  ReceiverReport& report(std::size_t m) { return reports_[first_ + m]; }

  void seed_events();
  void join_member(std::size_t m, Time now);
  void finish_member(std::size_t m, ReceiverOutcome outcome, Time now);
  void apply_move(std::size_t m, const ScriptedMove& mv);
  void fire_source(std::uint32_t src_idx, Time now);
  void process_batch(std::size_t m, Subscription& sub, Time now);
  /// A packet reached member m at packet.at, from its source's firing or
  /// late from a kDelay verdict: counts it received, quarantines a
  /// codec-mismatched source, marks it seen and hands it to the sink.
  /// Returns true when it completed the member.
  bool receive(std::size_t m, const Delivery& packet);
  /// Stall watchdog: finishes member m with kStalled (returning true) when
  /// its distinct count has not grown for config.stall_timeout ticks.
  bool maybe_stall(std::size_t m, Time now);
  /// Declares member m's current per-subscription offered rates to its
  /// links (shared bottlenecks aggregate them into queueing loss).
  void push_rates(std::size_t m);

  /// A packet in flight between a kDelay verdict and its kArrive event;
  /// packet.at is the arrival tick.
  struct Pending {
    std::uint32_t member = 0;
    Delivery packet;
  };

  Session& s_;
  std::vector<ReceiverReport>& reports_;
  std::vector<Slot>& slots_;
  std::size_t first_;
  std::size_t count_;
  std::vector<AdaptState> adapt_;
  // Per source: (member index, subscription index) pairs for this cohort.
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
      subscribers_;
  // Per source: cohort members subscribed to it that have not finished yet;
  // a source stops firing (and re-queueing) when this reaches zero.
  std::vector<std::uint32_t> live_subscribers_;
  EventQueue queue_;
  PacketBatch batch_;
  std::vector<Pending> pending_;  // indexed by kArrive events; append-only
  std::size_t remaining_ = 0;
};

void Session::CohortRunner::seed_events() {
  const Time horizon = s_.config_.horizon;
  Time min_join = kNever;
  for (std::size_t m = 0; m < count_; ++m) {
    const ReceiverSpec& spec = member(m).spec;
    if (spec.join >= horizon) continue;  // never activates
    ++remaining_;
    min_join = std::min(min_join, spec.join);
    queue_.push(Event{spec.join, kJoin, static_cast<std::uint32_t>(m), 0});
    if (spec.leave < horizon) {
      queue_.push(Event{spec.leave, kLeave, static_cast<std::uint32_t>(m), 0});
    }
    for (std::size_t i = 0; i < spec.moves.size(); ++i) {
      if (spec.moves[i].at < horizon) {
        queue_.push(Event{spec.moves[i].at, kMove,
                          static_cast<std::uint32_t>(m),
                          static_cast<std::uint32_t>(i)});
      }
    }
    for (std::size_t i = 0; i < member(m).subs.size(); ++i) {
      subscribers_[member(m).subs[i].source].emplace_back(
          static_cast<std::uint32_t>(m), static_cast<std::uint32_t>(i));
      ++live_subscribers_[member(m).subs[i].source];
    }
  }
  if (remaining_ == 0) return;
  // First firing a cohort member could possibly hear, per subscribed source.
  for (std::uint32_t s = 0; s < s_.sources_.size(); ++s) {
    if (subscribers_[s].empty()) continue;
    const SourceState& src = s_.sources_[s];
    std::uint64_t round = 0;
    if (min_join > src.start) {
      round = (min_join - src.start + src.period - 1) / src.period;
    }
    const Time t = src.start + round * src.period;
    if (t < horizon) queue_.push(Event{t, kFire, s, 0});
  }
}

void Session::CohortRunner::join_member(std::size_t m, Time now) {
  ReceiverSpec& spec = member(m).spec;
  AdaptState& st = adapt_[m];
  st.active = 1;
  st.level = spec.policy.initial_level;
  st.capacity = spec.policy.initial_capacity;
  st.last_progress = now;
  st.rng.reseed(spec.policy.seed);
  st.max_level = 0;
  for (const Subscription& sub : member(m).subs) {
    st.max_level = std::max(st.max_level, s_.sources_[sub.source].max_level);
  }
  st.level = std::min(st.level, st.max_level);
  st.capacity = std::min(st.capacity, st.max_level);

  st.controller = spec.controller.get();
  if (st.controller) {
    st.controller->reset(st.level, st.max_level, spec.policy.seed);
  }
  report(m).peak_level = st.level;
  push_rates(m);

  Slot& slot = slots_[m];
  if (spec.sink) {
    st.sink = spec.sink.get();
  } else {
    if (!slot.sink) slot.sink = s_.make_pooled_sink();
    slot.sink->reset();
    st.sink = slot.sink.get();
  }
  slot.seen.assign(s_.code_.encoded_count(), 0);
}

void Session::CohortRunner::push_rates(std::size_t m) {
  const AdaptState& st = adapt_[m];
  for (Subscription& sub : member(m).subs) {
    const SourceState& src = s_.sources_[sub.source];
    const unsigned level = std::min(st.level, src.max_level);
    sub.link->set_subscriber_rate(src.source->subscribed_rate(level) /
                                  static_cast<double>(src.period));
  }
}

void Session::CohortRunner::finish_member(std::size_t m,
                                          ReceiverOutcome outcome, Time now) {
  AdaptState& st = adapt_[m];
  st.active = 2;
  ReceiverReport& rep = report(m);
  rep.outcome = outcome;
  rep.completed = outcome == ReceiverOutcome::kCompleted;
  if (rep.completed) rep.completed_at = now;
  rep.final_level = st.level;
  for (Subscription& sub : member(m).subs) {
    --live_subscribers_[sub.source];
    sub.link->set_subscriber_rate(0.0);  // stop loading shared bottlenecks
  }
  --remaining_;
}

void Session::CohortRunner::apply_move(std::size_t m, const ScriptedMove& mv) {
  AdaptState& st = adapt_[m];
  const unsigned level = std::min(mv.level, st.max_level);
  if (level != st.level) {
    st.level = level;
    ReceiverReport& rep = report(m);
    ++rep.level_changes;
    rep.peak_level = std::max(rep.peak_level, st.level);
    if (st.controller) st.controller->on_forced_level(st.level);
    push_rates(m);
  }
}

void Session::CohortRunner::fire_source(std::uint32_t src_idx, Time now) {
  // A source whose cohort subscribers have all finished stops firing — it
  // would only churn the event queue for receivers that no longer listen.
  if (live_subscribers_[src_idx] == 0) return;
  const SourceState& src_state = s_.sources_[src_idx];
  if (s_.fault_script_.blacked_out(src_idx, now)) {
    // Dead air: the sender is down, so nothing reaches the wire — but its
    // tick grid keeps running (a restarted server resumes its schedule) and
    // listeners' stall clocks keep counting, so a blackout can never leave a
    // receiver hanging past the watchdog.
    for (const auto& [m, sub_idx] : subscribers_[src_idx]) {
      if (adapt_[m].active != 1) continue;
      maybe_stall(m, now);
    }
  } else {
    batch_.clear();
    src_state.source->emit((now - src_state.start) / src_state.period, batch_);
    for (const auto& [m, sub_idx] : subscribers_[src_idx]) {
      if (adapt_[m].active != 1) continue;
      process_batch(m, member(m).subs[sub_idx], now);
    }
  }
  const Time next = now + src_state.period;
  if (next < s_.config_.horizon && remaining_ > 0 &&
      live_subscribers_[src_idx] > 0) {
    queue_.push(Event{next, kFire, src_idx, 0});
  }
}

void Session::CohortRunner::process_batch(std::size_t m, Subscription& sub,
                                          Time now) {
  AdaptState& st = adapt_[m];
  const SubscriptionPolicy& policy = member(m).spec.policy;
  ReceiverReport& rep = report(m);

  // Capacity (the sustainable subscription level) drifts over time,
  // modelling changing cross-traffic on the receiver's bottleneck.
  if (policy.adaptive && st.rng.chance(policy.capacity_change_prob)) {
    st.capacity = static_cast<unsigned>(st.rng.below(st.max_level + 1));
  }
  const bool congested = policy.adaptive && st.level > st.capacity;

  std::uint64_t round_addressed = 0;
  std::uint64_t round_lost = 0;
  std::uint64_t round_corrupt = 0;
  std::uint64_t first_loss = 0;  // packets that arrived before the first
                                 // loss (cc::RoundView::first_loss)
  bool sp_on_my_level = false;

  for (const PacketBatch::Segment& seg : batch_.segments) {
    if (seg.layer > st.level) continue;
    if (seg.layer == st.level && seg.sync_point) sp_on_my_level = true;
    for (std::uint32_t i = seg.begin; i < seg.end; ++i) {
      const Delivery packet{now,       sub.source,     batch_.indices[i],
                            seg.layer, seg.sync_point, batch_.burst};
      const std::uint64_t position = round_addressed++;
      Verdict verdict = sub.link->transfer(now);
      // The congestion draw happens only on clean delivery, so without a
      // FaultLink the RNG advances exactly as the historical boolean path.
      if (verdict.kind == FaultKind::kDeliver && congested &&
          st.rng.chance(policy.congestion_extra_loss)) {
        verdict = Verdict::dropped();  // congestion drop on top of the channel
      }
      // A packet counts as arrived only if something usable shows up in
      // this firing: delayed, corrupted and truncated packets all read as
      // loss to first_loss, just as on a real receiver.
      if (first_loss == position && (verdict.kind == FaultKind::kDeliver ||
                                     verdict.kind == FaultKind::kDuplicate)) {
        first_loss = position + 1;
      }
      switch (verdict.kind) {
        case FaultKind::kDrop:
          ++round_lost;
          continue;
        case FaultKind::kDelay: {
          // In flight: counted received at its kArrive tick, never lost.
          const Time arrival = now + verdict.delay;
          if (arrival < s_.config_.horizon) {
            pending_.push_back(Pending{static_cast<std::uint32_t>(m), packet});
            pending_.back().packet.at = arrival;
            queue_.push(Event{arrival, kArrive,
                              static_cast<std::uint32_t>(pending_.size() - 1),
                              0});
          }
          continue;
        }
        case FaultKind::kCorruptHeader:
        case FaultKind::kCorruptPayload:
        case FaultKind::kTruncate:
          // Damaged on the wire: the datagram arrives but the header
          // checksum / UDP checksum / framing rejects it before any decoder
          // sees a byte.
          ++rep.received;
          ++rep.corrupt_rejected;
          ++round_corrupt;
          continue;
        case FaultKind::kDeliver:
        case FaultKind::kDuplicate:
          break;
      }
      if (verdict.kind == FaultKind::kDuplicate) {
        // Copies 2..n carry an index already in hand this instant; the
        // receive path discards them without touching the decoder.
        rep.duplicates_dropped += verdict.copies - 1u;
      }
      if (receive(m, packet)) {
        rep.addressed += round_addressed;
        rep.lost += round_lost;
        return;
      }
    }
  }
  rep.addressed += round_addressed;
  rep.lost += round_lost;

  if (maybe_stall(m, now)) return;

  if (st.controller == nullptr) return;

  // Policy hook: summarize the firing and apply the controller's level
  // decision, clamped to the subscribed sources' layer range.
  cc::RoundView view;
  view.now = now;
  view.addressed = round_addressed;
  view.lost = round_lost;
  view.corrupt = round_corrupt;
  view.first_loss = first_loss;
  view.burst = batch_.burst;
  view.sync_point = sp_on_my_level;
  const unsigned want =
      std::min(st.controller->on_round(view, st.level), st.max_level);
  if (want != st.level) {
    st.level = want;
    ++rep.level_changes;
    rep.peak_level = std::max(rep.peak_level, st.level);
    push_rates(m);
  }
}

bool Session::CohortRunner::maybe_stall(std::size_t m, Time now) {
  if (s_.config_.stall_timeout == 0) return false;
  AdaptState& st = adapt_[m];
  if (now - st.last_progress < s_.config_.stall_timeout) return false;
  finish_member(m, ReceiverOutcome::kStalled, now);
  return true;
}

bool Session::CohortRunner::receive(std::size_t m, const Delivery& packet) {
  AdaptState& st = adapt_[m];
  ReceiverReport& rep = report(m);
  ++rep.received;
  if (!s_.sources_[packet.source].codec_ok) {
    ++rep.rejected;  // wrong code: never reaches the decoder
    return false;
  }
  if (mark_seen(slots_[m].seen, packet.index)) {
    ++rep.distinct;
    st.last_progress = packet.at;
  }
  if (!st.sink->on_packet(packet)) return false;
  finish_member(m, ReceiverOutcome::kCompleted, packet.at);
  return true;
}

void Session::CohortRunner::run() {
  seed_events();
  while (remaining_ > 0 && !queue_.empty()) {
    const Event e = queue_.top();
    queue_.pop();
    switch (e.kind) {
      case kJoin:
        join_member(e.a, e.at);
        break;
      case kMove:
        if (adapt_[e.a].active == 1) {
          apply_move(e.a, member(e.a).spec.moves[e.b]);
        }
        break;
      case kLeave:
        if (adapt_[e.a].active == 1) {
          finish_member(e.a, ReceiverOutcome::kDeparted, e.at);
        }
        break;
      case kArrive: {
        // Late arrivals sit outside any firing round, so no round accounting
        // and no policy hook; one whose receiver finished while it flew is
        // gone.
        const Pending& p = pending_[e.a];
        if (adapt_[p.member].active == 1) receive(p.member, p.packet);
        break;
      }
      case kFire:
        fire_source(e.a, e.at);
        break;
    }
  }
  // Horizon exhausted with receivers still listening: report them incomplete
  // with whatever they accumulated.
  for (std::size_t m = 0; m < count_; ++m) {
    if (adapt_[m].active == 1) {
      finish_member(m, ReceiverOutcome::kHorizon, s_.config_.horizon);
    }
  }
}

std::vector<ReceiverReport> Session::run() {
  if (ran_) throw std::logic_error("Session: already run");
  for (const FaultScript::Outage& outage : fault_script_.outages()) {
    if (outage.source >= sources_.size()) {
      throw std::out_of_range("Session: fault script names an unknown source");
    }
  }
  // Shared link state (bottlenecks) aggregates rates across receivers, so
  // every receiver touching one must be simulated in the same cohort. This
  // is validated before any sharding, so the scenario is rejected with the
  // same error at every thread count. append_shared_states covers *every*
  // edge a link references — a PathLink that only shares the last queue of
  // its path with another receiver still couples the two.
  std::unordered_map<const void*, std::pair<std::size_t, std::size_t>> shared;
  std::vector<const void*> states;
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    for (const Subscription& sub : receivers_[i].subs) {
      states.clear();
      sub.link->append_shared_states(states);
      for (const void* group : states) {
        auto [it, fresh] = shared.try_emplace(group, std::make_pair(i, i));
        if (!fresh) it->second.second = i;  // receivers are added in order
      }
    }
  }
  for (const auto& [group, span] : shared) {
    if (span.first / config_.cohort_size != span.second / config_.cohort_size) {
      throw std::invalid_argument(
          "Session: receivers sharing a bottleneck span several cohorts; "
          "raise cohort_size or group them contiguously");
    }
  }
  ran_ = true;
  std::vector<ReceiverReport> reports(receivers_.size());
  const std::size_t cohorts =
      (receivers_.size() + config_.cohort_size - 1) / config_.cohort_size;
  const std::size_t workers = std::min(util::resolve_threads(config_.threads),
                                       std::max<std::size_t>(cohorts, 1));
  // One slot pool per worker (sized lazily on first use): a cohort's pooled
  // sinks and distinct bitmaps are worker-local, so the simulation path
  // takes no locks. Every cohort writes only reports [first, first+count) —
  // disjoint slices — which is the deterministic in-order merge.
  const std::size_t slots_per_pool =
      std::min(config_.cohort_size, receivers_.size());
  std::vector<std::vector<Slot>> pools(std::max<std::size_t>(workers, 1));
  util::WorkerPool::run(workers, cohorts, [&](std::size_t worker,
                                               std::size_t c) {
    std::vector<Slot>& slots = pools[worker];
    if (slots.size() < slots_per_pool) slots.resize(slots_per_pool);
    const std::size_t first = c * config_.cohort_size;
    const std::size_t count =
        std::min(config_.cohort_size, receivers_.size() - first);
    CohortRunner(*this, reports, slots, first, count).run();
  });
  return reports;
}

}  // namespace fountain::engine
