// Tracing for the benchmark's traced run. Spans are opened by the
// benchmark's own decorators and direct calls around each call into a
// library layer — never from inside the library — and closed in LIFO order
// per thread, so each layer gets exact call counts, total time and self time
// (total minus the time its child spans cover).
//
// Every call is aggregated. Full span records (name, start, end, parent,
// trace id) are kept only for sampled trace ids (a receiver id or a transfer
// number, chosen per workload) and for root spans outside any trace; at most
// kSpansPerTrace records per (trace, layer) per thread, so memory stays
// bounded however long the run. Records are held in memory and written as
// JSON lines by write_spans() when the run ends.
//
// A null Tracer* makes every Span a no-op, so the untraced run shares the
// same code paths at the cost of one branch per call site.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace fountain::e2e {

enum class Layer : std::uint8_t {
  kEngineBuild,
  kEngineRun,
  kSourceEmit,
  kLinkTransfer,
  kSinkOnPacket,
  kSinkFactory,
  kCcOnRound,
  kCodecCreate,
  kMakeEncoder,
  kEncodeSource,  // Tornado systematic symbol
  kEncodeCheck,   // Tornado cascade check symbol
  kEncodeTail,    // Tornado Reed-Solomon tail symbol
  kLtEncode,
  kDecodeAdd,        // Tornado add_symbol that does not complete
  kDecodeFinal,      // Tornado add_symbol that completes the decode
  kLtDecodeAdd,
  kLtDecodeFinal,
  kStructuralAdd,
  kNetSerialize,
  kNetSend,
  kNetRecv,
  kNetParse,
  kTxPace,  // the open-loop sender sleeping to its next deadline
  kProtoFetchControl,
  kProtoClientOnPacket,  // StatisticalDataClient::on_packet, no decode
  kProtoDecodeAttempt,   // ... that ran a decode attempt
  kUdpTransfer,
  kUdpVerify,
  kCount,
};

inline constexpr std::size_t kLayerCount =
    static_cast<std::size_t>(Layer::kCount);

class Tracer {
 public:
  /// Which trace ids get full span records.
  using Sampler = std::function<bool(std::int64_t trace)>;

  static constexpr std::int64_t kNoTrace = -1;
  static constexpr std::int64_t kInherit = -2;
  static constexpr std::uint32_t kSpansPerTrace = 256;

  explicit Tracer(Sampler sampled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  struct LayerStats {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// RAII span. `trace` defaults to the enclosing span's trace id.
  class Span {
   public:
    Span(Tracer* tracer, Layer layer, std::int64_t trace = kInherit);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Renames the span before it closes (e.g. a client call that turned
    /// out to run a decode attempt). Valid only while no child is open.
    void relabel(Layer layer);

   private:
    Tracer* tracer_;
  };

  /// Marks the calling thread's traced interval; coverage() compares the
  /// time its root spans cover against this interval.
  void thread_begin(const std::string& name);
  void thread_end();

  /// Trace id that root spans opened on the calling thread inherit (a
  /// sender thread serving whichever transfer is in progress).
  void set_thread_trace(std::int64_t trace);

  /// Aggregates merged over every thread.
  LayerStats stats(Layer layer) const;
  double mean_ns(Layer layer) const {
    const LayerStats s = stats(layer);
    return s.calls == 0 ? 0.0 : static_cast<double>(s.total_ns) /
                                    static_cast<double>(s.calls);
  }

  struct Coverage {
    std::string thread;
    double wall_s = 0.0;
    double covered_frac = 0.0;  // root-span time / traced interval
  };
  std::vector<Coverage> coverage() const;

  /// Writes every recorded span as one JSON object per line.
  bool write_spans(const std::string& path) const;
  std::size_t span_count() const;

 private:
  struct Open {
    Layer layer;
    bool record;
    std::int64_t trace;
    std::uint64_t id;
    std::uint64_t start;
    std::uint64_t child_ns;
  };
  struct Record {
    Layer layer;
    std::int64_t trace;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t start;
    std::uint64_t end;
  };
  struct ThreadState {
    std::uint32_t index = 0;
    std::string name;
    std::vector<Open> stack;
    std::array<LayerStats, kLayerCount> stats{};
    std::vector<Record> records;
    std::unordered_map<std::int64_t, std::array<std::uint32_t, kLayerCount>>
        recorded;  // records kept per (trace, layer)
    std::uint64_t next_id = 0;
    std::int64_t ambient = kNoTrace;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t root_ns = 0;
  };

  ThreadState& state();
  void open(Layer layer, std::int64_t trace);
  void close();

  Sampler sampled_;
  std::uint64_t generation_;
  std::uint64_t epoch_ns_;
  mutable std::mutex threads_mutex_;  // guards threads_
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

/// Nanoseconds on the steady clock.
std::uint64_t now_ns();

}  // namespace fountain::e2e
