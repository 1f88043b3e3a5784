// udp_loopback: the only workload through net and proto. A sender thread
// streams an LT-coded file over 127.0.0.1 open loop at a fixed datagram
// rate, with seeded induced loss and single-bit header corruption; a
// control thread answers fetch_control; the main thread runs sequential
// transfers (a closed loop): drain the socket, fetch the control info,
// reset the client, then receive, parse and decode until the file is back,
// and byte-compare it. Traffic crosses the host loopback interface, never a
// real link.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "carousel/carousel.hpp"
#include "decorators.hpp"
#include "engine/sources.hpp"
#include "fec/codec_registry.hpp"
#include "net/loss.hpp"
#include "net/packet_header.hpp"
#include "net/udp.hpp"
#include "proto/client.hpp"
#include "proto/control.hpp"
#include "proto/fetch.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"
#include "workloads.hpp"

namespace fountain::e2e {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kPayload = 500;  // + 12-byte header: 512-byte datagrams
constexpr double kDatagramsPerSecond = 50000.0;
constexpr std::size_t kBatch = 8;  // datagrams per pacing deadline
constexpr double kInducedLoss = 0.10;
constexpr double kCorruptRate = 0.01;
constexpr double kTailPercentile = 90.0;
constexpr std::size_t kMinTransfers = 100;  // >= 10 beyond the p90
const auto kStallWindow = std::chrono::seconds(10);

/// Everything both ends build before the first transfer.
struct Endpoints {
  proto::ControlInfo info;
  std::unique_ptr<fec::ErasureCode> server_code;
  util::SymbolMatrix file;
  std::unique_ptr<fec::BlockEncoder> encoder;
  std::unique_ptr<fec::ErasureCode> client_code;
  net::UdpSocket data_sock;   // client: receives the stream
  net::UdpSocket ctrl_sock;   // control server
  net::UdpSocket fetch_sock;  // client: control requests
};

Endpoints set_up(std::uint64_t seed, std::size_t k, Tracer* tracer) {
  Endpoints e;
  e.info = proto::make_control_info(k * kPayload, kPayload, /*variant=*/0,
                                    kCodeSeed, /*layers=*/1,
                                    mix_seed(seed, 102), fec::CodecId::kLT);
  {
    Tracer::Span span(tracer, Layer::kCodecCreate, Tracer::kNoTrace);
    e.server_code = fec::CodecRegistry::builtin().create(
        e.info.codec, e.info.codec_params());
  }
  e.file = util::SymbolMatrix(k, kPayload);
  e.file.fill_random(mix_seed(seed, 101));
  {
    Tracer::Span span(tracer, Layer::kMakeEncoder, Tracer::kNoTrace);
    e.encoder = e.server_code->make_encoder(e.file);
  }
  {
    Tracer::Span span(tracer, Layer::kCodecCreate, Tracer::kNoTrace);
    e.client_code = fec::CodecRegistry::builtin().create(
        e.info.codec, e.info.codec_params());
  }
  e.data_sock.bind({"127.0.0.1", 0});
  e.ctrl_sock.bind({"127.0.0.1", 0});
  e.fetch_sock.bind({"127.0.0.1", 0});
  return e;
}

/// Shared between the sender thread and the client. `tracer` is null while
/// the run is untraced; the traced run switches it on halfway.
struct Shared {
  std::atomic<bool> stop{false};
  std::atomic<Tracer*> tracer{nullptr};
  std::atomic<std::int64_t> transfer{Tracer::kNoTrace};
  std::atomic<std::uint64_t> slots{0};  // datagram slots elapsed
  std::atomic<std::uint64_t> sent{0};
  std::atomic<std::uint64_t> corrupted{0};
};

struct SenderResult {
  std::vector<double> late_ms;  // per pacing deadline
  double traced_cpu_s = 0.0;
  std::uint64_t traced_sent = 0;
};

/// The open-loop sender: sleeps to absolute deadlines, never waits for the
/// client. A traced batch uses `timed_encoder`, which is `encoder` timed.
void sender(const Endpoints& e, const fec::BlockEncoder& timed_encoder,
            std::uint16_t client_port, std::uint64_t seed, Shared& shared,
            SenderResult& result) {
  net::UdpSocket sock;
  util::Rng perm_rng(e.info.permutation_seed);
  const auto order = carousel::Carousel::random_permutation(
      e.server_code->encoded_count(), perm_rng);
  const engine::CarouselSource source(order, e.server_code->codec_id(), kBatch);
  net::BernoulliLoss channel(kInducedLoss, mix_seed(seed, 300));
  util::Rng fault_rng(mix_seed(seed, 301));
  const net::Endpoint client{"127.0.0.1", client_port};
  std::vector<std::uint8_t> wire(net::PacketHeader::kWireSize + kPayload);
  const auto payload =
      util::ByteSpan(wire).subspan(net::PacketHeader::kWireSize);
  engine::PacketBatch batch;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kBatch / kDatagramsPerSecond));

  Tracer* traced = nullptr;
  double traced_cpu0 = 0.0;
  std::uint64_t traced_sent0 = 0;
  std::uint64_t sent = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t round = 0; !shared.stop.load(std::memory_order_relaxed);
       ++round) {
    Tracer* tracer = shared.tracer.load(std::memory_order_relaxed);
    if (tracer != nullptr && traced == nullptr) {
      traced = tracer;
      traced->thread_begin("sender");
      traced_cpu0 = thread_cpu_s();
      traced_sent0 = sent;
    }
    if (tracer) tracer->set_thread_trace(shared.transfer.load());
    const Clock::time_point due = t0 + round * period;
    {
      Tracer::Span span(tracer, Layer::kTxPace);
      std::this_thread::sleep_until(due);
    }
    result.late_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - due).count());
    const fec::BlockEncoder& encoder = tracer ? timed_encoder : *e.encoder;
    batch.clear();
    {
      Tracer::Span span(tracer, Layer::kSourceEmit);
      source.emit(round, batch);
    }
    for (std::size_t i = 0; i < batch.indices.size(); ++i) {
      const auto serial = static_cast<std::uint32_t>(round * kBatch + i);
      if (channel.lost()) continue;  // induced loss: the slot passes unsent
      {
        Tracer::Span span(tracer, Layer::kNetSerialize);
        const net::PacketHeader header{batch.indices[i], serial,
                                       e.server_code->codec_id(), 0};
        header.serialize(util::ByteSpan(wire));
      }
      encoder.write_symbol(batch.indices[i], payload);
      if (fault_rng.chance(kCorruptRate)) {
        // One flipped header bit: the CRC-8 rejects every such datagram.
        const auto bit = fault_rng.below(8 * net::PacketHeader::kWireSize);
        wire[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        shared.corrupted.fetch_add(1, std::memory_order_relaxed);
      }
      {
        Tracer::Span span(tracer, Layer::kNetSend);
        sock.send_to(client, util::ConstByteSpan(wire));
      }
      ++sent;
      shared.sent.store(sent, std::memory_order_relaxed);
    }
    shared.slots.store((round + 1) * kBatch, std::memory_order_relaxed);
  }
  if (traced) {
    traced->thread_end();
    result.traced_cpu_s = thread_cpu_s() - traced_cpu0;
    result.traced_sent = sent - traced_sent0;
  }
}

/// Answers every control request with the serialized ControlInfo.
void control_server(net::UdpSocket& sock, const proto::ControlInfo& info,
                    Shared& shared) {
  std::vector<std::uint8_t> reply(proto::ControlInfo::kWireSize);
  info.serialize(util::ByteSpan(reply));
  Tracer* traced = nullptr;
  while (!shared.stop.load(std::memory_order_relaxed)) {
    Tracer* tracer = shared.tracer.load(std::memory_order_relaxed);
    if (tracer != nullptr && traced == nullptr) {
      traced = tracer;
      traced->thread_begin("control");
    }
    std::optional<net::UdpSocket::Datagram> request;
    {
      Tracer::Span span(tracer, Layer::kNetRecv, Tracer::kNoTrace);
      request = sock.receive(std::chrono::milliseconds(20));
    }
    if (request) {
      Tracer::Span span(tracer, Layer::kNetSend, Tracer::kNoTrace);
      sock.send_to(request->from, util::ConstByteSpan(reply));
    }
  }
  if (traced) traced->thread_end();
}

/// The sender and control threads. An exception in either stops the run
/// and is rethrown by join(); the destructor stops and joins them on every
/// other path out of the caller's scope.
class Threads {
 public:
  explicit Threads(Shared& shared) : shared_(shared) {}
  ~Threads() {
    shared_.stop.store(true);
    for (std::thread& t : threads_) t.join();
  }
  Threads(const Threads&) = delete;
  Threads& operator=(const Threads&) = delete;

  template <typename Body>
  void start(Body body) {
    threads_.emplace_back([this, body] {
      try {
        body();
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex_);
        if (!error_) error_ = std::current_exception();
        shared_.stop.store(true);
      }
    });
  }

  void join() {
    shared_.stop.store(true);
    for (std::thread& t : threads_) t.join();
    threads_.clear();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  Shared& shared_;
  std::mutex error_mutex_;  // guards error_
  std::exception_ptr error_;
  std::vector<std::thread> threads_;
};

struct Transfer {
  bool verified = false;
  double ms = 0.0;
  std::uint64_t slots = 0;     // sender slots elapsed: the wait, in packets
  std::uint64_t received = 0;  // datagrams the client read
  std::uint64_t accepted = 0;  // ... that reached the decoder
  std::uint64_t queued = 0;    // ... left in the socket at completion
  std::uint64_t sent = 0;      // datagrams sent while it ran
  std::uint64_t checksum_rejects = 0;
  std::size_t attempts = 0;
  double cpu_s = 0.0;
};

/// Discards what is queued in `sock`, returning the count. Bounded: a
/// client slower than the sender would otherwise never see it empty.
std::uint64_t drain(net::UdpSocket& sock) {
  constexpr std::uint64_t kMaxDrained = 4096;
  std::uint64_t n = 0;
  while (n < kMaxDrained && sock.receive(std::chrono::milliseconds(0))) ++n;
  return n;
}

/// One closed-loop transfer, on the calling thread.
Transfer run_transfer(Endpoints& e, proto::StatisticalDataClient& client,
                      std::uint16_t ctrl_port, std::uint64_t seed,
                      std::int64_t number, Shared& shared, Tracer* tracer) {
  Transfer t;
  shared.transfer.store(number);
  const double cpu0 = thread_cpu_s();
  const Clock::time_point start = Clock::now();
  Tracer::Span whole(tracer, Layer::kUdpTransfer, number);
  drain(e.data_sock);
  const std::uint64_t slots0 = shared.slots.load();
  const std::uint64_t sent0 = shared.sent.load();

  proto::FetchPolicy policy;
  policy.initial_timeout = std::chrono::milliseconds(100);
  policy.seed = mix_seed(seed, 400 + static_cast<std::uint64_t>(number));
  const net::Endpoint ctrl{"127.0.0.1", ctrl_port};
  const std::uint8_t ping = 0x3f;
  proto::FetchResult fetched;
  {
    Tracer::Span span(tracer, Layer::kProtoFetchControl);
    fetched = proto::fetch_control(
        [&](std::size_t, std::chrono::milliseconds timeout) {
          e.fetch_sock.send_to(ctrl, util::ConstByteSpan(&ping, 1));
          auto reply = e.fetch_sock.receive(timeout);
          if (!reply || reply->truncated) {
            return std::optional<std::vector<std::uint8_t>>{};
          }
          return std::optional(std::move(reply->payload));
        },
        1, policy);
  }
  if (!fetched || !(fetched.info == e.info)) return t;
  client.reset();

  auto last_progress = Clock::now();
  std::size_t last_distinct = 0;
  bool done = false;
  while (!done) {
    if (Clock::now() - last_progress > kStallWindow) return t;  // stalled
    if (shared.stop.load()) return t;  // a server thread failed
    std::optional<net::UdpSocket::Datagram> datagram;
    {
      Tracer::Span span(tracer, Layer::kNetRecv);
      datagram = e.data_sock.receive(std::chrono::milliseconds(250));
    }
    if (!datagram) continue;
    ++t.received;
    net::ParseResult parsed;
    {
      Tracer::Span span(tracer, Layer::kNetParse);
      parsed = net::parse_packet(util::ConstByteSpan(datagram->payload),
                                 fetched.info.layers);
    }
    if (!parsed) {
      if (parsed.error == net::ParseError::kBadChecksum) ++t.checksum_rejects;
      continue;
    }
    if (datagram->truncated || parsed.packet.payload.size() != kPayload ||
        parsed.packet.header.codec != fetched.info.codec) {
      continue;
    }
    ++t.accepted;
    const std::size_t attempts = client.decode_attempts();
    {
      Tracer::Span span(tracer, Layer::kProtoClientOnPacket);
      done = client.on_packet(parsed.packet.header.packet_index,
                              parsed.packet.payload);
      if (client.decode_attempts() != attempts) {
        span.relabel(Layer::kProtoDecodeAttempt);
      }
    }
    if (client.distinct_received() > last_distinct) {
      last_distinct = client.distinct_received();
      last_progress = Clock::now();
    }
  }
  t.slots = shared.slots.load() - slots0;
  t.attempts = client.decode_attempts();
  {
    Tracer::Span span(tracer, Layer::kUdpVerify);
    t.verified = client.source() == util::ConstSymbolView(e.file);
  }
  t.ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  t.cpu_s = thread_cpu_s() - cpu0;
  // Datagrams still queued at completion reached the socket: they are not
  // drops. Count them, then everything sent up to now.
  t.queued = drain(e.data_sock);
  t.sent = shared.sent.load() - sent0;
  return t;
}

}  // namespace

Outcome run_udp_loopback(const Options& opts) {
  Outcome out;
  out.workload = "udp_loopback";
  const std::size_t k = opts.smoke ? 512 : 4096;
  const std::size_t min_transfers = opts.smoke ? 5 : kMinTransfers;
  Tracer tracer([](std::int64_t) { return true; });
  Tracer* const layer_tracer = opts.traced ? &tracer : nullptr;

  // Set-up: both ends' codecs, the file, the encoder and the sockets; the
  // last one serves the run.
  Endpoints e;
  const double setup_s =
      median_setup_s([&] { e = Endpoints{}; },
                     [&] { e = set_up(opts.seed, k, layer_tracer); });
  const TimedCode timed_server(*e.server_code, tracer);
  const auto timed_encoder = timed_server.wrap_encoder(*e.encoder);
  const TimedCode timed_client(*e.client_code, tracer);
  proto::StatisticalDataClient plain_client(*e.client_code, 0.05);
  proto::StatisticalDataClient traced_client(timed_client, 0.05);

  // The sender and the client get CPUs of their own: left to the scheduler,
  // the client's wake-ups can pull it onto the sender's CPU, and the
  // open-loop sender then falls behind its schedule whenever the client
  // decodes.
  const std::vector<int> cpus = allowed_cpus();
  const bool pin = cpus.size() >= 2;
  if (pin) pin_thread(cpus[0]);
  Shared shared;
  SenderResult sent;
  const std::uint16_t client_port = e.data_sock.local_port();
  const std::uint16_t ctrl_port = e.ctrl_sock.local_port();
  std::vector<Transfer> transfers;
  std::size_t traced_from = 0;
  {
    Threads threads(shared);
    threads.start([&] {
      if (pin) pin_thread(cpus[1]);
      sender(e, *timed_encoder, client_port, opts.seed, shared, sent);
    });
    threads.start([&] { control_server(e.ctrl_sock, e.info, shared); });

    // Warm-up transfer, then the measured phase. The traced run measures
    // its first half untraced and its second half traced.
    run_transfer(e, plain_client, ctrl_port, opts.seed, -1, shared, nullptr);
    const double phase_s = opts.traced ? opts.seconds / 2 : opts.seconds;
    for (int phase = 0; phase < (opts.traced ? 2 : 1); ++phase) {
      Tracer* phase_tracer = phase == 1 ? &tracer : nullptr;
      if (phase_tracer) {
        traced_from = transfers.size();
        shared.tracer.store(phase_tracer);
        tracer.thread_begin("client");
      }
      proto::StatisticalDataClient& client =
          phase_tracer ? traced_client : plain_client;
      util::WallTimer measured;
      for (std::size_t n = 0;
           !shared.stop.load() &&
           (n < min_transfers || measured.seconds() < phase_s);
           ++n) {
        transfers.push_back(run_transfer(
            e, client, ctrl_port, opts.seed,
            static_cast<std::int64_t>(transfers.size()), shared,
            phase_tracer));
      }
    }
    if (opts.traced) tracer.thread_end();
    threads.join();
  }

  // Accounting over the untraced transfers (all of them when untraced).
  const std::size_t untraced_end = opts.traced ? traced_from : transfers.size();
  std::vector<double> ms;
  std::vector<double> wait;
  double overhead_sum = 0.0;
  std::uint64_t verified = 0;
  std::uint64_t checksum_rejects = 0;
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const Transfer& t = transfers[i];
    ++out.attempted;
    checksum_rejects += t.checksum_rejects;
    if (!t.verified) {
      ++out.failed;
      continue;
    }
    if (i >= untraced_end) continue;
    ++verified;
    ms.push_back(t.ms);
    wait.push_back(static_cast<double>(t.slots));
    overhead_sum +=
        static_cast<double>(t.accepted) / static_cast<double>(k) - 1.0;
  }
  if (out.failed != 0) {
    out.fail(std::to_string(out.failed) + " of " +
             std::to_string(out.attempted) + " transfers failed to verify");
  }
  if (checksum_rejects > shared.corrupted.load()) {
    out.fail("more checksum rejects than corrupted datagrams");
  }
  const double late_median = median(sent.late_ms);
  if (late_median > 1.0) {
    out.fail("sender ran late: median lateness " + std::to_string(late_median) +
             " ms exceeds 1 ms, so transfer times are invalid");
  }
  std::printf("udp_loopback: %zu transfers (%llu verified), transfer_ms "
              "p50 %.3f p%g %.3f, sender late p50 %.4f ms, loopback "
              "interface, %g datagrams/s open loop\n",
              transfers.size(), static_cast<unsigned long long>(verified),
              median(ms), kTailPercentile, percentile(ms, kTailPercentile),
              late_median, kDatagramsPerSecond);

  if (!opts.traced) {
    const double file_mb = static_cast<double>(k * kPayload) / 1e6;
    out.emit_metric("setup_s", setup_s, "s");
    out.emit_metric("goodput_mb_s", file_mb / (median(ms) / 1e3), "MB/s");
    out.emit_metric("wait_pkts_p50", median(wait), "pkts");
    out.emit_metric("wait_pkts_tail", percentile(wait, kTailPercentile),
                    "pkts");
    out.emit_metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  // Per-layer metrics over the traced half.
  std::uint64_t t_received = 0;
  std::uint64_t t_read = 0;
  std::uint64_t t_sent = 0;
  std::uint64_t t_attempts = 0;
  double t_cpu = 0.0;
  std::vector<double> traced_ms;
  for (std::size_t i = traced_from; i < transfers.size(); ++i) {
    t_received += transfers[i].received;
    t_read += transfers[i].received + transfers[i].queued;
    t_sent += transfers[i].sent;
    t_attempts += transfers[i].attempts;
    t_cpu += transfers[i].cpu_s;
    traced_ms.push_back(transfers[i].ms);
  }
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  using L = Layer;
  emit_per_call(out, tracer, "engine.source_emit_ns", L::kSourceEmit);
  out.emit_metric("codec.overhead_mean", overhead_sum / count(verified),
                  "ratio");
  emit_per_call(out, tracer, "lt.create_s", L::kCodecCreate);
  emit_per_call(out, tracer, "lt.make_encoder_ms", L::kMakeEncoder);
  emit_per_call(out, tracer, "lt.encode_ns", L::kLtEncode);
  emit_per_call(out, tracer, "lt.decode_add_ns", L::kLtDecodeAdd);
  emit_per_call(out, tracer, "lt.decode_final_ms", L::kLtDecodeFinal);
  emit_per_call(out, tracer, "net.send_us", L::kNetSend);
  emit_per_call(out, tracer, "net.serialize_ns", L::kNetSerialize);
  emit_per_call(out, tracer, "net.recv_us", L::kNetRecv);
  emit_per_call(out, tracer, "net.parse_ns", L::kNetParse);
  out.emit_metric(
      "net.socket_drop_frac",
      t_sent == 0 ? 0.0 : std::max(0.0, 1.0 - count(t_read) / count(t_sent)),
      "ratio");
  out.emit_metric("net.checksum_rejects", count(checksum_rejects), "count");
  out.emit_metric("net.tx_late_ms_p99", percentile(sent.late_ms, 99.0), "ms");
  out.emit_metric("net.tx_cpu_us_per_pkt",
                  1e6 * sent.traced_cpu_s / count(sent.traced_sent), "us");
  out.emit_metric("net.rx_cpu_us_per_pkt", 1e6 * t_cpu / count(t_received),
                  "us");
  emit_per_call(out, tracer, "proto.fetch_control_ms", L::kProtoFetchControl);
  emit_per_call(out, tracer, "proto.client_on_packet_us",
                L::kProtoClientOnPacket);
  emit_per_call(out, tracer, "proto.decode_attempt_ms",
                L::kProtoDecodeAttempt);
  out.emit_metric("proto.decode_attempts_per_transfer",
                  count(t_attempts) / count(transfers.size() - traced_from),
                  "count");
  emit_kernel_rates(out, kPayload, k * kPayload, opts.seed);
  emit_trace_checks(out, tracer, median(traced_ms), median(ms), 0.9);
  if (!opts.trace_path.empty() && !tracer.write_spans(opts.trace_path)) {
    out.fail("cannot write spans to " + opts.trace_path);
  }
  return out;
}

}  // namespace fountain::e2e
