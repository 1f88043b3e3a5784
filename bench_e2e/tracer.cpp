#include "tracer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace fountain::e2e {

namespace {

std::atomic<std::uint64_t> g_generation{0};

// Per-thread cache of the ThreadState of the tracer that last ran on this
// thread; the generation tells tracers apart even if one is allocated where
// a destroyed one lived.
struct Cache {
  std::uint64_t generation = 0;
  void* state = nullptr;
};
thread_local Cache t_cache;

const char* layer_name(Layer layer) {
  static constexpr const char* kNames[kLayerCount] = {
      "engine.build",        "engine.run",
      "engine.source_emit",  "engine.link_transfer",
      "engine.sink_on_packet", "engine.sink_factory",
      "cc.on_round",         "codec.create",
      "codec.make_encoder",  "core.encode_source",
      "core.encode_check",   "core.encode_tail",
      "lt.encode",           "core.decode_add",
      "core.decode_final",   "lt.decode_add",
      "lt.decode_final",     "codec.structural_add",
      "net.serialize",       "net.send",
      "net.recv",            "net.parse",
      "tx.pace",             "proto.fetch_control",
      "proto.client_on_packet", "proto.decode_attempt",
      "udp.transfer",        "udp.verify",
  };
  return kNames[static_cast<std::size_t>(layer)];
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer(Sampler sampled)
    : sampled_(std::move(sampled)),
      generation_(g_generation.fetch_add(1) + 1),
      epoch_ns_(now_ns()) {}

Tracer::ThreadState& Tracer::state() {
  if (t_cache.generation == generation_) {
    return *static_cast<ThreadState*>(t_cache.state);
  }
  const std::lock_guard<std::mutex> lock(threads_mutex_);
  threads_.push_back(std::make_unique<ThreadState>());
  ThreadState& st = *threads_.back();
  st.index = static_cast<std::uint32_t>(threads_.size() - 1);
  t_cache = Cache{generation_, &st};
  return st;
}

void Tracer::open(Layer layer, std::int64_t trace) {
  ThreadState& st = state();
  if (trace == kInherit) {
    trace = st.stack.empty() ? st.ambient : st.stack.back().trace;
  }
  // Sampled traces keep their spans; untraced work keeps only root spans
  // (engine.run, the set-up steps). Either way the per-layer cap holds.
  bool record = trace == kNoTrace ? st.stack.empty() : sampled_(trace);
  if (record) {
    std::uint32_t& kept =
        st.recorded[trace][static_cast<std::size_t>(layer)];
    record = kept < kSpansPerTrace;
    if (record) ++kept;
  }
  const std::uint64_t id =
      (static_cast<std::uint64_t>(st.index + 1) << 40) | ++st.next_id;
  st.stack.push_back(Open{layer, record, trace, id, now_ns(), 0});
}

void Tracer::close() {
  const std::uint64_t end = now_ns();
  ThreadState& st = state();
  const Open o = st.stack.back();
  st.stack.pop_back();
  const std::uint64_t duration = end - o.start;
  LayerStats& s = st.stats[static_cast<std::size_t>(o.layer)];
  ++s.calls;
  s.total_ns += duration;
  s.self_ns += duration - std::min(duration, o.child_ns);
  std::uint64_t parent = 0;
  if (st.stack.empty()) {
    st.root_ns += duration;
  } else {
    st.stack.back().child_ns += duration;
    parent = st.stack.back().id;
  }
  if (o.record) {
    st.records.push_back(Record{o.layer, o.trace, o.id, parent, o.start, end});
  }
}

Tracer::Span::Span(Tracer* tracer, Layer layer, std::int64_t trace)
    : tracer_(tracer) {
  if (tracer_ != nullptr) tracer_->open(layer, trace);
}

Tracer::Span::~Span() {
  if (tracer_ != nullptr) tracer_->close();
}

void Tracer::Span::relabel(Layer layer) {
  if (tracer_ != nullptr) tracer_->state().stack.back().layer = layer;
}

void Tracer::thread_begin(const std::string& name) {
  ThreadState& st = state();
  st.name = name;
  st.root_ns = 0;
  st.begin_ns = now_ns();
}

void Tracer::thread_end() { state().end_ns = now_ns(); }

void Tracer::set_thread_trace(std::int64_t trace) { state().ambient = trace; }

Tracer::LayerStats Tracer::stats(Layer layer) const {
  const std::lock_guard<std::mutex> lock(threads_mutex_);
  LayerStats out;
  for (const auto& st : threads_) {
    const LayerStats& s = st->stats[static_cast<std::size_t>(layer)];
    out.calls += s.calls;
    out.total_ns += s.total_ns;
    out.self_ns += s.self_ns;
  }
  return out;
}

std::vector<Tracer::Coverage> Tracer::coverage() const {
  const std::lock_guard<std::mutex> lock(threads_mutex_);
  std::vector<Coverage> out;
  for (const auto& st : threads_) {
    if (st->end_ns <= st->begin_ns) continue;  // no traced interval marked
    const double wall = static_cast<double>(st->end_ns - st->begin_ns);
    out.push_back(Coverage{st->name, wall * 1e-9,
                           static_cast<double>(st->root_ns) / wall});
  }
  return out;
}

std::size_t Tracer::span_count() const {
  const std::lock_guard<std::mutex> lock(threads_mutex_);
  std::size_t n = 0;
  for (const auto& st : threads_) n += st->records.size();
  return n;
}

bool Tracer::write_spans(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::lock_guard<std::mutex> lock(threads_mutex_);
  for (const auto& st : threads_) {
    for (const Record& r : st->records) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"thread\":\"%s\",\"trace\":%lld,"
                   "\"span\":%llu,\"parent\":%llu,\"start_ns\":%llu,"
                   "\"end_ns\":%llu}\n",
                   layer_name(r.layer), st->name.c_str(),
                   static_cast<long long>(r.trace),
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<unsigned long long>(r.start - epoch_ns_),
                   static_cast<unsigned long long>(r.end - epoch_ns_));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace fountain::e2e
