// Timing decorators over the library's public extension points. Each one
// forwards every call unchanged to the object it wraps — no RNG draw, no
// verdict or level is altered — and opens a Tracer span around the calls
// that do work, so a traced session produces the same reports (and report
// hash) as an untraced one.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cc/receiver_policy.hpp"
#include "core/tornado.hpp"
#include "engine/link.hpp"
#include "engine/packet_source.hpp"
#include "engine/sink.hpp"
#include "fec/erasure_code.hpp"
#include "tracer.hpp"

namespace fountain::e2e {

/// Receiver whose link last had its rate declared on this thread. The engine
/// declares a receiver's rates at join immediately before it resets the
/// pooled sink that will serve it, so a TimedSink learns its receiver (its
/// trace id) from this at reset(). Only span attribution depends on it.
inline thread_local std::int64_t t_rate_receiver = Tracer::kNoTrace;

class TimedEncoder final : public fec::BlockEncoder {
 public:
  /// Wraps `inner` (owned when `owned` is set). `tail_first` is the first
  /// Tornado RS-tail index (node_count()) and `check_first` the first
  /// cascade check index (k); for other codecs every symbol is lt.encode.
  TimedEncoder(const fec::BlockEncoder& inner,
               std::unique_ptr<fec::BlockEncoder> owned, Tracer& tracer,
               bool tornado, std::size_t check_first, std::size_t tail_first)
      : owned_(std::move(owned)),
        inner_(inner),
        tracer_(tracer),
        tornado_(tornado),
        check_first_(check_first),
        tail_first_(tail_first) {}

  std::size_t source_count() const override { return inner_.source_count(); }
  std::size_t encoded_count() const override { return inner_.encoded_count(); }
  std::size_t symbol_size() const override { return inner_.symbol_size(); }
  std::size_t state_bytes() const override { return inner_.state_bytes(); }

  void write_symbol(std::uint32_t index, util::ByteSpan out) const override {
    Layer layer = Layer::kLtEncode;
    if (tornado_) {
      layer = index < check_first_  ? Layer::kEncodeSource
              : index < tail_first_ ? Layer::kEncodeCheck
                                    : Layer::kEncodeTail;
    }
    Tracer::Span span(&tracer_, layer);
    inner_.write_symbol(index, out);
  }

 private:
  std::unique_ptr<fec::BlockEncoder> owned_;
  const fec::BlockEncoder& inner_;
  Tracer& tracer_;
  bool tornado_;
  std::size_t check_first_;
  std::size_t tail_first_;
};

class TimedDecoder final : public fec::IncrementalDecoder {
 public:
  TimedDecoder(std::unique_ptr<fec::IncrementalDecoder> inner, Tracer& tracer,
               bool tornado)
      : inner_(std::move(inner)),
        tracer_(tracer),
        add_(tornado ? Layer::kDecodeAdd : Layer::kLtDecodeAdd),
        final_(tornado ? Layer::kDecodeFinal : Layer::kLtDecodeFinal) {}

  bool add_symbol(std::uint32_t index, util::ConstByteSpan data) override {
    const bool was_complete = inner_->complete();
    Tracer::Span span(&tracer_, add_);
    const bool done = inner_->add_symbol(index, data);
    if (done && !was_complete) span.relabel(final_);
    return done;
  }
  bool complete() const override { return inner_->complete(); }
  void reset() override { inner_->reset(); }
  util::ConstSymbolView source() const override { return inner_->source(); }

 private:
  std::unique_ptr<fec::IncrementalDecoder> inner_;
  Tracer& tracer_;
  Layer add_;
  Layer final_;
};

class TimedStructuralDecoder final : public fec::StructuralDecoder {
 public:
  TimedStructuralDecoder(std::unique_ptr<fec::StructuralDecoder> inner,
                         Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool add_index(std::uint32_t index) override {
    Tracer::Span span(&tracer_, Layer::kStructuralAdd);
    return inner_->add_index(index);
  }
  bool complete() const override { return inner_->complete(); }
  void reset() override { inner_->reset(); }

 private:
  std::unique_ptr<fec::StructuralDecoder> inner_;
  Tracer& tracer_;
};

/// An ErasureCode whose encoders and decoders are timed. Shape, codec id
/// and every symbol are the wrapped code's.
class TimedCode final : public fec::ErasureCode {
 public:
  TimedCode(const fec::ErasureCode& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {
    if (const auto* tornado = dynamic_cast<const core::TornadoCode*>(&inner)) {
      tornado_ = true;
      tail_first_ = tornado->cascade().node_count();
    }
  }

  std::size_t source_count() const override { return inner_.source_count(); }
  std::size_t encoded_count() const override { return inner_.encoded_count(); }
  std::size_t symbol_size() const override { return inner_.symbol_size(); }
  fec::CodecId codec_id() const override { return inner_.codec_id(); }

  std::unique_ptr<fec::BlockEncoder> make_encoder(
      util::ConstSymbolView source) const override {
    std::unique_ptr<fec::BlockEncoder> inner;
    {
      Tracer::Span span(&tracer_, Layer::kMakeEncoder);
      inner = inner_.make_encoder(source);
    }
    const fec::BlockEncoder& ref = *inner;
    return wrap_encoder(ref, std::move(inner));
  }

  /// Times an encoder made elsewhere (borrowed when `owned` is null).
  std::unique_ptr<fec::BlockEncoder> wrap_encoder(
      const fec::BlockEncoder& encoder,
      std::unique_ptr<fec::BlockEncoder> owned = nullptr) const {
    return std::make_unique<TimedEncoder>(encoder, std::move(owned), tracer_,
                                          tornado_, inner_.source_count(),
                                          tail_first_);
  }

  std::unique_ptr<fec::IncrementalDecoder> make_decoder() const override {
    return std::make_unique<TimedDecoder>(inner_.make_decoder(), tracer_,
                                          tornado_);
  }
  std::unique_ptr<fec::StructuralDecoder> make_structural_decoder()
      const override {
    return std::make_unique<TimedStructuralDecoder>(
        inner_.make_structural_decoder(), tracer_);
  }

 private:
  const fec::ErasureCode& inner_;
  Tracer& tracer_;
  bool tornado_ = false;
  std::size_t tail_first_ = 0;
};

class TimedSource final : public engine::PacketSource {
 public:
  TimedSource(std::shared_ptr<const engine::PacketSource> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  fec::CodecId codec_id() const override { return inner_->codec_id(); }
  unsigned layer_count() const override { return inner_->layer_count(); }
  double subscribed_rate(unsigned level) const override {
    return inner_->subscribed_rate(level);
  }
  void emit(std::uint64_t round, engine::PacketBatch& batch) const override {
    Tracer::Span span(&tracer_, Layer::kSourceEmit, Tracer::kNoTrace);
    inner_->emit(round, batch);
  }

 private:
  std::shared_ptr<const engine::PacketSource> inner_;
  Tracer& tracer_;
};

class TimedLink final : public engine::LinkModel {
 public:
  TimedLink(std::unique_ptr<engine::LinkModel> inner, std::int64_t receiver,
            Tracer& tracer)
      : inner_(std::move(inner)), receiver_(receiver), tracer_(tracer) {}

  engine::Verdict transfer(engine::Time now) override {
    Tracer::Span span(&tracer_, Layer::kLinkTransfer, receiver_);
    return inner_->transfer(now);
  }
  void set_subscriber_rate(double packets_per_tick) override {
    t_rate_receiver = receiver_;
    inner_->set_subscriber_rate(packets_per_tick);
  }
  const void* shared_state() const override { return inner_->shared_state(); }
  void append_shared_states(std::vector<const void*>& out) const override {
    inner_->append_shared_states(out);
  }

 private:
  std::unique_ptr<engine::LinkModel> inner_;
  std::int64_t receiver_;
  Tracer& tracer_;
};

class TimedSink final : public engine::PacketSink {
 public:
  TimedSink(std::unique_ptr<engine::PacketSink> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  bool on_packet(const engine::Delivery& d) override {
    Tracer::Span span(&tracer_, Layer::kSinkOnPacket, receiver_);
    return inner_->on_packet(d);
  }
  bool complete() const override { return inner_->complete(); }
  void reset() override {
    receiver_ = t_rate_receiver;
    inner_->reset();
  }

 private:
  std::unique_ptr<engine::PacketSink> inner_;
  Tracer& tracer_;
  std::int64_t receiver_ = Tracer::kNoTrace;
};

class TimedPolicy final : public cc::ReceiverPolicy {
 public:
  TimedPolicy(std::unique_ptr<cc::ReceiverPolicy> inner, std::int64_t receiver,
              Tracer& tracer)
      : inner_(std::move(inner)), receiver_(receiver), tracer_(tracer) {}

  void reset(unsigned initial_level, unsigned max_level,
             std::uint64_t seed) override {
    inner_->reset(initial_level, max_level, seed);
  }
  unsigned on_round(const cc::RoundView& round, unsigned level) override {
    Tracer::Span span(&tracer_, Layer::kCcOnRound, receiver_);
    return inner_->on_round(round, level);
  }
  void on_forced_level(unsigned level) override {
    inner_->on_forced_level(level);
  }

 private:
  std::unique_ptr<cc::ReceiverPolicy> inner_;
  std::int64_t receiver_;
  Tracer& tracer_;
};

}  // namespace fountain::e2e
