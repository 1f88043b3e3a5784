// Runtime-dispatched byte-level kernels — the innermost loops of every code
// in this library. The paper's speed claim (Tables 2/3) rests on the XOR
// inner loop; this layer makes that loop, and the GF(2^8) and GF(2^16)
// multiply-accumulates behind the Reed-Solomon codes (GF(2^16) being the
// field of the Tornado cascade's RS tail), run as wide as the host allows.
//
// Dispatch: an implementation table (`Ops`) per instruction-set tier —
// GFNI -> AVX-512BW -> AVX2 -> SSE2 -> scalar on x86-64, NEON -> scalar on
// AArch64 — selected once on first use (cpuid, with an XCR0 check for the
// 512-bit tiers so a kernel that disables ZMM state is respected) and cached
// in a function-pointer table. `FOUNTAIN_FORCE_ISA=scalar|sse2|avx2|avx512|
// gfni|neon` overrides selection at process start; `set_isa_override` does
// the same programmatically for tests. Forcing a tier the host lacks falls
// through to auto-selection.
//
// On top of the per-tier single-destination kernels, this header exposes the
// cache-blocked multi-row primitives `xor_block_rows` / `gf256_fma_rows` /
// `gf65536_fma_rows`:
// they fold an arbitrary number of source rows into one destination, tiled
// in `kRowTileBytes` chunks so the destination tile stays L1-resident across
// all sources instead of being re-read from L2/DRAM once per source. These
// are the batching entry points for whole check-packet neighborhoods
// (encoder), gathered substitution (decoder), and RS row synthesis.
//
// Contracts (all entry points): buffers are raw byte ranges of exactly
// `n` bytes; NO size or alignment checks are performed — callers validate
// shapes once per batch (the checked public API is `util::xor_into`).
// Unaligned pointers are permitted (kernels use unaligned loads). `dst` may
// equal a source pointer exactly (xor of a buffer with itself zeroes it);
// partial overlap is undefined.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fountain::kern {

enum class Isa { kScalar, kSse2, kAvx2, kAvx512, kGfni, kNeon };

const char* isa_name(Isa isa);

/// Per-constant GF(2^8) multiply context. `lo[x] = c * x` and
/// `hi[x] = c * (x << 4)` for x in [0, 16) are the two PSHUFB/vqtbl1q
/// half-tables of the split-nibble technique (Plank et al. / ISA-L);
/// `full[x] = c * x` for x in [0, 256) serves the scalar path and tails.
/// `affine` is the same multiply as an 8x8 GF(2) bit-matrix packed for
/// GF2P8AFFINEQB (byte 7-r holds the input-bit mask producing output bit r),
/// which lets the GFNI tier evaluate 64 products per instruction — in OUR
/// field (0x11D): the affine form works for any GF(2^8) modulus, unlike
/// GF2P8MULB which is hardwired to the AES polynomial 0x11B.
/// The pointers reference tables owned by gf::GF256 and stay valid for the
/// process lifetime.
struct Gf256Ctx {
  const std::uint8_t* lo;
  const std::uint8_t* hi;
  const std::uint8_t* full;
  std::uint64_t affine;
};

/// Per-constant GF(2^16) multiply context: `basis[j] = c * x^j` for j in
/// [0, 16), the images of the sixteen input bits under multiplication by c
/// (in gf::GF65536 this is a 16-word slice of the exp table, so building a
/// context costs one log lookup). Multiplication by c is GF(2)-linear, so
/// c * w is the XOR of the basis words selected by the bits of w, and each
/// tier derives its own tables from this row on kernel entry: four 16-entry
/// split-nibble tables (scalar; and, split into low and high result bytes,
/// eight PSHUFB/vqtbl1q half-tables) or four 8x8 GF2P8AFFINEQB bit-matrices
/// (GFNI), one per (input byte, output byte) pair of the 16x16 bit-matrix.
/// The pointer must stay valid for the duration of the call.
struct Gf65536Ctx {
  const std::uint16_t* basis;
};

/// One implementation tier: every kernel the layer exposes, as plain
/// function pointers so the selected tier is a single indirect call.
struct Ops {
  Isa isa;
  /// dst ^= a
  void (*xor_block)(std::uint8_t* dst, const std::uint8_t* a, std::size_t n);
  /// dst ^= a ^ b — folds two sources per pass over dst (half the dst
  /// traffic of two xor_block calls); _3/_4 fold three/four.
  void (*xor_block_2)(std::uint8_t* dst, const std::uint8_t* a,
                      const std::uint8_t* b, std::size_t n);
  void (*xor_block_3)(std::uint8_t* dst, const std::uint8_t* a,
                      const std::uint8_t* b, const std::uint8_t* c,
                      std::size_t n);
  void (*xor_block_4)(std::uint8_t* dst, const std::uint8_t* a,
                      const std::uint8_t* b, const std::uint8_t* c,
                      const std::uint8_t* d, std::size_t n);
  /// dst ^= c * src over GF(2^8), c described by `ctx`.
  void (*gf256_fma)(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                    const Gf256Ctx& ctx);
  /// dst ^= c * src over GF(2^16): `n` must be even, and the buffers hold
  /// 16-bit words in host byte order (little-endian on every SIMD target).
  void (*gf65536_fma)(std::uint8_t* dst, const std::uint8_t* src,
                      std::size_t n, const Gf65536Ctx& ctx);
};

/// The active tier (selected once, then cached; see file comment).
const Ops& ops();

/// The tier's table if it is compiled in AND supported by this CPU, else
/// nullptr. `kScalar` always succeeds. Used by the differential tests and
/// the micro benches to exercise every tier explicitly.
const Ops* ops_for(Isa isa);

Isa active_isa();

/// Test/bench hook: force a specific tier (must be supported — returns false
/// and leaves the selection unchanged otherwise).
bool set_isa_override(Isa isa);
void clear_isa_override();

// Dispatched convenience wrappers.
inline void xor_block(std::uint8_t* dst, const std::uint8_t* a,
                      std::size_t n) {
  ops().xor_block(dst, a, n);
}
inline void gf256_fma_block(std::uint8_t* dst, const std::uint8_t* src,
                            std::size_t n, const Gf256Ctx& ctx) {
  ops().gf256_fma(dst, src, n, ctx);
}
inline void gf65536_fma_block(std::uint8_t* dst, const std::uint8_t* src,
                              std::size_t n, const Gf65536Ctx& ctx) {
  ops().gf65536_fma(dst, src, n, ctx);
}

// ---- Cache-blocked multi-row primitives (kernels_rows.cpp) ----

/// Tile width of the multi-row fold: the destination tile (4 KB) plus four
/// streaming source tiles fit comfortably in a 32 KB L1D, so a degree-d fold
/// touches main memory once per source row and once for the destination
/// regardless of d or row length. Rows at or below this size degenerate to
/// the un-tiled group fold with zero overhead.
inline constexpr std::size_t kRowTileBytes = 4096;

/// dst ^= srcs[0] ^ srcs[1] ^ ... ^ srcs[count-1], all rows exactly `n`
/// bytes. Folds four sources per pass over each destination tile via the
/// tier's xor_block_4/3/2. Duplicate source pointers are permitted (they
/// cancel pairwise); dst must not overlap any source except exact equality.
void xor_block_rows(const Ops& ops, std::uint8_t* dst,
                    const std::uint8_t* const* srcs, std::size_t count,
                    std::size_t n);

/// dst ^= sum_i ctxs[i] * srcs[i] over GF(2^8), tiled like xor_block_rows so
/// the destination tile is read and written from L1 once per source row.
void gf256_fma_rows(const Ops& ops, std::uint8_t* dst,
                    const std::uint8_t* const* srcs, const Gf256Ctx* ctxs,
                    std::size_t count, std::size_t n);

/// dst ^= sum_i ctxs[i] * srcs[i] over GF(2^16), tiled the same way; `n`
/// must be even (kRowTileBytes is, so every tile keeps the 16-bit grid).
void gf65536_fma_rows(const Ops& ops, std::uint8_t* dst,
                      const std::uint8_t* const* srcs, const Gf65536Ctx* ctxs,
                      std::size_t count, std::size_t n);

inline void xor_block_rows(std::uint8_t* dst, const std::uint8_t* const* srcs,
                           std::size_t count, std::size_t n) {
  xor_block_rows(ops(), dst, srcs, count, n);
}
inline void gf256_fma_rows(std::uint8_t* dst, const std::uint8_t* const* srcs,
                           const Gf256Ctx* ctxs, std::size_t count,
                           std::size_t n) {
  gf256_fma_rows(ops(), dst, srcs, ctxs, count, n);
}
inline void gf65536_fma_rows(std::uint8_t* dst,
                             const std::uint8_t* const* srcs,
                             const Gf65536Ctx* ctxs, std::size_t count,
                             std::size_t n) {
  gf65536_fma_rows(ops(), dst, srcs, ctxs, count, n);
}

}  // namespace fountain::kern
