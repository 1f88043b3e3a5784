// Cache-blocked multi-row folds. The tiling is ISA-independent — it walks
// the rows in kRowTileBytes chunks and drives the selected tier's
// single-tile kernels — so one implementation serves every tier; the per-ISA
// work all happens inside the xor_block_*/gf256_fma/gf65536_fma function
// pointers.
//
// Why block: a row-at-a-time fold of d source rows reads and writes the
// destination d times. For rows larger than L1 that destination traffic goes
// to L2/DRAM and dominates. Folding tile-by-tile keeps the 4 KB destination
// tile L1-resident while every source row streams through exactly once, so
// the memory traffic is (d + 2) tiles per tile position instead of 3d.
#include <algorithm>

#include "kern/kernels.hpp"

namespace fountain::kern {

namespace {

/// Folds srcs[0..count) at byte offset `off` (length `len`) into d, four
/// sources per destination pass.
inline void fold_tile(const Ops& ops, std::uint8_t* d,
                      const std::uint8_t* const* srcs, std::size_t count,
                      std::size_t off, std::size_t len) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    ops.xor_block_4(d, srcs[i] + off, srcs[i + 1] + off, srcs[i + 2] + off,
                    srcs[i + 3] + off, len);
  }
  switch (count - i) {
    case 3:
      ops.xor_block_3(d, srcs[i] + off, srcs[i + 1] + off, srcs[i + 2] + off,
                      len);
      break;
    case 2:
      ops.xor_block_2(d, srcs[i] + off, srcs[i + 1] + off, len);
      break;
    case 1:
      ops.xor_block(d, srcs[i] + off, len);
      break;
    default:
      break;
  }
}

}  // namespace

void xor_block_rows(const Ops& ops, std::uint8_t* dst,
                    const std::uint8_t* const* srcs, std::size_t count,
                    std::size_t n) {
  if (count == 0 || n == 0) return;
  for (std::size_t off = 0; off < n; off += kRowTileBytes) {
    const std::size_t len = std::min(kRowTileBytes, n - off);
    fold_tile(ops, dst + off, srcs, count, off, len);
  }
}

void gf256_fma_rows(const Ops& ops, std::uint8_t* dst,
                    const std::uint8_t* const* srcs, const Gf256Ctx* ctxs,
                    std::size_t count, std::size_t n) {
  if (count == 0 || n == 0) return;
  for (std::size_t off = 0; off < n; off += kRowTileBytes) {
    const std::size_t len = std::min(kRowTileBytes, n - off);
    std::uint8_t* d = dst + off;
    for (std::size_t i = 0; i < count; ++i) {
      ops.gf256_fma(d, srcs[i] + off, len, ctxs[i]);
    }
  }
}

void gf65536_fma_rows(const Ops& ops, std::uint8_t* dst,
                      const std::uint8_t* const* srcs, const Gf65536Ctx* ctxs,
                      std::size_t count, std::size_t n) {
  if (count == 0 || n == 0) return;
  for (std::size_t off = 0; off < n; off += kRowTileBytes) {
    const std::size_t len = std::min(kRowTileBytes, n - off);
    std::uint8_t* d = dst + off;
    for (std::size_t i = 0; i < count; ++i) {
      ops.gf65536_fma(d, srcs[i] + off, len, ctxs[i]);
    }
  }
}

}  // namespace fountain::kern
