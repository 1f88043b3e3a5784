// AVX-512BW tier. This translation unit is compiled with
// -mavx512f -mavx512bw (see the top-level CMakeLists.txt) and must only be
// entered after the dispatcher has confirmed AVX-512BW *and* OS ZMM state
// via cpuid + XCR0 — nothing here may be called otherwise.
//
// XOR: 64-byte lanes from kernels_xor.hpp. GF(2^8) and GF(2^16): the
// split-nibble kernels of kernels_gf.hpp on ZMM registers (AVX-512BW
// provides the byte shuffle; each 128-bit lane performs the 16-way
// half-table lookup), 64 byte products and 64 words per step. Hosts that
// also have GFNI get the stronger kGfni tier instead — VBMI's VPERMB offers
// no win here because the lookup tables are only 16 entries, well within a
// single VPSHUFB lane.
#include "kern/kernels_impl.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include "kern/kernels_gf.hpp"
#include "kern/kernels_xor.hpp"

namespace fountain::kern::detail {

namespace {

using Xor = XorKernels<64>;
using Gf = GfKernels<Zmm>;

constexpr Ops kOps = {Isa::kAvx512, &Xor::xor1, &Xor::xor2, &Xor::xor3,
                      &Xor::xor4, &Gf::gf256_fma, &Gf::gf65536_fma};

}  // namespace

const Ops* avx512_ops() { return &kOps; }

}  // namespace fountain::kern::detail

#else  // built without AVX-512BW support

namespace fountain::kern::detail {
const Ops* avx512_ops() { return nullptr; }
}  // namespace fountain::kern::detail

#endif
