// SSE2 tier (x86-64 baseline — always compiled in on x86-64, no extra
// flags). 16-byte XOR lanes from kernels_xor.hpp; GF(2^8) and GF(2^16) fall
// back to the scalar table loops because PSHUFB is SSSE3+ (the AVX2 tier
// carries the split-nibble multiplies).
#include "kern/kernels_impl.hpp"

#if defined(__SSE2__)

#include "kern/kernels_xor.hpp"

namespace fountain::kern::detail {

namespace {

using Xor = XorKernels<16>;

constexpr Ops kOps = {Isa::kSse2, &Xor::xor1, &Xor::xor2, &Xor::xor3,
                      &Xor::xor4, &scalar_gf256_fma, &scalar_gf65536_fma};

}  // namespace

const Ops* sse2_ops() { return &kOps; }

}  // namespace fountain::kern::detail

#else  // non-x86 build: tier absent

namespace fountain::kern::detail {
const Ops* sse2_ops() { return nullptr; }
}  // namespace fountain::kern::detail

#endif
