// AVX2 tier. This translation unit is compiled with -mavx2 (see the
// top-level CMakeLists.txt) and must only be entered after the dispatcher
// has confirmed AVX2 via cpuid — nothing here may be called on a non-AVX2
// machine.
//
// XOR: 32-byte lanes from kernels_xor.hpp. GF(2^8) and GF(2^16): the
// split-nibble VPSHUFB kernels of kernels_gf.hpp on YMM registers, 32 byte
// products per step and 32 words per step.
#include "kern/kernels_impl.hpp"

#if defined(__AVX2__)

#include "kern/kernels_gf.hpp"
#include "kern/kernels_xor.hpp"

namespace fountain::kern::detail {

namespace {

using Xor = XorKernels<32>;
using Gf = GfKernels<Ymm>;

constexpr Ops kOps = {Isa::kAvx2, &Xor::xor1, &Xor::xor2, &Xor::xor3,
                      &Xor::xor4, &Gf::gf256_fma, &Gf::gf65536_fma};

}  // namespace

const Ops* avx2_ops() { return &kOps; }

}  // namespace fountain::kern::detail

#else  // built without -mavx2 (non-x86 target, or compiler without support)

namespace fountain::kern::detail {
const Ops* avx2_ops() { return nullptr; }
}  // namespace fountain::kern::detail

#endif
