// Tier selection. The choice is made once (first call to ops()) and cached;
// tests can re-pin it via set_isa_override. Order of preference:
// GFNI > AVX-512BW > AVX2 > SSE2 > NEON > scalar, subject to compile-time
// availability and runtime cpuid checks. The 512-bit tiers additionally
// require the OS to have enabled ZMM/opmask state (XCR0), probed directly
// via cpuid/xgetbv so the check is identical across compilers.
#include "kern/kernels.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "kern/kernels_impl.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#if defined(__GNUC__) || defined(__clang__)
#include <cpuid.h>
#endif
#endif

namespace fountain::kern {

namespace {

bool cpu_has_avx2() {
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
/// CPUID leaf 7 feature bits plus the XCR0 state check the 512-bit tiers
/// need: OSXSAVE with XMM, YMM, opmask, ZMM_Hi256 and Hi16_ZMM state all
/// enabled ((XCR0 & 0xe6) == 0xe6). Evaluated once.
struct X86Features {
  bool avx512bw = false;
  bool gfni = false;
  X86Features() {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return;
    const bool osxsave = (ecx & (1u << 27)) != 0;
    if (!osxsave) return;
    std::uint32_t xcr0_lo = 0, xcr0_hi = 0;
    __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
    if ((xcr0_lo & 0xe6u) != 0xe6u) return;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return;
    avx512bw = (ebx & (1u << 30)) != 0;
    gfni = (ecx & (1u << 8)) != 0;
  }
};

const X86Features& x86_features() {
  static const X86Features f;
  return f;
}

bool cpu_has_avx512bw() { return x86_features().avx512bw; }
bool cpu_has_gfni512() {
  return x86_features().gfni && x86_features().avx512bw;
}
#else
bool cpu_has_avx512bw() { return false; }
bool cpu_has_gfni512() { return false; }
#endif

/// Env override: FOUNTAIN_FORCE_ISA. Unknown or unsupported requests fall
/// through to auto-selection.
const Ops* env_override() {
  if (const char* v = std::getenv("FOUNTAIN_FORCE_ISA")) {
    if (std::strcmp(v, "scalar") == 0) return &detail::scalar_ops();
    if (std::strcmp(v, "sse2") == 0) return ops_for(Isa::kSse2);
    if (std::strcmp(v, "avx2") == 0) return ops_for(Isa::kAvx2);
    if (std::strcmp(v, "avx512") == 0) return ops_for(Isa::kAvx512);
    if (std::strcmp(v, "gfni") == 0) return ops_for(Isa::kGfni);
    if (std::strcmp(v, "neon") == 0) return ops_for(Isa::kNeon);
  }
  return nullptr;
}

const Ops* select() {
  if (const Ops* forced = env_override()) return forced;
  if (const Ops* o = ops_for(Isa::kGfni)) return o;
  if (const Ops* o = ops_for(Isa::kAvx512)) return o;
  if (const Ops* o = ops_for(Isa::kAvx2)) return o;
  if (const Ops* o = ops_for(Isa::kSse2)) return o;
  if (const Ops* o = ops_for(Isa::kNeon)) return o;
  return &detail::scalar_ops();
}

std::atomic<const Ops*> g_override{nullptr};

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kSse2: return "sse2";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
    case Isa::kGfni: return "gfni";
    case Isa::kNeon: return "neon";
  }
  return "unknown";
}

const Ops* ops_for(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &detail::scalar_ops();
    case Isa::kSse2:
      return detail::sse2_ops();
    case Isa::kAvx2:
      return cpu_has_avx2() ? detail::avx2_ops() : nullptr;
    case Isa::kAvx512:
      return cpu_has_avx512bw() ? detail::avx512_ops() : nullptr;
    case Isa::kGfni:
      return cpu_has_gfni512() ? detail::gfni_ops() : nullptr;
    case Isa::kNeon:
      return detail::neon_ops();
  }
  return nullptr;
}

const Ops& ops() {
  if (const Ops* forced = g_override.load(std::memory_order_acquire)) {
    return *forced;
  }
  static const Ops* const selected = select();
  return *selected;
}

Isa active_isa() { return ops().isa; }

bool set_isa_override(Isa isa) {
  const Ops* o = ops_for(isa);
  if (o == nullptr) return false;
  g_override.store(o, std::memory_order_release);
  return true;
}

void clear_isa_override() {
  g_override.store(nullptr, std::memory_order_release);
}

}  // namespace fountain::kern
