#include "core/cpu_features.hpp"

#include <atomic>
#include <cstdint>

#include "core/env.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace orpheus {

namespace {

#if defined(__x86_64__) || defined(__i386__)

/** XCR0 read: the OS must have enabled ymm state (bits 1|2) for AVX
 *  registers, and also opmask/zmm state (bits 5-7) for AVX-512, to be
 *  usable, independent of what cpuid advertises. */
std::uint64_t
read_xcr0()
{
    std::uint32_t eax = 0, edx = 0;
    __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
    return (static_cast<std::uint64_t>(edx) << 32) | eax;
}

CpuFeatures
probe()
{
    CpuFeatures f;
    unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0)
        return f;
    f.sse42 = (ecx & bit_SSE4_2) != 0;
    const bool osxsave = (ecx & bit_OSXSAVE) != 0;
    const std::uint64_t xcr0 = osxsave ? read_xcr0() : 0;
    f.avx = (xcr0 & 0x6) == 0x6 && (ecx & bit_AVX) != 0;
    f.fma = f.avx && (ecx & bit_FMA) != 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
        f.avx2 = f.avx && (ebx & bit_AVX2) != 0;
        f.avx512f = f.avx && xcr0_saves_zmm_state(xcr0) &&
                    (ebx & bit_AVX512F) != 0;
    }
    return f;
}

#elif defined(__aarch64__)

/** AdvSIMD is architecturally mandatory on AArch64, so the "probe" is
 *  a compile-time fact — no getauxval needed for the baseline tier. */
CpuFeatures
probe()
{
    CpuFeatures f;
    f.neon = true;
    return f;
}

#else

CpuFeatures
probe()
{
    return {};
}

#endif

std::atomic<int> g_forced_disable{0};

} // namespace

std::string
CpuFeatures::to_string() const
{
    std::string out;
    const auto append = [&out](const char *name) {
        if (!out.empty())
            out += ' ';
        out += name;
    };
    if (sse42)
        append("sse4.2");
    if (avx)
        append("avx");
    if (avx2)
        append("avx2");
    if (fma)
        append("fma");
    if (avx512f)
        append("avx512f");
    if (neon)
        append("neon");
    if (out.empty())
        out = "none";
    return out;
}

const CpuFeatures &
cpu_features()
{
    static const CpuFeatures features = probe();
    return features;
}

const char *
simd_isa_compiled()
{
#if defined(ORPHEUS_SIMD_X86)
    return "avx2";
#elif defined(ORPHEUS_SIMD_NEON)
    return "neon";
#else
    return "";
#endif
}

bool
simd_isa_supported()
{
#if defined(ORPHEUS_SIMD_X86)
    return cpu_features().has_avx2_fma();
#elif defined(ORPHEUS_SIMD_NEON)
    return cpu_features().neon;
#else
    return false;
#endif
}

void
force_disable_simd(bool disable)
{
    g_forced_disable.store(disable ? 1 : 0, std::memory_order_relaxed);
}

bool
simd_disabled()
{
    if (g_forced_disable.load(std::memory_order_relaxed) != 0)
        return true;
    return env_flag("ORPHEUS_DISABLE_SIMD", false);
}

bool
simd_enabled()
{
    return simd_isa_supported() && !simd_disabled();
}

} // namespace orpheus
