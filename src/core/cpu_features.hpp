/**
 * @file
 * Runtime CPU-feature probe and SIMD dispatch switches.
 *
 * The SIMD microkernel tier (gemm/qgemm/depthwise AVX2+FMA and NEON
 * variants under src/ops) is compiled into per-ISA translation units
 * and selected at runtime: the registry predicates for the SIMD impls
 * call simd_enabled(), which combines
 *
 *   - what the build produced (ORPHEUS_SIMD_X86 / ORPHEUS_SIMD_NEON
 *     compile definitions from the ORPHEUS_SIMD CMake option),
 *   - what the silicon reports (cpuid on x86; NEON is baseline on
 *     aarch64 so the probe is compile-time there), and
 *   - what the operator asked for (ORPHEUS_DISABLE_SIMD=1 or the
 *     orpheus_cli --no-simd flag force scalar dispatch for A/B
 *     diagnosis).
 *
 * The hardware probe runs once per process; the disable switch is
 * re-read on every call so tests and tools can flip it after startup.
 */
#pragma once

#include <cstdint>
#include <string>

namespace orpheus {

/**
 * True when an XCR0 value says the OS saves the opmask, upper-ZMM and
 * high-ZMM state (bits 5-7) as well as the SSE and AVX state (bits 1-2).
 * AVX-512 instructions are usable only then, whatever cpuid advertises:
 * a kernel or hypervisor that hides ZMM state would fault on them. Pure,
 * so it can be tested on made-up values.
 */
constexpr bool
xcr0_saves_zmm_state(std::uint64_t xcr0)
{
    return (xcr0 & 0xE6) == 0xE6;
}

/** What the processor supports, probed once per process. */
struct CpuFeatures {
    bool sse42 = false;
    bool avx = false;
    bool avx2 = false;
    bool fma = false;
    /** AVX-512F advertised by cpuid and enabled by the OS (XCR0). */
    bool avx512f = false;
    bool neon = false;

    /** The x86 SIMD tier requires both AVX2 and FMA. */
    bool
    has_avx2_fma() const
    {
        return avx2 && fma;
    }

    /** Space-separated feature list, e.g. "sse4.2 avx avx2 fma". */
    std::string to_string() const;
};

/** The cached per-process probe result. */
const CpuFeatures &cpu_features();

/**
 * Name of the SIMD instruction set this binary was built with ("avx2"
 * or "neon"), or "" when the build has no SIMD tier (ORPHEUS_SIMD=OFF
 * or an unsupported architecture). Registry impl names derive their
 * suffix from this.
 */
const char *simd_isa_compiled();

/** True when the running CPU supports the compiled SIMD tier. */
bool simd_isa_supported();

/**
 * Process-wide override: force scalar dispatch regardless of the
 * environment (the CLI --no-simd flag). Pass false to undo.
 */
void force_disable_simd(bool disable);

/** True when SIMD dispatch is switched off — either by
 *  force_disable_simd() or by ORPHEUS_DISABLE_SIMD=1 (re-read on every
 *  call, so it can be set before an engine is planned). */
bool simd_disabled();

/** The single gate the SIMD kernels and registry predicates consult:
 *  compiled-in tier + CPU support + not disabled. */
bool simd_enabled();

} // namespace orpheus
