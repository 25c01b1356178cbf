/**
 * @file
 * AVX2+FMA depthwise convolution (per-file -mavx2 -mfma).
 *
 * One (batch, channel) job per pool task, as in the scalar kernel. The
 * 3x3, dilation-1, stride-1/2 shapes (every depthwise layer of
 * MobileNetV1) take a row-blocked path: for each block of kRowBlock
 * output rows the padded input rows it reads are staged into a bounded
 * stack buffer (zero columns for the pads plus vector slack, input rows
 * outside the image as a shared zero row, and at stride 2 the columns
 * split into even and odd halves so every tap is a unit-stride load).
 * Each output vector then starts at the bias, takes its nine taps as
 * FMAs in (kh, kw) order in registers, is activated in register and
 * stored once; the block's rows are independent FMA chains.
 *
 * Per output element the accumulation order is the scalar kernel's
 * (bias, then the taps in order); a padding tap adds fma(w, 0, acc) ==
 * acc, so results differ from conv2d_depthwise_direct only by FMA
 * contraction and the sign of an exact zero. The in-register
 * activations match ActivationSpec::apply() bit for bit (NaN and +-0
 * included); sigmoid and tanh go through apply_inplace on the stored
 * rows. Other shapes, and rows too wide for the stack bound, keep the
 * per-tap loop in depthwise_per_tap().
 */
#if defined(ORPHEUS_SIMD_X86)

#include <immintrin.h>

#include <algorithm>

#include "core/threadpool.hpp"
#include "ops/conv/conv.hpp"

namespace orpheus {

namespace {

constexpr int kRowBlock = 4;
/** Stack staging bound: 16 KB of floats per job. */
constexpr std::int64_t kStageFloats = 4096;

/**
 * Per-tap loop for the shapes the row-blocked path does not cover: bias
 * fill, then each tap FMA'd over its in-bounds unit-stride output span
 * (strided widths stay scalar), activation per row.
 */
void
depthwise_per_tap(const Conv2dArgs &args)
{
    const Conv2dParams &p = args.params;
    const std::int64_t multiplier = args.out_c / args.in_c;
    const std::int64_t kernel_area = p.kernel_h * p.kernel_w;

    parallel_for(args.batch * args.out_c, [&](std::int64_t begin,
                                              std::int64_t end) {
        for (std::int64_t job = begin; job < end; ++job) {
            const std::int64_t n = job / args.out_c;
            const std::int64_t oc = job % args.out_c;
            const std::int64_t ic = oc / multiplier;
            const float *in_plane =
                args.input + (n * args.in_c + ic) * args.in_h * args.in_w;
            const float *w = args.weight + oc * kernel_area;
            const float bias = args.bias != nullptr ? args.bias[oc] : 0.0f;
            float *out_plane =
                args.output + (n * args.out_c + oc) * args.out_h * args.out_w;

            for (std::int64_t oh = 0; oh < args.out_h; ++oh) {
                float *out_row = out_plane + oh * args.out_w;
                const __m256 bias_v = _mm256_set1_ps(bias);
                std::int64_t i = 0;
                for (; i + 8 <= args.out_w; i += 8)
                    _mm256_storeu_ps(out_row + i, bias_v);
                for (; i < args.out_w; ++i)
                    out_row[i] = bias;

                for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
                    const std::int64_t ih =
                        oh * p.stride_h - p.pad_top + kh * p.dilation_h;
                    if (ih < 0 || ih >= args.in_h)
                        continue;
                    const float *in_row = in_plane + ih * args.in_w;
                    for (std::int64_t kw = 0; kw < p.kernel_w; ++kw) {
                        const float w_val = w[kh * p.kernel_w + kw];
                        const std::int64_t base =
                            kw * p.dilation_w - p.pad_left;
                        // In-bounds output column range for this tap.
                        std::int64_t lo = 0, hi = args.out_w;
                        while (lo < hi && base + lo * p.stride_w < 0)
                            ++lo;
                        while (hi > lo &&
                               base + (hi - 1) * p.stride_w >= args.in_w)
                            --hi;
                        if (p.stride_w == 1) {
                            const float *src = in_row + base + lo;
                            const __m256 w_v = _mm256_set1_ps(w_val);
                            std::int64_t j = lo;
                            for (; j + 8 <= hi; j += 8)
                                _mm256_storeu_ps(
                                    out_row + j,
                                    _mm256_fmadd_ps(
                                        w_v,
                                        _mm256_loadu_ps(src + (j - lo)),
                                        _mm256_loadu_ps(out_row + j)));
                            for (; j < hi; ++j)
                                out_row[j] += w_val * src[j - lo];
                        } else {
                            for (std::int64_t j = lo; j < hi; ++j)
                                out_row[j] +=
                                    w_val * in_row[base + j * p.stride_w];
                        }
                    }
                }

                args.activation.apply_inplace(out_row, args.out_w);
            }
        }
    });
}

/**
 * In-register form of ActivationSpec::apply(). The operand orders are
 * the bit-exact ones: max_ps/min_ps return their second operand when
 * either is NaN or both are zero, exactly like the scalar ternaries.
 * Sigmoid and tanh pass through here and are applied to the stored row.
 */
struct VectorActivation {
    ActivationKind kind;
    __m256 zero, alpha, lo, hi;

    explicit VectorActivation(const ActivationSpec &spec)
        : kind(spec.kind), zero(_mm256_setzero_ps()),
          alpha(_mm256_set1_ps(spec.alpha)), lo(_mm256_set1_ps(spec.min)),
          hi(_mm256_set1_ps(spec.max))
    {
    }

    bool deferred() const
    {
        return kind == ActivationKind::kSigmoid ||
               kind == ActivationKind::kTanh;
    }

    __m256
    operator()(__m256 v) const
    {
        switch (kind) {
          case ActivationKind::kRelu:
            return _mm256_max_ps(v, zero);
          case ActivationKind::kLeakyRelu:
            return _mm256_blendv_ps(_mm256_mul_ps(alpha, v), v,
                                    _mm256_cmp_ps(v, zero, _CMP_GT_OQ));
          case ActivationKind::kClip:
            return _mm256_min_ps(hi, _mm256_max_ps(lo, v));
          default:
            return v;
        }
    }
};

/** Staging layout shared by every job of one call. */
struct StageGeometry {
    std::int64_t row_floats; ///< Floats per staged row.
    std::int64_t half;       ///< Odd-column offset at stride 2, else 0.
    std::int64_t pad_left;
    std::int64_t copy_cols;  ///< Input columns copied into a row.
    __m256i copy_tail;       ///< Lanes of the last, partial copy vector.
    std::int64_t tap_off[3]; ///< Staged-row offset of tap kw.
    std::int64_t total;      ///< Floats of stack the job needs.
};

/** Lane mask with the first @p count lanes set. */
__m256i
first_lanes(std::int64_t count)
{
    return _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<std::int32_t>(count)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/**
 * Lays out the staged rows for a 3x3 dilation-1 conv. A staged row at
 * stride 1 is the padded input row; at stride 2 it is its even columns
 * followed by its odd columns, so tap kw of output column j reads
 * column j + tap_off[kw]. Rows are sized so every 8-lane load of the
 * last (partial) output vector stays inside them.
 */
StageGeometry
stage_geometry(const Conv2dArgs &args)
{
    const Conv2dParams &p = args.params;
    const std::int64_t vec_w = (args.out_w + 7) / 8 * 8;
    // Padded columns the valid outputs read.
    const std::int64_t used = (args.out_w - 1) * p.stride_w + 3;
    StageGeometry g{};
    g.pad_left = p.pad_left;
    g.copy_cols =
        std::clamp<std::int64_t>(used - p.pad_left, 0, args.in_w);
    g.copy_tail = first_lanes(g.copy_cols % 8);
    if (p.stride_w == 1) {
        g.row_floats = vec_w + 8;
        g.half = 0;
        g.tap_off[0] = 0;
        g.tap_off[1] = 1;
        g.tap_off[2] = 2;
    } else {
        g.half = vec_w + 8;
        g.row_floats = 2 * g.half;
        g.tap_off[0] = 0;
        g.tap_off[1] = g.half;
        g.tap_off[2] = 1;
    }
    const std::int64_t slots = (kRowBlock - 1) * p.stride_h + 3;
    // A zero row, one slot per row a block reads and, at stride 2, the
    // padded line the columns are split from.
    g.total = (1 + slots) * g.row_floats +
              (p.stride_w == 2 ? g.row_floats : 0);
    return g;
}

/**
 * Stages one input row: the padded row itself at stride 1, its even and
 * odd columns (split with shuffles) at stride 2. The buffer is zeroed
 * once per task and only the input's column span of a row (or of the
 * padded line) is written afterwards, so the pad columns stay zero.
 */
void
stage_row(const float *in_row, const StageGeometry &g, float *row,
          float *line)
{
    float *dst = (g.half == 0 ? row : line) + g.pad_left;
    std::int64_t i = 0;
    for (; i + 8 <= g.copy_cols; i += 8)
        _mm256_storeu_ps(dst + i, _mm256_loadu_ps(in_row + i));
    if (i < g.copy_cols)
        _mm256_maskstore_ps(dst + i, g.copy_tail,
                            _mm256_maskload_ps(in_row + i, g.copy_tail));
    if (g.half == 0)
        return;
    float *even = row;
    float *odd = row + g.half;
    for (i = 0; i < g.half; i += 8) {
        const __m256 a = _mm256_loadu_ps(line + 2 * i);
        const __m256 b = _mm256_loadu_ps(line + 2 * i + 8);
        // Per 128-bit lane: [a0 a2 b0 b2] / [a1 a3 b1 b3]; the 64-bit
        // permute restores column order.
        const __m256 e = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(2, 0, 2, 0));
        const __m256 o = _mm256_shuffle_ps(a, b, _MM_SHUFFLE(3, 1, 3, 1));
        _mm256_storeu_ps(even + i,
                         _mm256_castpd_ps(_mm256_permute4x64_pd(
                             _mm256_castps_pd(e), _MM_SHUFFLE(3, 1, 2, 0))));
        _mm256_storeu_ps(odd + i,
                         _mm256_castpd_ps(_mm256_permute4x64_pd(
                             _mm256_castps_pd(o), _MM_SHUFFLE(3, 1, 2, 0))));
    }
}

/**
 * Computes R consecutive output rows from the (R-1)*SH+3 staged rows
 * they read. Staged row s feeds output row r through kernel row
 * kh = s - r*SH; walking s, then kw, keeps each output's taps in
 * (kh, kw) order while the R accumulators form independent FMA chains.
 */
template <int SH, int R>
void
conv_row_block(const float *const *rows, const StageGeometry &g,
               const __m256 *w, __m256 bias, const VectorActivation &act,
               __m256i tail_mask, float *out, std::int64_t out_w)
{
    constexpr int kRows = (R - 1) * SH + 3;
    for (std::int64_t j = 0; j < out_w; j += 8) {
        __m256 acc[R];
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r)
            acc[r] = bias;
#pragma GCC unroll 9
        for (int s = 0; s < kRows; ++s) {
#pragma GCC unroll 3
            for (int kw = 0; kw < 3; ++kw) {
                const __m256 v = _mm256_loadu_ps(rows[s] + g.tap_off[kw] + j);
#pragma GCC unroll 4
                for (int r = 0; r < R; ++r) {
                    const int kh = s - r * SH;
                    if (kh >= 0 && kh < 3)
                        acc[r] = _mm256_fmadd_ps(w[kh * 3 + kw], v, acc[r]);
                }
            }
        }
        const bool full = j + 8 <= out_w;
#pragma GCC unroll 4
        for (int r = 0; r < R; ++r) {
            float *dst = out + r * out_w + j;
            if (full)
                _mm256_storeu_ps(dst, act(acc[r]));
            else
                _mm256_maskstore_ps(dst, tail_mask, act(acc[r]));
        }
    }
}

template <int SH>
void
depthwise_3x3_rows(const Conv2dArgs &args, const StageGeometry &g)
{
    constexpr int kSlots = (kRowBlock - 1) * SH + 3;
    const Conv2dParams &p = args.params;
    const std::int64_t multiplier = args.out_c / args.in_c;
    const VectorActivation act(args.activation);
    const __m256i tail_mask = first_lanes(args.out_w % 8);

    parallel_for(args.batch * args.out_c, [&](std::int64_t begin,
                                              std::int64_t end) {
        alignas(32) float stage[kStageFloats];
        std::fill(stage, stage + g.total, 0.0f);
        const float *zero_row = stage;
        float *slots = stage + g.row_floats;
        float *line = slots + kSlots * g.row_floats;

        for (std::int64_t job = begin; job < end; ++job) {
            const std::int64_t n = job / args.out_c;
            const std::int64_t oc = job % args.out_c;
            const std::int64_t ic = oc / multiplier;
            const float *in_plane =
                args.input + (n * args.in_c + ic) * args.in_h * args.in_w;
            const float *wp = args.weight + oc * 9;
            __m256 w[9];
            for (int t = 0; t < 9; ++t)
                w[t] = _mm256_set1_ps(wp[t]);
            const __m256 bias = _mm256_set1_ps(
                args.bias != nullptr ? args.bias[oc] : 0.0f);
            float *out_plane =
                args.output + (n * args.out_c + oc) * args.out_h * args.out_w;

            // Input row ih lives in slot ih % kSlots. Blocks move down
            // the plane, so each row is staged once, and a block's rows
            // (at most kSlots) never share a slot.
            const float *rows[kSlots];
            std::int64_t staged = -1;
            auto stage_block = [&](std::int64_t oh, int count) {
                const std::int64_t ih0 = oh * SH - p.pad_top;
                for (int s = 0; s < count; ++s) {
                    const std::int64_t ih = ih0 + s;
                    if (ih < 0 || ih >= args.in_h) {
                        rows[s] = zero_row;
                        continue;
                    }
                    float *row = slots + (ih % kSlots) * g.row_floats;
                    if (ih > staged) {
                        stage_row(in_plane + ih * args.in_w, g, row, line);
                        staged = ih;
                    }
                    rows[s] = row;
                }
            };
            auto finish = [&](float *out_row, int count) {
                if (act.deferred()) {
                    for (int r = 0; r < count; ++r)
                        args.activation.apply_inplace(
                            out_row + r * args.out_w, args.out_w);
                }
            };

            std::int64_t oh = 0;
            for (; oh + kRowBlock <= args.out_h; oh += kRowBlock) {
                stage_block(oh, kSlots);
                float *out_row = out_plane + oh * args.out_w;
                conv_row_block<SH, kRowBlock>(rows, g, w, bias, act,
                                              tail_mask, out_row, args.out_w);
                finish(out_row, kRowBlock);
            }
            for (; oh < args.out_h; ++oh) {
                stage_block(oh, 3);
                float *out_row = out_plane + oh * args.out_w;
                conv_row_block<SH, 1>(rows, g, w, bias, act, tail_mask,
                                      out_row, args.out_w);
                finish(out_row, 1);
            }
        }
    });
}

} // namespace

void
conv2d_depthwise_avx2(const Conv2dArgs &args)
{
    ORPHEUS_CHECK(conv2d_is_depthwise(args),
                  "conv2d_depthwise_avx2 requires group == in_c");
    const Conv2dParams &p = args.params;
    const bool row_blocked = p.kernel_h == 3 && p.kernel_w == 3 &&
                             p.dilation_h == 1 && p.dilation_w == 1 &&
                             (p.stride_h == 1 || p.stride_h == 2) &&
                             (p.stride_w == 1 || p.stride_w == 2);
    if (row_blocked) {
        const StageGeometry g = stage_geometry(args);
        if (g.total <= kStageFloats) {
            if (p.stride_h == 1)
                depthwise_3x3_rows<1>(args, g);
            else
                depthwise_3x3_rows<2>(args, g);
            return;
        }
    }
    depthwise_per_tap(args);
}

} // namespace orpheus

#endif // ORPHEUS_SIMD_X86
