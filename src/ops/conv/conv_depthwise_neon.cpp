/**
 * @file
 * NEON depthwise convolution inner loop (AArch64). Mirrors the AVX2
 * variant's per-tap path: scalar kernel structure, 4-wide vfmaq over
 * the unit-stride output span, scalar everywhere else. Tap order per output element is
 * identical to the scalar kernel, so results differ only by FMA
 * contraction (a few ULP).
 */
#if defined(ORPHEUS_SIMD_NEON)

#include <arm_neon.h>

#include <algorithm>

#include "core/threadpool.hpp"
#include "ops/conv/conv.hpp"

namespace orpheus {

void
conv2d_depthwise_neon(const Conv2dArgs &args)
{
    ORPHEUS_CHECK(conv2d_is_depthwise(args),
                  "conv2d_depthwise_neon requires group == in_c");
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
                const float32x4_t bias_v = vdupq_n_f32(bias);
                std::int64_t i = 0;
                for (; i + 4 <= args.out_w; i += 4)
                    vst1q_f32(out_row + i, bias_v);
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
                            const float32x4_t w_v = vdupq_n_f32(w_val);
                            std::int64_t j = lo;
                            for (; j + 4 <= hi; j += 4)
                                vst1q_f32(
                                    out_row + j,
                                    vfmaq_f32(vld1q_f32(out_row + j),
                                              w_v,
                                              vld1q_f32(src + (j - lo))));
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

} // namespace orpheus

#endif // ORPHEUS_SIMD_NEON
