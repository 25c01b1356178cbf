/**
 * @file
 * Spatial-pack convolution, modelled on TVM's "spatial pack" schedule
 * for ARM CPUs.
 *
 * Like TVM's schedule, the kernel packs *both* operands before
 * computing:
 *
 *   1. weights, once per call, into [ic][kh][kw][ocb] order so the
 *      innermost loads are sequential, and
 *   2. the input, into a zero-padded copy (TVM's data_pad stage) wide
 *      enough that every output tile — including the last, partial
 *      one — can be computed by a branch-free loop nest whose address
 *      arithmetic is fully affine. That property lets the vectoriser
 *      keep the whole kOcTile x kOwTile accumulator tile in vector
 *      registers across the (ic, kh, kw) reduction.
 *
 * The padded copy costs one pass over the input — far less than the
 * K-fold expansion im2col writes — so spatial pack wins when channel
 * counts are small and loses to GEMM conv once K = ic*kh*kw is large
 * enough to amortise the im2col traffic: the crossover the paper
 * describes in §III.
 */
#include "ops/conv/conv.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/threadpool.hpp"

namespace orpheus {

namespace {

constexpr std::int64_t kOcTile = 4;
constexpr std::int64_t kOwTile = 16;

/**
 * Accumulates one kOcTile x kOwTile tile over all of a group's input
 * channels. @p in_base points at the tile's top-left input sample
 * inside the padded copy; all accesses are in bounds by construction.
 */
inline void
accumulate_tile(const float *__restrict in_base,
                const float *__restrict w_block, std::int64_t group_in_c,
                std::int64_t plane, std::int64_t row_stride,
                const Conv2dParams &p, float acc0[kOwTile],
                float acc1[kOwTile], float acc2[kOwTile],
                float acc3[kOwTile])
{
    const std::int64_t kernel_area = p.kernel_h * p.kernel_w;
    for (std::int64_t ic = 0; ic < group_in_c; ++ic) {
        const float *__restrict ip = in_base + ic * plane;
        const float *__restrict wc = w_block + ic * kernel_area * kOcTile;
        for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
            for (std::int64_t kw = 0; kw < p.kernel_w; ++kw) {
                const float *w_vec =
                    wc + (kh * p.kernel_w + kw) * kOcTile;
                const float w0 = w_vec[0];
                const float w1 = w_vec[1];
                const float w2 = w_vec[2];
                const float w3 = w_vec[3];
                const float *src = ip + kh * p.dilation_h * row_stride +
                                   kw * p.dilation_w;
                if (p.stride_w == 1) {
                    for (std::int64_t i = 0; i < kOwTile; ++i) {
                        const float v = src[i];
                        acc0[i] += w0 * v;
                        acc1[i] += w1 * v;
                        acc2[i] += w2 * v;
                        acc3[i] += w3 * v;
                    }
                } else {
                    for (std::int64_t i = 0; i < kOwTile; ++i) {
                        const float v = src[i * p.stride_w];
                        acc0[i] += w0 * v;
                        acc1[i] += w1 * v;
                        acc2[i] += w2 * v;
                        acc3[i] += w3 * v;
                    }
                }
            }
        }
    }
}

/** Width of the padded input copy: the declared padding, widened to
 *  cover the overrun of the last, partial output tile. */
std::int64_t
padded_width(const Conv2dArgs &args)
{
    const Conv2dParams &p = args.params;
    const std::int64_t tiles_w = (args.out_w + kOwTile - 1) / kOwTile;
    const std::int64_t needed_w = (tiles_w * kOwTile - 1) * p.stride_w +
                                  (p.kernel_w - 1) * p.dilation_w + 1;
    return std::max(args.in_w + p.pad_left + p.pad_right, needed_w);
}

} // namespace

std::size_t
conv2d_spatial_pack_weights_floats(const Conv2dArgs &args)
{
    const Conv2dParams &p = args.params;
    const std::int64_t group_in_c = args.in_c / p.group;
    const std::int64_t group_out_c = args.out_c / p.group;
    const std::int64_t oc_blocks = (group_out_c + kOcTile - 1) / kOcTile;
    return static_cast<std::size_t>(p.group * oc_blocks * group_in_c *
                                    p.kernel_h * p.kernel_w * kOcTile);
}

void
conv2d_spatial_pack_pack_weights(const Conv2dArgs &args, float *out)
{
    const Conv2dParams &p = args.params;
    const std::int64_t group_in_c = args.in_c / p.group;
    const std::int64_t group_out_c = args.out_c / p.group;
    const std::int64_t kernel_area = p.kernel_h * p.kernel_w;
    const std::int64_t oc_blocks = (group_out_c + kOcTile - 1) / kOcTile;

    for (std::int64_t g = 0; g < p.group; ++g) {
        for (std::int64_t block = 0; block < oc_blocks; ++block) {
            float *dst = out + (g * oc_blocks + block) * group_in_c *
                                   kernel_area * kOcTile;
            for (std::int64_t ic = 0; ic < group_in_c; ++ic) {
                for (std::int64_t k = 0; k < kernel_area; ++k) {
                    for (std::int64_t r = 0; r < kOcTile; ++r) {
                        const std::int64_t oc =
                            g * group_out_c + block * kOcTile + r;
                        dst[(ic * kernel_area + k) * kOcTile + r] =
                            (block * kOcTile + r < group_out_c)
                                ? args.weight[(oc * group_in_c + ic) *
                                                  kernel_area +
                                              k]
                                : 0.0f;
                    }
                }
            }
        }
    }
}

std::size_t
conv2d_spatial_pack_padded_floats(const Conv2dArgs &args)
{
    const Conv2dParams &p = args.params;
    const std::int64_t padded_h = args.in_h + p.pad_top + p.pad_bottom;
    return static_cast<std::size_t>(args.batch * args.in_c * padded_h *
                                    padded_width(args));
}

void
conv2d_spatial_pack(const Conv2dArgs &args, const Conv2dScratch *scratch)
{
    const Conv2dParams &p = args.params;
    const std::int64_t group_in_c = args.in_c / p.group;
    const std::int64_t group_out_c = args.out_c / p.group;
    const std::int64_t kernel_area = p.kernel_h * p.kernel_w;
    const std::int64_t oc_blocks = (group_out_c + kOcTile - 1) / kOcTile;

    // --- Stage 1: weight packing ([ic][kh][kw][kOcTile], zero-padded in
    // the oc direction). A prepared layer passes the cache built at plan
    // time and the stage disappears from the steady-state path; runtime
    // weights are packed into the caller's buffer (or a call-local one)
    // every invocation. ----------------------------------------------------
    const float *packed_weights =
        scratch != nullptr ? scratch->packed_weights : nullptr;
    std::vector<float> weights_fallback;
    if (packed_weights == nullptr) {
        float *dst = scratch != nullptr ? scratch->weight_pack : nullptr;
        if (dst == nullptr) {
            weights_fallback.resize(conv2d_spatial_pack_weights_floats(args));
            dst = weights_fallback.data();
        }
        conv2d_spatial_pack_pack_weights(args, dst);
        packed_weights = dst;
    }

    // --- Stage 2: input padding (TVM's data_pad). ------------------------
    const std::int64_t padded_h =
        args.in_h + p.pad_top + p.pad_bottom;
    const std::int64_t padded_w = padded_width(args);
    const std::int64_t padded_plane = padded_h * padded_w;

    float *padded_input =
        scratch != nullptr ? scratch->padded_input : nullptr;
    std::vector<float> padded_fallback;
    if (padded_input == nullptr) {
        padded_fallback.resize(
            static_cast<std::size_t>(args.batch * args.in_c * padded_plane));
        padded_input = padded_fallback.data();
    }
    // Zero only the halo (top/bottom bands plus the left/right column
    // pads of every interior row) — the interior is overwritten by the
    // copy below, and the workspace buffer may hold another layer's
    // leftovers, so each region is cleared explicitly every call.
    const std::int64_t bottom_rows = padded_h - p.pad_top - args.in_h;
    for (std::int64_t nc = 0; nc < args.batch * args.in_c; ++nc) {
        const float *src = args.input + nc * args.in_h * args.in_w;
        float *plane = padded_input + nc * padded_plane;
        std::memset(plane, 0,
                    static_cast<std::size_t>(p.pad_top * padded_w) *
                        sizeof(float));
        std::memset(plane + (p.pad_top + args.in_h) * padded_w, 0,
                    static_cast<std::size_t>(bottom_rows * padded_w) *
                        sizeof(float));
        for (std::int64_t h = 0; h < args.in_h; ++h) {
            float *row = plane + (p.pad_top + h) * padded_w;
            std::memset(row, 0,
                        static_cast<std::size_t>(p.pad_left) *
                            sizeof(float));
            std::memcpy(row + p.pad_left, src + h * args.in_w,
                        static_cast<std::size_t>(args.in_w) *
                            sizeof(float));
            std::memset(row + p.pad_left + args.in_w, 0,
                        static_cast<std::size_t>(padded_w - p.pad_left -
                                                 args.in_w) *
                            sizeof(float));
        }
    }

    // --- Stage 3: tiled computation. -------------------------------------
    const std::int64_t total_blocks = args.batch * p.group * oc_blocks;
    parallel_for(total_blocks, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t job = begin; job < end; ++job) {
            const std::int64_t n = job / (p.group * oc_blocks);
            const std::int64_t g = (job / oc_blocks) % p.group;
            const std::int64_t block = job % oc_blocks;
            const std::int64_t oc0 = block * kOcTile;
            const std::int64_t oc_count =
                std::min(kOcTile, group_out_c - oc0);
            const float *w_block =
                packed_weights + (g * oc_blocks + block) * group_in_c *
                                     kernel_area * kOcTile;
            const float *in_group =
                padded_input +
                (n * args.in_c + g * group_in_c) * padded_plane;

            for (std::int64_t oh = 0; oh < args.out_h; ++oh) {
                for (std::int64_t ow0 = 0; ow0 < args.out_w;
                     ow0 += kOwTile) {
                    const std::int64_t ow_count =
                        std::min(kOwTile, args.out_w - ow0);

                    // One named accumulator row per output channel of
                    // the tile: hand-unrolled rows stay in vector
                    // registers (a 2-D acc array would not).
                    float acc0[kOwTile] = {}, acc1[kOwTile] = {},
                          acc2[kOwTile] = {}, acc3[kOwTile] = {};
                    static_assert(kOcTile == 4,
                                  "tile loops are unrolled for kOcTile == 4");

                    accumulate_tile(in_group +
                                        oh * p.stride_h * padded_w +
                                        ow0 * p.stride_w,
                                    w_block, group_in_c, padded_plane,
                                    padded_w, p, acc0, acc1, acc2, acc3);

                    const float *accumulators[kOcTile] = {acc0, acc1,
                                                          acc2, acc3};
                    for (std::int64_t r = 0; r < oc_count; ++r) {
                        const std::int64_t oc = g * group_out_c + oc0 + r;
                        const float bias =
                            args.bias != nullptr ? args.bias[oc] : 0.0f;
                        float *out_row =
                            args.output +
                            ((n * args.out_c + oc) * args.out_h + oh) *
                                args.out_w +
                            ow0;
                        args.activation.apply_bias(accumulators[r], bias,
                                                   out_row, ow_count);
                    }
                }
            }
        }
    });
}

} // namespace orpheus
