#include "ops/pool.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace orpheus {

namespace {

struct PoolDims {
    std::int64_t batch, channels, in_h, in_w, out_h, out_w;
};

PoolDims
check_pool(const Tensor &input, const Pool2dParams &p, const Tensor &output)
{
    ORPHEUS_CHECK(input.shape().rank() == 4,
                  "pooling input must be NCHW, got " << input.shape());
    PoolDims d{input.shape().dim(0), input.shape().dim(1),
               input.shape().dim(2), input.shape().dim(3),
               p.out_h(input.shape().dim(2)), p.out_w(input.shape().dim(3))};
    // Compared dim by dim: a Shape would allocate on every call.
    const Shape &out = output.shape();
    ORPHEUS_CHECK(out.rank() == 4 && out.dim(0) == d.batch &&
                      out.dim(1) == d.channels && out.dim(2) == d.out_h &&
                      out.dim(3) == d.out_w,
                  "pooling output must be "
                      << Shape({d.batch, d.channels, d.out_h, d.out_w})
                      << ", got " << out);
    return d;
}

/** Max over the in-image taps of output (oh, ow)'s window. */
float
window_max_checked(const float *plane, const PoolDims &d,
                   const Pool2dParams &p, std::int64_t oh, std::int64_t ow)
{
    const std::int64_t h0 = oh * p.stride_h - p.pad_top;
    const std::int64_t w0 = ow * p.stride_w - p.pad_left;
    float best = -std::numeric_limits<float>::infinity();
    for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
        const std::int64_t ih = h0 + kh;
        if (ih < 0 || ih >= d.in_h)
            continue;
        for (std::int64_t kw = 0; kw < p.kernel_w; ++kw) {
            const std::int64_t iw = w0 + kw;
            if (iw < 0 || iw >= d.in_w)
                continue;
            best = std::max(best, plane[ih * d.in_w + iw]);
        }
    }
    return best;
}

/** First output index whose window starts inside the input, and one
 *  past the last whose window also ends inside it (along one axis). */
std::pair<std::int64_t, std::int64_t>
interior_range(std::int64_t in, std::int64_t out, std::int64_t kernel,
               std::int64_t stride, std::int64_t pad)
{
    const std::int64_t lo = std::min(out, (pad + stride - 1) / stride);
    const std::int64_t last_start = in - kernel + pad;
    const std::int64_t hi =
        last_start < 0 ? 0 : std::min(out, last_start / stride + 1);
    return {lo, std::max(lo, hi)};
}

} // namespace

void
maxpool2d(const Tensor &input, const Pool2dParams &p, Tensor &output)
{
    const PoolDims d = check_pool(input, p, output);
    const float *in = input.data<float>();
    float *out = output.data<float>();
    // Interior outputs, whose whole window lies inside the input, take
    // every tap unchecked, in the same order and through the same
    // std::max as the border ones, so the result is the same bits.
    const auto [oh_lo, oh_hi] =
        interior_range(d.in_h, d.out_h, p.kernel_h, p.stride_h, p.pad_top);
    const auto [ow_lo, ow_hi] =
        interior_range(d.in_w, d.out_w, p.kernel_w, p.stride_w, p.pad_left);

    for (std::int64_t nc = 0; nc < d.batch * d.channels; ++nc) {
        const float *plane = in + nc * d.in_h * d.in_w;
        float *out_plane = out + nc * d.out_h * d.out_w;
        for (std::int64_t oh = 0; oh < d.out_h; ++oh) {
            float *out_row = out_plane + oh * d.out_w;
            const bool row_inside = oh >= oh_lo && oh < oh_hi;
            const std::int64_t lo = row_inside ? ow_lo : d.out_w;
            const std::int64_t hi = row_inside ? ow_hi : d.out_w;
            for (std::int64_t ow = 0; ow < lo; ++ow)
                out_row[ow] = window_max_checked(plane, d, p, oh, ow);
            // kLanes neighbouring outputs step through the taps
            // together: independent max chains instead of one.
            constexpr std::int64_t kLanes = 8;
            for (std::int64_t ow = lo; ow < hi; ow += kLanes) {
                const std::int64_t lanes = std::min(kLanes, hi - ow);
                const float *window =
                    plane + (oh * p.stride_h - p.pad_top) * d.in_w +
                    ow * p.stride_w - p.pad_left;
                float best[kLanes];
                std::fill_n(best, kLanes,
                            -std::numeric_limits<float>::infinity());
                for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
                    for (std::int64_t kw = 0; kw < p.kernel_w; ++kw) {
                        const float *tap = window + kh * d.in_w + kw;
                        for (std::int64_t i = 0; i < lanes; ++i)
                            best[i] = std::max(best[i], tap[i * p.stride_w]);
                    }
                }
                std::copy_n(best, lanes, out_row + ow);
            }
            for (std::int64_t ow = hi; ow < d.out_w; ++ow)
                out_row[ow] = window_max_checked(plane, d, p, oh, ow);
        }
    }
}

void
avgpool2d(const Tensor &input, const Pool2dParams &p, Tensor &output)
{
    const PoolDims d = check_pool(input, p, output);
    const float *in = input.data<float>();
    float *out = output.data<float>();

    for (std::int64_t nc = 0; nc < d.batch * d.channels; ++nc) {
        const float *plane = in + nc * d.in_h * d.in_w;
        float *out_plane = out + nc * d.out_h * d.out_w;
        for (std::int64_t oh = 0; oh < d.out_h; ++oh) {
            for (std::int64_t ow = 0; ow < d.out_w; ++ow) {
                const std::int64_t h0 = oh * p.stride_h - p.pad_top;
                const std::int64_t w0 = ow * p.stride_w - p.pad_left;
                float sum = 0.0f;
                std::int64_t valid = 0;
                for (std::int64_t kh = 0; kh < p.kernel_h; ++kh) {
                    const std::int64_t ih = h0 + kh;
                    if (ih < 0 || ih >= d.in_h)
                        continue;
                    for (std::int64_t kw = 0; kw < p.kernel_w; ++kw) {
                        const std::int64_t iw = w0 + kw;
                        if (iw < 0 || iw >= d.in_w)
                            continue;
                        sum += plane[ih * d.in_w + iw];
                        ++valid;
                    }
                }
                const std::int64_t divisor =
                    p.count_include_pad ? p.kernel_h * p.kernel_w : valid;
                out_plane[oh * d.out_w + ow] =
                    divisor > 0 ? sum / static_cast<float>(divisor) : 0.0f;
            }
        }
    }
}

void
global_average_pool(const Tensor &input, Tensor &output)
{
    ORPHEUS_CHECK(input.shape().rank() == 4,
                  "global_average_pool input must be NCHW, got "
                      << input.shape());
    const std::int64_t batch = input.shape().dim(0);
    const std::int64_t channels = input.shape().dim(1);
    const std::int64_t area = input.shape().dim(2) * input.shape().dim(3);
    const Shape expected({batch, channels, 1, 1});
    ORPHEUS_CHECK(output.shape() == expected,
                  "global_average_pool output must be "
                      << expected << ", got " << output.shape());

    const float *in = input.data<float>();
    float *out = output.data<float>();
    for (std::int64_t nc = 0; nc < batch * channels; ++nc) {
        // Accumulate in double: a 299x299 plane has ~90k elements and
        // fp32 accumulation would visibly drift.
        double sum = 0.0;
        const float *plane = in + nc * area;
        for (std::int64_t i = 0; i < area; ++i)
            sum += plane[i];
        out[nc] = static_cast<float>(sum / static_cast<double>(area));
    }
}

void
global_max_pool(const Tensor &input, Tensor &output)
{
    ORPHEUS_CHECK(input.shape().rank() == 4,
                  "global_max_pool input must be NCHW, got "
                      << input.shape());
    const std::int64_t batch = input.shape().dim(0);
    const std::int64_t channels = input.shape().dim(1);
    const std::int64_t area = input.shape().dim(2) * input.shape().dim(3);
    ORPHEUS_CHECK(area > 0, "global_max_pool over an empty plane");
    const Shape expected({batch, channels, 1, 1});
    ORPHEUS_CHECK(output.shape() == expected,
                  "global_max_pool output must be " << expected << ", got "
                                                    << output.shape());

    const float *in = input.data<float>();
    float *out = output.data<float>();
    for (std::int64_t nc = 0; nc < batch * channels; ++nc) {
        const float *plane = in + nc * area;
        float best = plane[0];
        for (std::int64_t i = 1; i < area; ++i)
            best = std::max(best, plane[i]);
        out[nc] = best;
    }
}

} // namespace orpheus
