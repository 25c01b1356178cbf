#include "graph/op_params.hpp"

#include <cmath>

#include "core/status.hpp"

namespace orpheus {

namespace {

/** Computes one windowed output extent with floor or ceil rounding. */
std::int64_t
windowed_extent(std::int64_t input, std::int64_t pad_begin,
                std::int64_t pad_end, std::int64_t window,
                std::int64_t stride, bool ceil_mode)
{
    const std::int64_t padded = input + pad_begin + pad_end;
    ORPHEUS_CHECK(padded >= window,
                  "window " << window << " larger than padded input "
                            << padded);
    const std::int64_t span = padded - window;
    if (ceil_mode)
        return (span + stride - 1) / stride + 1;
    return span / stride + 1;
}

} // namespace

Conv2dParams
Conv2dParams::from_attrs(const AttributeMap &attrs, const Shape &weight_shape)
{
    Conv2dParams p;

    std::vector<std::int64_t> kernel = attrs.get_ints("kernel_shape", {});
    if (kernel.empty()) {
        ORPHEUS_CHECK(weight_shape.rank() == 4,
                      "Conv weight must be OIHW, got " << weight_shape);
        kernel = {weight_shape.dim(2), weight_shape.dim(3)};
    }
    ORPHEUS_CHECK(kernel.size() == 2,
                  "only 2-D convolution is supported, kernel_shape rank "
                      << kernel.size());
    p.kernel_h = kernel[0];
    p.kernel_w = kernel[1];

    const auto strides = attrs.get_ints("strides", {1, 1});
    ORPHEUS_CHECK(strides.size() == 2, "strides must have 2 entries");
    p.stride_h = strides[0];
    p.stride_w = strides[1];

    const auto pads = attrs.get_ints("pads", {0, 0, 0, 0});
    ORPHEUS_CHECK(pads.size() == 4, "pads must have 4 entries");
    p.pad_top = pads[0];
    p.pad_left = pads[1];
    p.pad_bottom = pads[2];
    p.pad_right = pads[3];

    const auto dilations = attrs.get_ints("dilations", {1, 1});
    ORPHEUS_CHECK(dilations.size() == 2, "dilations must have 2 entries");
    p.dilation_h = dilations[0];
    p.dilation_w = dilations[1];

    p.group = attrs.get_int("group", 1);
    ORPHEUS_CHECK(p.group >= 1, "group must be >= 1, got " << p.group);
    ORPHEUS_CHECK(p.stride_h >= 1 && p.stride_w >= 1, "strides must be >= 1");
    ORPHEUS_CHECK(p.dilation_h >= 1 && p.dilation_w >= 1,
                  "dilations must be >= 1");
    return p;
}

std::int64_t
Conv2dParams::out_h(std::int64_t in_h) const
{
    return windowed_extent(in_h, pad_top, pad_bottom, dilated_kernel_h(),
                           stride_h, /*ceil_mode=*/false);
}

std::int64_t
Conv2dParams::out_w(std::int64_t in_w) const
{
    return windowed_extent(in_w, pad_left, pad_right, dilated_kernel_w(),
                           stride_w, /*ceil_mode=*/false);
}

void
Conv2dParams::to_attrs(AttributeMap &attrs) const
{
    attrs.set("kernel_shape", std::vector<std::int64_t>{kernel_h, kernel_w});
    attrs.set("strides", std::vector<std::int64_t>{stride_h, stride_w});
    attrs.set("pads", std::vector<std::int64_t>{pad_top, pad_left, pad_bottom,
                                                pad_right});
    attrs.set("dilations",
              std::vector<std::int64_t>{dilation_h, dilation_w});
    attrs.set("group", group);
}

Pool2dParams
Pool2dParams::from_attrs(const AttributeMap &attrs)
{
    Pool2dParams p;

    const auto kernel = attrs.at("kernel_shape").as_ints();
    ORPHEUS_CHECK(kernel.size() == 2, "only 2-D pooling is supported");
    p.kernel_h = kernel[0];
    p.kernel_w = kernel[1];

    const auto strides = attrs.get_ints("strides", {1, 1});
    ORPHEUS_CHECK(strides.size() == 2, "strides must have 2 entries");
    p.stride_h = strides[0];
    p.stride_w = strides[1];

    const auto pads = attrs.get_ints("pads", {0, 0, 0, 0});
    ORPHEUS_CHECK(pads.size() == 4, "pads must have 4 entries");
    p.pad_top = pads[0];
    p.pad_left = pads[1];
    p.pad_bottom = pads[2];
    p.pad_right = pads[3];

    p.count_include_pad = attrs.get_int("count_include_pad", 0) != 0;
    p.ceil_mode = attrs.get_int("ceil_mode", 0) != 0;
    return p;
}

std::int64_t
Pool2dParams::out_h(std::int64_t in_h) const
{
    return windowed_extent(in_h, pad_top, pad_bottom, kernel_h, stride_h,
                           ceil_mode);
}

std::int64_t
Pool2dParams::out_w(std::int64_t in_w) const
{
    return windowed_extent(in_w, pad_left, pad_right, kernel_w, stride_w,
                           ceil_mode);
}

void
Pool2dParams::to_attrs(AttributeMap &attrs) const
{
    attrs.set("kernel_shape", std::vector<std::int64_t>{kernel_h, kernel_w});
    attrs.set("strides", std::vector<std::int64_t>{stride_h, stride_w});
    attrs.set("pads", std::vector<std::int64_t>{pad_top, pad_left, pad_bottom,
                                                pad_right});
    attrs.set("count_include_pad",
              static_cast<std::int64_t>(count_include_pad ? 1 : 0));
    attrs.set("ceil_mode", static_cast<std::int64_t>(ceil_mode ? 1 : 0));
}

Status
resolve_reshape(const std::string &node, const Shape &input,
                const std::int64_t *spec, std::size_t rank, Shape &out)
{
    const auto fault = [&](const std::string &what) {
        return invalid_argument_error("Reshape " + node + ": " + what);
    };
    std::vector<Shape::dim_type> dims(rank);
    std::int64_t known = 1;
    std::size_t wildcard = rank;
    for (std::size_t i = 0; i < rank; ++i) {
        std::int64_t d = spec[i];
        const std::string at = " at position " + std::to_string(i);
        if (d == -1) {
            if (wildcard < rank)
                return fault("more than one -1 in the target shape");
            wildcard = i;
            dims[i] = 1;
            continue;
        }
        if (d < -1)
            return fault("invalid extent " + std::to_string(d) + at);
        if (d == 0) {
            if (i >= input.rank())
                return fault("0" + at + " copies past the input rank " +
                             std::to_string(input.rank()));
            d = input.dim(static_cast<int>(i));
            if (d == 0)
                return fault("zero extent" + at);
        }
        if (__builtin_mul_overflow(known, d, &known))
            return fault("target element count overflows int64");
        dims[i] = d;
    }
    const std::int64_t elements = input.numel();
    if (wildcard < rank) {
        if (known == 0 || elements % known != 0)
            return fault("cannot infer -1: " + std::to_string(elements) +
                         " elements do not divide by " +
                         std::to_string(known));
        dims[wildcard] = elements / known;
    }
    Shape target(std::move(dims));
    if (target.numel() != elements)
        return fault("element count changes (" + std::to_string(elements) +
                     " -> " + std::to_string(target.numel()) + ")");
    out = std::move(target);
    return Status::ok();
}

} // namespace orpheus
