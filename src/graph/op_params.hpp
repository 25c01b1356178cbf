/**
 * @file
 * Decoded hyper-parameters for windowed operators (convolution and
 * pooling). Both shape inference and the kernels in src/ops decode node
 * attributes through these structs so the two can never disagree about
 * padding/stride semantics.
 *
 * Attribute conventions follow ONNX: pads = [top, left, bottom, right]
 * for 2-D operators, dilations/strides/kernel_shape are [h, w].
 */
#pragma once

#include <cstdint>

#include <string>

#include "core/shape.hpp"
#include "core/status.hpp"
#include "graph/attribute.hpp"

namespace orpheus {

/** Decoded Conv attributes for 2-D NCHW convolution. */
struct Conv2dParams {
    std::int64_t kernel_h = 1;
    std::int64_t kernel_w = 1;
    std::int64_t stride_h = 1;
    std::int64_t stride_w = 1;
    std::int64_t pad_top = 0;
    std::int64_t pad_left = 0;
    std::int64_t pad_bottom = 0;
    std::int64_t pad_right = 0;
    std::int64_t dilation_h = 1;
    std::int64_t dilation_w = 1;
    std::int64_t group = 1;

    /**
     * Decodes ONNX Conv attributes. @p weight_shape (OIHW) supplies the
     * kernel extent when the kernel_shape attribute is omitted.
     */
    static Conv2dParams from_attrs(const AttributeMap &attrs,
                                   const Shape &weight_shape);

    /** Effective kernel extent including dilation. */
    std::int64_t
    dilated_kernel_h() const
    {
        return (kernel_h - 1) * dilation_h + 1;
    }

    std::int64_t
    dilated_kernel_w() const
    {
        return (kernel_w - 1) * dilation_w + 1;
    }

    /** Output spatial extent for an input of height @p in_h. */
    std::int64_t out_h(std::int64_t in_h) const;
    std::int64_t out_w(std::int64_t in_w) const;

    /** Writes these parameters back into an attribute map. */
    void to_attrs(AttributeMap &attrs) const;
};

/** Decoded MaxPool / AveragePool attributes. */
struct Pool2dParams {
    std::int64_t kernel_h = 1;
    std::int64_t kernel_w = 1;
    std::int64_t stride_h = 1;
    std::int64_t stride_w = 1;
    std::int64_t pad_top = 0;
    std::int64_t pad_left = 0;
    std::int64_t pad_bottom = 0;
    std::int64_t pad_right = 0;
    /** AveragePool only: divide by full window size even over padding. */
    bool count_include_pad = false;
    /** Round output extents up instead of down (ONNX ceil_mode). */
    bool ceil_mode = false;

    static Pool2dParams from_attrs(const AttributeMap &attrs);

    std::int64_t out_h(std::int64_t in_h) const;
    std::int64_t out_w(std::int64_t in_w) const;

    void to_attrs(AttributeMap &attrs) const;
};

/**
 * Resolves the ONNX Reshape target @p spec (@p rank entries) of node
 * @p node against an input of shape @p input: 0 copies the input extent
 * at that position, a single -1 takes the elements left over, and every
 * other entry is the extent itself. Returns kInvalidArgument, naming
 * the node and the fault, for a second -1, an entry below -1, a 0 past
 * the input's rank, a zero extent, or an element count that overflows,
 * does not divide or does not match the input's; @p out is set only on
 * success. Constant folding and shape inference both resolve Reshape
 * here.
 */
Status resolve_reshape(const std::string &node, const Shape &input,
                       const std::int64_t *spec, std::size_t rank,
                       Shape &out);

} // namespace orpheus
