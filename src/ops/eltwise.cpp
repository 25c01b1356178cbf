#include "ops/eltwise.hpp"

#include <algorithm>

namespace orpheus {

namespace {

float
apply(EltwiseOp op, float x, float y)
{
    switch (op) {
      case EltwiseOp::kAdd: return x + y;
      case EltwiseOp::kSub: return x - y;
      case EltwiseOp::kMul: return x * y;
      case EltwiseOp::kDiv: return x / y;
    }
    return 0.0f;
}

/** Same-shape fast path: one switch per call, then a branch-free loop
 *  over exactly the expression apply() evaluates. */
template <typename Fn>
void
zip(const float *a, const float *b, float *out, std::int64_t count, Fn fn)
{
    for (std::int64_t i = 0; i < count; ++i)
        out[i] = fn(a[i], b[i]);
}

void
eltwise_same_shape(EltwiseOp op, const float *a, const float *b, float *out,
                   std::int64_t count)
{
    switch (op) {
      case EltwiseOp::kAdd:
        zip(a, b, out, count, [](float x, float y) { return x + y; });
        return;
      case EltwiseOp::kSub:
        zip(a, b, out, count, [](float x, float y) { return x - y; });
        return;
      case EltwiseOp::kMul:
        zip(a, b, out, count, [](float x, float y) { return x * y; });
        return;
      case EltwiseOp::kDiv:
        zip(a, b, out, count, [](float x, float y) { return x / y; });
        return;
    }
}

} // namespace

Shape
broadcast_result_shape(const Shape &a, const Shape &b)
{
    const std::size_t rank = std::max(a.rank(), b.rank());
    std::vector<Shape::dim_type> dims(rank, 1);
    for (std::size_t i = 0; i < rank; ++i) {
        const Shape::dim_type da =
            i < rank - a.rank()
                ? 1
                : a.dim(static_cast<int>(i - (rank - a.rank())));
        const Shape::dim_type db =
            i < rank - b.rank()
                ? 1
                : b.dim(static_cast<int>(i - (rank - b.rank())));
        ORPHEUS_CHECK(da == db || da == 1 || db == 1,
                      "cannot broadcast " << a << " with " << b);
        dims[i] = std::max(da, db);
    }
    return Shape(dims);
}

void
eltwise(EltwiseOp op, const Tensor &a, const Tensor &b, Tensor &output)
{
    const Shape result = broadcast_result_shape(a.shape(), b.shape());
    ORPHEUS_CHECK(output.shape() == result,
                  "eltwise output must be " << result << ", got "
                                            << output.shape());

    const float *pa = a.data<float>();
    const float *pb = b.data<float>();
    float *po = output.data<float>();

    // Fast path: identical shapes, pure contiguous loop.
    if (a.shape() == b.shape()) {
        eltwise_same_shape(op, pa, pb, po, output.numel());
        return;
    }

    // General path: walk the output index space, mapping each coordinate
    // back into a and b with broadcast (stride-0) semantics.
    const std::size_t rank = result.rank();
    std::vector<Shape::dim_type> a_strides(rank, 0), b_strides(rank, 0);

    const auto fill_strides = [&](const Shape &shape,
                                  std::vector<Shape::dim_type> &strides) {
        const auto natural = shape.strides();
        const std::size_t offset = rank - shape.rank();
        for (std::size_t i = 0; i < shape.rank(); ++i) {
            strides[offset + i] =
                shape.dim(static_cast<int>(i)) == 1 ? 0 : natural[i];
        }
    };
    fill_strides(a.shape(), a_strides);
    fill_strides(b.shape(), b_strides);

    std::vector<Shape::dim_type> index(rank, 0);
    const std::int64_t count = result.numel();
    std::int64_t a_offset = 0, b_offset = 0;
    for (std::int64_t flat = 0; flat < count; ++flat) {
        po[flat] = apply(op, pa[a_offset], pb[b_offset]);

        // Odometer increment with incremental offset updates.
        for (std::size_t d = rank; d-- > 0;) {
            ++index[d];
            a_offset += a_strides[d];
            b_offset += b_strides[d];
            if (index[d] < result.dim(static_cast<int>(d)))
                break;
            a_offset -= a_strides[d] * index[d];
            b_offset -= b_strides[d] * index[d];
            index[d] = 0;
        }
    }
}

} // namespace orpheus
