#include "core/tensor.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

namespace orpheus {

Tensor::Tensor(Shape shape, DataType dtype)
    : shape_(std::move(shape)), dtype_(dtype)
{
    buffer_ = Buffer::allocate(byte_size());
}

Tensor::Tensor(Shape shape, DataType dtype, std::shared_ptr<Buffer> buffer,
               TensorLayout layout)
    : shape_(std::move(shape)), dtype_(dtype), buffer_(std::move(buffer)),
      layout_(layout)
{
    ORPHEUS_CHECK(buffer_ != nullptr, "tensor constructed with null buffer");
    ORPHEUS_CHECK(buffer_->size() >= byte_size(),
                  "buffer too small: " << buffer_->size() << " bytes for "
                                       << to_string());
}

Tensor
Tensor::from_values(Shape shape, const std::vector<float> &values)
{
    Tensor t(std::move(shape), DataType::kFloat32);
    ORPHEUS_CHECK(static_cast<std::int64_t>(values.size()) == t.numel(),
                  "value count " << values.size() << " does not match shape "
                                 << t.shape());
    std::memcpy(t.raw_data(), values.data(), t.byte_size());
    return t;
}

Tensor
Tensor::scalar(float value)
{
    Tensor t(Shape{}, DataType::kFloat32);
    *t.data<float>() = value;
    return t;
}

Tensor
Tensor::from_int64s(const std::vector<std::int64_t> &values)
{
    Tensor t(Shape{static_cast<std::int64_t>(values.size())},
             DataType::kInt64);
    std::memcpy(t.raw_data(), values.data(), t.byte_size());
    return t;
}

void *
Tensor::raw_data()
{
    ORPHEUS_CHECK(has_storage(), "tensor has no storage");
    return buffer_->data();
}

const void *
Tensor::raw_data() const
{
    ORPHEUS_CHECK(has_storage(), "tensor has no storage");
    return buffer_->data();
}

float &
Tensor::at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w)
{
    ORPHEUS_CHECK(shape_.rank() == 4, "at() requires a 4-D tensor, got "
                                          << shape_);
    const std::int64_t C = shape_.dim(1), H = shape_.dim(2),
                       W = shape_.dim(3);
    return data<float>()[((n * C + c) * H + h) * W + w];
}

float
Tensor::at(std::int64_t n, std::int64_t c, std::int64_t h,
           std::int64_t w) const
{
    ORPHEUS_CHECK(shape_.rank() == 4, "at() requires a 4-D tensor, got "
                                          << shape_);
    const std::int64_t C = shape_.dim(1), H = shape_.dim(2),
                       W = shape_.dim(3);
    return data<float>()[((n * C + c) * H + h) * W + w];
}

void
Tensor::fill(float value)
{
    float *p = data<float>();
    const std::int64_t n = numel();
    for (std::int64_t i = 0; i < n; ++i)
        p[i] = value;
}

Tensor
Tensor::clone() const
{
    Tensor copy(shape_, dtype_, Buffer::allocate(byte_size()), layout_);
    if (byte_size() > 0)
        std::memcpy(copy.raw_data(), raw_data(), byte_size());
    return copy;
}

Tensor
Tensor::reshape(Shape shape) const
{
    ORPHEUS_CHECK(!layout_.packed(), "reshape of panel tensor " << to_string());
    ORPHEUS_CHECK(shape.numel() == numel(),
                  "reshape " << shape_ << " -> " << shape
                             << " changes element count");
    Tensor view = *this;
    view.shape_ = std::move(shape);
    return view;
}

void
Tensor::copy_from(const Tensor &src)
{
    ORPHEUS_CHECK(src.shape() == shape_ && src.dtype() == dtype_ &&
                      !src.layout().packed() && !layout_.packed(),
                  "copy_from mismatch: " << src.to_string() << " into "
                                         << to_string());
    if (byte_size() > 0)
        std::memcpy(raw_data(), src.raw_data(), byte_size());
}

void
Tensor::set_leading_dim(std::int64_t extent)
{
    ORPHEUS_CHECK(shape_.rank() >= 1,
                  "set_leading_dim on rank-0 tensor " << to_string());
    ORPHEUS_CHECK(extent >= 0, "set_leading_dim: negative extent");
    Shape resized = shape_;
    resized.set_dim(0, extent);
    std::uint64_t bytes = 0;
    ORPHEUS_CHECK(resized.checked_byte_size(dtype_size(dtype_), bytes),
                  "set_leading_dim: byte size of " << dtype_ << resized
                                                   << " overflows int64");
    ORPHEUS_CHECK(!buffer_ || bytes <= buffer_->size(),
                  "set_leading_dim: " << dtype_ << resized << " ("
                                      << bytes
                                      << " bytes) exceeds storage of "
                                      << to_string());
    shape_ = resized;
}

std::string
Tensor::to_string() const
{
    std::ostringstream out;
    out << dtype_ << shape_;
    if (layout_.kind == TensorLayout::Kind::kPanelA)
        out << " (A panels, MR " << layout_.mr << ")";
    else if (layout_.kind == TensorLayout::Kind::kPanelB)
        out << " (B panels)";
    return out.str();
}

FloatScan
scan_floats(const Tensor &tensor)
{
    FloatScan scan;
    if (!tensor.has_storage() || tensor.dtype() != DataType::kFloat32)
        return scan;

    const float *values = tensor.data<float>();
    const std::int64_t n = tensor.numel();

    // Fast pass: all-integer and branch-free so the compiler can
    // vectorize it without -ffast-math (an fp max reduction would not).
    // A float is NaN or Inf exactly when its exponent field is all
    // ones, i.e. |bits| >= 0x7f800000; and for absolute values the IEEE
    // ordering matches the unsigned-integer ordering of the bit
    // patterns, so the magnitude max is an integer max.
    std::uint32_t non_finite_seen = 0;
    std::uint32_t max_abs_bits = 0;
    for (std::int64_t i = 0; i < n; ++i) {
        std::uint32_t bits;
        std::memcpy(&bits, &values[i], sizeof(bits));
        const std::uint32_t abs_bits = bits & 0x7fffffffu;
        non_finite_seen |=
            static_cast<std::uint32_t>(abs_bits >= 0x7f800000u);
        max_abs_bits = abs_bits > max_abs_bits ? abs_bits : max_abs_bits;
    }
    std::memcpy(&scan.max_abs, &max_abs_bits, sizeof(scan.max_abs));
    if (non_finite_seen == 0)
        return scan;

    // Slow pass, only on tainted tensors: classify and locate.
    scan.max_abs = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) {
        const float value = values[i];
        if (std::isnan(value)) {
            scan.has_nan = true;
            if (scan.first_non_finite < 0)
                scan.first_non_finite = i;
        } else if (std::isinf(value)) {
            scan.has_inf = true;
            if (scan.first_non_finite < 0)
                scan.first_non_finite = i;
        } else {
            scan.max_abs = std::max(scan.max_abs, std::fabs(value));
        }
    }
    return scan;
}

std::int64_t
ulp_distance(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::numeric_limits<std::int64_t>::max();
    std::int32_t ia, ib;
    std::memcpy(&ia, &a, sizeof(ia));
    std::memcpy(&ib, &b, sizeof(ib));
    // Map the sign-magnitude bit patterns onto a monotonic integer line
    // so that adjacent floats (including across +/-0) differ by 1.
    const auto monotonic = [](std::int32_t bits) {
        return bits >= 0
                   ? static_cast<std::int64_t>(bits)
                   : std::int64_t{std::numeric_limits<std::int32_t>::min()} -
                         bits;
    };
    const std::int64_t da = monotonic(ia);
    const std::int64_t db = monotonic(ib);
    return da >= db ? da - db : db - da;
}

float
max_abs_diff(const Tensor &a, const Tensor &b)
{
    ORPHEUS_CHECK(a.shape() == b.shape(),
                  "shape mismatch: " << a.shape() << " vs " << b.shape());
    const float *pa = a.data<float>();
    const float *pb = b.data<float>();
    float worst = 0.0f;
    for (std::int64_t i = 0; i < a.numel(); ++i)
        worst = std::max(worst, std::fabs(pa[i] - pb[i]));
    return worst;
}

bool
all_close(const Tensor &a, const Tensor &b, float atol, float rtol)
{
    if (a.shape() != b.shape())
        return false;
    const float *pa = a.data<float>();
    const float *pb = b.data<float>();
    for (std::int64_t i = 0; i < a.numel(); ++i) {
        const float tolerance = atol + rtol * std::fabs(pb[i]);
        if (std::fabs(pa[i] - pb[i]) > tolerance)
            return false;
    }
    return true;
}

std::ostream &
operator<<(std::ostream &os, const Tensor &tensor)
{
    return os << tensor.to_string();
}

} // namespace orpheus
