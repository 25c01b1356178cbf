/**
 * @file
 * The Orpheus tensor: a shape + dtype view over reference-counted storage.
 *
 * Tensors are cheap to copy (shared storage) and always contiguous in
 * row-major order. 4-D activations use NCHW layout and convolution
 * weights use OIHW, matching the kernels in src/ops.
 */
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/buffer.hpp"
#include "core/dtype.hpp"
#include "core/shape.hpp"
#include "core/status.hpp"

namespace orpheus {

/**
 * Element order of a tensor's storage. Every tensor is row-major except
 * a constant GEMM weight that the engine lowered at plan time into the
 * packed GEMM driver's panel order (pack_weight, ops/gemm/gemm.hpp). A
 * panel tensor keeps its logical shape, dtype and size; only the order
 * of its elements differs, so only a kernel that reads that order may
 * use its data, and unpack_weight restores the row-major form exactly.
 */
struct TensorLayout {
    enum class Kind : std::uint8_t {
        kRowMajor = 0,
        /** GEMM A operand: a conv weight [M, C/g, kh, kw] as `groups`
         *  row-major [M/g, K] matrices, each in row panels of `mr`. */
        kPanelA,
        /** GEMM B operand: op(B) [K, N] in 16-column panels;
         *  `transposed` when the logical tensor is [N, K] (ONNX Gemm
         *  transB = 1). */
        kPanelB,
    };
    Kind kind = Kind::kRowMajor;
    std::int32_t mr = 0;
    std::int32_t groups = 1;
    bool transposed = false;

    bool packed() const { return kind != Kind::kRowMajor; }
    friend bool operator==(const TensorLayout &,
                           const TensorLayout &) = default;
};

class Tensor
{
  public:
    /** Constructs an empty (storage-less, rank-0) tensor. */
    Tensor() = default;

    /** Allocates an owned, zero-initialised tensor. */
    Tensor(Shape shape, DataType dtype = DataType::kFloat32);

    /** Tensor viewing an externally managed buffer (no copy), whose
     *  elements are stored in @p layout. */
    Tensor(Shape shape, DataType dtype, std::shared_ptr<Buffer> buffer,
           TensorLayout layout = {});

    /** Allocates and fills from @p values (size must match numel). */
    static Tensor from_values(Shape shape, const std::vector<float> &values);

    /** Scalar fp32 tensor. */
    static Tensor scalar(float value);

    /** 1-D int64 tensor — the ONNX representation of shape arguments. */
    static Tensor from_int64s(const std::vector<std::int64_t> &values);

    const Shape &shape() const { return shape_; }
    DataType dtype() const { return dtype_; }
    const TensorLayout &layout() const { return layout_; }
    std::int64_t numel() const { return shape_.numel(); }
    std::size_t byte_size() const
    {
        std::uint64_t bytes = 0;
        ORPHEUS_CHECK(shape_.checked_byte_size(dtype_size(dtype_), bytes),
                      "byte size of tensor " << dtype_ << shape_
                                             << " overflows int64");
        return static_cast<std::size_t>(bytes);
    }

    /** True if this tensor has backing storage. */
    bool has_storage() const { return buffer_ != nullptr; }

    const std::shared_ptr<Buffer> &buffer() const { return buffer_; }

    /** Raw storage pointers; valid only when has_storage(). */
    void *raw_data();
    const void *raw_data() const;

    /** Typed storage access; checks the dtype matches T. */
    template <typename T>
    T *
    data()
    {
        check_access<T>();
        return static_cast<T *>(raw_data());
    }

    template <typename T>
    const T *
    data() const
    {
        check_access<T>();
        return static_cast<const T *>(raw_data());
    }

    /** Element access for 4-D NCHW tensors (fp32 only). */
    float &at(std::int64_t n, std::int64_t c, std::int64_t h, std::int64_t w);
    float at(std::int64_t n, std::int64_t c, std::int64_t h,
             std::int64_t w) const;

    /** Sets every element (fp32 only). */
    void fill(float value);

    /** Deep copy into freshly allocated storage (layout included). */
    Tensor clone() const;

    /**
     * Returns a tensor sharing this tensor's storage with a different
     * shape; @p shape must have the same element count. Row-major only.
     */
    Tensor reshape(Shape shape) const;

    /** Copies @p src's bytes into this tensor (shapes/dtypes must match;
     *  row-major only). */
    void copy_from(const Tensor &src);

    /**
     * Replaces the leading extent in place, keeping the same storage.
     * The resized shape's byte size must fit the existing buffer. Lets
     * the engine shrink batch-carrying tensors planned at max_batch to
     * the active batch (row-major contiguity keeps the first extent's
     * sample blocks dense), so kernels see the true run shape.
     */
    void set_leading_dim(std::int64_t extent);

    /** Summarises as e.g. "float32[1, 3, 224, 224]". */
    std::string to_string() const;

  private:
    template <typename T>
    void
    check_access() const
    {
        ORPHEUS_CHECK(has_storage(), "tensor has no storage");
        ORPHEUS_CHECK(DataTypeOf<T>::value == dtype_,
                      "dtype mismatch: tensor is " << dtype_);
    }

    Shape shape_;
    DataType dtype_ = DataType::kFloat32;
    std::shared_ptr<Buffer> buffer_;
    TensorLayout layout_;
};

/**
 * Result of one pass over an fp32 tensor's elements (see scan_floats).
 * Denormals and signed zeros are ordinary finite values and never set
 * the non-finite flags.
 */
struct FloatScan {
    bool has_nan = false;
    bool has_inf = false;
    /** Largest |value| over the finite elements (0 for empty tensors). */
    float max_abs = 0.0f;
    /** Flat index of the first NaN/Inf element, -1 when all finite. */
    std::int64_t first_non_finite = -1;

    bool all_finite() const { return !has_nan && !has_inf; }
};

/**
 * Scans an fp32 tensor for NaN/Inf and the finite magnitude peak in one
 * vectorizable pass (the slower classifying pass runs only when the
 * fast pass saw a non-finite exponent). Non-fp32 or storage-less
 * tensors report a clean scan.
 */
FloatScan scan_floats(const Tensor &tensor);

/**
 * Distance between two floats in units of last place, computed on the
 * monotonic integer mapping of their bit patterns (so it is symmetric
 * and well-defined across the signed-zero boundary). Returns INT64_MAX
 * when either value is NaN; infinities compare like the adjacent
 * finite ordering.
 */
std::int64_t ulp_distance(float a, float b);

/** Max absolute elementwise difference between two fp32 tensors. */
float max_abs_diff(const Tensor &a, const Tensor &b);

/** True if fp32 tensors match within @p atol + @p rtol * |reference|. */
bool all_close(const Tensor &a, const Tensor &b, float atol = 1e-5f,
               float rtol = 1e-4f);

std::ostream &operator<<(std::ostream &os, const Tensor &tensor);

} // namespace orpheus
