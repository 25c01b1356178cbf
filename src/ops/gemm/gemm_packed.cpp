/**
 * @file
 * Packed-panel GEMM (the production kernel) — scalar micro-kernel and
 * the runtime SIMD dispatcher.
 *
 * Classic three-level BLIS-style decomposition (the loop nest and the
 * packing routines live in gemm_packed_detail.hpp, shared with the
 * per-ISA variants):
 *
 *   for jc in N by kBlockN:           B column block
 *     for pc in K by kBlockK:         pack B(kBlockK x kBlockN) -> Bp
 *       parallel for ir in M by MR:   pack A(MR x kBlockK)      -> Ap
 *         micro-kernel: C[ir:ir+MR, jc:jc+kBlockN] += Ap * Bp
 *
 * Packing rewrites both operands into the exact order the micro-kernel
 * streams them, so the inner loop touches memory strictly sequentially.
 * The scalar micro-kernel computes a 4 x 16 register tile the compiler
 * auto-vectorises; gemm_packed_simd() routes to the hand-vectorised
 * AVX-512 (12 x 16), AVX2 (6 x 16) or NEON micro-kernels when the
 * build, the CPU and the disable switches all allow it, and degrades to
 * this scalar kernel otherwise. gemm_packed_operands() runs the same
 * paths with B read from an image window, and with either operand read
 * from panels packed once at plan time (pack_weight).
 */
#include "ops/gemm/gemm.hpp"

#include <cstdint>
#include <limits>

#include "core/cpu_features.hpp"
#include "core/status.hpp"
#include "ops/gemm/gemm_packed_detail.hpp"

namespace orpheus {

namespace {

constexpr std::int64_t kMr = 4;
constexpr std::int64_t kNr = gemm_detail::kPackNr;

/**
 * kMr x kNr register-tile micro-kernel: C[0..rows, 0..width] += Ap * Bp
 * over depth. The accumulator tile is function-local so the compiler
 * promotes it to vector registers.
 */
inline void
scalar_micro_kernel(std::int64_t depth, const float *__restrict ap,
                    const float *__restrict bp, float *__restrict c,
                    std::int64_t ldc, std::int64_t rows, std::int64_t width)
{
    // One named accumulator row per kMr row: with the row dimension
    // fully unrolled by hand the compiler keeps all four rows in vector
    // registers (kNr = 16 floats is one AVX-512 or two AVX2 registers
    // per row) and emits a dense FMA sequence. Leaving this as a 2-D
    // acc[r][j] array defeats register promotion and costs >10x.
    float acc0[kNr] = {}, acc1[kNr] = {}, acc2[kNr] = {},
          acc3[kNr] = {};
    static_assert(kMr == 4, "micro_kernel is unrolled for kMr == 4");

    for (std::int64_t p = 0; p < depth; ++p) {
        const float *__restrict b_row = bp + p * kNr;
        const float a0 = ap[p * kMr + 0];
        const float a1 = ap[p * kMr + 1];
        const float a2 = ap[p * kMr + 2];
        const float a3 = ap[p * kMr + 3];
        for (std::int64_t j = 0; j < kNr; ++j) {
            const float b = b_row[j];
            acc0[j] += a0 * b;
            acc1[j] += a1 * b;
            acc2[j] += a2 * b;
            acc3[j] += a3 * b;
        }
    }

    const float *accumulators[kMr] = {acc0, acc1, acc2, acc3};
    for (std::int64_t r = 0; r < rows; ++r) {
        float *c_row = c + r * ldc;
        for (std::int64_t j = 0; j < width; ++j)
            c_row[j] += accumulators[r][j];
    }
}

/** Runs the body of the MR gemm_packed_mr() picks, or, for a prepacked
 *  A, of the MR it was packed for. */
void
run_packed(GemmVariant variant, std::int64_t m, std::int64_t n,
           std::int64_t k, const PackedA &a, const PackedB &b, float *c,
           std::int64_t ldc, const GemmScratch *scratch)
{
    const int mr =
        a.panels != nullptr ? a.mr : gemm_packed_mr(variant, m, n);
#if defined(ORPHEUS_SIMD_X86)
    if (mr == 12) {
        gemm_packed_avx512(m, n, k, a, b, c, ldc, scratch);
        return;
    }
    if (mr == 6) {
        gemm_packed_avx2(m, n, k, a, b, c, ldc, scratch);
        return;
    }
#elif defined(ORPHEUS_SIMD_NEON)
    if (variant == GemmVariant::kPackedSimd && simd_enabled()) {
        gemm_packed_neon(m, n, k, a, b, c, ldc, scratch);
        return;
    }
#endif
    ORPHEUS_CHECK(mr == kMr, "no packed GEMM body for MR " << mr);
    gemm_detail::packed_gemm_driver<kMr>(m, n, k, a, b, c, ldc, scratch,
                                         scalar_micro_kernel);
}

} // namespace

std::size_t
gemm_packed_b_pack_floats()
{
    using namespace gemm_detail;
    return static_cast<std::size_t>(kPackBlockK) *
           static_cast<std::size_t>((kPackBlockN + kPackNr - 1) / kPackNr *
                                    kPackNr);
}

int
gemm_packed_mr(GemmVariant variant, std::int64_t m, std::int64_t n)
{
#if defined(ORPHEUS_SIMD_X86)
    if (variant == GemmVariant::kPackedSimd && simd_enabled()) {
        // The zmm body runs only where it issues fewer FMAs than the ymm
        // body: with m <= 6 both issue twelve per depth step, and the
        // zmm ones cost more (1x1000x2048 classifier: ~1.75 ms against
        // ~1.3 ms). Problems narrower than one B panel also stay on the
        // ymm body (measured on tiny-mlp's 10-wide output layer). Both
        // bodies give identical bits.
        constexpr std::int64_t kAvx2Rows = 6;
        return cpu_features().avx512f && m > kAvx2Rows && n >= kNr ? 12
                                                                   : 6;
    }
#else
    (void)variant;
#endif
    (void)m;
    (void)n;
    return static_cast<int>(kMr);
}

void
gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k, const float *a,
            std::int64_t lda, const float *b, std::int64_t ldb, float *c,
            std::int64_t ldc, const GemmScratch *scratch)
{
    run_packed(GemmVariant::kPacked, m, n, k, PackedA{a, lda},
               PackedB{b, ldb}, c, ldc, scratch);
}

bool
gemm_packed_simd_available()
{
    return simd_enabled();
}

const char *
gemm_packed_simd_body()
{
#if defined(ORPHEUS_SIMD_X86)
    if (simd_enabled())
        return cpu_features().avx512f ? "avx512 12x16" : "avx2 6x16";
#elif defined(ORPHEUS_SIMD_NEON)
    if (simd_enabled())
        return "neon 4x16";
#endif
    return "scalar 4x16";
}

void
gemm_packed_simd(std::int64_t m, std::int64_t n, std::int64_t k,
                 const float *a, std::int64_t lda, const float *b,
                 std::int64_t ldb, float *c, std::int64_t ldc,
                 const GemmScratch *scratch)
{
    run_packed(GemmVariant::kPackedSimd, m, n, k, PackedA{a, lda},
               PackedB{b, ldb}, c, ldc, scratch);
}

void
gemm_packed_operands(GemmVariant variant, std::int64_t m, std::int64_t n,
                     std::int64_t k, const PackedA &a, const PackedB &b,
                     float *c, std::int64_t ldc, const GemmScratch *scratch)
{
    ORPHEUS_CHECK(gemm_variant_uses_packing(variant),
                  "gemm_packed_operands needs a packed variant, got "
                      << to_string(variant));
    if (b.window != nullptr) {
        // The window packer computes coordinates and in-plane offsets in
        // 32 bits; every one lies inside the padded plane.
        const Conv2dParams &p = b.window->params;
        ORPHEUS_CHECK((b.window->height + p.pad_top + p.pad_bottom) *
                              (b.window->width + p.pad_left +
                               p.pad_right) <=
                          std::numeric_limits<std::int32_t>::max(),
                      "gemm_packed_operands: padded plane "
                          << b.window->height << "x" << b.window->width
                          << " exceeds 2^31 elements");
    }
    run_packed(variant, m, n, k, a, b, c, ldc, scratch);
}

// --- Plan-time panels --------------------------------------------------------
//
// Both operands use one panel order. A "lane" is a row of A or a column
// of op(B); panels of `width` lanes (MR, or 16 for B) follow each other,
// the last one holding the lanes left, and panel [l0, l0 + w) starts at
// l0 * depth, with its K blocks in order (block pc at w * pc), each
// depth-major with the w lanes interleaved. A panel therefore occupies
// exactly the storage of its lanes in a lane-major matrix, so a matrix
// whose lanes are its rows repacks in place, one panel at a time.

namespace {

/** Calls visit(index, lane, p) for every element of a panel matrix in
 *  storage order. */
template <typename Visit>
void
for_each_panel_element(std::int64_t lanes, std::int64_t depth,
                       std::int64_t width, Visit visit)
{
    using gemm_detail::kPackBlockK;
    std::size_t index = 0;
    for (std::int64_t l0 = 0; l0 < lanes; l0 += width) {
        const std::int64_t w = std::min(width, lanes - l0);
        for (std::int64_t pc = 0; pc < depth; pc += kPackBlockK) {
            const std::int64_t kc = std::min(kPackBlockK, depth - pc);
            for (std::int64_t p = pc; p < pc + kc; ++p)
                for (std::int64_t l = l0; l < l0 + w; ++l)
                    visit(index++, l, p);
        }
    }
}

/** Writes K block [pc, pc + kc) of a staged panel of @p W lanes (rows
 *  of length @p depth) depth-major, the lanes interleaved. */
template <int W>
void
write_block(const float *stage, std::int64_t depth, std::int64_t pc,
            std::int64_t kc, float *block)
{
    for (std::int64_t p = 0; p < kc; ++p)
        for (int l = 0; l < W; ++l)
            block[p * W + l] = stage[l * depth + pc + p];
}

/** Packs the lane-major matrix (rows are lanes) @p src, leading
 *  dimension @p ld, into panels of @p width lanes at @p out. Each panel's
 *  rows are staged first, so @p out may be @p src itself when
 *  ld == depth. */
void
pack_lane_rows(const float *src, std::int64_t ld, std::int64_t lanes,
               std::int64_t depth, std::int64_t width, float *out)
{
    using gemm_detail::kPackBlockK;
    std::vector<float> stage(static_cast<std::size_t>(width * depth));
    for (std::int64_t l0 = 0; l0 < lanes; l0 += width) {
        const std::int64_t w = std::min(width, lanes - l0);
        for (std::int64_t l = 0; l < w; ++l)
            std::memcpy(stage.data() + l * depth, src + (l0 + l) * ld,
                        static_cast<std::size_t>(depth) * sizeof(float));
        float *panel = out + l0 * depth;
        for (std::int64_t pc = 0; pc < depth; pc += kPackBlockK) {
            const std::int64_t kc = std::min(kPackBlockK, depth - pc);
            float *block = panel + w * pc;
            // Full panels of the driver's widths take an unrolled copy.
            const float *staged = stage.data();
            switch (w) {
              case 4: write_block<4>(staged, depth, pc, kc, block); break;
              case 6: write_block<6>(staged, depth, pc, kc, block); break;
              case 12: write_block<12>(staged, depth, pc, kc, block); break;
              case 16: write_block<16>(staged, depth, pc, kc, block); break;
              default:
                for (std::int64_t p = 0; p < kc; ++p)
                    for (std::int64_t l = 0; l < w; ++l)
                        block[p * w + l] = staged[l * depth + pc + p];
            }
        }
    }
}

} // namespace

void
pack_gemm_a(const float *a, std::int64_t lda, std::int64_t m,
            std::int64_t k, int mr, float *out)
{
    pack_lane_rows(a, lda, m, k, mr, out);
}

void
unpack_gemm_a(const float *panels, std::int64_t m, std::int64_t k, int mr,
              float *a)
{
    for_each_panel_element(m, k, mr, [&](std::size_t index, std::int64_t r,
                                         std::int64_t p) {
        a[r * k + p] = panels[index];
    });
}

void
pack_gemm_b(const float *b, std::int64_t ldb, bool trans, std::int64_t k,
            std::int64_t n, float *out)
{
    if (trans) {
        // Column j of op(B) is row j of b: the lanes are b's rows.
        pack_lane_rows(b, ldb, n, k, kNr, out);
        return;
    }
    for_each_panel_element(n, k, kNr,
                           [&](std::size_t index, std::int64_t j,
                               std::int64_t p) {
                               out[index] = b[p * ldb + j];
                           });
}

void
unpack_gemm_b(const float *panels, std::int64_t k, std::int64_t n,
              bool trans, float *b)
{
    for_each_panel_element(n, k, kNr, [&](std::size_t index, std::int64_t j,
                                          std::int64_t p) {
        (trans ? b[j * k + p] : b[p * n + j]) = panels[index];
    });
}

namespace {

/** GEMM geometry of a weight in @p layout: groups x [rows, cols] for
 *  A panels, op(B) [rows = K, cols = N] for B panels. */
struct WeightGeometry {
    std::int64_t groups = 1;
    std::int64_t rows = 0;
    std::int64_t cols = 0;
};

WeightGeometry
weight_geometry(const Tensor &weight, const TensorLayout &layout)
{
    const Shape &shape = weight.shape();
    WeightGeometry g;
    if (layout.kind == TensorLayout::Kind::kPanelA) {
        ORPHEUS_CHECK(shape.rank() >= 1 && layout.groups >= 1 &&
                          shape.dim(0) % layout.groups == 0,
                      "A panels of " << weight.to_string() << " in "
                                     << layout.groups << " groups");
        g.groups = layout.groups;
        g.rows = shape.dim(0) / g.groups;
        g.cols = shape.dim(0) > 0 ? shape.numel() / shape.dim(0) : 0;
    } else {
        ORPHEUS_CHECK(layout.kind == TensorLayout::Kind::kPanelB &&
                          shape.rank() == 2,
                      "B panels of " << weight.to_string());
        g.rows = shape.dim(layout.transposed ? 1 : 0);
        g.cols = shape.dim(layout.transposed ? 0 : 1);
    }
    return g;
}

} // namespace

Tensor
pack_weight(const Tensor &weight, const TensorLayout &layout)
{
    Tensor packed = weight.clone();
    if (pack_weight_in_place(packed, layout))
        return packed;
    // A row-major B [K, N]: its lanes are columns, so it packs from the
    // original.
    const WeightGeometry g = weight_geometry(weight, layout);
    pack_gemm_b(weight.data<float>(), g.cols, false, g.rows, g.cols,
                packed.data<float>());
    return Tensor(weight.shape(), DataType::kFloat32, packed.buffer(),
                  layout);
}

bool
pack_weight_in_place(Tensor &weight, const TensorLayout &layout)
{
    ORPHEUS_CHECK(weight.dtype() == DataType::kFloat32 &&
                      !weight.layout().packed() && layout.packed(),
                  "cannot pack " << weight.to_string() << " into panels");
    const WeightGeometry g = weight_geometry(weight, layout);
    if (layout.kind == TensorLayout::Kind::kPanelB && !layout.transposed)
        return false;
    float *data = weight.data<float>();
    if (layout.kind == TensorLayout::Kind::kPanelB)
        pack_gemm_b(data, g.rows, true, g.rows, g.cols, data);
    else
        for (std::int64_t group = 0; group < g.groups; ++group) {
            float *matrix = data + group * g.rows * g.cols;
            pack_gemm_a(matrix, g.cols, g.rows, g.cols, layout.mr, matrix);
        }
    weight = Tensor(weight.shape(), DataType::kFloat32, weight.buffer(),
                    layout);
    return true;
}

Tensor
unpack_weight(const Tensor &weight)
{
    const TensorLayout &layout = weight.layout();
    if (!layout.packed())
        return weight;
    const WeightGeometry g = weight_geometry(weight, layout);
    Tensor plain(weight.shape(), DataType::kFloat32);
    const float *src = weight.data<float>();
    float *dst = plain.data<float>();
    if (layout.kind == TensorLayout::Kind::kPanelB) {
        unpack_gemm_b(src, g.rows, g.cols, layout.transposed, dst);
        return plain;
    }
    for (std::int64_t group = 0; group < g.groups; ++group)
        unpack_gemm_a(src + group * g.rows * g.cols, g.rows, g.cols,
                      layout.mr, dst + group * g.rows * g.cols);
    return plain;
}

} // namespace orpheus
