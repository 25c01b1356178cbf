/**
 * @file
 * 2-D convolution kernels.
 *
 * The algorithms below are the heart of the paper's evaluation: Orpheus
 * treats the convolution *algorithm* as a first-class, runtime-selected
 * choice, and Figure 2's framework comparison reduces to which algorithm
 * each framework picks:
 *
 *  - kDirect:        seven-loop direct convolution; correctness
 *                    reference and the DarkNet-like naive baseline.
 *  - kIm2colGemm:    GEMM over the im2col view of the input
 *                    (Orpheus's default; "pays off for big matrices").
 *                    The packed GEMM variants pack that view straight
 *                    into their B panels; naive/blocked materialise it.
 *  - kSpatialPack:   register-tiled direct convolution in the style of
 *                    TVM's spatial-pack schedule; wins on small channel
 *                    counts where im2col overhead dominates.
 *  - kWinograd:      F(2x2, 3x3) Winograd for unit-stride 3x3 convs.
 *  - kDepthwiseDirect: specialised kernel for depthwise (group == C)
 *                    convolutions; the PyTorch personality deliberately
 *                    does NOT use it, reproducing the paper's MobileNet
 *                    observation.
 *
 * All kernels consume NCHW activations and OIHW weights and produce
 * bit-identical results up to floating-point reassociation.
 */
#pragma once

#include <cstdint>
#include <string>

#include "core/tensor.hpp"
#include "graph/op_params.hpp"
#include "ops/activation.hpp"
#include "ops/gemm/gemm.hpp"

namespace orpheus {

enum class ConvAlgo {
    kDirect = 0,
    kIm2colGemm,
    kSpatialPack,
    kWinograd,
    kDepthwiseDirect,
    kDepthwiseSimd,
};

const char *to_string(ConvAlgo algo);

/** Parses "direct" / "im2col_gemm" / "spatial_pack" / "winograd" /
 *  "depthwise_direct" / "depthwise_simd"; throws on anything else. */
ConvAlgo parse_conv_algo(const std::string &name);

/** Fully-resolved argument bundle shared by every conv kernel. */
struct Conv2dArgs {
    const float *input = nullptr;  ///< NCHW.
    std::int64_t batch = 0;
    std::int64_t in_c = 0;
    std::int64_t in_h = 0;
    std::int64_t in_w = 0;

    const float *weight = nullptr; ///< OIHW, I = in_c / group.
    /** > 0 when @p weight holds A panels of this MR (pack_weight with
     *  TensorLayout::kPanelA, one group after another); only the packed
     *  GEMM variants of kIm2colGemm read that order. */
    int weight_mr = 0;
    std::int64_t out_c = 0;

    const float *bias = nullptr;   ///< Length out_c, may be null.

    float *output = nullptr;       ///< NCHW.
    std::int64_t out_h = 0;
    std::int64_t out_w = 0;

    Conv2dParams params;
    ActivationSpec activation;

    /** GEMM algorithm used by im2col/Winograd lowering. */
    GemmVariant gemm_variant = GemmVariant::kPacked;
};

/**
 * Caller-provided scratch for the conv kernels. Mirrors GemmScratch:
 * every field is optional and a null field makes the kernel fall back
 * to a self-managed buffer. Prepared layers fill the constant caches
 * once at plan time and carve the per-invocation buffers from the
 * engine's workspace segment.
 */
struct Conv2dScratch {
    /** im2col column matrix for the naive/blocked GEMM variants (the
     *  packed ones need none); conv2d_im2col_col_floats(). */
    float *col = nullptr;
    /** Prebuilt spatial-pack weight cache (plan-time constant); when
     *  set, the kernel skips its weight-packing stage entirely. */
    const float *packed_weights = nullptr;
    /** Per-call weight-packing target used when packed_weights is null
     *  (runtime weights); conv2d_spatial_pack_weights_floats(). */
    float *weight_pack = nullptr;
    /** Padded-input staging for spatial-pack;
     *  conv2d_spatial_pack_padded_floats(). */
    float *padded_input = nullptr;
    /** Winograd input-transform staging; conv2d_winograd_v_floats(). */
    float *v = nullptr;
    /** Winograd product staging; conv2d_winograd_m_floats(). */
    float *m = nullptr;
    /** Forwarded to the GEMM underneath im2col/Winograd lowering. */
    GemmScratch gemm;
};

/** Floats the im2col column buffer needs: 0 for pointwise convs, which
 *  skip the lowering, and for the packed GEMM variants, which pack the
 *  input windows directly. Only the shape fields and gemm_variant of
 *  @p args are read. */
std::size_t conv2d_im2col_col_floats(const Conv2dArgs &args);

/** Floats of the spatial-pack packed-weight cache. */
std::size_t conv2d_spatial_pack_weights_floats(const Conv2dArgs &args);

/** Packs args.weight into spatial-pack order ([ic][kh][kw][ocb]); @p out
 *  must hold conv2d_spatial_pack_weights_floats() floats. */
void conv2d_spatial_pack_pack_weights(const Conv2dArgs &args, float *out);

/** Floats of the spatial-pack padded-input staging buffer. */
std::size_t conv2d_spatial_pack_padded_floats(const Conv2dArgs &args);

/** Floats of the Winograd input-transform (V) staging buffer. */
std::size_t conv2d_winograd_v_floats(const Conv2dArgs &args);

/** Floats of the Winograd product (M) staging buffer. */
std::size_t conv2d_winograd_m_floats(const Conv2dArgs &args);

/** Direct seven-loop convolution (reference). */
void conv2d_direct(const Conv2dArgs &args);

/** GEMM convolution over the im2col view of the input. */
void conv2d_im2col_gemm(const Conv2dArgs &args,
                        const Conv2dScratch *scratch = nullptr);

/** Spatial-pack (register-tiled direct) convolution. */
void conv2d_spatial_pack(const Conv2dArgs &args,
                         const Conv2dScratch *scratch = nullptr);

/** True if args qualify for the Winograd kernel (3x3, stride 1,
 *  dilation 1, ungrouped). */
bool conv2d_winograd_supported(const Conv2dArgs &args);

/** Winograd F(2x2, 3x3) convolution; requires winograd_supported. */
void conv2d_winograd(const Conv2dArgs &args,
                     const Conv2dScratch *scratch = nullptr);

/**
 * Pre-computes the Winograd weight transform U = G g G^T for a
 * [out_c, in_c, 3, 3] filter bank. Layout: [16][out_c][in_c]. Layers
 * with constant weights compute this once at plan time and pass it to
 * conv2d_winograd_pretransformed on every inference.
 */
std::vector<float> winograd_transform_weights(const float *weights,
                                              std::int64_t out_c,
                                              std::int64_t in_c);

/** Winograd conv using a cached weight transform (args.weight unused). */
void conv2d_winograd_pretransformed(const Conv2dArgs &args,
                                    const float *u_data,
                                    const Conv2dScratch *scratch = nullptr);

/** True if args describe a depthwise convolution (group == in_c). */
bool conv2d_is_depthwise(const Conv2dArgs &args);

/** Specialised direct depthwise convolution; requires is_depthwise. */
void conv2d_depthwise_direct(const Conv2dArgs &args);

/** True when conv2d_depthwise_simd will take a vectorised inner loop
 *  (SIMD tier compiled in, CPU support, not disabled). */
bool conv2d_depthwise_simd_available();

/**
 * Depthwise convolution through the runtime-dispatched SIMD tier. On
 * AVX2, 3x3 dilation-1 stride-1/2 convs stage blocks of four output
 * rows' input on the stack and compute each output vector once in
 * registers (bias, nine FMAs in tap order, activation, one store);
 * other shapes keep a vectorised per-tap loop. NEON keeps the per-tap
 * loop for every shape. Each output accumulates its taps in the scalar
 * kernel's order, so results are within a few ULP (FMA contraction and
 * the sign of an exact zero), and fused activations match
 * ActivationSpec::apply() bit for bit. Falls back to the scalar kernel
 * when the tier is unavailable or disabled.
 */
void conv2d_depthwise_simd(const Conv2dArgs &args);

// Per-ISA entry points (own translation units with matching ISA flags;
// referenced only when the ORPHEUS_SIMD_* definition is set).
#if defined(ORPHEUS_SIMD_X86)
void conv2d_depthwise_avx2(const Conv2dArgs &args);
#endif
#if defined(ORPHEUS_SIMD_NEON)
void conv2d_depthwise_neon(const Conv2dArgs &args);
#endif

/**
 * Tensor-level convenience wrapper: validates shapes, builds Conv2dArgs
 * and dispatches on @p algo. @p bias may be null. @p output must be
 * pre-allocated with the inferred output shape. A weight in A panels is
 * read in place by kIm2colGemm on a packed GEMM variant; every other
 * algorithm unpacks it for itself, per call.
 */
void conv2d(ConvAlgo algo, const Tensor &input, const Tensor &weight,
            const Tensor *bias, const Conv2dParams &params,
            const ActivationSpec &activation, Tensor &output,
            GemmVariant gemm_variant = GemmVariant::kPacked,
            const Conv2dScratch *scratch = nullptr);

} // namespace orpheus
