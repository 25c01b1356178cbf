/**
 * @file
 * Post-training quantization: float Graph -> mixed-precision Graph.
 *
 * Every eligible convolution (constant weights, calibrated input/output
 * ranges, relu/clip-or-none fused activation) is rewritten into the
 * QuantizeLinear -> QLinearConv -> DequantizeLinear pattern with uint8
 * activations and symmetric int8 weights. A cleanup pass then removes
 * Dequantize/Quantize pairs between adjacent quantized convs so chains
 * stay in the integer domain end to end.
 *
 * This is an Orpheus *extension* beyond the paper's fp32 evaluation —
 * the kind of inference optimisation research the framework was built
 * to host (cf. Turner et al., the paper's motivating reference, on
 * across-stack compression).
 */
#pragma once

#include "graph/graph.hpp"
#include "quant/calibration.hpp"

namespace orpheus {

struct QuantizationOptions {
    /** Calibration samples (random inputs; see calibration.hpp). */
    int calibration_runs = 4;
    /**
     * Quantize weights per output channel (one int8 scale per filter)
     * instead of per tensor. Strictly more accurate for conv weights,
     * whose per-filter magnitudes vary widely; matches ONNX
     * QLinearConv's 1-D w_scale form.
     */
    bool per_channel_weights = true;
};

struct QuantizationReport {
    int quantized_convs = 0;
    int skipped_convs = 0;
    int removed_quant_pairs = 0;
};

/**
 * Quantizes @p graph (by value; the float graph is not modified),
 * running the float simplification pipeline first: BN folding and
 * activation fusion must precede quantization. Throws orpheus::Error
 * if the graph is invalid; convs that cannot be quantized are left in
 * float and counted in the report.
 */
Graph quantize_model(Graph graph, const QuantizationOptions &options = {},
                     QuantizationReport *report = nullptr);

} // namespace orpheus
