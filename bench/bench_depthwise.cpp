/**
 * @file
 * Section III, claim 2 — "PyTorch performs poorly for MobileNetV1
 * because of an inefficient implementation of the depthwise
 * convolution."
 *
 * Times MobileNet's depthwise 3x3 layers under (a) the specialised
 * scalar depthwise kernel (Orpheus / TVM behaviour), (b) the generic
 * grouped im2col+GEMM lowering (the PyTorch-like path) and (c) the
 * runtime-dispatched SIMD depthwise kernel the engine selects when the
 * CPU has it (the scalar kernel otherwise). The grouped lowering
 * degenerates into C tiny GEMMs whose packing overhead dwarfs the
 * arithmetic, so a large slowdown is the expected shape.
 */
#include "bench_util.hpp"

#include "core/cpu_features.hpp"
#include "graph/op_params.hpp"
#include "ops/conv/conv.hpp"

namespace {

using namespace orpheus;
using namespace orpheus::bench;

struct DepthwiseConfig {
    std::int64_t channels;
    std::int64_t spatial;
    std::int64_t stride;
};

/** The depthwise layer shapes of MobileNetV1 (width 1.0). */
const DepthwiseConfig kMobileNetLayers[] = {
    {32, 112, 1}, {64, 112, 2}, {128, 56, 1}, {128, 56, 2},
    {256, 28, 1}, {256, 28, 2}, {512, 14, 1}, {512, 14, 2},
    {1024, 7, 1},
};

void
depthwise_cell(::benchmark::State &state, ConvAlgo algo,
               const DepthwiseConfig &config, const std::string &column)
{
    Rng rng(0xdc);
    Tensor input = random_tensor(
        Shape({1, config.channels, config.spatial, config.spatial}), rng);
    Tensor weight =
        random_tensor(Shape({config.channels, 1, 3, 3}), rng);
    Conv2dParams params;
    params.kernel_h = params.kernel_w = 3;
    params.stride_h = params.stride_w = config.stride;
    params.pad_top = params.pad_left = params.pad_bottom =
        params.pad_right = 1;
    params.group = config.channels;
    Tensor output(Shape({1, config.channels,
                         params.out_h(config.spatial),
                         params.out_w(config.spatial)}));

    conv2d(algo, input, weight, nullptr, params, ActivationSpec::none(),
           output);

    double total_ms = 0.0;
    std::int64_t runs = 0;
    for (auto _ : state) {
        Timer timer;
        conv2d(algo, input, weight, nullptr, params,
               ActivationSpec::none(), output);
        const double ms = timer.elapsed_ms();
        state.SetIterationTime(ms / 1000.0);
        total_ms += ms;
        ++runs;
    }
    record_cell("C=" + std::to_string(config.channels) + " HW=" +
                    std::to_string(config.spatial) + " s" +
                    std::to_string(config.stride),
                column, total_ms / static_cast<double>(runs));
}

} // namespace

int
main(int argc, char **argv)
{
    set_global_num_threads(1);
    const int layer_count = quick_mode() ? 2 : 9;

    for (int i = 0; i < layer_count; ++i) {
        const DepthwiseConfig config = kMobileNetLayers[i];
        for (const auto &[algo, column] :
             {std::pair<ConvAlgo, std::string>{
                  ConvAlgo::kDepthwiseDirect, "depthwise_direct"},
              {ConvAlgo::kIm2colGemm, "grouped_gemm"},
              {ConvAlgo::kDepthwiseSimd, "depthwise_simd"}}) {
            const std::string name =
                "depthwise/C" + std::to_string(config.channels) + "s" +
                std::to_string(config.stride) + "/" + column;
            ConvAlgo algo_captured = algo;
            std::string column_captured = column;
            ::benchmark::RegisterBenchmark(
                name.c_str(),
                [config, algo_captured,
                 column_captured](::benchmark::State &state) {
                    depthwise_cell(state, algo_captured, config,
                                   column_captured);
                })
                ->Iterations(timed_runs())
                ->UseManualTime()
                ->Unit(::benchmark::kMillisecond);
        }
    }

    const int status = orpheus::bench::run_benchmarks(argc, argv);
    print_table("Depthwise conv: specialised kernel vs grouped GEMM "
                "(the paper's PyTorch explanation)",
                "layer");

    double total_fast = 0.0, total_slow = 0.0, total_simd = 0.0;
    for (const Cell &cell : cells()) {
        if (cell.column == "depthwise_direct")
            total_fast += cell.mean_ms;
        else if (cell.column == "grouped_gemm")
            total_slow += cell.mean_ms;
        else
            total_simd += cell.mean_ms;
    }
    if (total_fast > 0.0)
        std::printf("\nacross all MobileNetV1 depthwise layers, the "
                    "grouped-GEMM path is %.1fx slower "
                    "(%.2f ms vs %.2f ms)\n",
                    total_slow / total_fast, total_slow, total_fast);
    if (total_simd > 0.0)
        std::printf("the SIMD depthwise kernel (%s) is %.1fx faster than "
                    "the scalar one (%.2f ms vs %.2f ms)\n",
                    conv2d_depthwise_simd_available() ? simd_isa_compiled()
                                                      : "scalar fallback",
                    total_fast / total_simd, total_simd, total_fast);
    print_csv("layer", "path");
    write_json("depthwise");
    return status;
}
