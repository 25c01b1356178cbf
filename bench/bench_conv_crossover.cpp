/**
 * @file
 * Section III, claim 1 — "Orpheus uses GEMM convolution, which pays off
 * for big matrices, and TVM uses a custom primitive called 'spatial
 * pack' instead."
 *
 * Sweeps a single 3x3 convolution layer across channel counts at the
 * spatial sizes where each count occurs in real networks, timing the
 * im2col+GEMM kernel against the spatial-pack kernel. The series should
 * show spatial pack ahead at small channel counts (im2col overhead
 * dominates) and GEMM conv ahead once K = C*9 is large — the crossover
 * that explains Figure 2's small-model/large-model split.
 *
 * GEMM conv runs twice: `gemm_conv` on conv2d()'s default scalar packed
 * GEMM, and `gemm_conv_simd` on the runtime-dispatched SIMD body the
 * engine's im2col_gemm_avx2 / _neon layers use.
 */
#include "bench_util.hpp"

#include "graph/op_params.hpp"
#include "ops/conv/conv.hpp"

namespace {

using namespace orpheus;
using namespace orpheus::bench;

struct LayerConfig {
    std::int64_t channels;
    std::int64_t spatial;
};

/** Channel/spatial pairs as they appear in ResNet/VGG-style nets. */
const LayerConfig kSweep[] = {
    {8, 112}, {16, 112}, {32, 56}, {64, 56},
    {128, 28}, {256, 14}, {512, 7},
};

struct Column {
    ConvAlgo algo;
    GemmVariant gemm_variant;
    std::string name;
};

void
conv_cell(::benchmark::State &state, const Column &column,
          const LayerConfig &config)
{
    Rng rng(0xcc);
    Tensor input = random_tensor(
        Shape({1, config.channels, config.spatial, config.spatial}), rng);
    Tensor weight = random_tensor(
        Shape({config.channels, config.channels, 3, 3}), rng);
    Tensor output(input.shape());
    Conv2dParams params;
    params.kernel_h = params.kernel_w = 3;
    params.pad_top = params.pad_left = params.pad_bottom =
        params.pad_right = 1;

    conv2d(column.algo, input, weight, nullptr, params,
           ActivationSpec::none(), output, column.gemm_variant); // Warm-up.

    double total_ms = 0.0;
    std::int64_t runs = 0;
    for (auto _ : state) {
        Timer timer;
        conv2d(column.algo, input, weight, nullptr, params,
               ActivationSpec::none(), output, column.gemm_variant);
        const double ms = timer.elapsed_ms();
        state.SetIterationTime(ms / 1000.0);
        total_ms += ms;
        ++runs;
    }
    record_cell("C=" + std::to_string(config.channels) + " HW=" +
                    std::to_string(config.spatial),
                column.name, total_ms / static_cast<double>(runs));
}

} // namespace

int
main(int argc, char **argv)
{
    set_global_num_threads(1);
    const int sweep_count = quick_mode() ? 3 : 7;

    const Column columns[] = {
        {ConvAlgo::kIm2colGemm, GemmVariant::kPacked, "gemm_conv"},
        {ConvAlgo::kSpatialPack, GemmVariant::kPacked, "spatial_pack"},
        {ConvAlgo::kIm2colGemm, GemmVariant::kPackedSimd, "gemm_conv_simd"},
    };
    for (int i = 0; i < sweep_count; ++i) {
        const LayerConfig config = kSweep[i];
        for (const Column &column : columns) {
            const std::string name = "conv3x3/C" +
                                     std::to_string(config.channels) + "/" +
                                     column.name;
            ::benchmark::RegisterBenchmark(
                name.c_str(),
                [column, config](::benchmark::State &state) {
                    conv_cell(state, column, config);
                })
                ->Iterations(timed_runs())
                ->UseManualTime()
                ->Unit(::benchmark::kMillisecond);
        }
    }

    const int status = orpheus::bench::run_benchmarks(argc, argv);
    print_table("Conv algorithm crossover: 3x3 conv, CxHxW sweep",
                "layer");

    // Locate the crossover.
    std::printf("\nper-layer winner:\n");
    std::string previous_winner;
    for (const Cell &cell : cells()) {
        if (cell.column != "gemm_conv")
            continue;
        double spatial_ms = 0.0;
        double simd_ms = 0.0;
        for (const Cell &other : cells()) {
            if (other.row != cell.row)
                continue;
            if (other.column == "spatial_pack")
                spatial_ms = other.mean_ms;
            else if (other.column == "gemm_conv_simd")
                simd_ms = other.mean_ms;
        }
        std::string winner = "gemm_conv";
        double best_ms = cell.mean_ms;
        if (spatial_ms < best_ms) {
            winner = "spatial_pack";
            best_ms = spatial_ms;
        }
        if (simd_ms < best_ms)
            winner = "gemm_conv_simd";
        std::printf("  %-16s %-14s (gemm %.2f ms, spatial %.2f ms, "
                    "gemm simd %.2f ms)%s\n",
                    cell.row.c_str(), winner.c_str(), cell.mean_ms,
                    spatial_ms, simd_ms,
                    (!previous_winner.empty() && winner != previous_winner)
                        ? "   <-- crossover"
                        : "");
        previous_winner = winner;
    }
    print_csv("layer", "algorithm");
    write_json("conv_crossover");
    return status;
}
