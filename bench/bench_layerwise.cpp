/**
 * @file
 * Ablation D — per-layer evaluation ("evaluating full networks, and
 * individual layers", §I).
 *
 * Profiles MobileNetV1 layer by layer under the Orpheus and
 * PyTorch-like personalities and prints the hottest layers side by
 * side. The PyTorch-like column concentrates its extra time in the
 * depthwise convolutions — the per-layer view of Figure 2's MobileNet
 * gap, and the kind of diagnosis the paper built this infrastructure
 * for.
 */
#include "bench_util.hpp"

#include "eval/layer_bench.hpp"

namespace {

using namespace orpheus;
using namespace orpheus::bench;

std::map<std::string, std::vector<LayerTiming>> &
layer_results()
{
    static std::map<std::string, std::vector<LayerTiming>> storage;
    return storage;
}

void
layerwise_cell(::benchmark::State &state, const FrameworkPersonality &p,
               bool prepared)
{
    set_global_num_threads(1);
    EngineOptions options = p.options;
    options.prepare_kernels = prepared;
    const float width = quick_mode() ? 0.25f : 1.0f;
    Engine engine(models::mobilenet_v1(1000, width), options);

    const std::string column = prepared ? p.name : p.name + "-noprep";
    run_inference_cell(state, engine, "mobilenet-v1", column);
    layer_results()[column] = profile_layers(engine, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    // Each personality runs twice: with the plan-time kernel-preparation
    // stage (the default) and without it (per-call packing, self-managed
    // scratch) — the ablation that prices what prepare() removes from
    // steady-state inference.
    for (const FrameworkPersonality &p :
         {orpheus_personality(), pytorch_like_personality()}) {
        for (const bool prepared : {true, false}) {
            const std::string name = "layerwise/mobilenet-v1/" + p.name +
                                     (prepared ? "" : "/noprep");
            ::benchmark::RegisterBenchmark(
                name.c_str(),
                [p, prepared](::benchmark::State &state) {
                    layerwise_cell(state, p, prepared);
                })
                ->Iterations(timed_runs())
                ->UseManualTime()
                ->Unit(::benchmark::kMillisecond);
        }
    }

    const int status = orpheus::bench::run_benchmarks(argc, argv);
    print_table("Ablation D: whole-network context", "model");

    for (const auto &[personality, timings] : layer_results()) {
        std::printf("\nhottest layers under %s:\n",
                    personality.c_str());
        std::printf("%s",
                    layer_timings_to_string(timings, /*max_rows=*/10)
                        .c_str());
    }

    // Aggregate conv time per implementation for each personality.
    std::printf("\nconv time per implementation:\n");
    for (const auto &[personality, timings] : layer_results()) {
        std::map<std::string, double> per_impl;
        for (const LayerTiming &timing : timings) {
            if (timing.op_type == op_names::kConv)
                per_impl[timing.impl_name] += timing.mean_ms;
        }
        std::printf("  %s:\n", personality.c_str());
        for (const auto &[impl, ms] : per_impl)
            std::printf("    %-20s %10.2f ms\n", impl.c_str(), ms);
    }
    std::printf("\nthe PyTorch-like profile concentrates its extra time "
                "in the grouped im2col_gemm rows that replace "
                "depthwise_direct — the per-layer form of the paper's "
                "MobileNetV1 explanation. The -noprep columns price the "
                "per-call weight packing and scratch allocation the "
                "prepare stage removes.\n");
    write_json("layerwise");
    return status;
}
