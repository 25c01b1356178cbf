/**
 * @file
 * Kernel-preparation ablation — the prepared-vs-unprepared comparison
 * behind the plan-time prepare() stage (backend/layer.hpp).
 *
 * Every fast backend owns constant-data work that does not belong in
 * steady-state inference: spatial-pack re-packs weights, Winograd
 * re-transforms filters (U = G g G^T), packed GEMM re-packs its weight
 * (A panels of a conv, B panels of a Gemm), and qconv re-sums quantized
 * weight rows. The prepare stage hoists all
 * of it to Engine plan time and carves per-invocation scratch out of the
 * planned workspace segment. This bench prices the difference per
 * backend: each row is one implementation family on a model that
 * exercises it, each column one setting of EngineOptions::prepare_kernels.
 */
#include "bench_util.hpp"

#include "quant/quantizer.hpp"

namespace {

using namespace orpheus;
using namespace orpheus::bench;

/** One backend family to ablate: a row name, the model that exercises
 *  it and the engine configuration that selects it. */
struct BackendCase {
    std::string row;
    std::string model; ///< model-zoo name, or "" for a custom builder.
};

Graph
build_model(const std::string &row)
{
    const bool quick = quick_mode();
    if (row == "dense_packed")
        return quick ? models::tiny_mlp() : models::tiny_mlp(256, 1024, 100);
    if (row == "qconv_int8") {
        QuantizationOptions options;
        options.calibration_runs = 2;
        return quantize_model(models::tiny_cnn(), options, nullptr);
    }
    // Conv families: the paper's smallest network in quick mode, the
    // 3x3-dominated WRN-40-2 otherwise.
    return quick ? models::tiny_cnn() : models::by_name("wrn-40-2");
}

EngineOptions
build_options(const std::string &row, bool prepared)
{
    EngineOptions options;
    options.prepare_kernels = prepared;
    if (row == "spatial_pack" || row == "im2col_gemm")
        options.backend.forced_impl[op_names::kConv] = row;
    if (row == "winograd")
        // Heuristic selection with Winograd enabled: eligible 3x3
        // stride-1 convs take the transformed path, the rest fall back.
        options.backend.allow_winograd = true;
    return options;
}

void
prepare_cell(::benchmark::State &state, const std::string &row,
             bool prepared)
{
    set_global_num_threads(1);
    Engine engine(build_model(row), build_options(row, prepared));
    run_inference_cell(state, engine, row,
                       prepared ? "prepared" : "unprepared");
}

} // namespace

int
main(int argc, char **argv)
{
    const char *rows[] = {"spatial_pack", "winograd", "im2col_gemm",
                          "dense_packed", "qconv_int8"};
    for (const char *row : rows) {
        for (const bool prepared : {true, false}) {
            const std::string name = std::string("prepare/") + row + "/" +
                                     (prepared ? "prepared" : "unprepared");
            const std::string row_name = row;
            ::benchmark::RegisterBenchmark(
                name.c_str(),
                [row_name, prepared](::benchmark::State &state) {
                    prepare_cell(state, row_name, prepared);
                })
                ->Iterations(timed_runs())
                ->UseManualTime()
                ->Unit(::benchmark::kMillisecond);
        }
    }

    const int status = orpheus::bench::run_benchmarks(argc, argv);
    print_table("Kernel preparation: plan-time packing vs per-call",
                "backend");

    std::printf("\nspeedup from preparation (unprepared / prepared):\n");
    for (const char *row : rows) {
        double prepared_ms = 0.0, unprepared_ms = 0.0;
        for (const Cell &cell : cells()) {
            if (cell.row != row)
                continue;
            if (cell.column == "prepared")
                prepared_ms = cell.mean_ms;
            else if (cell.column == "unprepared")
                unprepared_ms = cell.mean_ms;
        }
        if (prepared_ms > 0.0 && unprepared_ms > 0.0)
            std::printf("  %-14s %6.2fx\n", row,
                        unprepared_ms / prepared_ms);
    }
    std::printf("\nprepared rows skip per-call weight packing / filter "
                "transforms and draw scratch from the planned workspace "
                "segment instead of allocating.\n");

    print_csv("backend", "mode");
    write_json("prepare");
    return status;
}
