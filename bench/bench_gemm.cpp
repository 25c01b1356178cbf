/**
 * @file
 * Ablation A — GEMM algorithm choice.
 *
 * The framework personalities differ mainly in which GEMM backs their
 * convolutions (Orpheus: packed; PyTorch-like: blocked; DarkNet-like:
 * naive). This ablation isolates that choice on the actual matrix
 * shapes GEMM convolution produces for network layers, plus square
 * reference points, and reports achieved GFLOP/s.
 */
#include "bench_util.hpp"

#include "core/cpu_features.hpp"
#include "ops/gemm/gemm.hpp"
#include "ops/quant/qgemm.hpp"

namespace {

using namespace orpheus;
using namespace orpheus::bench;

struct GemmShape {
    const char *label;
    std::int64_t m, n, k;
};

/** conv-as-GEMM shapes: M=out_c, N=out_h*out_w, K=in_c*kh*kw. */
const GemmShape kShapes[] = {
    {"sq256", 256, 256, 256},
    {"sq512", 512, 512, 512},
    {"resnet_conv2", 64, 3136, 576},    // 64x56x56, 3x3 from 64
    {"resnet_conv4", 256, 196, 2304},   // 256x14x14, 3x3 from 256
    {"mobilenet_pw", 128, 3136, 64},    // 1x1 pointwise, 56x56
    {"fc_layer", 1000, 1, 2048},        // classifier
};

void
gemm_cell(::benchmark::State &state, GemmVariant variant,
          const GemmShape &shape)
{
    Rng rng(0x6e);
    std::vector<float> a(static_cast<std::size_t>(shape.m * shape.k));
    std::vector<float> b(static_cast<std::size_t>(shape.k * shape.n));
    std::vector<float> c(static_cast<std::size_t>(shape.m * shape.n));
    for (float &value : a)
        value = rng.uniform(-1, 1);
    for (float &value : b)
        value = rng.uniform(-1, 1);

    gemm(variant, shape.m, shape.n, shape.k, a.data(), shape.k, b.data(),
         shape.n, c.data(), shape.n);

    double total_ms = 0.0;
    std::int64_t runs = 0;
    for (auto _ : state) {
        Timer timer;
        gemm(variant, shape.m, shape.n, shape.k, a.data(), shape.k,
             b.data(), shape.n, c.data(), shape.n);
        const double ms = timer.elapsed_ms();
        state.SetIterationTime(ms / 1000.0);
        total_ms += ms;
        ++runs;
    }
    benchmark::DoNotOptimize(c.data());
    const double mean_ms = total_ms / static_cast<double>(runs);
    record_cell(shape.label, to_string(variant), mean_ms);

    const double flops =
        2.0 * static_cast<double>(shape.m * shape.n * shape.k);
    state.counters["GFLOP/s"] = flops / (mean_ms * 1e6);
}

/** int8 qgemm cell (scalar reference or the SIMD tier). */
void
qgemm_cell(::benchmark::State &state, bool simd, const GemmShape &shape)
{
    Rng rng(0x6e);
    std::vector<std::uint8_t> a(
        static_cast<std::size_t>(shape.m * shape.k));
    std::vector<std::int8_t> b(static_cast<std::size_t>(shape.k * shape.n));
    std::vector<std::int32_t> c(
        static_cast<std::size_t>(shape.m * shape.n));
    for (auto &value : a)
        value = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    for (auto &value : b)
        value = static_cast<std::int8_t>(rng.uniform_int(-128, 127));

    const auto run = [&] {
        if (simd)
            qgemm_u8i8_simd(shape.m, shape.n, shape.k, a.data(), shape.k,
                            128, b.data(), shape.n, c.data(), shape.n);
        else
            qgemm_u8i8(shape.m, shape.n, shape.k, a.data(), shape.k, 128,
                       b.data(), shape.n, c.data(), shape.n);
    };
    run();

    double total_ms = 0.0;
    std::int64_t runs = 0;
    for (auto _ : state) {
        Timer timer;
        run();
        const double ms = timer.elapsed_ms();
        state.SetIterationTime(ms / 1000.0);
        total_ms += ms;
        ++runs;
    }
    benchmark::DoNotOptimize(c.data());
    record_cell(std::string("qgemm_") + shape.label,
                simd ? "simd" : "scalar",
                total_ms / static_cast<double>(runs));
}

/** Ratio cell: 100 * scalar_ms / simd_ms for @p row, recorded under the
 *  "_pct" suffix so the regression gate scores it as an absolute
 *  quality floor instead of a time share. */
void
record_speedup(const std::string &row, const std::string &scalar_column,
               const std::string &simd_column)
{
    double scalar_ms = 0, simd_ms = 0;
    for (const Cell &cell : cells()) {
        if (cell.row != row)
            continue;
        if (cell.column == scalar_column)
            scalar_ms = cell.mean_ms;
        else if (cell.column == simd_column)
            simd_ms = cell.mean_ms;
    }
    if (scalar_ms > 0 && simd_ms > 0)
        record_cell(row, "simd_speedup_pct",
                    100.0 * scalar_ms / simd_ms);
}

} // namespace

int
main(int argc, char **argv)
{
    set_global_num_threads(1);
    const int shape_count = quick_mode() ? 2 : 6;

    const bool simd = gemm_packed_simd_available();
    for (int i = 0; i < shape_count; ++i) {
        const GemmShape &shape = kShapes[i];
        std::vector<GemmVariant> variants = {GemmVariant::kNaive,
                                             GemmVariant::kBlocked,
                                             GemmVariant::kPacked};
        if (simd)
            variants.push_back(GemmVariant::kPackedSimd);
        for (GemmVariant variant : variants) {
            const std::string name = std::string("gemm/") + shape.label +
                                     "/" + to_string(variant);
            ::benchmark::RegisterBenchmark(
                name.c_str(),
                [variant, shape](::benchmark::State &state) {
                    gemm_cell(state, variant, shape);
                })
                ->Iterations(timed_runs())
                ->UseManualTime()
                ->Unit(::benchmark::kMillisecond);
        }
        for (bool use_simd : {false, true}) {
            if (use_simd && !qgemm_simd_available())
                continue;
            const std::string name = std::string("qgemm/") + shape.label +
                                     (use_simd ? "/simd" : "/scalar");
            ::benchmark::RegisterBenchmark(
                name.c_str(),
                [use_simd, shape](::benchmark::State &state) {
                    qgemm_cell(state, use_simd, shape);
                })
                ->Iterations(timed_runs())
                ->UseManualTime()
                ->Unit(::benchmark::kMillisecond);
        }
    }

    const int status = orpheus::bench::run_benchmarks(argc, argv);
    print_table("Ablation A: GEMM variants on network-shaped matrices",
                "shape");

    std::printf("\nspeedup of packed over the other variants:\n");
    for (int i = 0; i < shape_count; ++i) {
        const GemmShape &shape = kShapes[i];
        double naive = 0, blocked = 0, packed = 0;
        for (const Cell &cell : cells()) {
            if (cell.row != shape.label)
                continue;
            if (cell.column == "naive")
                naive = cell.mean_ms;
            else if (cell.column == "blocked")
                blocked = cell.mean_ms;
            else
                packed = cell.mean_ms;
        }
        if (packed > 0)
            std::printf("  %-14s vs naive %6.2fx, vs blocked %6.2fx\n",
                        shape.label, naive / packed, blocked / packed);
    }

    // Speedup quality cells: the regression gate holds these as
    // absolute floors, so a change that quietly loses the SIMD win
    // (broken dispatch, clobbered per-file ISA flags) fails CI even on
    // a faster machine.
    if (simd) {
        std::printf("\nSIMD tier (%s, gemm body %s) speedup over "
                    "scalar:\n",
                    simd_isa_compiled(), gemm_packed_simd_body());
        for (int i = 0; i < shape_count; ++i) {
            const GemmShape &shape = kShapes[i];
            record_speedup(shape.label, "packed", "packed_simd");
            record_speedup(std::string("qgemm_") + shape.label, "scalar",
                           "simd");
            for (const Cell &cell : cells()) {
                if (cell.column != "simd_speedup_pct")
                    continue;
                if (cell.row != shape.label &&
                    cell.row != std::string("qgemm_") + shape.label)
                    continue;
                std::printf("  %-14s %6.2fx\n", cell.row.c_str(),
                            cell.mean_ms / 100.0);
            }
        }
    }
    print_csv("shape", "variant");
    write_json("gemm");
    return status;
}
