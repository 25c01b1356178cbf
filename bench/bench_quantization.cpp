/**
 * @file
 * Extension experiment — int8 post-training quantization.
 *
 * The paper positions Orpheus as a vehicle for inference-optimisation
 * research (its motivating reference, Turner et al., studies compression
 * across the stack). This bench evaluates the PTQ pipeline shipped in
 * src/quant on the paper's smallest network plus MobileNet:
 *
 *   - inference time, fp32 engine vs quantized engine (1 thread),
 *   - model weight footprint, fp32 vs int8, and
 *   - output drift (max |prob difference|) against the float model.
 *
 * The engine runs int8 convs as `im2col_qgemm_<isa>` (the SIMD integer
 * GEMM where the build has one). Like the fp32 conv it gathers each
 * im2col window straight from the input, but it lowers depthwise to
 * per-channel GEMMs and never splits work across threads, while the
 * fp32 conv has a direct depthwise kernel and a register-blocked fp32
 * micro-kernel on every thread. So int8 is not expected to win on
 * *time*; the footprint column is where quantization pays on
 * memory-constrained edge targets.
 */
#include "bench_util.hpp"

#include "quant/quantizer.hpp"

namespace {

using namespace orpheus;
using namespace orpheus::bench;

struct ModelDrift {
    std::string model;
    double max_drift = 0.0;
    std::size_t float_bytes = 0;
    std::size_t quant_bytes = 0;
    int quantized_convs = 0;
};

std::vector<ModelDrift> &
drifts()
{
    static std::vector<ModelDrift> storage;
    return storage;
}

std::size_t
initializer_bytes(const Graph &graph)
{
    std::size_t total = 0;
    for (const auto &[name, tensor] : graph.initializers()) {
        (void)name;
        total += tensor.byte_size();
    }
    return total;
}

Graph
build_model(const std::string &name)
{
    if (name == "mobilenet-0.5")
        return models::mobilenet_v1(1000, 0.5f);
    return models::by_name(name);
}

void
quant_cell(::benchmark::State &state, const std::string &model,
           bool quantize)
{
    set_global_num_threads(1);
    Graph float_graph = build_model(model);

    if (!quantize) {
        Engine engine(std::move(float_graph));
        run_inference_cell(state, engine, model, "fp32");
        return;
    }

    QuantizationReport report;
    QuantizationOptions options;
    options.calibration_runs = 2;
    Graph simplified = float_graph;
    simplify_graph(simplified);
    Graph quantized = quantize_model(Graph(float_graph), options, &report);

    ModelDrift drift;
    drift.model = model;
    drift.float_bytes = initializer_bytes(simplified);
    drift.quant_bytes = initializer_bytes(quantized);
    drift.quantized_convs = report.quantized_convs;

    Engine float_engine(std::move(float_graph));
    Engine quant_engine(std::move(quantized));
    Rng rng(0x9b);
    Tensor input = random_tensor(
        quant_engine.graph().inputs().front().shape, rng);
    drift.max_drift = static_cast<double>(
        max_abs_diff(quant_engine.run(input), float_engine.run(input)));
    drifts().push_back(drift);

    run_inference_cell(state, quant_engine, model, "int8");
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> model_list =
        quick_mode() ? std::vector<std::string>{"tiny-cnn"}
                     : std::vector<std::string>{"wrn-40-2",
                                                "mobilenet-0.5"};

    for (const std::string &model : model_list) {
        for (const bool quantize : {false, true}) {
            const std::string name = "quant/" + model + "/" +
                                     (quantize ? "int8" : "fp32");
            ::benchmark::RegisterBenchmark(
                name.c_str(),
                [model, quantize](::benchmark::State &state) {
                    quant_cell(state, model, quantize);
                })
                ->Iterations(timed_runs())
                ->UseManualTime()
                ->Unit(::benchmark::kMillisecond);
        }
    }

    const int status = orpheus::bench::run_benchmarks(argc, argv);
    print_table("Extension: int8 post-training quantization", "model");

    std::printf("\nfootprint and accuracy:\n");
    std::printf("%-16s %12s %12s %9s %14s %8s\n", "model", "fp32 MiB",
                "int8 MiB", "ratio", "quantized convs", "drift");
    std::printf("%s\n", std::string(78, '-').c_str());
    for (const ModelDrift &drift : drifts()) {
        const double fp32_mib =
            static_cast<double>(drift.float_bytes) / (1024.0 * 1024.0);
        const double int8_mib =
            static_cast<double>(drift.quant_bytes) / (1024.0 * 1024.0);
        std::printf("%-16s %12.2f %12.2f %8.2fx %15d %8.4f\n",
                    drift.model.c_str(), fp32_mib, int8_mib,
                    fp32_mib / int8_mib, drift.quantized_convs,
                    drift.max_drift);
    }
    std::printf("\n(time: int8 convs run im2col_qgemm_<isa>, which lowers "
                "depthwise to per-channel GEMMs on one thread, against the "
                "fp32 direct depthwise kernel and packed-window GEMM; on "
                "edge targets the ~4x weight-footprint saving is the "
                "win.)\n");
    print_csv("model", "precision");
    write_json("quantization");
    return status;
}
