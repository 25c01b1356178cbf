/**
 * @file
 * orpheus — command-line front end to the framework.
 *
 * Subcommands:
 *   list                          zoo models, personalities, kernels
 *   info    <model>               plan summary + footprint
 *   run     <model> [options]     timed inference
 *   compare <model> [options]     all framework personalities
 *   convert <model> <out.onnx>    export a zoo model to ONNX
 *   quantize <model> <out.onnx>   int8 PTQ, then export
 *   serve   <model> [options]     synthetic concurrent-client load
 *
 * <model> is a zoo name (resnet-18, ...) or a path to an .onnx file.
 * Common options:
 *   --personality <p>   orpheus | tvm | pytorch | darknet | tflite
 *   --threads <n>       inference threads (default 1, the paper setup)
 *   --runs <n>          timed repetitions (default 5)
 *   --profile           print the per-layer profile after running
 *   --autotune          measure every kernel candidate per node
 *   --no-simd           force scalar kernels (disable the SIMD tier;
 *                       equivalent to ORPHEUS_DISABLE_SIMD=1)
 * serve options:
 *   --clients <n>       concurrent client threads (default 4)
 *   --requests <n>      requests per client (default 32)
 *   --queue-depth <n>   admission-control queue bound (default 16)
 *   --deadline-ms <ms>  per-request deadline, 0 = unlimited (default 0)
 *   --workers <n>       service worker threads (default 2)
 *   --replicas <n>      engine replicas in the pool (default: workers)
 *   --warm-spares <n>   compiled spare replicas (default 0)
 *   --max-retries <n>   failover retries per request (default 0)
 *   --retry-budget <f>  retry tokens earned per request (default 0.2)
 *   --brownout          shed batch work / degrade replicas on overload
 *   --max-batch <n>     fuse up to n queued requests per engine run
 *   --batch-window-ms <ms>  max wait for co-batched requests (default 0:
 *                       coalesce only what is already queued)
 * latency classes (run/serve):
 *   --class <list>      comma-separated latency classes assigned to
 *                       clients round-robin: realtime | interactive |
 *                       batch (serve; default interactive). For run, a
 *                       single class routed through the service path.
 *   --priority <class>  alias for --class (run)
 *   --rt-queue-depth <n>        real-time lane depth (0 = depth/4)
 *   --class-deadline-ms <c>=<ms> per-class SLO budget, repeatable
 *                       (e.g. --class-deadline-ms realtime=50)
 * lifecycle (serve):
 *   --swap-to <model>   hot-swap to this model mid-run (canary rollout)
 *   --canary-fraction <f>       live-traffic slice for the canary (0.25)
 *   --canary-samples <n>        live samples observed before the verdict
 *   --shutdown-deadline-ms <ms> graceful-drain budget on SIGINT/SIGTERM
 * While serving, SIGINT/SIGTERM trigger a graceful drain (then the
 * final stats dump) and SIGHUP triggers a hot reload of --swap-to (or
 * the serving model spec).
 */
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cpu_features.hpp"
#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "eval/experiment.hpp"
#include "eval/layer_bench.hpp"
#include "eval/personalities.hpp"
#include "models/model_zoo.hpp"
#include "onnx/exporter.hpp"
#include "graph/text_format.hpp"
#include "onnx/importer.hpp"
#include "ops/gemm/gemm.hpp"
#include "core/timer.hpp"
#include "quant/quantizer.hpp"
#include "runtime/engine.hpp"
#include "runtime/service.hpp"

namespace {

using namespace orpheus;

struct CliOptions {
    std::string personality = "orpheus";
    int threads = 1;
    int runs = 5;
    bool profile = false;
    bool autotune = false;
    bool no_simd = false;
    int clients = 4;
    int requests = 32;
    int queue_depth = 16;
    double deadline_ms = 0;
    int workers = 2;
    int replicas = 0;
    int warm_spares = 0;
    int max_retries = 0;
    double retry_budget = 0.2;
    bool brownout = false;
    /** --class/--priority: latency classes assigned to serve clients
     *  round-robin; empty keeps run on the bare-engine path. */
    std::string traffic_class;
    int rt_queue_depth = 0;
    std::array<double, kPriorityClasses> class_deadline_ms{};
    bool guard = false;
    int shadow_every = 0;
    double guard_cooldown_ms = 250;
    std::string corrupt_kind; // "" | nan | bitflip | spike
    std::string corrupt_node;
    std::string corrupt_impl;
    int corrupt_max = -1;
    std::string swap_to;
    double canary_fraction = 0.25;
    long long canary_samples = 0;
    double shutdown_deadline_ms = 0;
    int max_batch = 1;
    double batch_window_ms = 0;
    std::vector<std::string> positional;
};

/* Signal flags for serve: handlers only set these; the serve control
 * loop routes them through the graceful-shutdown / reload paths. */
volatile std::sig_atomic_t g_shutdown_requested = 0;
volatile std::sig_atomic_t g_reload_requested = 0;

void
on_shutdown_signal(int)
{
    g_shutdown_requested = 1;
}

void
on_reload_signal(int)
{
    g_reload_requested = 1;
}

/** "realtime" (or "rt") / "interactive" / "batch" → RequestPriority. */
RequestPriority
priority_by_name(const std::string &name)
{
    if (name == "realtime" || name == "rt")
        return RequestPriority::kRealtime;
    if (name == "interactive")
        return RequestPriority::kInteractive;
    if (name == "batch")
        return RequestPriority::kBatch;
    ORPHEUS_CHECK(false, "latency class must be realtime, interactive or "
                         "batch, got "
                             << name);
    return RequestPriority::kInteractive;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: orpheus <list|info|run|compare|convert|quantize|serve> "
        "[<model>] [args]\n"
        "  options: --personality <p> --threads <n> --runs <n> "
        "--profile --autotune --no-simd\n"
        "  serve:   --clients <n> --requests <n> --queue-depth <n> "
        "--deadline-ms <ms> --workers <n>\n"
        "           --replicas <n> --warm-spares <n> --max-retries <n> "
        "--retry-budget <f> --brownout\n"
        "           --max-batch <n> --batch-window-ms <ms>\n"
        "  classes (run/serve): --class <realtime|interactive|batch>[,"
        "...] --priority <class> --rt-queue-depth <n> "
        "--class-deadline-ms <class>=<ms>\n"
        "  lifecycle (serve): --swap-to <model> --canary-fraction <f> "
        "--canary-samples <n> --shutdown-deadline-ms <ms>\n"
        "  guard (run/serve): --guard --shadow-every <n> "
        "--guard-cooldown-ms <ms>\n"
        "  chaos (run/serve): --corrupt <nan|bitflip|spike> "
        "[--corrupt-node <name>] [--corrupt-impl <impl>] "
        "[--corrupt-max <n>]\n");
    return 2;
}

CliOptions
parse_options(int argc, char **argv, int first)
{
    CliOptions options;
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next_value = [&](const char *flag) {
            ORPHEUS_CHECK(i + 1 < argc, "missing value for " << flag);
            return std::string(argv[++i]);
        };
        if (arg == "--personality")
            options.personality = next_value("--personality");
        else if (arg == "--threads")
            options.threads = std::stoi(next_value("--threads"));
        else if (arg == "--runs")
            options.runs = std::stoi(next_value("--runs"));
        else if (arg == "--profile")
            options.profile = true;
        else if (arg == "--autotune")
            options.autotune = true;
        else if (arg == "--no-simd")
            options.no_simd = true;
        else if (arg == "--clients")
            options.clients = std::stoi(next_value("--clients"));
        else if (arg == "--requests")
            options.requests = std::stoi(next_value("--requests"));
        else if (arg == "--queue-depth")
            options.queue_depth = std::stoi(next_value("--queue-depth"));
        else if (arg == "--deadline-ms")
            options.deadline_ms = std::stod(next_value("--deadline-ms"));
        else if (arg == "--workers")
            options.workers = std::stoi(next_value("--workers"));
        else if (arg == "--replicas")
            options.replicas = std::stoi(next_value("--replicas"));
        else if (arg == "--warm-spares")
            options.warm_spares = std::stoi(next_value("--warm-spares"));
        else if (arg == "--max-retries")
            options.max_retries = std::stoi(next_value("--max-retries"));
        else if (arg == "--retry-budget")
            options.retry_budget = std::stod(next_value("--retry-budget"));
        else if (arg == "--brownout")
            options.brownout = true;
        else if (arg == "--class" || arg == "--priority")
            options.traffic_class = next_value(arg.c_str());
        else if (arg == "--rt-queue-depth")
            options.rt_queue_depth =
                std::stoi(next_value("--rt-queue-depth"));
        else if (arg == "--class-deadline-ms") {
            const std::string spec = next_value("--class-deadline-ms");
            const std::size_t eq = spec.find('=');
            ORPHEUS_CHECK(eq != std::string::npos,
                          "--class-deadline-ms wants <class>=<ms>, got "
                              << spec);
            options.class_deadline_ms[priority_index(
                priority_by_name(spec.substr(0, eq)))] =
                std::stod(spec.substr(eq + 1));
        }
        else if (arg == "--guard")
            options.guard = true;
        else if (arg == "--shadow-every")
            options.shadow_every = std::stoi(next_value("--shadow-every"));
        else if (arg == "--guard-cooldown-ms")
            options.guard_cooldown_ms =
                std::stod(next_value("--guard-cooldown-ms"));
        else if (arg == "--corrupt")
            options.corrupt_kind = next_value("--corrupt");
        else if (arg == "--corrupt-node")
            options.corrupt_node = next_value("--corrupt-node");
        else if (arg == "--corrupt-impl")
            options.corrupt_impl = next_value("--corrupt-impl");
        else if (arg == "--corrupt-max")
            options.corrupt_max = std::stoi(next_value("--corrupt-max"));
        else if (arg == "--swap-to")
            options.swap_to = next_value("--swap-to");
        else if (arg == "--canary-fraction")
            options.canary_fraction =
                std::stod(next_value("--canary-fraction"));
        else if (arg == "--canary-samples")
            options.canary_samples =
                std::stoll(next_value("--canary-samples"));
        else if (arg == "--shutdown-deadline-ms")
            options.shutdown_deadline_ms =
                std::stod(next_value("--shutdown-deadline-ms"));
        else if (arg == "--max-batch")
            options.max_batch = std::stoi(next_value("--max-batch"));
        else if (arg == "--batch-window-ms")
            options.batch_window_ms =
                std::stod(next_value("--batch-window-ms"));
        else
            options.positional.push_back(arg);
    }
    return options;
}

/** One-line cpu-feature / SIMD-tier report for run & serve banners. */
void
print_cpu_features()
{
    const std::string features = cpu_features().to_string();
    const char *isa = simd_isa_compiled();
    std::string tier;
    if (isa[0] == '\0')
        tier = "none compiled in";
    else if (!simd_isa_supported())
        tier = std::string(isa) + " (unsupported on this host)";
    else if (simd_disabled())
        tier = std::string(isa) + " (disabled by override)";
    else
        tier = std::string(isa) + " (active)";
    std::printf("cpu-features: %s; simd tier: %s; gemm body: %s\n",
                features.empty() ? "none" : features.c_str(),
                tier.c_str(), gemm_packed_simd_body());
}

bool
has_suffix(const std::string &value, const std::string &suffix)
{
    return value.size() > suffix.size() &&
           value.compare(value.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
}

/** Loads a model by zoo name, ONNX path or .orpht text path. */
Graph
load_model(const std::string &spec)
{
    Graph graph;
    if (has_suffix(spec, ".onnx")) {
        import_onnx_file(spec, graph).throw_if_error();
        return graph;
    }
    if (has_suffix(spec, ".orpht")) {
        load_text_file(spec, graph).throw_if_error();
        return graph;
    }
    return models::by_name(spec);
}

/** Writes @p graph to @p path by extension (.onnx or .orpht). */
void
save_model(const Graph &graph, const std::string &path)
{
    if (has_suffix(path, ".orpht"))
        save_text_file(graph, path).throw_if_error();
    else
        export_onnx_file(graph, path).throw_if_error();
}

EngineOptions
engine_options(const CliOptions &cli)
{
    EngineOptions options = personality_by_name(cli.personality).options;
    if (cli.autotune)
        options.selection = SelectionStrategy::kAutoTune;
    return options;
}

CorruptionKind
corruption_kind_by_name(const std::string &name)
{
    if (name == "nan")
        return CorruptionKind::kNaNPoke;
    if (name == "bitflip")
        return CorruptionKind::kBitFlip;
    if (name == "spike")
        return CorruptionKind::kMagnitudeSpike;
    ORPHEUS_CHECK(false,
                  "--corrupt must be nan, bitflip or spike, got " << name);
    return CorruptionKind::kNone;
}

/** Applies --guard/--corrupt flags to @p options for run and serve. */
void
apply_guard_and_chaos(const CliOptions &cli, EngineOptions &options)
{
    if (cli.guard) {
        options.guard.enabled = true;
        options.guard.shadow_every_n = cli.shadow_every;
        options.guard.cooldown_ms = cli.guard_cooldown_ms;
    }
    if (!cli.corrupt_kind.empty()) {
        auto injector = std::make_shared<FaultInjector>();
        injector->arm_corruption(cli.corrupt_node, cli.corrupt_impl,
                                 corruption_kind_by_name(cli.corrupt_kind),
                                 /*corrupt_from_call=*/0,
                                 cli.corrupt_max);
        options.fault_injector = std::move(injector);
    }
}

/** Prints the process-wide per-kernel health ledger (guard runs). */
void
print_kernel_health()
{
    const auto snapshot = KernelRegistry::instance().health().snapshot();
    if (snapshot.empty())
        return;
    std::printf("\nkernel health ledger:\n");
    std::printf("  %-28s %6s %6s %6s %6s %8s %8s\n", "kernel", "trips",
                "faults", "opens", "recov", "shadows", "diverged");
    for (const auto &[id, record] : snapshot)
        std::printf("  %-28s %6lld %6lld %6lld %6lld %8lld %8lld\n",
                    id.c_str(),
                    static_cast<long long>(record.guard_trips),
                    static_cast<long long>(record.faults),
                    static_cast<long long>(record.breaker_opens),
                    static_cast<long long>(record.recoveries),
                    static_cast<long long>(record.shadow_runs),
                    static_cast<long long>(record.shadow_divergences));
}

int
cmd_list()
{
    std::printf("zoo models:\n");
    for (const std::string &name : models::zoo_names())
        std::printf("  %s\n", name.c_str());
    std::printf("  tiny-cnn\n  tiny-mlp\n");

    std::printf("\nframework personalities:\n");
    for (const char *name :
         {"orpheus", "tvm", "pytorch", "darknet", "tflite"}) {
        const FrameworkPersonality p = personality_by_name(name);
        std::printf("  %-10s %s\n", name, p.notes.c_str());
    }

    std::printf("\nregistered kernels:\n");
    KernelRegistry &registry = KernelRegistry::instance();
    for (const std::string &op : registry.op_types()) {
        std::printf("  %-22s", op.c_str());
        for (const KernelDef *def : registry.kernels(op))
            std::printf(" %s(%d)", def->impl_name.c_str(), def->priority);
        std::printf("\n");
    }
    return 0;
}

int
cmd_info(const CliOptions &cli)
{
    ORPHEUS_CHECK(!cli.positional.empty(), "info: missing model");
    Graph graph = load_model(cli.positional[0]);

    std::size_t weight_bytes = 0;
    std::int64_t parameters = 0;
    for (const auto &[name, tensor] : graph.initializers()) {
        (void)name;
        weight_bytes += tensor.byte_size();
        parameters += tensor.numel();
    }
    std::printf("model: %s\n", graph.name().c_str());
    std::printf("  nodes: %zu   initializers: %zu   parameters: %lld "
                "(%.2f MiB)\n",
                graph.nodes().size(), graph.initializers().size(),
                static_cast<long long>(parameters),
                static_cast<double>(weight_bytes) / (1024 * 1024));

    Engine engine(std::move(graph), engine_options(cli));
    std::printf("  plan steps after simplification: %zu\n",
                engine.steps().size());
    std::printf("  activation arena: %.2f MiB (no reuse: %.2f MiB)\n\n",
                static_cast<double>(engine.arena_bytes()) / (1024 * 1024),
                static_cast<double>(engine.naive_arena_bytes()) /
                    (1024 * 1024));
    std::printf("%s", engine.plan_summary().c_str());
    return 0;
}

/**
 * run --priority/--class: timed repetitions routed through an
 * InferenceService in the requested latency class, so class SLO
 * budgets and feasibility admission engage exactly as they would in
 * serving (an un-meetable budget is rejected at submit, not timed).
 */
int
run_through_service(const CliOptions &cli, EngineOptions options)
{
    const RequestPriority priority = priority_by_name(cli.traffic_class);
    ServiceOptions service_options;
    service_options.workers = 1;
    service_options.max_queue_depth =
        static_cast<std::size_t>(std::max(1, cli.queue_depth));
    service_options.rt_queue_depth =
        static_cast<std::size_t>(std::max(0, cli.rt_queue_depth));
    service_options.default_deadline_ms = cli.deadline_ms;
    service_options.class_deadline_ms = cli.class_deadline_ms;
    InferenceService service(load_model(cli.positional[0]), options,
                             service_options);

    Rng rng(0x0e11);
    std::map<std::string, Tensor> inputs;
    for (const auto &input : service.engine().request_inputs())
        inputs[input.name] = random_tensor(input.shape, rng);

    int ok = 0;
    for (int i = 0; i < cli.runs; ++i) {
        const InferenceResponse response =
            service.run(inputs, DeadlineToken(), priority);
        if (response.status.is_ok())
            ++ok;
        else
            std::printf("run %d: %s\n", i,
                        response.status.to_string().c_str());
    }
    const ServiceStats stats = service.stats();
    const std::size_t lane = priority_index(priority);
    std::printf("%s as %s traffic: %d/%d ok, p50 %.2f ms  p99 %.2f ms  "
                "p99.9 %.2f ms  (%lld infeasible-rejected, %lld deadline "
                "misses)\n",
                service.engine().graph().name().c_str(),
                to_string(priority), ok, cli.runs,
                stats.class_p50_ms[lane], stats.class_p99_ms[lane],
                stats.class_p999_ms[lane],
                static_cast<long long>(stats.class_infeasible[lane]),
                static_cast<long long>(stats.class_deadline_miss[lane]));
    service.stop();
    return ok == cli.runs ? 0 : 1;
}

int
cmd_run(const CliOptions &cli)
{
    ORPHEUS_CHECK(!cli.positional.empty(), "run: missing model");
    const FrameworkPersonality personality =
        personality_by_name(cli.personality);
    set_global_num_threads(personality.effective_threads(cli.threads));

    EngineOptions options = engine_options(cli);
    apply_guard_and_chaos(cli, options);
    print_cpu_features();
    if (!cli.traffic_class.empty())
        return run_through_service(cli, std::move(options));
    Engine engine(load_model(cli.positional[0]), options);
    ExperimentConfig config;
    config.timed_runs = cli.runs;
    try {
        const ExperimentResult result = time_inference(engine, config);
        std::printf("%s under %s (%d threads requested): %s\n",
                    engine.graph().name().c_str(), personality.name.c_str(),
                    cli.threads, result.stats.to_string().c_str());
    } catch (const DataCorruptionError &error) {
        std::printf("guard stopped the run: %s\n", error.what());
        print_kernel_health();
        return 1;
    }

    if (cli.profile) {
        const auto timings = profile_layers(engine, cli.runs);
        std::printf("\n%s",
                    layer_timings_to_string(timings, 25).c_str());
    }
    if (cli.guard)
        print_kernel_health();
    return 0;
}

int
cmd_compare(const CliOptions &cli)
{
    ORPHEUS_CHECK(!cli.positional.empty(), "compare: missing model");
    const Graph graph = load_model(cli.positional[0]);

    std::printf("%-16s %12s %12s\n", "personality", "mean ms",
                "median ms");
    std::printf("%s\n", std::string(42, '-').c_str());
    for (const FrameworkPersonality &p : figure2_personalities()) {
        set_global_num_threads(p.effective_threads(cli.threads));
        Engine engine{Graph(graph), p.options};
        ExperimentConfig config;
        config.timed_runs = cli.runs;
        const ExperimentResult result = time_inference(engine, config);
        std::printf("%-16s %12.2f %12.2f\n", p.name.c_str(),
                    result.stats.mean, result.stats.median);
    }
    set_global_num_threads(1);
    return 0;
}

int
cmd_convert(const CliOptions &cli)
{
    ORPHEUS_CHECK(cli.positional.size() >= 2,
                  "convert: need <model> <out.onnx|out.orpht>");
    const Graph graph = load_model(cli.positional[0]);
    save_model(graph, cli.positional[1]);
    std::printf("wrote %s\n", cli.positional[1].c_str());
    return 0;
}

int
cmd_quantize(const CliOptions &cli)
{
    ORPHEUS_CHECK(cli.positional.size() >= 2,
                  "quantize: need <model> <out.onnx>");
    QuantizationReport report;
    Graph quantized =
        quantize_model(load_model(cli.positional[0]), {}, &report);
    std::printf("quantized %d convs (%d skipped, %d Q/DQ pairs removed)\n",
                report.quantized_convs, report.skipped_convs,
                report.removed_quant_pairs);
    save_model(quantized, cli.positional[1]);
    std::printf("wrote %s\n", cli.positional[1].c_str());
    return 0;
}

void
print_rollout(const RolloutReport &report)
{
    std::printf("rollout: generation %llu %s — %s "
                "(%zu replica(s) swapped, %lld canary samples)\n",
                static_cast<unsigned long long>(report.generation),
                report.status.is_ok()
                    ? "promoted"
                    : (report.rolled_back ? "rolled back" : "rejected"),
                report.status.is_ok() ? report.detail.c_str()
                                      : report.status.message().c_str(),
                report.replicas_swapped,
                static_cast<long long>(report.canary_samples));
}

/**
 * Synthetic serving load: --clients threads each push --requests
 * requests through an InferenceService in bursts, so admission control
 * and deadlines actually engage. Reports client-observed latency
 * percentiles plus the service's shed counters.
 */
int
cmd_serve(const CliOptions &cli)
{
    ORPHEUS_CHECK(!cli.positional.empty(), "serve: missing model");
    ORPHEUS_CHECK(cli.clients > 0 && cli.requests > 0,
                  "serve: --clients and --requests must be positive");
    const FrameworkPersonality personality =
        personality_by_name(cli.personality);
    set_global_num_threads(personality.effective_threads(cli.threads));

    ServiceOptions service_options;
    service_options.max_queue_depth =
        static_cast<std::size_t>(std::max(1, cli.queue_depth));
    service_options.workers = std::max(1, cli.workers);
    service_options.default_deadline_ms = cli.deadline_ms;
    service_options.replicas = std::max(0, cli.replicas);
    service_options.warm_spares = std::max(0, cli.warm_spares);
    service_options.max_retries = std::max(0, cli.max_retries);
    service_options.retry_budget = cli.retry_budget;
    service_options.enable_brownout = cli.brownout;
    service_options.rt_queue_depth =
        static_cast<std::size_t>(std::max(0, cli.rt_queue_depth));
    service_options.class_deadline_ms = cli.class_deadline_ms;
    service_options.max_batch = std::max(1, cli.max_batch);
    service_options.batch_window_ms = std::max(0.0, cli.batch_window_ms);

    /* --class realtime,batch,... assigns latency classes to client
     * threads round-robin, so one invocation can mix (say) a couple
     * of real-time clients into a batch flood. */
    std::vector<RequestPriority> client_classes;
    std::string class_list =
        cli.traffic_class.empty() ? "interactive" : cli.traffic_class;
    for (std::size_t start = 0; start <= class_list.size();) {
        std::size_t comma = class_list.find(',', start);
        if (comma == std::string::npos)
            comma = class_list.size();
        client_classes.push_back(
            priority_by_name(class_list.substr(start, comma - start)));
        start = comma + 1;
    }

    EngineOptions eng_options = engine_options(cli);
    apply_guard_and_chaos(cli, eng_options);
    InferenceService service(load_model(cli.positional[0]), eng_options,
                             service_options);

    char deadline_text[32] = "unlimited";
    if (cli.deadline_ms > 0)
        std::snprintf(deadline_text, sizeof(deadline_text), "%g ms",
                      cli.deadline_ms);
    print_cpu_features();
    std::printf("serving %s: %d clients x %d requests, queue depth %zu, "
                "%d workers, deadline %s\n",
                service.engine().graph().name().c_str(), cli.clients,
                cli.requests, service_options.max_queue_depth,
                service_options.workers, deadline_text);
    std::printf("pool: %zu replicas (+%d warm spares), max %d retries "
                "(budget %.2f/request), brownout %s\n",
                service.pool().replica_count() -
                    static_cast<std::size_t>(service_options.warm_spares),
                service_options.warm_spares, service_options.max_retries,
                service_options.retry_budget,
                service_options.enable_brownout ? "on" : "off");
    std::printf("per-request activation footprint: %.1f KiB\n",
                static_cast<double>(service.request_footprint_bytes()) /
                    1024.0);
    if (service_options.max_batch > 1) {
        const std::string &fallback =
            service.engine().batch_fallback_reason();
        if (fallback.empty())
            std::printf("batching: up to %lld per run, window %g ms\n",
                        static_cast<long long>(
                            service.engine().batch_capacity()),
                        service_options.batch_window_ms);
        else
            std::printf("batching: OFF (%s)\n", fallback.c_str());
    }
    if (cli.guard)
        std::printf("guard: on (shadow every %d, cool-down %g ms)%s\n",
                    cli.shadow_every, cli.guard_cooldown_ms,
                    cli.corrupt_kind.empty()
                        ? ""
                        : "  [corruption injection armed]");

    /* SIGINT/SIGTERM drain gracefully and still print the final stats
     * dump; SIGHUP hot-reloads the model through the canary lifecycle. */
    g_shutdown_requested = 0;
    g_reload_requested = 0;
    std::signal(SIGINT, on_shutdown_signal);
    std::signal(SIGTERM, on_shutdown_signal);
#ifdef SIGHUP
    std::signal(SIGHUP, on_reload_signal);
#endif

    std::mutex merge_mutex;
    std::vector<double> latencies;
    std::vector<std::thread> threads;
    std::atomic<int> clients_done{0};
    const int burst = 4;
    Timer wall;
    for (int client = 0; client < cli.clients; ++client) {
        const RequestPriority client_class =
            client_classes[static_cast<std::size_t>(client) %
                           client_classes.size()];
        threads.emplace_back([&, client, client_class] {
            Rng rng(0x5e47 + static_cast<std::uint64_t>(client));
            std::map<std::string, Tensor> inputs;
            for (const auto &input : service.engine().request_inputs())
                inputs[input.name] = random_tensor(input.shape, rng);
            std::vector<double> local;
            int remaining = cli.requests;
            while (remaining > 0) {
                const int batch = std::min(burst, remaining);
                remaining -= batch;
                std::vector<std::future<InferenceResponse>> inflight;
                std::vector<Timer> timers(
                    static_cast<std::size_t>(batch));
                for (int i = 0; i < batch; ++i) {
                    timers[static_cast<std::size_t>(i)] = Timer();
                    inflight.push_back(service.submit(
                        inputs, DeadlineToken(), 0, client_class));
                }
                for (int i = 0; i < batch; ++i) {
                    const InferenceResponse response =
                        inflight[static_cast<std::size_t>(i)].get();
                    if (response.status.is_ok())
                        local.push_back(
                            timers[static_cast<std::size_t>(i)]
                                .elapsed_ms());
                }
            }
            {
                std::lock_guard<std::mutex> lock(merge_mutex);
                latencies.insert(latencies.end(), local.begin(),
                                 local.end());
            }
            ++clients_done;
        });
    }

    /* Control loop: watch for signals and the --swap-to trigger while
     * the clients run. --swap-to fires once, a quarter of the way into
     * the load, so the canary observes genuinely live traffic. */
    const long long total_requests =
        static_cast<long long>(cli.clients) * cli.requests;
    bool swapped = cli.swap_to.empty();
    bool drained = false;
    ShutdownReport drain_report;
    const auto reload_to = [&](const std::string &target) {
        RolloutOptions rollout;
        rollout.canary_fraction = cli.canary_fraction;
        rollout.min_canary_samples = cli.canary_samples;
        std::printf("\nhot swap: staging %s (canary slice %.0f%%, "
                    "%lld live samples)\n",
                    target.c_str(), 100.0 * cli.canary_fraction,
                    static_cast<long long>(cli.canary_samples));
        try {
            print_rollout(service.reload(load_model(target), rollout));
        } catch (const std::exception &error) {
            /* A bad --swap-to spec must not take down the serving
             * incumbent; report and keep draining traffic. */
            std::printf("hot swap: failed to load %s: %s\n",
                        target.c_str(), error.what());
        }
    };
    while (clients_done.load() < cli.clients) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        if (g_reload_requested) {
            g_reload_requested = 0;
            swapped = true;
            reload_to(cli.swap_to.empty() ? cli.positional[0]
                                          : cli.swap_to);
        } else if (!swapped &&
                   service.stats().completed_ok >= total_requests / 4) {
            swapped = true;
            reload_to(cli.swap_to);
        }
        if (g_shutdown_requested) {
            std::printf("\nsignal: graceful shutdown (deadline %s)\n",
                        cli.shutdown_deadline_ms > 0 ? "armed"
                                                     : "unlimited");
            drain_report = service.shutdown(cli.shutdown_deadline_ms);
            drained = true;
            break; /* submits now fail fast; clients wind down */
        }
    }
    for (std::thread &thread : threads)
        thread.join();
    const double wall_s = wall.elapsed_s();

    const auto percentile = [&](double p) {
        if (latencies.empty())
            return 0.0;
        const double rank =
            p / 100.0 * static_cast<double>(latencies.size() - 1);
        const std::size_t index =
            static_cast<std::size_t>(std::llround(rank));
        return latencies[index];
    };
    std::sort(latencies.begin(), latencies.end());

    const ServiceStats stats = service.stats();
    std::printf("\ncompleted %lld / %lld submitted in %.2f s "
                "(%.1f req/s)\n",
                static_cast<long long>(stats.completed_ok),
                static_cast<long long>(stats.submitted), wall_s,
                wall_s > 0
                    ? static_cast<double>(stats.completed_ok) / wall_s
                    : 0.0);
    std::printf("latency (client-observed, completed requests): "
                "p50 %.2f ms   p99 %.2f ms\n",
                percentile(50.0), percentile(99.0));
    std::printf("latency (service histogram, queue + run): "
                "p50 %.2f ms   p99 %.2f ms   p99.9 %.2f ms\n",
                stats.latency_p50_ms, stats.latency_p99_ms,
                stats.latency_p999_ms);
    std::printf("shed: %lld queue-full, %lld over-deadline (%lld "
                "infeasible at submit); failed: %lld\n",
                static_cast<long long>(stats.rejected_queue_full),
                static_cast<long long>(stats.deadline_exceeded),
                static_cast<long long>(stats.rejected_infeasible),
                static_cast<long long>(stats.failed));
    std::printf("\nper-class (queue + run):\n");
    std::printf("  %-12s %7s %9s %9s %9s %6s %11s %7s\n", "class",
                "count", "p50 ms", "p99 ms", "p99.9 ms", "shed",
                "infeasible", "misses");
    for (std::size_t lane = 0; lane < kPriorityClasses; ++lane)
        std::printf("  %-12s %7lld %9.2f %9.2f %9.2f %6lld %11lld "
                    "%7lld\n",
                    to_string(static_cast<RequestPriority>(lane)),
                    static_cast<long long>(stats.class_count[lane]),
                    stats.class_p50_ms[lane], stats.class_p99_ms[lane],
                    stats.class_p999_ms[lane],
                    static_cast<long long>(stats.class_shed[lane]),
                    static_cast<long long>(stats.class_infeasible[lane]),
                    static_cast<long long>(
                        stats.class_deadline_miss[lane]));
    if (service_options.max_batch > 1)
        std::printf("batching: %lld batches (%lld requests, mean "
                    "occupancy %.2f, max %lld), flushes %lld full / "
                    "%lld window / %lld deadline, %lld splits\n",
                    static_cast<long long>(stats.batches_formed),
                    static_cast<long long>(stats.batched_requests),
                    stats.batch_mean_occupancy,
                    static_cast<long long>(stats.batch_max_occupancy),
                    static_cast<long long>(stats.batch_flush_full),
                    static_cast<long long>(stats.batch_flush_window),
                    static_cast<long long>(stats.batch_flush_deadline),
                    static_cast<long long>(stats.batch_splits));
    std::printf("watchdog: %lld hangs, %lld demotions\n",
                static_cast<long long>(stats.watchdog_hangs),
                static_cast<long long>(stats.demotions));
    std::printf("failover: %lld retries (%lld denied by budget), "
                "%lld quarantines, %lld probes, %lld readmissions\n",
                static_cast<long long>(stats.retries),
                static_cast<long long>(stats.retry_budget_denied),
                static_cast<long long>(stats.quarantines),
                static_cast<long long>(stats.probes),
                static_cast<long long>(stats.readmissions));
    if (service_options.enable_brownout)
        std::printf("brownout: entered %lld, exited %lld, shed %lld "
                    "batch requests\n",
                    static_cast<long long>(stats.brownout_entered),
                    static_cast<long long>(stats.brownout_exited),
                    static_cast<long long>(stats.brownout_shed));
    std::printf("lifecycle: generation %llu active (%s), %lld swaps, "
                "%lld rollbacks, %lld canary-routed\n",
                static_cast<unsigned long long>(stats.active_generation),
                service.registry().active_model().c_str(),
                static_cast<long long>(stats.model_swaps),
                static_cast<long long>(stats.model_rollbacks),
                static_cast<long long>(stats.canary_routed));
    if (drained) {
        std::printf("shutdown: %s in %.1f ms — flushed %lld, shed %lld "
                    "(+%lld rejected at admission)\n",
                    drain_report.status.is_ok() ? "drained clean"
                                                : "deadline cut drain "
                                                  "short",
                    drain_report.duration_ms,
                    static_cast<long long>(drain_report.flushed),
                    static_cast<long long>(drain_report.shed),
                    static_cast<long long>(stats.rejected_shutdown));
    }
    const auto generations = service.registry().generations();
    if (generations.size() > 1) {
        std::printf("\nmodel generations:\n");
        std::printf("  %-4s %-14s %-12s %s\n", "gen", "model", "state",
                    "detail");
        for (const GenerationInfo &generation : generations)
            std::printf("  %-4llu %-14s %-12s %s\n",
                        static_cast<unsigned long long>(generation.id),
                        generation.model_name.c_str(),
                        to_string(generation.state),
                        generation.detail.c_str());
    }
    std::printf("\nreplica pool:\n");
    std::printf("  %-3s %-4s %-12s %7s %8s %8s %6s  %s\n", "id", "gen",
                "state", "penalty", "served", "failures", "opens",
                "last fault");
    for (const ReplicaSnapshot &replica : service.pool().snapshot())
        std::printf("  %-3zu %-4llu %-12s %7.2f %8lld %8lld %6lld  %s\n",
                    replica.id,
                    static_cast<unsigned long long>(replica.generation),
                    to_string(replica.state),
                    replica.health_penalty,
                    static_cast<long long>(replica.served),
                    static_cast<long long>(replica.failures),
                    static_cast<long long>(replica.breaker_opens),
                    replica.last_fault.empty() ? "-"
                                               : replica.last_fault.c_str());
    if (cli.guard) {
        std::printf("guard: %lld requests stopped on confirmed "
                    "corruption (never served wrong data)\n",
                    static_cast<long long>(stats.data_corruption));
        print_kernel_health();
    }
    service.stop();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    try {
        const CliOptions cli = parse_options(argc, argv, 2);
        if (cli.no_simd)
            force_disable_simd(true);
        if (command == "list")
            return cmd_list();
        if (command == "info")
            return cmd_info(cli);
        if (command == "run")
            return cmd_run(cli);
        if (command == "compare")
            return cmd_compare(cli);
        if (command == "convert")
            return cmd_convert(cli);
        if (command == "quantize")
            return cmd_quantize(cli);
        if (command == "serve")
            return cmd_serve(cli);
        return usage();
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
}
