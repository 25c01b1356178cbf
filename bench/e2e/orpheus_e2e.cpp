/**
 * @file
 * orpheus_e2e — the measuring program of the end-to-end benchmark
 * (bench/e2e).
 *
 * run_benchmark.py runs it twice per measurement, each time as its own
 * process:
 *
 *   orpheus_e2e reference --workload W --seed S --dir D
 *       Builds W's zoo model and writes it to D/model.onnx, draws W's
 *       input tensors from S, and writes them (D/inputs.bin) with the
 *       outputs of a scalar-only engine (BackendConfig::allow_simd =
 *       false) as the expected results (D/expected.bin).
 *
 *   orpheus_e2e run --workload W --seed S --seconds T --trace 0|1 --dir D
 *       Sets W up from D/model.onnx five times (set-up time is the
 *       median) and drives each set-up for a fifth of T seconds, checks
 *       every response against D/expected.bin and prints one JSON result
 *       line. --trace 1 instead drives only the last set-up, through the
 *       phases that give the per-layer metrics; it records spans and
 *       writes them to D/trace.json as Chrome trace-event JSON (Perfetto
 *       opens it).
 *
 * Every time is taken here, around calls to Orpheus' public API
 * (import_onnx_file, Engine, Engine::run/run_step, InferenceService
 * submit/reload/stats, set_global_num_threads, the Engine memory
 * accessors); the library itself carries no benchmark hooks. The seed
 * decides the input tensors, the arrival schedule and the class mix;
 * the library only ever sees the generated tensors.
 */
#include <sys/resource.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <deque>
#include <exception>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/cpu_features.hpp"
#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "models/model_zoo.hpp"
#include "onnx/exporter.hpp"
#include "onnx/importer.hpp"
#include "runtime/engine.hpp"
#include "runtime/service.hpp"

namespace {

using namespace orpheus;
using Clock = std::chrono::steady_clock;

constexpr double kInf = std::numeric_limits<double>::infinity();

double
ms_between(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double, std::milli>(end - begin).count();
}

Clock::time_point
after_seconds(Clock::time_point origin, double seconds)
{
    return origin + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
}

/** Cold set-ups per run; setup_s is their median. */
constexpr std::size_t kSetups = 5;

/** Linear-interpolated percentile (@p q in [0, 1]); 0 when empty. */
double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    if (std::isinf(values[hi]))
        return pos == static_cast<double>(lo) ? values[lo] : values[hi];
    return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

double
cpu_seconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/** CPU seconds the calling thread has used since it started. */
double
thread_cpu_seconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

/**
 * Intra-op threads of the thread-pool phase of a traced edge run and of
 * the reference phase: min(4, nproc). Every measured phase runs on one
 * intra-op thread: on a shared host, the speed of a multi-threaded run
 * follows the load of other tenants (README.md, "Workloads").
 */
int
pool_threads()
{
    const unsigned hardware = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hardware, 1u, 4u));
}

// --- Workloads -------------------------------------------------------------

/** One benchmark workload; README.md says why each was chosen. */
struct Workload {
    std::string name;
    Graph (*build)() = nullptr;
    /** Seeded input tensors the load draws from. */
    int distinct_inputs = 16;

    // Serving workloads: an open loop into an InferenceService.
    bool service = false;
    ServiceOptions options;
    double rate_rps = 0;
    /** Requests sent at once every burst_period_s, on top of the rate. */
    int burst_size = 0;
    double burst_period_s = 0;
    /** A reloader thread hot-swaps the same model this often. */
    double reload_period_s = 0;
    /** Traced runs also climb a rate ladder from this rate for
     *  max_rps_at_slo (0: no ladder). */
    double ladder_from_rps = 0;
};

ServiceOptions
serving_options(int max_batch, double window_ms, std::size_t queue_depth,
                std::array<double, kPriorityClasses> class_deadline_ms)
{
    ServiceOptions options;
    options.workers = 2;
    options.replicas = 2;
    options.max_batch = max_batch;
    options.batch_window_ms = window_ms;
    options.max_queue_depth = queue_depth;
    options.class_deadline_ms = class_deadline_ms;
    return options;
}

/**
 * The serving workloads' queue depths and class deadlines leave room for
 * the stalls of a shared host, so a healthy build refuses no request at
 * these rates: a refusal or a missed deadline is a regression, not part of
 * the load. When the whole process is descheduled, the generator sends
 * every overdue request at once on resuming; each queue holds about a
 * second of arrivals and each deadline is a second or more, which a
 * 300 ms stop every 2 s leaves unrefused.
 */
Workload
find_workload(const std::string &name)
{
    Workload w;
    w.name = name;
    if (name == "edge_mobilenet") {
        w.build = [] { return models::mobilenet_v1(1000, 1.0f); };
    } else if (name == "edge_resnet50") {
        w.build = [] { return models::resnet50(); };
        w.distinct_inputs = 8;
    } else if (name == "serve_mobilenet") {
        w.build = [] { return models::mobilenet_v1(1000, 0.25f); };
        w.service = true;
        w.options = serving_options(4, 2.0, 64, {1000, 2000, 0});
        w.rate_rps = 50;
        w.ladder_from_rps = 100;
    } else if (name == "serve_mlp_churn") {
        w.build = [] { return models::tiny_mlp(128, 256, 10); };
        w.distinct_inputs = 64;
        w.service = true;
        w.options = serving_options(8, 0.5, 4096, {1000, 2000, 0});
        w.rate_rps = 4000;
        w.burst_size = 48;
        w.burst_period_s = 0.5;
        w.reload_period_s = 2.5;
    } else {
        throw Error("unknown workload '" + name + "'");
    }
    return w;
}

/** Distinct per-workload input stream for a given seed. */
std::uint64_t
input_seed(const Workload &w, std::uint64_t seed)
{
    std::uint64_t h = 1469598103934665603ULL; // FNV-1a
    for (const char c : w.name)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    return h ^ (seed * 0x9e3779b97f4a7c15ULL);
}

// --- Inputs and expected outputs ------------------------------------------

void
write_tensors(const std::string &path, const std::vector<Tensor> &tensors)
{
    std::ofstream out(path, std::ios::binary);
    const std::uint64_t header[2] = {
        tensors.size(),
        static_cast<std::uint64_t>(tensors.front().numel())};
    out.write(reinterpret_cast<const char *>(header), sizeof(header));
    for (const Tensor &t : tensors)
        out.write(static_cast<const char *>(t.raw_data()),
                  static_cast<std::streamsize>(t.byte_size()));
    if (!out)
        throw Error("cannot write " + path);
}

std::vector<Tensor>
read_tensors(const std::string &path, const Shape &shape)
{
    std::ifstream in(path, std::ios::binary);
    std::uint64_t header[2] = {0, 0};
    in.read(reinterpret_cast<char *>(header), sizeof(header));
    if (!in || header[0] == 0 || header[0] > 4096 ||
        header[1] != static_cast<std::uint64_t>(shape.numel()))
        throw Error(path + ": missing, or not of shape " + shape.to_string() +
                    "; run the reference phase first");
    std::vector<Tensor> tensors;
    for (std::uint64_t i = 0; i < header[0]; ++i) {
        Tensor t(shape);
        in.read(static_cast<char *>(t.raw_data()),
                static_cast<std::streamsize>(t.byte_size()));
        tensors.push_back(std::move(t));
    }
    if (!in)
        throw Error(path + ": truncated");
    return tensors;
}

/**
 * The output check: a response matches when every element is within
 * 1e-3 * max|reference| + 1e-5 of the scalar reference (NaN never
 * matches).
 */
class OutputCheck
{
  public:
    explicit OutputCheck(std::vector<Tensor> expected)
        : expected_(std::move(expected))
    {
        for (const Tensor &t : expected_)
            tolerance_.push_back(1e-3f * scan_floats(t).max_abs + 1e-5f);
    }

    bool
    matches(std::size_t index, const Tensor &out) const
    {
        const Tensor &ref = expected_.at(index);
        if (out.shape() != ref.shape() || out.dtype() != ref.dtype())
            return false;
        const float *o = out.data<float>();
        const float *r = ref.data<float>();
        for (std::int64_t i = 0; i < ref.numel(); ++i) {
            if (!(std::fabs(o[i] - r[i]) <= tolerance_[index]))
                return false;
        }
        return true;
    }

  private:
    std::vector<Tensor> expected_;
    std::vector<float> tolerance_;
};

/** What a measuring process loads from the reference phase. */
struct Fixture {
    std::string model_path;
    std::string input_name;
    std::string output_name;
    std::vector<Tensor> inputs;
    OutputCheck check;

    std::map<std::string, Tensor>
    request(std::size_t index) const
    {
        return {{input_name, inputs.at(index)}};
    }

    /** True when @p outputs hold a response matching input @p index. */
    bool
    matches(std::size_t index,
            const std::map<std::string, Tensor> &outputs) const
    {
        const auto it = outputs.find(output_name);
        return it != outputs.end() && check.matches(index, it->second);
    }
};

/** Loads what the reference phase wrote to @p dir. */
Fixture
load_fixture(const std::string &dir)
{
    const std::string model_path = dir + "/model.onnx";
    Graph graph;
    import_onnx_file(model_path, graph).throw_if_error();
    const ValueInfo &in = graph.inputs().front();
    const ValueInfo &out = graph.outputs().front();
    return Fixture{model_path, in.name, out.name,
                   read_tensors(dir + "/inputs.bin", in.shape),
                   OutputCheck(read_tensors(dir + "/expected.bin", out.shape))};
}

// --- Tracing ----------------------------------------------------------------

/**
 * In-memory span recorder written out as Chrome trace-event JSON when
 * the run ends. Disabled, it records nothing. Spans of one request share
 * args.id; overlapping request spans are async events.
 */
class Trace
{
  public:
    explicit Trace(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    void
    span(const std::string &name, Clock::time_point begin,
         Clock::time_point end, std::uint64_t id, int tid,
         const std::string &args = "", bool async = false)
    {
        if (!enabled_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        events_.push_back(Event{name, us_since_origin(begin),
                                ms_between(begin, end) * 1e3, id, tid, args,
                                async});
    }

    void
    write(const std::string &path) const
    {
        std::FILE *file = std::fopen(path.c_str(), "w");
        if (file == nullptr)
            throw Error("cannot write " + path);
        std::fprintf(file, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
        std::lock_guard<std::mutex> lock(mutex_);
        const char *sep = "\n";
        for (const Event &e : events_) {
            const std::string args =
                "{\"id\": " + std::to_string(e.id) +
                (e.args.empty() ? "" : ", " + e.args) + "}";
            if (e.async) {
                std::fprintf(file,
                             "%s{\"name\": \"%s\", \"cat\": \"e2e\", "
                             "\"ph\": \"b\", \"id\": %llu, \"ts\": %.3f, "
                             "\"pid\": 1, \"tid\": %d, \"args\": %s},\n"
                             "{\"name\": \"%s\", \"cat\": \"e2e\", "
                             "\"ph\": \"e\", \"id\": %llu, \"ts\": %.3f, "
                             "\"pid\": 1, \"tid\": %d}",
                             sep, e.name.c_str(),
                             static_cast<unsigned long long>(e.id), e.ts_us,
                             e.tid, args.c_str(), e.name.c_str(),
                             static_cast<unsigned long long>(e.id),
                             e.ts_us + e.dur_us, e.tid);
            } else {
                std::fprintf(file,
                             "%s{\"name\": \"%s\", \"cat\": \"e2e\", "
                             "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                             "\"pid\": 1, \"tid\": %d, \"args\": %s}",
                             sep, e.name.c_str(), e.ts_us, e.dur_us, e.tid,
                             args.c_str());
            }
            sep = ",\n";
        }
        std::fprintf(file, "\n]}\n");
        if (std::fclose(file) != 0)
            throw Error("cannot write " + path);
    }

  private:
    struct Event {
        std::string name;
        double ts_us;
        double dur_us;
        std::uint64_t id;
        int tid;
        std::string args;
        bool async;
    };

    double us_since_origin(Clock::time_point t) const
    {
        return ms_between(origin_, t) * 1e3;
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Event> events_;
};

/** Trace thread ids (Perfetto rows). */
enum TraceTid { kTidMain = 1, kTidRequests = 2, kTidReloader = 3 };

// --- Result ------------------------------------------------------------------

struct MetricDef {
    std::string name;
    std::string unit;
};

/** What an untraced run reports (BENCHMARK.json "end_to_end"). */
std::vector<MetricDef>
end_to_end_metrics()
{
    return {{"setup_s", "s"},
            {"cpu_ms_per_request", "ms"},
            {"peak_rss_mb", "MB"}};
}

/** The (op, impl family) groups reported as step.<Op>.<impl>.*. */
const std::vector<std::pair<std::string, std::string>> &
step_groups()
{
    static const std::vector<std::pair<std::string, std::string>> groups = {
        {"Conv", "im2col_gemm"},   {"Conv", "depthwise"},
        {"Gemm", "packed"},        {"Add", "reference"},
        {"Relu", "reference"},     {"MaxPool", "reference"},
        {"GlobalAveragePool", "reference"},
        {"Softmax", "reference"},
    };
    return groups;
}

/**
 * What a traced run reports (BENCHMARK.json "per_layer"), named after
 * the module each one measures. Every workload prints every name; a
 * metric of a layer the workload does not use reads 0.
 */
std::vector<MetricDef>
per_layer_metrics()
{
    std::vector<MetricDef> defs = {
        {"onnx.import_ms", "ms"},       {"engine.compile_ms", "ms"},
        {"engine.first_run_ms", "ms"},  {"engine.run_ms_p50", "ms"},
        {"engine.io_ms_p50", "ms"},     {"memory.arena_mb", "MB"},
        {"memory.workspace_mb", "MB"},  {"memory.footprint_mb", "MB"}};
    for (const auto &[op, impl] : step_groups()) {
        const std::string base = "step." + op + "." + impl;
        defs.push_back({base + ".ms", "ms"});
        defs.push_back({base + ".gflops", "GFLOP/s"});
        defs.push_back({base + ".calls", "count"});
    }
    const std::vector<MetricDef> rest = {
        {"step.other.ms", "ms"},
        {"step.total_ms", "ms"},
        {"threadpool.busy_cores", "cores"},
        {"threadpool.speedup", "x"},
        {"service.queue_ms_p50", "ms"},
        {"service.queue_ms_p99", "ms"},
        {"service.run_ms_p50", "ms"},
        {"service.overhead_ms_p50", "ms"},
        {"service.batch_occupancy_mean", "count"},
        {"service.queue_full_frac", "frac"},
        {"service.infeasible_frac", "frac"},
        {"service.shed_frac", "frac"},
        {"service.deadline_miss_frac", "frac"},
        {"pool.contention_ratio", "x"},
        {"pool.quarantines", "count"},
        {"registry.reload_ms_p50", "ms"},
        {"registry.rollbacks", "count"},
        {"loadgen.lag_p99_ms", "ms"},
        {"loadgen.sent", "count"},
        {"trace.overhead_pct", "%"},
        {"throughput_rps", "1/s"},
        {"latency_p50_ms", "ms"},
        {"latency_p90_ms", "ms"},
        {"latency_p99_ms", "ms"},
        {"rt_latency_p99_ms", "ms"},
        {"max_rps_at_slo", "1/s"},
        {"failed_frac", "frac"}};
    defs.insert(defs.end(), rest.begin(), rest.end());
    return defs;
}

/** The metrics of one run, plus the request counts of the JSON line. */
class Report
{
  public:
    explicit Report(std::vector<MetricDef> defs)
        : defs_(std::move(defs)), values_(defs_.size(), 0.0)
    {
    }

    /** Sets a listed metric; a failed request's +inf prints as 1e9. */
    void
    set(const std::string &name, double value)
    {
        for (std::size_t i = 0; i < defs_.size(); ++i) {
            if (defs_[i].name == name) {
                values_[i] = std::isfinite(value) ? value : 1e9;
                return;
            }
        }
        throw Error("metric " + name + " is not listed");
    }

    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::int64_t mismatched = 0;

    /** Human-readable lines on stderr, the JSON result on stdout. */
    void
    print() const
    {
        std::fprintf(stderr, "\n%-34s %16s  %s\n", "metric", "value", "unit");
        for (std::size_t i = 0; i < defs_.size(); ++i)
            std::fprintf(stderr, "%-34s %16.6g  %s\n", defs_[i].name.c_str(),
                         values_[i], defs_[i].unit.c_str());
        std::fprintf(stderr,
                     "attempted %lld  failed %lld  output mismatches %lld\n",
                     static_cast<long long>(attempted),
                     static_cast<long long>(failed),
                     static_cast<long long>(mismatched));

        std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                    "\"metrics\": {",
                    mismatched == 0 ? "true" : "false",
                    static_cast<long long>(attempted),
                    static_cast<long long>(failed));
        for (std::size_t i = 0; i < defs_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", defs_[i].name.c_str(), values_[i],
                        defs_[i].unit.c_str());
        std::printf("}}\n");
        std::fflush(stdout);
    }

  private:
    std::vector<MetricDef> defs_;
    std::vector<double> values_;
};

// --- Set-up --------------------------------------------------------------------

/** One cold set-up: ONNX file -> import -> compile -> first response. */
struct SetupSample {
    double import_ms = 0;
    double compile_ms = 0;
    double first_run_ms = 0;
    double total_s = 0;
};

struct SetupSummary {
    double setup_s = 0;
    double import_ms = 0;
    double compile_ms = 0;
    double first_run_ms = 0;
};

SetupSummary
summarize(const std::vector<SetupSample> &samples)
{
    std::vector<double> total, import, compile, first;
    for (const SetupSample &s : samples) {
        total.push_back(s.total_s);
        import.push_back(s.import_ms);
        compile.push_back(s.compile_ms);
        first.push_back(s.first_run_ms);
    }
    return {median(total), median(import), median(compile), median(first)};
}

Graph
import_model(const std::string &path)
{
    Graph graph;
    import_onnx_file(path, graph).throw_if_error();
    return graph;
}

/**
 * Sets up from the model file kSetups times, each time by importing it,
 * constructing a target with @p make and sending one request that
 * @p first_ok must find correct, then hands the new target to
 * drive(target, i) before it is destroyed. An untraced run drives every
 * target for a share of the run, so the set-ups and the measured
 * requests are spread over the whole run and over kSetups instances:
 * on a shared host the speed drifts over seconds, and five set-ups back
 * to back would all meet the same state.
 */
template <typename Target, typename Make, typename FirstOk, typename Drive>
SetupSummary
setup_and_drive(const Fixture &fx, Trace &trace, Make make, FirstOk first_ok,
                Drive drive)
{
    std::vector<SetupSample> samples;
    for (std::size_t i = 0; i < kSetups; ++i) {
        const auto t0 = Clock::now();
        Graph graph = import_model(fx.model_path);
        const auto t1 = Clock::now();
        const std::unique_ptr<Target> target = make(std::move(graph));
        const auto t2 = Clock::now();
        if (!first_ok(*target))
            throw Error("set-up: the first response failed or does not "
                        "match the reference");
        const auto t3 = Clock::now();
        samples.push_back({ms_between(t0, t1), ms_between(t1, t2),
                           ms_between(t2, t3), ms_between(t0, t3) / 1e3});
        trace.span("setup.import", t0, t1, i, kTidMain);
        trace.span("setup.compile", t1, t2, i, kTidMain);
        trace.span("setup.first_run", t2, t3, i, kTidMain);
        drive(*target, i);
    }
    return summarize(samples);
}

// --- Per-step profile (ops + backend) ------------------------------------------

/** FLOPs and bytes of one plan step, computed from tensor shapes. */
struct StepCost {
    double flops = 0;
    double bytes = 0;
};

StepCost
step_cost(const PlanStep &step)
{
    StepCost cost;
    for (const Tensor *t : step.inputs)
        if (t != nullptr)
            cost.bytes += static_cast<double>(t->byte_size());
    for (const Tensor *t : step.outputs)
        cost.bytes += static_cast<double>(t->byte_size());
    const Tensor &out = *step.outputs.front();
    const double out_elems = static_cast<double>(out.numel());
    const bool has_weight = step.inputs.size() >= 2 &&
                            step.inputs[1] != nullptr;
    if (step.op_type == "Conv" && has_weight) {
        // Each output element is a dot product over Cin/group * kH * kW.
        const Tensor &w = *step.inputs[1];
        cost.flops = 2.0 * out_elems *
                     static_cast<double>(w.numel() / w.shape().dim(0));
    } else if ((step.op_type == "Gemm" || step.op_type == "MatMul") &&
               has_weight) {
        // K = |B| / N whether or not B is transposed.
        const Tensor &b = *step.inputs[1];
        const auto n = out.shape().dim(out.shape().rank() - 1);
        cost.flops = 2.0 * out_elems * static_cast<double>(b.numel() / n);
    } else {
        cost.flops = out_elems; // One operation per output element.
    }
    return cost;
}

/** Per-step run_step samples (ms) of one engine, one row per request. */
struct StepSamples {
    std::vector<std::vector<double>> ms; ///< [step][sample]
    std::vector<double> run_ms;
    std::vector<double> io_ms; ///< run minus the sum of its steps.
};

/**
 * Re-executes every plan step of @p engine with run_step, right after a
 * run that left its inputs in place, and records the step times with
 * that run's time under request @p id.
 */
void
replay_steps(Engine &engine, double run_ms, Trace &trace, std::uint64_t id,
             StepSamples &samples)
{
    const std::size_t n = engine.steps().size();
    samples.ms.resize(n);
    double steps_ms = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto s0 = Clock::now();
        engine.run_step(i);
        const auto s1 = Clock::now();
        samples.ms[i].push_back(ms_between(s0, s1));
        steps_ms += ms_between(s0, s1);
        trace.span("step." + std::to_string(i), s0, s1, id, kTidMain);
    }
    samples.run_ms.push_back(run_ms);
    samples.io_ms.push_back(run_ms - steps_ms);
}

/** One engine.run of input @p input followed by its step replay. */
void
profile_request(Engine &engine, const Fixture &fx, std::size_t input,
                Trace &trace, std::uint64_t id, StepSamples &samples)
{
    const auto t0 = Clock::now();
    (void)engine.run(fx.request(input));
    const auto t1 = Clock::now();
    trace.span("engine.run", t0, t1, id, kTidMain);
    replay_steps(engine, ms_between(t0, t1), trace, id, samples);
}

/**
 * The step group name of an @p op kernel: a scalar impl and its SIMD
 * variant share one name, so the step.* metrics keep their names on a
 * host without the SIMD tier, under ORPHEUS_DISABLE_SIMD=1 and after a
 * breaker demotes a SIMD kernel.
 */
std::string
impl_family(const std::string &op, std::string impl)
{
    const std::string isa = simd_isa_compiled();
    const std::string suffix = "_" + isa;
    if (!isa.empty() && impl.size() > suffix.size() &&
        impl.compare(impl.size() - suffix.size(), suffix.size(), suffix) == 0)
        impl.resize(impl.size() - suffix.size());
    // Scalar names that differ from their SIMD variant's stem: Conv's
    // depthwise_direct (SIMD: depthwise_<isa>), and Gemm's reference, which
    // runs the default packed GEMM (SIMD: packed_<isa>).
    if (op == "Conv" && impl == "depthwise_direct")
        return "depthwise";
    if (op == "Gemm" && impl == "reference")
        return "packed";
    return impl;
}

/**
 * Reduces per-step medians to the step.* metrics and prints the
 * per-plan-step table (model/step:op/impl) to stderr. Returns the sum
 * of step medians.
 */
double
report_steps(const Engine &engine, const StepSamples &samples,
             const std::string &model, Report &report)
{
    struct Group {
        double ms = 0, flops = 0;
        int calls = 0;
    };
    std::vector<Group> groups(step_groups().size());
    double total_ms = 0, other_ms = 0;

    std::fprintf(stderr,
                 "\nper-plan-step medians over %zu requests (FLOPs and bytes "
                 "are computed from tensor shapes, not measured):\n"
                 "%-44s %10s %10s %12s\n",
                 samples.run_ms.size(), "model/step:op/impl", "ms", "GFLOP/s",
                 "bytes");
    for (std::size_t i = 0; i < engine.steps().size(); ++i) {
        const PlanStep &step = engine.steps()[i];
        const std::string impl = step.layer->impl_name();
        const double ms = median(samples.ms.at(i));
        const StepCost cost = step_cost(step);
        const std::string key = model + "/" + std::to_string(i) + ":" +
                                step.op_type + "/" + impl;
        std::fprintf(stderr, "%-44s %10.4f %10.3f %12.0f\n", key.c_str(), ms,
                     ms > 0 ? cost.flops / ms * 1e-6 : 0.0, cost.bytes);
        total_ms += ms;

        const auto &list = step_groups();
        const auto it = std::find(list.begin(), list.end(),
                                  std::make_pair(step.op_type,
                                                 impl_family(step.op_type,
                                                             impl)));
        if (it == list.end()) {
            const bool grouped_op =
                std::any_of(list.begin(), list.end(), [&](const auto &g) {
                    return g.first == step.op_type;
                });
            if (grouped_op)
                std::fprintf(stderr,
                             "note: %s is in no step group; its time counts "
                             "in step.other.ms\n",
                             key.c_str());
            other_ms += ms;
            continue;
        }
        Group &g = groups[static_cast<std::size_t>(it - list.begin())];
        g.ms += ms;
        g.flops += cost.flops;
        ++g.calls;
    }
    for (std::size_t i = 0; i < groups.size(); ++i) {
        const std::string base = "step." + step_groups()[i].first + "." +
                                 step_groups()[i].second;
        const Group &g = groups[i];
        report.set(base + ".ms", g.ms);
        report.set(base + ".gflops", g.ms > 0 ? g.flops / g.ms * 1e-6 : 0.0);
        report.set(base + ".calls", g.calls);
    }
    report.set("step.other.ms", other_ms);
    report.set("step.total_ms", total_ms);
    return total_ms;
}

/** onnx.* and the set-up part of engine.*: medians over the set-ups. */
void
report_setup(const SetupSummary &setup, Report &report)
{
    report.set("onnx.import_ms", setup.import_ms);
    report.set("engine.compile_ms", setup.compile_ms);
    report.set("engine.first_run_ms", setup.first_run_ms);
}

/** engine.run_ms_p50 and engine.io_ms_p50 of the profiled runs. */
void
report_engine_runs(const StepSamples &profile, Report &report)
{
    report.set("engine.run_ms_p50", median(profile.run_ms));
    report.set("engine.io_ms_p50", median(profile.io_ms));
}

/** memory.* of the engine that serves (replica 0 for a service). */
void
report_memory(const Engine &engine, Report &report)
{
    constexpr double kMiB = 1024.0 * 1024.0;
    report.set("memory.arena_mb", engine.arena_bytes() / kMiB);
    report.set("memory.workspace_mb", engine.workspace_bytes() / kMiB);
    report.set("memory.footprint_mb",
               engine.request_footprint_bytes() / kMiB);
}

// --- Closed loop (edge workloads) ------------------------------------------------

struct ClosedLoopResult {
    std::vector<double> latency_ms; ///< +inf for failed requests.
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::int64_t mismatched = 0;
    double wall_s = 0;
    double cpu_s = 0;
    StepSamples steps; ///< Filled by traced runs.
};

/**
 * One caller, each request sent when the previous one returned. Traced,
 * every request is followed by a run_step replay of the whole plan
 * (outside its latency).
 */
ClosedLoopResult
closed_loop(Engine &engine, const Fixture &fx, double seconds, Rng &rng,
            Trace &trace, std::uint64_t &next_id)
{
    ClosedLoopResult r;
    const double cpu0 = cpu_seconds();
    const auto start = Clock::now();
    const auto end = after_seconds(start, seconds);
    do {
        const auto input = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(fx.inputs.size()) - 1));
        const auto request = fx.request(input);
        const std::uint64_t id = next_id++;
        ++r.attempted;
        const auto t0 = Clock::now();
        try {
            const auto out = engine.run(request);
            const auto t1 = Clock::now();
            trace.span("engine.run", t0, t1, id, kTidMain);
            if (!fx.matches(input, out)) {
                ++r.mismatched;
                ++r.failed;
                r.latency_ms.push_back(kInf);
            } else {
                r.latency_ms.push_back(ms_between(t0, t1));
            }
            if (trace.enabled())
                replay_steps(engine, ms_between(t0, t1), trace, id, r.steps);
        } catch (const Error &e) {
            std::fprintf(stderr, "request failed: %s\n", e.what());
            ++r.failed;
            r.latency_ms.push_back(kInf);
        }
    } while (Clock::now() < end);
    r.wall_s = ms_between(start, Clock::now()) / 1e3;
    r.cpu_s = cpu_seconds() - cpu0;
    return r;
}

// --- Open loop (serving workloads) ------------------------------------------------

struct Arrival {
    double at_s = 0;
    std::size_t input = 0;
    RequestPriority priority = RequestPriority::kInteractive;
};

/**
 * round(rate_rps * seconds) arrivals at uniformly random times (a
 * Poisson process conditioned on its count, so every seed offers the
 * same load), plus w.burst_size simultaneous arrivals every
 * w.burst_period_s; class mix 20/50/30 realtime/interactive/batch.
 */
std::vector<Arrival>
make_schedule(const Workload &w, std::size_t inputs, double rate_rps,
              double seconds, Rng &rng)
{
    const auto draw = [&](double at) {
        const double u = rng.next_double();
        const RequestPriority priority =
            u < 0.2 ? RequestPriority::kRealtime
                    : (u < 0.7 ? RequestPriority::kInteractive
                               : RequestPriority::kBatch);
        return Arrival{at,
                       static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(inputs) - 1)),
                       priority};
    };
    std::vector<Arrival> schedule;
    const auto count = std::llround(rate_rps * seconds);
    for (long long i = 0; i < count; ++i)
        schedule.push_back(draw(rng.next_double() * seconds));
    if (w.burst_size > 0)
        for (double t = w.burst_period_s; t < seconds; t += w.burst_period_s)
            for (int i = 0; i < w.burst_size; ++i)
                schedule.push_back(draw(t));
    std::stable_sort(schedule.begin(), schedule.end(),
                     [](const Arrival &a, const Arrival &b) {
                         return a.at_s < b.at_s;
                     });
    return schedule;
}

/**
 * Asks the kernel to wake this thread within 1 us of a timed sleep
 * instead of the default 50 us slack, so sleeps and polls run on time.
 */
void
tighten_timer_slack()
{
#ifdef __linux__
    prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
#endif
}

/**
 * Sleeps until 200 us before @p due and spins the rest: a sleeping
 * thread can wake late on a busy host, which would show up as generator
 * lag instead of service latency.
 */
void
wait_until(Clock::time_point due)
{
    std::this_thread::sleep_until(due - std::chrono::microseconds(200));
    while (Clock::now() < due)
        std::this_thread::yield();
}

/** Client-side outcome of one request. */
struct Outcome {
    double latency_ms = kInf; ///< Scheduled send -> response seen.
    double lag_ms = 0;        ///< Scheduled send -> actual submit.
    bool ok = false;
    bool mismatch = false;
    InferenceResponse response; ///< outputs dropped after the check.
    RequestPriority priority = RequestPriority::kInteractive;
};

struct OpenLoopResult {
    std::vector<Outcome> outcomes;
    ServiceStats before;
    ServiceStats after;
    /** Last scheduled send -> last response seen. */
    double drain_ms = 0;
    /** Phase start -> last response seen. */
    double wall_s = 0;
    std::vector<double> reload_ms;
    std::int64_t reload_failures = 0;
    /** Process CPU over the phase, less the generator's and collector's. */
    double service_cpu_s = 0;
};

/**
 * Drives @p service with @p schedule from a generator thread; a
 * collector thread polls the futures every 20 us and checks each
 * response. When the workload reloads, a third thread re-imports the
 * model and calls reload() every reload_period_s.
 */
OpenLoopResult
open_loop(InferenceService &service, const Workload &w, const Fixture &fx,
          const std::vector<Arrival> &schedule, double seconds, Trace &trace,
          std::uint64_t &next_id)
{
    struct InFlight {
        std::future<InferenceResponse> future;
        std::size_t arrival;
        std::uint64_t id;
        Clock::time_point scheduled;
        double lag_ms;
    };

    OpenLoopResult r;
    r.outcomes.resize(schedule.size());
    r.before = service.stats();

    std::mutex mutex; // Guards handoff, generator_done, error, harness_cpu_s.
    std::deque<InFlight> handoff;
    bool generator_done = false;
    std::exception_ptr error; // The first exception any thread threw.
    double harness_cpu_s = 0; // CPU of the generator and the collector.
    const auto guarded = [&](const auto &body) {
        try {
            body();
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            if (!error)
                error = std::current_exception();
        }
    };
    const std::uint64_t first_id = next_id;
    next_id += schedule.size();
    const auto start = Clock::now() + std::chrono::milliseconds(5);
    Clock::time_point last_seen = start;

    const auto generate = [&] {
        tighten_timer_slack();
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            const auto due = after_seconds(start, schedule[i].at_s);
            wait_until(due);
            const auto sent = Clock::now();
            auto future = service.submit(fx.request(schedule[i].input), {}, 0,
                                         schedule[i].priority);
            std::lock_guard<std::mutex> lock(mutex);
            handoff.push_back({std::move(future), i, first_id + i, due,
                               ms_between(due, sent)});
        }
    };

    const auto record = [&](InFlight &f, Clock::time_point seen) {
        const Arrival &a = schedule[f.arrival];
        Outcome &o = r.outcomes[f.arrival];
        o.response = f.future.get();
        o.priority = a.priority;
        o.lag_ms = f.lag_ms;
        o.ok = o.response.status.is_ok();
        if (o.ok && !fx.matches(a.input, o.response.outputs)) {
            o.ok = false;
            o.mismatch = true;
        }
        o.response.outputs.clear();
        if (o.ok)
            o.latency_ms = ms_between(f.scheduled, seen);
        if (trace.enabled()) {
            char args[192];
            std::snprintf(args, sizeof(args),
                          "\"class\": \"%s\", \"status\": \"%s\", "
                          "\"queue_ms\": %.4f, \"run_ms\": %.4f, "
                          "\"batch_size\": %d, \"lag_ms\": %.4f",
                          to_string(a.priority),
                          to_string(o.response.status.code()),
                          o.response.queue_ms, o.response.run_ms,
                          o.response.batch_size, f.lag_ms);
            trace.span("request", f.scheduled, seen, f.id, kTidRequests, args,
                       /*async=*/true);
        }
    };

    const auto collect = [&] {
        tighten_timer_slack();
        std::vector<InFlight> pending;
        const auto give_up = after_seconds(start, seconds + 30.0);
        for (;;) {
            bool done = false;
            {
                std::lock_guard<std::mutex> lock(mutex);
                for (InFlight &f : handoff)
                    pending.push_back(std::move(f));
                handoff.clear();
                done = generator_done;
            }
            for (std::size_t k = 0; k < pending.size();) {
                if (pending[k].future.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready) {
                    ++k;
                    continue;
                }
                last_seen = Clock::now();
                record(pending[k], last_seen);
                pending[k] = std::move(pending.back());
                pending.pop_back();
            }
            if (done && pending.empty())
                return;
            if (Clock::now() > give_up) {
                std::fprintf(stderr, "%zu requests never completed\n",
                             pending.size());
                return; // Their outcomes stay failed.
            }
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
    };

    const auto reload = [&] {
        for (double t = w.reload_period_s; t < seconds;
             t += w.reload_period_s) {
            std::this_thread::sleep_until(after_seconds(start, t));
            const std::uint64_t id = next_id++;
            const auto t0 = Clock::now();
            Graph graph = import_model(fx.model_path);
            const auto t1 = Clock::now();
            const RolloutReport rollout = service.reload(std::move(graph));
            const auto t2 = Clock::now();
            trace.span("onnx.import", t0, t1, id, kTidReloader);
            trace.span("registry.reload", t1, t2, id, kTidReloader,
                       std::string("\"status\": \"") +
                           to_string(rollout.status.code()) + "\"");
            r.reload_ms.push_back(ms_between(t1, t2));
            if (!rollout.status.is_ok()) {
                std::fprintf(stderr, "reload failed: %s\n",
                             rollout.status.to_string().c_str());
                ++r.reload_failures;
            }
        }
    };

    const double cpu0 = cpu_seconds();
    {
        std::jthread generator([&] {
            guarded(generate);
            std::lock_guard<std::mutex> lock(mutex);
            generator_done = true;
            harness_cpu_s += thread_cpu_seconds();
        });
        std::jthread collector([&] {
            guarded(collect);
            std::lock_guard<std::mutex> lock(mutex);
            harness_cpu_s += thread_cpu_seconds();
        });
        std::jthread reloader;
        if (w.reload_period_s > 0)
            reloader = std::jthread([&] { guarded(reload); });
    }
    if (error)
        std::rethrow_exception(error);
    r.service_cpu_s = cpu_seconds() - cpu0 - harness_cpu_s;

    std::map<std::string, int> failures;
    for (const Outcome &o : r.outcomes) {
        if (o.ok)
            continue;
        ++failures[o.mismatch                   ? "output mismatch"
                   : o.response.status.is_ok() ? "no response"
                                               : to_string(
                                                     o.response.status.code())];
    }
    for (const auto &[cause, n] : failures)
        std::fprintf(stderr, "failed requests: %d %s\n", n, cause.c_str());

    const double last_due =
        schedule.empty() ? 0.0 : schedule.back().at_s * 1e3;
    r.drain_ms = std::max(0.0, ms_between(start, last_seen) - last_due);
    r.wall_s = ms_between(start, last_seen) / 1e3;
    r.after = service.stats();
    return r;
}

/** Client-side latencies of @p outcomes, failures at +inf. */
std::vector<double>
latencies(const std::vector<Outcome> &outcomes, bool realtime_only = false)
{
    std::vector<double> out;
    for (const Outcome &o : outcomes)
        if (!realtime_only || o.priority == RequestPriority::kRealtime)
            out.push_back(o.latency_ms);
    return out;
}

void
count_outcomes(const OpenLoopResult &r, Report &report)
{
    for (const Outcome &o : r.outcomes) {
        ++report.attempted;
        report.failed += o.ok ? 0 : 1;
        report.mismatched += o.mismatch ? 1 : 0;
    }
    report.attempted += static_cast<std::int64_t>(r.reload_ms.size());
    report.failed += r.reload_failures;
}

/**
 * Climbs ladder_from_rps x 1.15^k rungs (at most 8) and returns the highest
 * rate whose rung kept p95 <= 100 ms, failed_frac <= 1% and drained its
 * backlog within 1 s of the rung ending (0 when the first rung fails).
 */
double
max_rps_at_slo(InferenceService &service, const Workload &w,
               const Fixture &fx, double rung_s, Rng &rng, Trace &trace,
               std::uint64_t &next_id, std::int64_t &mismatched)
{
    double best = 0;
    double rate = w.ladder_from_rps;
    for (int rung = 0; rung < 8; ++rung, rate *= 1.15) {
        const auto schedule =
            make_schedule(w, fx.inputs.size(), rate, rung_s, rng);
        const OpenLoopResult r =
            open_loop(service, w, fx, schedule, rung_s, trace, next_id);
        std::int64_t failed = 0;
        for (const Outcome &o : r.outcomes) {
            failed += o.ok ? 0 : 1;
            mismatched += o.mismatch ? 1 : 0;
        }
        const double p95 = percentile(latencies(r.outcomes), 0.95);
        const double failed_frac =
            static_cast<double>(failed) /
            static_cast<double>(std::max<std::size_t>(1, r.outcomes.size()));
        const bool pass =
            p95 <= 100.0 && failed_frac <= 0.01 && r.drain_ms <= 1000.0;
        std::fprintf(stderr,
                     "ladder %7.1f rps: p95 %8.2f ms  failed %.4f  drain "
                     "%7.1f ms  %s\n",
                     rate, p95, failed_frac, r.drain_ms,
                     pass ? "pass" : "FAIL");
        if (!pass)
            break;
        best = rate;
    }
    return best;
}

// --- Subcommands -------------------------------------------------------------------

struct Args {
    std::string command;
    std::string workload;
    std::string dir;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

Args
parse_args(int argc, char **argv)
{
    if (argc < 2)
        throw Error("usage: orpheus_e2e <reference|run> --workload W --seed S "
                    "--dir D [--seconds T] [--trace 0|1]");
    Args args;
    args.command = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--dir")
            args.dir = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = value != "0";
        else
            throw Error("unknown argument " + key);
    }
    if ((argc - 2) % 2 != 0)
        throw Error("missing value for " + std::string(argv[argc - 1]));
    if (args.workload.empty() || args.dir.empty())
        throw Error("--workload and --dir are required");
    if (!(args.seconds > 0) || args.seconds > 120)
        throw Error("--seconds must be in (0, 120]");
    return args;
}

/** Writes the model file, the seeded inputs and scalar reference outputs. */
int
reference(const Args &args)
{
    const Workload w = find_workload(args.workload);
    const std::string model_path = args.dir + "/model.onnx";
    export_onnx_file(w.build(), model_path).throw_if_error();

    set_global_num_threads(pool_threads());
    EngineOptions scalar;
    scalar.backend.allow_simd = false;
    Engine engine(import_model(model_path), scalar);
    const ValueInfo &in = engine.request_inputs().front();
    const std::string &out = engine.request_outputs().front().name;

    Rng rng(input_seed(w, args.seed));
    std::vector<Tensor> inputs, expected;
    for (int i = 0; i < w.distinct_inputs; ++i) {
        inputs.push_back(random_tensor(in.shape, rng));
        expected.push_back(engine.run({{in.name, inputs.back()}}).at(out));
    }
    write_tensors(args.dir + "/inputs.bin", inputs);
    write_tensors(args.dir + "/expected.bin", expected);
    return 0;
}

/**
 * The end-to-end metrics of an untraced run. @p segment_cpu_ms holds the
 * CPU time per request served of each set-up's fifth of the run (+inf
 * when none was served); the metric is
 * their median, so a stretch of host contention that covers one or two
 * of the five does not move it.
 */
void
report_end_to_end(const SetupSummary &setup,
                  const std::vector<double> &segment_cpu_ms, Report &report)
{
    report.set("setup_s", setup.setup_s);
    report.set("cpu_ms_per_request", median(segment_cpu_ms));
    report.set("peak_rss_mb", peak_rss_mb());
}

/** Client latencies of the untraced phase of a traced run. */
void
report_latency(const std::vector<double> &latency_ms, Report &report)
{
    report.set("latency_p50_ms", percentile(latency_ms, 0.5));
    report.set("latency_p90_ms", percentile(latency_ms, 0.9));
    report.set("latency_p99_ms", percentile(latency_ms, 0.99));
}

/** service.*, pool.*, registry.* and loadgen.* over the nominal phases. */
void
report_service(const InferenceService &service,
               const std::vector<const OpenLoopResult *> &phases,
               double solo_run_ms, Report &report)
{
    std::vector<double> queue, run, overhead, lag, batch1_run, reload_ms;
    double engine_runs = 0, served = 0;
    std::int64_t sent = 0, queue_full = 0, infeasible = 0, shed = 0, miss = 0;
    for (const OpenLoopResult *r : phases) {
        for (const Outcome &o : r->outcomes) {
            lag.push_back(o.lag_ms);
            if (!o.ok)
                continue;
            queue.push_back(o.response.queue_ms);
            run.push_back(o.response.run_ms);
            overhead.push_back(o.latency_ms - o.response.queue_ms -
                               o.response.run_ms);
            if (o.response.batch_size == 1)
                batch1_run.push_back(o.response.run_ms);
            engine_runs += 1.0 / std::max(1, o.response.batch_size);
            served += 1;
        }
        const ServiceStats &a = r->before, &b = r->after;
        sent += b.submitted - a.submitted;
        queue_full += b.rejected_queue_full - a.rejected_queue_full;
        infeasible += b.rejected_infeasible - a.rejected_infeasible;
        for (std::size_t c = 0; c < kPriorityClasses; ++c) {
            shed += b.class_shed[c] - a.class_shed[c];
            miss += b.class_deadline_miss[c] - a.class_deadline_miss[c];
        }
        reload_ms.insert(reload_ms.end(), r->reload_ms.begin(),
                         r->reload_ms.end());
    }
    const auto frac = [&](std::int64_t n) {
        return static_cast<double>(n) /
               std::max(1.0, static_cast<double>(sent));
    };
    report.set("service.queue_ms_p50", percentile(queue, 0.5));
    report.set("service.queue_ms_p99", percentile(queue, 0.99));
    report.set("service.run_ms_p50", percentile(run, 0.5));
    report.set("service.overhead_ms_p50", percentile(overhead, 0.5));
    report.set("service.batch_occupancy_mean",
               engine_runs > 0 ? served / engine_runs : 0);
    report.set("service.queue_full_frac", frac(queue_full));
    report.set("service.infeasible_frac", frac(infeasible));
    report.set("service.shed_frac", frac(shed));
    report.set("service.deadline_miss_frac", frac(miss));
    report.set("pool.contention_ratio",
               batch1_run.empty() ? 0 : median(batch1_run) / solo_run_ms);
    report.set("pool.quarantines",
               static_cast<double>(service.pool().stats().quarantines));
    report.set("registry.reload_ms_p50", percentile(reload_ms, 0.5));
    report.set("registry.rollbacks",
               static_cast<double>(service.registry().rollbacks()));
    report.set("loadgen.lag_p99_ms", percentile(lag, 0.99));
    report.set("loadgen.sent", static_cast<double>(sent));
}

/** Edge workloads: one caller in a closed loop around Engine::run. */
void
run_edge(const Args &args, const Workload &w, const Fixture &fx, Rng &rng,
         Trace &trace, Report &report)
{
    Trace untraced(false);
    std::uint64_t next_id = 1000;
    const auto count = [&](const ClosedLoopResult &r) {
        report.attempted += r.attempted;
        report.failed += r.failed;
        report.mismatched += r.mismatched;
    };
    const auto warm = [&](Engine &engine) {
        for (std::size_t i = 0; i < 3; ++i) // Outside the timed loop.
            (void)engine.run(fx.request(i % fx.inputs.size()));
    };

    // Untraced: each engine serves a fifth of the run.
    std::vector<double> segment_cpu_ms;
    const auto drive_untraced = [&](Engine &engine, std::size_t) {
        warm(engine);
        const ClosedLoopResult r = closed_loop(
            engine, fx, args.seconds / kSetups, rng, untraced, next_id);
        count(r);
        segment_cpu_ms.push_back(
            r.cpu_s * 1e3 / static_cast<double>(r.attempted - r.failed));
    };

    // Traced: the last engine runs an untraced and a traced phase on one
    // thread, then the thread-pool phase on pool_threads().
    const auto drive_traced = [&](Engine &engine, std::size_t i) {
        if (i + 1 < kSetups)
            return;
        warm(engine);
        const ClosedLoopResult plain = closed_loop(
            engine, fx, args.seconds * 0.4, rng, untraced, next_id);
        const ClosedLoopResult traced =
            closed_loop(engine, fx, args.seconds * 0.4, rng, trace, next_id);
        count(plain);
        count(traced);
        report_engine_runs(traced.steps, report);
        report_memory(engine, report);
        const double serial_ms =
            report_steps(engine, traced.steps, w.name, report);

        set_global_num_threads(pool_threads());
        warm(engine);
        const ClosedLoopResult pooled = closed_loop(
            engine, fx, args.seconds * 0.2, rng, untraced, next_id);
        count(pooled);
        StepSamples parallel;
        for (std::size_t k = 0; k < 5; ++k)
            profile_request(engine, fx, k % fx.inputs.size(), untraced, 0,
                            parallel);
        set_global_num_threads(1);
        double parallel_ms = 0;
        for (const auto &samples : parallel.ms)
            parallel_ms += median(samples);
        report.set("threadpool.busy_cores", pooled.cpu_s / pooled.wall_s);
        report.set("threadpool.speedup", serial_ms / parallel_ms);

        report.set("throughput_rps",
                   static_cast<double>(plain.attempted - plain.failed) /
                       plain.wall_s);
        report.set("loadgen.sent",
                   static_cast<double>(plain.attempted + traced.attempted +
                                       pooled.attempted));
        report.set("trace.overhead_pct",
                   (median(traced.latency_ms) / median(plain.latency_ms) -
                    1) *
                       100);
        report_latency(plain.latency_ms, report);
    };

    const auto make = [](Graph graph) {
        return std::make_unique<Engine>(std::move(graph));
    };
    const auto first_ok = [&](Engine &e) {
        return fx.matches(0, e.run(fx.request(0)));
    };
    if (!trace.enabled()) {
        const SetupSummary setup = setup_and_drive<Engine>(
            fx, trace, make, first_ok, drive_untraced);
        report_end_to_end(setup, segment_cpu_ms, report);
    } else {
        report_setup(setup_and_drive<Engine>(fx, trace, make, first_ok,
                                             drive_traced),
                     report);
    }
}

/** Serving workloads: an open loop into InferenceService. */
void
run_service(const Args &args, const Workload &w, const Fixture &fx, Rng &rng,
            Trace &trace, Report &report)
{
    Trace untraced(false);
    std::uint64_t next_id = 1000;
    const auto phase = [&](InferenceService &service, double seconds,
                           Trace &phase_trace) {
        const auto schedule =
            make_schedule(w, fx.inputs.size(), w.rate_rps, seconds, rng);
        OpenLoopResult r = open_loop(service, w, fx, schedule, seconds,
                                     phase_trace, next_id);
        count_outcomes(r, report);
        return r;
    };
    const auto ok_count = [](const OpenLoopResult &r) {
        return static_cast<double>(
            std::count_if(r.outcomes.begin(), r.outcomes.end(),
                          [](const Outcome &o) { return o.ok; }));
    };

    // Untraced: each service serves a fifth of the run.
    std::vector<double> segment_cpu_ms;
    const auto drive_untraced = [&](InferenceService &service, std::size_t) {
        const OpenLoopResult r =
            phase(service, args.seconds / kSetups, untraced);
        segment_cpu_ms.push_back(r.service_cpu_s * 1e3 / ok_count(r));
    };

    // Traced: the last service runs an untraced and a traced nominal
    // phase, then a solo engine is profiled (a tenth of the run) and, when
    // the workload has one, the service climbs the rate ladder (half).
    const auto drive_traced = [&](InferenceService &service, std::size_t i) {
        if (i + 1 < kSetups)
            return;
        const bool ladder = w.ladder_from_rps > 0;
        const double nominal_s = args.seconds * (ladder ? 0.2 : 0.45);
        const double cpu0 = cpu_seconds();
        const OpenLoopResult plain = phase(service, nominal_s, untraced);
        const double busy = (cpu_seconds() - cpu0) / plain.wall_s;
        const OpenLoopResult traced = phase(service, nominal_s, trace);

        // A solo engine, with the service idle, gives the per-step table
        // and the contention baseline.
        Engine solo(import_model(fx.model_path), EngineOptions{});
        StepSamples profile;
        const auto profile_end =
            after_seconds(Clock::now(), args.seconds * 0.1);
        for (std::size_t k = 0; k < 5 || Clock::now() < profile_end; ++k)
            profile_request(solo, fx, k % fx.inputs.size(), trace, next_id++,
                            profile);

        report_engine_runs(profile, report);
        report_memory(service.engine(0), report);
        report_steps(solo, profile, w.name, report);
        report.set("threadpool.busy_cores", busy);
        report.set("threadpool.speedup", 1.0);
        report_service(service, {&plain, &traced}, median(profile.run_ms),
                       report);
        const std::vector<double> plain_latency = latencies(plain.outcomes);
        report.set("throughput_rps", ok_count(plain) / plain.wall_s);
        report.set("trace.overhead_pct",
                   (median(latencies(traced.outcomes)) /
                        median(plain_latency) -
                    1) *
                       100);
        report_latency(plain_latency, report);
        std::vector<double> rt = latencies(plain.outcomes, true);
        const std::vector<double> rt_traced =
            latencies(traced.outcomes, true);
        rt.insert(rt.end(), rt_traced.begin(), rt_traced.end());
        report.set("rt_latency_p99_ms", percentile(rt, 0.99));
        if (ladder)
            report.set("max_rps_at_slo",
                       max_rps_at_slo(service, w, fx, args.seconds / 16, rng,
                                      trace, next_id, report.mismatched));
    };

    const auto make = [&](Graph graph) {
        return std::make_unique<InferenceService>(std::move(graph),
                                                  EngineOptions{}, w.options);
    };
    const auto first_ok = [&](InferenceService &s) {
        const InferenceResponse r = s.submit(fx.request(0)).get();
        return r.status.is_ok() && fx.matches(0, r.outputs);
    };
    if (!trace.enabled()) {
        const SetupSummary setup = setup_and_drive<InferenceService>(
            fx, trace, make, first_ok, drive_untraced);
        report_end_to_end(setup, segment_cpu_ms, report);
    } else {
        report_setup(setup_and_drive<InferenceService>(fx, trace, make,
                                                       first_ok, drive_traced),
                     report);
    }
}

int
run(const Args &args)
{
    const Workload w = find_workload(args.workload);
    set_global_num_threads(1);

    const Fixture fx = load_fixture(args.dir);
    Trace trace(args.trace);
    Rng rng(input_seed(w, args.seed) ^ 0x5eedULL);
    Report report(args.trace ? per_layer_metrics() : end_to_end_metrics());
    if (w.service)
        run_service(args, w, fx, rng, trace, report);
    else
        run_edge(args, w, fx, rng, trace, report);

    if (trace.enabled()) {
        report.set("failed_frac",
                   static_cast<double>(report.failed) /
                       static_cast<double>(std::max<std::int64_t>(
                           1, report.attempted)));
        const std::string path = args.dir + "/trace.json";
        trace.write(path);
        std::fprintf(stderr, "trace written to %s\n", path.c_str());
    }
    report.print();
    return report.mismatched == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parse_args(argc, argv);
        if (args.command == "reference")
            return reference(args);
        if (args.command == "run")
            return run(args);
        throw Error("unknown command '" + args.command + "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "orpheus_e2e: %s\n", e.what());
        return 2;
    }
}
