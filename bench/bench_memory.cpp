/**
 * @file
 * Ablation C — activation-memory planning.
 *
 * Edge deployment (the paper's setting) is memory constrained; Orpheus
 * places intermediate activations in a liveness-planned arena. This
 * bench reports, for every evaluation network, the planned arena size
 * against the no-reuse total, and times the planning pass itself (it
 * runs at model-load time, so it must stay cheap).
 *
 * It also sizes an EnginePool at 1 and 4 replicas: `pool_weight_mb_r<N>`
 * is the distinct initializer storage across the replicas' graphs (the
 * pool simplifies the model once and its first compile lowers the GEMM
 * weights into panel order in place of the originals, so replicas share
 * one folded, packed weight set and r4 must equal r1), and
 * `pool_rss_mb_r<N>` the rise in VmRSS while the pool is built
 * (informational: it also counts arenas, workspaces and allocator
 * state). `import_weight_mb` is the model's initializer bytes as built,
 * before any pass: the pool holds one copy of each weight (panels are
 * the size of their weight), so r1 does not exceed it (CI allows 15 %),
 * where a kept original would read about 2x. Those cells are MiB, not
 * ms.
 */
#include "bench_util.hpp"

#include <fstream>
#include <unordered_set>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "graph/passes/pass.hpp"
#include "runtime/engine_pool.hpp"
#include "runtime/memory_planner.hpp"

namespace {

using namespace orpheus;
using namespace orpheus::bench;

struct FootprintRow {
    std::string model;
    std::size_t planned = 0;
    std::size_t naive = 0;
};

std::vector<FootprintRow> &
footprints()
{
    static std::vector<FootprintRow> storage;
    return storage;
}

void
planner_cell(::benchmark::State &state, const std::string &model)
{
    Graph graph = models::by_name(model);
    simplify_graph(graph);
    const ValueInfoMap infos = infer_shapes(graph);
    const auto order = graph.topological_order();

    MemoryPlan plan;
    double total_ms = 0.0;
    std::int64_t runs = 0;
    for (auto _ : state) {
        Timer timer;
        plan = plan_memory(graph, infos, order);
        const double ms = timer.elapsed_ms();
        state.SetIterationTime(ms / 1000.0);
        total_ms += ms;
        ++runs;
    }
    record_cell(model, "planning_ms",
                total_ms / static_cast<double>(runs));
    footprints().push_back(
        FootprintRow{model, plan.arena_size, plan.naive_size});
}

/** This process's resident set (VmRSS) in MiB; 0 where /proc is
 *  unavailable. */
double
vm_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmRSS:") {
            double kib = 0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(4096, '\n');
    }
    return 0.0;
}

/** Builds @p model's pool at 1 and 4 replicas and records its distinct
 *  weight bytes and VmRSS rise (MiB). */
void
pool_cells(const std::string &model)
{
    std::size_t import_bytes = 0;
    const Graph imported = models::by_name(model);
    for (const auto &[name, weight] : imported.initializers())
        import_bytes += weight.buffer()->size();
    record_cell(model, "import_weight_mb",
                static_cast<double>(import_bytes) / (1024.0 * 1024.0));
    for (const int replicas : {1, 4}) {
        Graph graph = models::by_name(model);
#if defined(__GLIBC__)
        // Hand the previous pool's freed heap back first, or this pool
        // reuses it and its rise reads near zero.
        malloc_trim(0);
#endif
        const double rss_before = vm_rss_mb();
        EnginePoolOptions options;
        options.replicas = replicas;
        EnginePool pool(std::move(graph), EngineOptions{}, options);
        const double rss_rise = vm_rss_mb() - rss_before;

        std::unordered_set<const void *> seen;
        std::size_t weight_bytes = 0;
        const auto count = [&](const Tensor &weight) {
            if (seen.insert(weight.raw_data()).second)
                weight_bytes += weight.buffer()->size();
        };
        for (std::size_t i = 0; i < pool.replica_count(); ++i) {
            const Graph &graph = pool.engine(i).graph();
            for (const auto &[name, weight] : graph.initializers())
                count(weight);
            for (const auto &[key, constant] : graph.derived_constants())
                count(constant.value);
        }
        const std::string suffix = "_r" + std::to_string(replicas);
        record_cell(model, "pool_weight_mb" + suffix,
                    static_cast<double>(weight_bytes) / (1024.0 * 1024.0));
        record_cell(model, "pool_rss_mb" + suffix, rss_rise);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> model_list =
        quick_mode()
            ? std::vector<std::string>{"tiny-cnn", "wrn-40-2"}
            : std::vector<std::string>{"wrn-40-2", "mobilenet-v1",
                                       "resnet-18", "inception-v3",
                                       "resnet-50"};

    for (const std::string &model : model_list) {
        const std::string name = "memory_plan/" + model;
        ::benchmark::RegisterBenchmark(
            name.c_str(),
            [model](::benchmark::State &state) {
                planner_cell(state, model);
            })
            ->Iterations(timed_runs())
            ->UseManualTime()
            ->Unit(::benchmark::kMillisecond);
    }

    const int status = orpheus::bench::run_benchmarks(argc, argv);
    print_table("Ablation C: memory-planning time at model load", "model");

    std::printf("\nactivation footprint (planned arena vs no reuse):\n");
    std::printf("%-16s %14s %14s %10s\n", "model", "arena MiB",
                "no-reuse MiB", "saving");
    std::printf("%s\n", std::string(58, '-').c_str());
    std::vector<std::string> seen;
    for (const FootprintRow &row : footprints()) {
        bool duplicate = false;
        for (const std::string &name : seen)
            duplicate |= name == row.model;
        if (duplicate)
            continue;
        seen.push_back(row.model);
        const double planned_mib =
            static_cast<double>(row.planned) / (1024.0 * 1024.0);
        const double naive_mib =
            static_cast<double>(row.naive) / (1024.0 * 1024.0);
        std::printf("%-16s %14.2f %14.2f %9.1f%%\n", row.model.c_str(),
                    planned_mib, naive_mib,
                    row.naive > 0
                        ? 100.0 * (1.0 - planned_mib / naive_mib)
                        : 0.0);
    }

    // After the ms table: these cells are MiB.
    const std::size_t first_pool_cell = cells().size();
    for (const std::string &model :
         quick_mode() ? std::vector<std::string>{"tiny-cnn", "wrn-40-2"}
                      : std::vector<std::string>{"tiny-cnn", "wrn-40-2",
                                                 "resnet-50"})
        pool_cells(model);
    std::printf("\nengine pool weights and RSS rise (MiB):\n");
    for (std::size_t i = first_pool_cell; i < cells().size(); ++i)
        std::printf("%-16s %-18s %10.2f\n", cells()[i].row.c_str(),
                    cells()[i].column.c_str(), cells()[i].mean_ms);
    print_csv("model", "metric");
    write_json("memory");
    return status;
}
