#include "eval/experiment.hpp"

#include <sstream>

#include "core/rng.hpp"
#include "core/timer.hpp"

namespace orpheus {

ExperimentResult
time_callable(const std::string &name, const std::function<void()> &fn,
              const ExperimentConfig &config)
{
    for (int i = 0; i < config.warmup_runs; ++i)
        fn();

    ExperimentResult result;
    result.name = name;
    result.samples_ms.reserve(static_cast<std::size_t>(config.timed_runs));
    Timer timer;
    for (int i = 0; i < config.timed_runs; ++i) {
        timer.start();
        fn();
        result.samples_ms.push_back(timer.elapsed_ms());
    }
    result.stats = compute_stats(result.samples_ms);
    return result;
}

ExperimentResult
time_inference(Engine &engine, const ExperimentConfig &config,
               std::uint64_t input_seed)
{
    ORPHEUS_CHECK(engine.request_inputs().size() == 1,
                  "time_inference expects a single-input graph");
    const ValueInfo &input_info = engine.request_inputs().front();
    Rng rng(input_seed);
    Tensor input = random_tensor(input_info.shape, rng, -1.0f, 1.0f);

    return time_callable(engine.graph().name(),
                         [&] { (void)engine.run(input); }, config);
}

std::string
results_to_csv(const std::vector<ExperimentResult> &results)
{
    std::ostringstream out;
    out << "name,mean_ms,median_ms,min_ms,max_ms,stddev_ms,runs\n";
    for (const ExperimentResult &result : results) {
        out << result.name << ',' << result.stats.mean << ','
            << result.stats.median << ',' << result.stats.min << ','
            << result.stats.max << ',' << result.stats.stddev << ','
            << result.stats.count << "\n";
    }
    return out.str();
}

} // namespace orpheus
