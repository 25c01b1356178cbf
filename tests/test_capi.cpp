/** @file Tests for the C ABI (the binding surface). */
#include "capi/orpheus_c.h"

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "capi/status_map.hpp"
#include "core/rng.hpp"
#include "models/model_zoo.hpp"
#include "onnx/exporter.hpp"

namespace {

TEST(CApi, VersionAndInitialError)
{
    EXPECT_NE(std::string(orpheus_version()).find("orpheus"),
              std::string::npos);
}

TEST(CApi, SetNumThreadsValidates)
{
    EXPECT_EQ(orpheus_set_num_threads(1), ORPHEUS_OK);
    EXPECT_EQ(orpheus_set_num_threads(0), ORPHEUS_ERR_INVALID_ARGUMENT);
    EXPECT_NE(std::string(orpheus_last_error()).size(), 0u);
}

TEST(CApi, ZooEngineLifecycle)
{
    orpheus_engine *engine = orpheus_engine_create_zoo("tiny-cnn", nullptr);
    ASSERT_NE(engine, nullptr) << orpheus_last_error();
    EXPECT_EQ(orpheus_engine_input_count(engine), 1);
    EXPECT_EQ(orpheus_engine_output_count(engine), 1);
    EXPECT_GT(orpheus_engine_step_count(engine), 0);
    orpheus_engine_destroy(engine);
}

TEST(CApi, UnknownModelReturnsNullWithMessage)
{
    orpheus_engine *engine = orpheus_engine_create_zoo("vgg-999", nullptr);
    EXPECT_EQ(engine, nullptr);
    EXPECT_NE(std::string(orpheus_last_error()).find("vgg-999"),
              std::string::npos);
    EXPECT_EQ(orpheus_engine_create_zoo(nullptr, nullptr), nullptr);
}

TEST(CApi, ShapeQueries)
{
    orpheus_engine *engine = orpheus_engine_create_zoo("tiny-cnn", nullptr);
    ASSERT_NE(engine, nullptr);

    int64_t dims[8];
    int rank = 8;
    ASSERT_EQ(orpheus_engine_input_shape(engine, 0, dims, &rank),
              ORPHEUS_OK);
    EXPECT_EQ(rank, 4);
    EXPECT_EQ(dims[0], 1);
    EXPECT_EQ(dims[1], 3);
    EXPECT_EQ(dims[2], 8);
    EXPECT_EQ(dims[3], 8);

    rank = 8;
    ASSERT_EQ(orpheus_engine_output_shape(engine, 0, dims, &rank),
              ORPHEUS_OK);
    EXPECT_EQ(rank, 2);
    EXPECT_EQ(dims[1], 10);

    rank = 1; // Too small.
    EXPECT_EQ(orpheus_engine_input_shape(engine, 0, dims, &rank),
              ORPHEUS_ERR_BUFFER_TOO_SMALL);
    EXPECT_EQ(rank, 4) << "required rank must be reported";

    rank = 8;
    EXPECT_EQ(orpheus_engine_input_shape(engine, 5, dims, &rank),
              ORPHEUS_ERR_NOT_FOUND);

    orpheus_engine_destroy(engine);
}

TEST(CApi, RunProducesDistribution)
{
    orpheus_engine *engine = orpheus_engine_create_zoo("tiny-cnn", nullptr);
    ASSERT_NE(engine, nullptr);

    std::vector<float> input(3 * 8 * 8);
    orpheus::Rng rng(0xca11);
    for (float &value : input)
        value = rng.uniform(-1.0f, 1.0f);
    std::vector<float> output(10, -1.0f);

    ASSERT_EQ(orpheus_engine_run(engine, input.data(), input.size(),
                                 output.data(), output.size()),
              ORPHEUS_OK)
        << orpheus_last_error();
    double sum = 0.0;
    for (float value : output) {
        EXPECT_GE(value, 0.0f);
        sum += value;
    }
    EXPECT_NEAR(sum, 1.0, 1e-4);

    // Size validation.
    EXPECT_EQ(orpheus_engine_run(engine, input.data(), 5, output.data(),
                                 output.size()),
              ORPHEUS_ERR_INVALID_ARGUMENT);
    EXPECT_EQ(orpheus_engine_run(engine, input.data(), input.size(),
                                 output.data(), 3),
              ORPHEUS_ERR_BUFFER_TOO_SMALL);
    EXPECT_EQ(orpheus_engine_run(nullptr, input.data(), input.size(),
                                 output.data(), output.size()),
              ORPHEUS_ERR_INVALID_ARGUMENT);

    orpheus_engine_destroy(engine);
}

TEST(CApi, ProfileCsvAfterRuns)
{
    orpheus_engine *engine = orpheus_engine_create_zoo("tiny-mlp", nullptr);
    ASSERT_NE(engine, nullptr);

    std::vector<float> input(32, 0.5f);
    std::vector<float> output(10);
    ASSERT_EQ(orpheus_engine_run(engine, input.data(), input.size(),
                                 output.data(), output.size()),
              ORPHEUS_OK);

    char buffer[4096];
    const int length =
        orpheus_engine_profile_csv(engine, buffer, sizeof(buffer));
    EXPECT_GT(length, 0);
    EXPECT_NE(std::string(buffer).find("node,op,impl"), std::string::npos);

    // Truncation behaves like snprintf.
    char tiny[8];
    const int full_length = orpheus_engine_profile_csv(engine, tiny, 8);
    EXPECT_EQ(full_length, length);
    EXPECT_EQ(std::strlen(tiny), 7u);

    orpheus_engine_destroy(engine);
}

/** The C profile is the one per-layer CSV: its exact header, then one
 *  row per plan step counting every run. */
TEST(CApi, ProfileCsvCountsEveryRunPerStep)
{
    orpheus_engine *engine = orpheus_engine_create_zoo("tiny-mlp", nullptr);
    ASSERT_NE(engine, nullptr);

    std::vector<float> input(32, 0.5f);
    std::vector<float> output(10);
    for (int run = 0; run < 2; ++run)
        ASSERT_EQ(orpheus_engine_run(engine, input.data(), input.size(),
                                     output.data(), output.size()),
                  ORPHEUS_OK);

    std::string csv(static_cast<std::size_t>(
                        orpheus_engine_profile_csv(engine, nullptr, 0)),
                    '\0');
    orpheus_engine_profile_csv(engine, csv.data(), csv.size() + 1);
    std::istringstream lines(csv);
    std::string line;
    ASSERT_TRUE(std::getline(lines, line));
    EXPECT_EQ(line, "node,op,impl,output_shape,calls,total_ms,mean_ms");
    int rows = 0;
    while (std::getline(lines, line)) {
        // node,op,impl,"shape",calls,total_ms,mean_ms — the quoted
        // shape may hold commas, so read the fields after it.
        const std::size_t shape_end = line.rfind("\",");
        ASSERT_NE(shape_end, std::string::npos) << line;
        const std::string calls = line.substr(
            shape_end + 2, line.find(',', shape_end + 2) - shape_end - 2);
        EXPECT_EQ(calls, "2") << line;
        ++rows;
    }
    EXPECT_EQ(rows, orpheus_engine_step_count(engine));

    orpheus_engine_destroy(engine);
}

TEST(CApi, PersonalitySelection)
{
    orpheus_engine *engine =
        orpheus_engine_create_zoo("tiny-cnn", "pytorch");
    ASSERT_NE(engine, nullptr) << orpheus_last_error();
    orpheus_engine_destroy(engine);

    EXPECT_EQ(orpheus_engine_create_zoo("tiny-cnn", "unknown-framework"),
              nullptr);
}

TEST(CApi, ErrorCodesAreStableAbiValues)
{
    // These values are published ABI: bindings hard-code them, so they
    // must never change meaning.
    EXPECT_EQ(ORPHEUS_OK, 0);
    EXPECT_EQ(ORPHEUS_ERR_INVALID_ARGUMENT, -1);
    EXPECT_EQ(ORPHEUS_ERR_NOT_FOUND, -2);
    EXPECT_EQ(ORPHEUS_ERR_RUNTIME, -3);
    EXPECT_EQ(ORPHEUS_ERR_BUFFER_TOO_SMALL, -4);
    EXPECT_EQ(ORPHEUS_ERR_DEADLINE_EXCEEDED, -5);
    EXPECT_EQ(ORPHEUS_ERR_RESOURCE_EXHAUSTED, -6);
    EXPECT_EQ(ORPHEUS_ERR_DATA_CORRUPTION, -7);
    EXPECT_EQ(ORPHEUS_ERR_UNIMPLEMENTED, -8);
    EXPECT_EQ(ORPHEUS_ERR_OUT_OF_RANGE, -9);
    EXPECT_EQ(ORPHEUS_ERR_FAILED_PRECONDITION, -10);
    EXPECT_EQ(ORPHEUS_ERR_PARSE, -11);
    EXPECT_EQ(ORPHEUS_ERR_MODEL_REJECTED, -12);
}

TEST(CApi, StatusCodesRoundTripThroughCCodes)
{
    using orpheus::StatusCode;
    // The mapping table itself is the exhaustiveness witness: its size
    // is pinned to the enumerator count by a static_assert in
    // status_map.hpp, so iterating it covers every StatusCode.
    for (const orpheus::capi::StatusCodeMapping &entry :
         orpheus::capi::kStatusCodeTable) {
        const int c_code = orpheus::capi::to_c_code(entry.status);
        EXPECT_EQ(c_code, entry.c_code);
        EXPECT_EQ(orpheus::capi::from_c_code(c_code), entry.status)
            << "C code " << c_code;
        if (entry.status != StatusCode::kOk)
            EXPECT_LT(c_code, 0);
    }
    EXPECT_EQ(orpheus::capi::to_c_code(StatusCode::kDataCorruption),
              ORPHEUS_ERR_DATA_CORRUPTION);
    EXPECT_EQ(orpheus::capi::to_c_code(StatusCode::kModelRejected),
              ORPHEUS_ERR_MODEL_REJECTED);
    // Unknown C codes degrade to kInternal rather than UB.
    EXPECT_EQ(orpheus::capi::from_c_code(-999),
              orpheus::StatusCode::kInternal);
}

TEST(CApi, EveryStatusCodeHasAnErrorName)
{
    // Every StatusCode — kModelRejected (−12) included — must
    // round-trip through orpheus_error_name with a real name: a
    // newly-added code that falls back to "Unknown" means the C ABI
    // table fell out of sync with the StatusCode enum.
    for (const orpheus::capi::StatusCodeMapping &entry :
         orpheus::capi::kStatusCodeTable) {
        const char *name = orpheus_error_name(entry.c_code);
        EXPECT_STRNE(name, "Unknown")
            << "C code " << entry.c_code << " has no name";
        EXPECT_STREQ(name, orpheus::to_string(entry.status))
            << "C code " << entry.c_code;
    }
}

TEST(CApi, ErrorNamesMatchStatusCodes)
{
    EXPECT_STREQ(orpheus_error_name(ORPHEUS_OK), "OK");
    EXPECT_STREQ(orpheus_error_name(ORPHEUS_ERR_DATA_CORRUPTION),
                 "DataCorruption");
    EXPECT_STREQ(orpheus_error_name(ORPHEUS_ERR_DEADLINE_EXCEEDED),
                 "DeadlineExceeded");
    EXPECT_STREQ(orpheus_error_name(ORPHEUS_ERR_RESOURCE_EXHAUSTED),
                 "ResourceExhausted");
    EXPECT_STREQ(orpheus_error_name(ORPHEUS_ERR_MODEL_REJECTED),
                 "ModelRejected");
    EXPECT_STREQ(orpheus_error_name(ORPHEUS_ERR_BUFFER_TOO_SMALL),
                 "BufferTooSmall");
    EXPECT_STREQ(orpheus_error_name(-999), "Unknown");
}

TEST(CApi, SetGuardValidatesAndRunsClean)
{
    orpheus_engine *engine = orpheus_engine_create_zoo("tiny-mlp", nullptr);
    ASSERT_NE(engine, nullptr);

    EXPECT_EQ(orpheus_engine_set_guard(nullptr, 1, 0),
              ORPHEUS_ERR_INVALID_ARGUMENT);
    EXPECT_EQ(orpheus_engine_set_guard(engine, 1, -2),
              ORPHEUS_ERR_INVALID_ARGUMENT);
    ASSERT_EQ(orpheus_engine_set_guard(engine, 1, 1), ORPHEUS_OK);

    // A healthy model runs guarded without tripping anything.
    std::vector<float> input(32, 0.5f);
    std::vector<float> output(10);
    EXPECT_EQ(orpheus_engine_run(engine, input.data(), input.size(),
                                 output.data(), output.size()),
              ORPHEUS_OK)
        << orpheus_last_error();

    ASSERT_EQ(orpheus_engine_set_guard(engine, 0, 0), ORPHEUS_OK);
    orpheus_engine_destroy(engine);
}

TEST(CApi, CreateFromOnnxFile)
{
    const std::string path = ::testing::TempDir() + "/capi_model.onnx";
    ASSERT_TRUE(
        orpheus::export_onnx_file(orpheus::models::tiny_mlp(), path)
            .is_ok());

    orpheus_engine *engine =
        orpheus_engine_create_from_file(path.c_str(), nullptr);
    ASSERT_NE(engine, nullptr) << orpheus_last_error();
    EXPECT_EQ(orpheus_engine_input_count(engine), 1);
    orpheus_engine_destroy(engine);

    EXPECT_EQ(orpheus_engine_create_from_file("/no/such/file.onnx",
                                              nullptr),
              nullptr);
    std::remove(path.c_str());
}

TEST(CApi, ServiceLifecycleRunAndStats)
{
    orpheus_service_config config{};
    config.workers = 1;
    config.replicas = 2;
    config.max_retries = 1;
    orpheus_service *service =
        orpheus_service_create_zoo("tiny-cnn", nullptr, &config);
    ASSERT_NE(service, nullptr) << orpheus_last_error();
    EXPECT_EQ(orpheus_service_replica_count(service), 2);

    std::vector<float> input(3 * 8 * 8);
    orpheus::Rng rng(0x5eca);
    for (float &value : input)
        value = rng.uniform(-1.0f, 1.0f);
    std::vector<float> output(10, -1.0f);
    int retries = -1;
    ASSERT_EQ(orpheus_service_run(service, input.data(), input.size(),
                                  output.data(), output.size(),
                                  ORPHEUS_PRIORITY_INTERACTIVE,
                                  /*deadline_ms=*/0, &retries),
              ORPHEUS_OK)
        << orpheus_last_error();
    EXPECT_EQ(retries, 0);
    double sum = 0.0;
    for (float value : output)
        sum += value;
    EXPECT_NEAR(sum, 1.0, 1e-3); // Softmax head.

    // A real-time request routes through its own lane and histogram.
    ASSERT_EQ(orpheus_service_run(service, input.data(), input.size(),
                                  output.data(), output.size(),
                                  ORPHEUS_PRIORITY_REALTIME,
                                  /*deadline_ms=*/0, &retries),
              ORPHEUS_OK)
        << orpheus_last_error();

    orpheus_service_stats stats{};
    ASSERT_EQ(orpheus_service_query_stats(service, &stats), ORPHEUS_OK);
    EXPECT_EQ(stats.submitted, 2);
    EXPECT_EQ(stats.completed_ok, 2);
    EXPECT_GT(stats.latency_p50_ms, 0.0);
    EXPECT_EQ(stats.class_count[ORPHEUS_PRIORITY_REALTIME], 1);
    EXPECT_EQ(stats.class_count[ORPHEUS_PRIORITY_INTERACTIVE], 1);
    EXPECT_EQ(stats.class_count[ORPHEUS_PRIORITY_BATCH], 0);
    EXPECT_GT(stats.class_p50_ms[ORPHEUS_PRIORITY_REALTIME], 0.0);
    EXPECT_EQ(stats.rejected_infeasible, 0);

    // Buffer and argument validation mirror orpheus_engine_run.
    EXPECT_EQ(orpheus_service_run(service, input.data(), 5,
                                  output.data(), output.size(),
                                  ORPHEUS_PRIORITY_INTERACTIVE, 0,
                                  nullptr),
              ORPHEUS_ERR_INVALID_ARGUMENT);
    EXPECT_EQ(orpheus_service_run(nullptr, input.data(), input.size(),
                                  output.data(), output.size(),
                                  ORPHEUS_PRIORITY_INTERACTIVE, 0,
                                  nullptr),
              ORPHEUS_ERR_INVALID_ARGUMENT);
    EXPECT_EQ(orpheus_service_run(service, input.data(), input.size(),
                                  output.data(), output.size(),
                                  /*priority=*/99, 0, nullptr),
              ORPHEUS_ERR_INVALID_ARGUMENT);

    orpheus_service_destroy(service);
    orpheus_service_destroy(nullptr); // Must be a safe no-op.
    EXPECT_EQ(orpheus_service_create_zoo(nullptr, nullptr, &config),
              nullptr);
}

TEST(CApi, ServiceReloadAndShutdown)
{
    orpheus_service_config config{};
    config.workers = 1;
    config.replicas = 2;
    orpheus_service *service =
        orpheus_service_create_zoo("tiny-cnn", nullptr, &config);
    ASSERT_NE(service, nullptr) << orpheus_last_error();

    // A model with a different signature is rejected through the
    // canary lifecycle; the incumbent keeps serving.
    EXPECT_EQ(orpheus_service_reload_zoo(service, "tiny-mlp", nullptr,
                                         /*canary_fraction=*/0,
                                         /*min_canary_samples=*/0),
              ORPHEUS_ERR_MODEL_REJECTED);
    orpheus_service_stats stats{};
    ASSERT_EQ(orpheus_service_query_stats(service, &stats), ORPHEUS_OK);
    EXPECT_EQ(stats.active_generation, 1u);
    EXPECT_EQ(stats.model_rollbacks, 1);

    std::vector<float> input(3 * 8 * 8, 0.25f);
    std::vector<float> output(10, -1.0f);
    ASSERT_EQ(orpheus_service_run(service, input.data(), input.size(),
                                  output.data(), output.size(),
                                  ORPHEUS_PRIORITY_INTERACTIVE, 0,
                                  nullptr),
              ORPHEUS_OK)
        << orpheus_last_error();

    // Reloading onto a signature-compatible model promotes it.
    ASSERT_EQ(orpheus_service_reload_zoo(service, "tiny-cnn", nullptr, 0,
                                         0),
              ORPHEUS_OK)
        << orpheus_last_error();
    ASSERT_EQ(orpheus_service_query_stats(service, &stats), ORPHEUS_OK);
    // The rejected generation consumed id 2; the promoted one is 3.
    EXPECT_EQ(stats.active_generation, 3u);
    EXPECT_GE(stats.model_swaps, 2);

    EXPECT_EQ(orpheus_service_shutdown(service, /*deadline_ms=*/0),
              ORPHEUS_OK);
    // After shutdown the service rejects work but stays queryable.
    EXPECT_NE(orpheus_service_run(service, input.data(), input.size(),
                                  output.data(), output.size(),
                                  ORPHEUS_PRIORITY_INTERACTIVE, 0,
                                  nullptr),
              ORPHEUS_OK);
    EXPECT_EQ(orpheus_service_shutdown(nullptr, 0),
              ORPHEUS_ERR_INVALID_ARGUMENT);
    orpheus_service_destroy(service);
}

} // namespace
