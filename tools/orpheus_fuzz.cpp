/**
 * @file
 * Deterministic mutation fuzzer for the ONNX import path.
 *
 * The importer is the single place where untrusted bytes enter Orpheus,
 * so it carries a hard contract: for ANY input it either imports
 * successfully or returns a typed Status — never an uncaught exception,
 * abort, hang, or out-of-bounds access (run under ASan/UBSan via
 * tools/run_sanitizers.sh to check the latter).
 *
 * The harness seeds from exporter-produced model-zoo bytes (so mutants
 * start structurally close to real models and reach deep into the
 * parser), applies RNG-driven mutations — truncation, bit flips,
 * length/varint corruption, dim inflation, splices — and checks the
 * contract on every mutant. Inputs that break the contract are written
 * to --save-crashes for triage; tests/corpus/ holds the regression set
 * replayed by test_malformed_onnx and by --corpus. A corpus file that
 * imports is also compiled into an Engine on replay, which must succeed
 * or throw orpheus::Error (compile_*.onnx files are models that once
 * crashed the compiler).
 *
 * Everything is seeded (xoshiro256**), so a run is reproducible from
 * its --seed.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "core/status.hpp"
#include "models/model_zoo.hpp"
#include "onnx/exporter.hpp"
#include "onnx/importer.hpp"
#include "runtime/engine.hpp"

namespace {

using orpheus::ImportLimits;
using orpheus::Rng;
using orpheus::Status;
using orpheus::StatusCode;

struct FuzzOptions {
    std::uint64_t iterations = 50000;
    std::uint64_t seed = 0xf0220ed;
    std::string corpus_dir;       // replay-only mode when set
    std::string save_crashes_dir; // where contract violations land
    bool verbose = false;
};

/** Limits used while fuzzing: small enough that a mutant which smuggles
 *  a structurally valid huge tensor through is rejected instead of
 *  stalling the run on a gigabyte allocation. */
ImportLimits
fuzz_limits()
{
    ImportLimits limits;
    limits.max_model_bytes = std::size_t{64} << 20;  // 64 MiB
    limits.max_tensor_bytes = std::size_t{16} << 20; // 16 MiB
    limits.max_nodes = 4096;
    limits.max_initializers = 4096;
    limits.max_attributes = 64;
    limits.max_nesting_depth = 32;
    return limits;
}

std::vector<std::vector<std::uint8_t>>
build_seeds()
{
    std::vector<std::vector<std::uint8_t>> seeds;
    seeds.push_back(orpheus::export_onnx(orpheus::models::tiny_cnn()));
    seeds.push_back(orpheus::export_onnx(orpheus::models::tiny_mlp()));
    return seeds;
}

/** One mutation operator applied in place. */
void
mutate_once(std::vector<std::uint8_t> &bytes, Rng &rng)
{
    if (bytes.empty()) {
        bytes.push_back(static_cast<std::uint8_t>(rng.next_u64()));
        return;
    }
    const std::size_t size = bytes.size();
    switch (rng.uniform_int(0, 7)) {
      case 0: { // Truncate the tail.
        bytes.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size) - 1)));
        break;
      }
      case 1: { // Flip 1..16 random bits.
        const int flips = static_cast<int>(rng.uniform_int(1, 16));
        for (int i = 0; i < flips; ++i) {
            const std::size_t at = static_cast<std::size_t>(
                rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
            bytes[at] ^= static_cast<std::uint8_t>(
                1u << rng.uniform_int(0, 7));
        }
        break;
      }
      case 2: { // Overwrite a short range with random bytes.
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
        const std::size_t len = std::min(
            size - at,
            static_cast<std::size_t>(rng.uniform_int(1, 32)));
        for (std::size_t i = 0; i < len; ++i)
            bytes[at + i] = static_cast<std::uint8_t>(rng.next_u64());
        break;
      }
      case 3: { // Insert random bytes.
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size)));
        const int len = static_cast<int>(rng.uniform_int(1, 64));
        std::vector<std::uint8_t> chunk;
        chunk.reserve(static_cast<std::size_t>(len));
        for (int i = 0; i < len; ++i)
            chunk.push_back(static_cast<std::uint8_t>(rng.next_u64()));
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     chunk.begin(), chunk.end());
        break;
      }
      case 4: { // Delete a range.
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
        const std::size_t len = std::min(
            size - at,
            static_cast<std::size_t>(rng.uniform_int(1, 64)));
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                    bytes.begin() + static_cast<std::ptrdiff_t>(at + len));
        break;
      }
      case 5: { // Varint/length corruption: a run of continuation bytes.
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
        const std::size_t len =
            std::min(size - at,
                     static_cast<std::size_t>(rng.uniform_int(1, 12)));
        for (std::size_t i = 0; i < len; ++i)
            bytes[at + i] = 0xFF; // dim inflation / overlong varints
        break;
      }
      case 6: { // Zero a range (kills tags and lengths).
        const std::size_t at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
        const std::size_t len = std::min(
            size - at,
            static_cast<std::size_t>(rng.uniform_int(1, 32)));
        std::memset(bytes.data() + at, 0, len);
        break;
      }
      default: { // Splice one region over another.
        const std::size_t src = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
        const std::size_t dst = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
        const std::size_t len = std::min(
            {size - src, size - dst,
             static_cast<std::size_t>(rng.uniform_int(1, 128))});
        std::memmove(bytes.data() + dst, bytes.data() + src, len);
        break;
      }
    }
}

/**
 * The contract under test. Returns true when the importer handled
 * @p bytes cleanly (success or typed Status); false when an exception
 * escaped — a contract violation.
 */
bool
check_import_contract(const std::vector<std::uint8_t> &bytes,
                      const ImportLimits &limits, Status &status_out,
                      std::string &violation_out)
{
    try {
        orpheus::Graph graph;
        status_out = orpheus::import_onnx(bytes.data(), bytes.size(), graph,
                                          nullptr, limits);
        return true;
    } catch (const std::exception &e) {
        violation_out = std::string("exception escaped import_onnx: ") +
                        e.what();
        return false;
    } catch (...) {
        violation_out = "non-std exception escaped import_onnx";
        return false;
    }
}

/** The file entry point on the same input: it must keep the contract
 *  and return the same StatusCode as the bytes entry point did. */
bool
check_file_contract(const std::string &path, const ImportLimits &limits,
                    const Status &bytes_status, std::string &violation_out)
{
    try {
        orpheus::Graph graph;
        const Status status =
            orpheus::import_onnx_file(path, graph, nullptr, limits);
        if (status.code() == bytes_status.code())
            return true;
        violation_out = "import_onnx_file gave " + status.to_string() +
                        " where import_onnx gave " +
                        bytes_status.to_string();
        return false;
    } catch (const std::exception &e) {
        violation_out = std::string("exception escaped import_onnx_file: ") +
                        e.what();
        return false;
    } catch (...) {
        violation_out = "non-std exception escaped import_onnx_file";
        return false;
    }
}

/** Compiles an imported corpus model: an orpheus::Error is a typed
 *  rejection, anything else escaping is a violation (a crash ends the
 *  replay, which CI reports). */
bool
check_compile_contract(const std::string &path, std::string &violation_out)
{
    orpheus::Graph graph;
    if (!orpheus::import_onnx_file(path, graph).is_ok())
        return true;
    try {
        orpheus::Engine engine(std::move(graph));
    } catch (const orpheus::Error &) {
    } catch (const std::exception &e) {
        violation_out =
            std::string("untyped exception escaped Engine: ") + e.what();
        return false;
    }
    return true;
}

void
save_crash(const std::string &dir, std::uint64_t iteration,
           const std::vector<std::uint8_t> &bytes)
{
    std::filesystem::create_directories(dir);
    const std::string path =
        dir + "/crash-" + std::to_string(iteration) + ".onnx";
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::fprintf(stderr, "  crasher written to %s\n", path.c_str());
}

int
replay_corpus(const std::string &dir, const ImportLimits &limits)
{
    if (!std::filesystem::is_directory(dir)) {
        std::fprintf(stderr, "corpus directory not found: %s\n",
                     dir.c_str());
        return 2;
    }
    std::size_t files = 0, violations = 0;
    std::vector<std::filesystem::path> paths;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        if (entry.is_regular_file())
            paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    for (const auto &path : paths) {
        std::ifstream in(path, std::ios::binary | std::ios::ate);
        std::vector<std::uint8_t> bytes(
            static_cast<std::size_t>(in.tellg()));
        in.seekg(0);
        in.read(reinterpret_cast<char *>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        ++files;
        Status status;
        std::string violation;
        if (!in) {
            ++violations;
            std::fprintf(stderr, "cannot read %s\n", path.c_str());
        } else if (!check_import_contract(bytes, limits, status,
                                          violation) ||
                   !check_file_contract(path.string(), limits, status,
                                        violation) ||
                   !check_compile_contract(path.string(), violation)) {
            ++violations;
            std::fprintf(stderr, "VIOLATION %s: %s\n", path.c_str(),
                         violation.c_str());
        } else {
            std::printf("%-40s -> %s\n", path.filename().c_str(),
                        status.to_string().c_str());
        }
    }
    std::printf("replayed %zu corpus files, %zu contract violations\n",
                files, violations);
    return violations == 0 ? 0 : 1;
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [--iterations N] [--seed S] [--corpus DIR]\n"
        "          [--save-crashes DIR] [--verbose]\n"
        "\n"
        "Mutation-fuzzes the ONNX importer from model-zoo seeds. With\n"
        "--corpus, replays a directory of regression inputs instead,\n"
        "through both import_onnx and import_onnx_file, which must agree.\n"
        "Exits non-zero if any input violates the import contract\n"
        "(exception escapes / crash) — typed Status rejections are the\n"
        "expected outcome for malformed bytes.\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--iterations") {
            opts.iterations = std::stoull(next("--iterations"));
        } else if (arg == "--seed") {
            opts.seed = std::stoull(next("--seed"));
        } else if (arg == "--corpus") {
            opts.corpus_dir = next("--corpus");
        } else if (arg == "--save-crashes") {
            opts.save_crashes_dir = next("--save-crashes");
        } else if (arg == "--verbose") {
            opts.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    const ImportLimits limits = fuzz_limits();
    if (!opts.corpus_dir.empty())
        return replay_corpus(opts.corpus_dir, limits);

    const auto seeds = build_seeds();
    std::printf("fuzzing ONNX importer: %llu iterations, %zu seeds, "
                "seed 0x%llx\n",
                static_cast<unsigned long long>(opts.iterations),
                seeds.size(),
                static_cast<unsigned long long>(opts.seed));

    // Sanity: every unmutated seed must import cleanly.
    for (std::size_t s = 0; s < seeds.size(); ++s) {
        Status status;
        std::string violation;
        if (!check_import_contract(seeds[s], limits, status, violation) ||
            !status.is_ok()) {
            std::fprintf(stderr, "seed %zu does not import cleanly: %s\n",
                         s,
                         violation.empty() ? status.to_string().c_str()
                                           : violation.c_str());
            return 2;
        }
    }

    Rng rng(opts.seed);
    std::uint64_t violations = 0;
    std::uint64_t accepted = 0;
    std::map<std::string, std::uint64_t> rejections;

    for (std::uint64_t iter = 0; iter < opts.iterations; ++iter) {
        std::vector<std::uint8_t> mutant =
            seeds[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(seeds.size()) - 1))];
        const int rounds = static_cast<int>(rng.uniform_int(1, 4));
        for (int r = 0; r < rounds; ++r)
            mutate_once(mutant, rng);

        Status status;
        std::string violation;
        if (!check_import_contract(mutant, limits, status, violation)) {
            ++violations;
            std::fprintf(stderr, "iteration %llu: %s\n",
                         static_cast<unsigned long long>(iter),
                         violation.c_str());
            if (!opts.save_crashes_dir.empty())
                save_crash(opts.save_crashes_dir, iter, mutant);
            continue;
        }
        if (status.is_ok()) {
            ++accepted;
        } else {
            ++rejections[orpheus::to_string(status.code())];
            if (opts.verbose)
                std::printf("iteration %llu: %s\n",
                            static_cast<unsigned long long>(iter),
                            status.to_string().c_str());
        }
    }

    std::printf("done: %llu mutants — %llu imported, %llu rejected, "
                "%llu contract violations\n",
                static_cast<unsigned long long>(opts.iterations),
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(opts.iterations - accepted -
                                                violations),
                static_cast<unsigned long long>(violations));
    for (const auto &[code, count] : rejections)
        std::printf("  %-18s %llu\n", code.c_str(),
                    static_cast<unsigned long long>(count));
    return violations == 0 ? 0 : 1;
}
