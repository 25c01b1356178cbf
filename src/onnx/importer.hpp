/**
 * @file
 * ONNX model import: serialised ModelProto bytes -> orpheus::Graph.
 *
 * The importer accepts the operator subset listed in graph/node.hpp,
 * resolves initialisers, drops graph-input declarations that merely
 * re-declare initialisers (a common exporter habit), and reports
 * everything it cannot handle through Status rather than exceptions —
 * model files are user input.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "graph/graph.hpp"

namespace orpheus {

/** Parsed, non-graph ONNX model metadata. */
struct OnnxModelInfo {
    std::int64_t ir_version = 0;
    std::int64_t opset_version = 0;
    std::string producer_name;
    std::string producer_version;
};

/**
 * Resource limits applied while parsing an untrusted model file.
 *
 * Model bytes come straight off disk or the network, so every count and
 * size the file claims is attacker-controlled. The importer enforces
 * these caps as it parses and reports violations as
 * StatusCode::kOutOfRange — before any oversized allocation happens.
 * The defaults are deliberately generous (they admit every model in the
 * zoo with room to spare) while still bounding memory and CPU; callers
 * ingesting from more hostile sources should tighten them.
 */
struct ImportLimits {
    /** Maximum size of the serialised model. */
    std::size_t max_model_bytes = std::size_t{1} << 31; // 2 GiB

    /** Maximum number of graph nodes. */
    std::size_t max_nodes = 1 << 20;

    /** Maximum number of graph initializers. */
    std::size_t max_initializers = 1 << 20;

    /** Maximum number of attributes on a single node. */
    std::size_t max_attributes = 256;

    /** Maximum byte size of a single tensor (initializer or attribute).
     *  Dim products are overflow-checked against int64 independently. */
    std::size_t max_tensor_bytes = std::size_t{1} << 31; // 2 GiB

    /** Maximum protobuf sub-message nesting depth. */
    int max_nesting_depth = 32;
};

/**
 * Parses @p bytes as an ONNX ModelProto into @p out_graph. @p out_info
 * (optional) receives model metadata. Malformed input yields
 * kParseError; input exceeding @p limits yields kOutOfRange. Never
 * throws, aborts, or allocates unbounded memory on hostile bytes.
 */
Status import_onnx(const std::uint8_t *bytes, std::size_t size,
                   Graph &out_graph, OnnxModelInfo *out_info = nullptr,
                   const ImportLimits &limits = {});

Status import_onnx(const std::vector<std::uint8_t> &bytes, Graph &out_graph,
                   OnnxModelInfo *out_info = nullptr,
                   const ImportLimits &limits = {});

/**
 * Imports the ONNX file at @p path through the same parser as
 * import_onnx(), holding about one copy of the weights at its peak.
 *
 * Before anything is read the file is opened and fstat'ed: a failed
 * open yields kNotFound, a path that is not a regular file (directory,
 * device, FIFO) yields kInvalidArgument, and a file larger than
 * ImportLimits::max_model_bytes yields kOutOfRange. The file is then
 * mapped read-only and scanned in place; each tensor payload is pread
 * straight into its own 64-byte-aligned tensor, and the pages of the
 * mapping already scanned are released as the scan moves on. The
 * mapping and descriptor are released on every return path.
 *
 * Precondition: the file is not truncated or rewritten in place while
 * it is imported (as with any mmap loader, a shrinking file can raise
 * SIGBUS). Replace a model file by writing a new file and renaming it
 * over the old one.
 */
Status import_onnx_file(const std::string &path, Graph &out_graph,
                        OnnxModelInfo *out_info = nullptr,
                        const ImportLimits &limits = {});

} // namespace orpheus
