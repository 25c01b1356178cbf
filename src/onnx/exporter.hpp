/**
 * @file
 * ONNX model export: orpheus::Graph -> serialised ModelProto bytes.
 *
 * The exporter serves two roles: it lets Orpheus users hand models back
 * to other toolchains, and — together with the importer — it closes the
 * round-trip loop that the test suite and the model zoo use, so every
 * network in the evaluation flows through the real model-loading path.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "graph/graph.hpp"

namespace orpheus {

/**
 * Serialises @p graph as an ONNX ModelProto (IR version 7, opset 11,
 * producer "orpheus" 1.0.0). Throws orpheus::Error if the graph holds
 * attribute kinds ONNX cannot express.
 */
std::vector<std::uint8_t> export_onnx(const Graph &graph);

/** Serialises and writes to @p path. */
Status export_onnx_file(const Graph &graph, const std::string &path);

} // namespace orpheus
