#!/usr/bin/env python3
"""Regenerates the malformed-ONNX regression corpus.

Each file is a hand-crafted hostile byte pattern that a pre-hardening
importer either crashed on, over-allocated for, or mis-parsed. Files
named compile_*.onnx are well-formed ONNX that a pre-hardening engine
crashed on while compiling. The corpus is checked in; this script only
exists so the files can be audited and regenerated.
test_malformed_onnx.cpp replays every *.onnx file here and asserts a
clean typed rejection, at import or, for compile_*, when an engine
compiles the model (and tools/orpheus_fuzz --corpus does the same).
"""
import os
import struct

OUT = os.path.dirname(os.path.abspath(__file__))

# ONNX field numbers (see src/onnx/schema.hpp).
MODEL_GRAPH = 7
GRAPH_NODE = 1
GRAPH_NAME = 2
GRAPH_INITIALIZER = 5
GRAPH_OUTPUT = 12
NODE_INPUT = 1
NODE_OUTPUT = 2
NODE_OP_TYPE = 4
NODE_ATTRIBUTE = 5
ATTR_NAME = 1
ATTR_INT = 3
ATTR_INTS = 8
ATTR_TYPE = 20
ATTR_TYPE_INT = 2
ATTR_TYPE_INTS = 7
TENSOR_DIMS = 1
TENSOR_DATA_TYPE = 2
TENSOR_NAME = 8
TENSOR_RAW_DATA = 9
VALUE_INFO_NAME = 1
VALUE_INFO_TYPE = 2
TYPE_TENSOR_TYPE = 1
TENSOR_TYPE_ELEM_TYPE = 1
TENSOR_TYPE_SHAPE = 2
SHAPE_DIM = 1
DIM_VALUE = 1
GRAPH_INPUT = 11
FLOAT = 1
UINT8 = 2
INT8 = 3
INT32 = 6
INT64 = 7


def varint(value):
    out = bytearray()
    value &= (1 << 64) - 1
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def tag(field, wire_type):
    return varint((field << 3) | wire_type)


def ld(field, payload):
    """Length-delimited field."""
    return tag(field, 2) + varint(len(payload)) + payload


def vi(field, value):
    """Varint field (two's-complement for negatives, like protobuf)."""
    return tag(field, 0) + varint(value)


def tensor(dims, raw=b"", dtype=FLOAT, name=b"w"):
    body = b"".join(vi(TENSOR_DIMS, d) for d in dims)
    body += vi(TENSOR_DATA_TYPE, dtype)
    body += ld(TENSOR_NAME, name)
    body += ld(TENSOR_RAW_DATA, raw)
    return body


def model(graph_body):
    return ld(MODEL_GRAPH, graph_body)


def int_attribute(name, value):
    return (ld(ATTR_NAME, name) + vi(ATTR_INT, value)
            + vi(ATTR_TYPE, ATTR_TYPE_INT))


def ints_attribute(name, values):
    packed = b"".join(varint(v) for v in values)
    return (ld(ATTR_NAME, name) + ld(ATTR_INTS, packed)
            + vi(ATTR_TYPE, ATTR_TYPE_INTS))


def node(op_type, inputs, outputs, attributes=()):
    body = b"".join(ld(NODE_INPUT, name) for name in inputs)
    body += b"".join(ld(NODE_OUTPUT, name) for name in outputs)
    body += ld(NODE_OP_TYPE, op_type)
    return body + b"".join(ld(NODE_ATTRIBUTE, a) for a in attributes)


def value_info(name, dims, elem_type=FLOAT):
    shape = b"".join(ld(SHAPE_DIM, vi(DIM_VALUE, d)) for d in dims)
    tensor_type = vi(TENSOR_TYPE_ELEM_TYPE, elem_type)
    tensor_type += ld(TENSOR_TYPE_SHAPE, shape)
    return ld(VALUE_INFO_NAME, name) + ld(
        VALUE_INFO_TYPE, ld(TYPE_TENSOR_TYPE, tensor_type))


def qlinear_conv(in_c, weight_dims, bias_len, attributes):
    """A one-QLinearConv model over a uint8 [1, in_c, 6, 6] input: unit
    scales, zero points 0, an all-ones int8 weight and, when
    @p bias_len is set, an int32 bias of that many entries."""
    weight_count = 1
    for d in weight_dims:
        weight_count *= d
    scale = struct.pack("<f", 1.0)
    inputs = [b"x", b"s", b"zu", b"w", b"s", b"zi", b"s", b"zu"]
    body = ld(GRAPH_NAME, b"m")
    body += ld(GRAPH_INITIALIZER, tensor([], raw=scale, name=b"s"))
    body += ld(GRAPH_INITIALIZER,
               tensor([], raw=b"\x00", dtype=UINT8, name=b"zu"))
    body += ld(GRAPH_INITIALIZER,
               tensor([], raw=b"\x00", dtype=INT8, name=b"zi"))
    body += ld(GRAPH_INITIALIZER,
               tensor(weight_dims, raw=b"\x01" * weight_count, dtype=INT8,
                      name=b"w"))
    if bias_len:
        inputs.append(b"b")
        body += ld(GRAPH_INITIALIZER,
                   tensor([bias_len], raw=b"\x00" * 4 * bias_len,
                          dtype=INT32, name=b"b"))
    body += ld(GRAPH_NODE,
               node(b"QLinearConv", inputs, [b"y"], attributes))
    body += ld(GRAPH_INPUT, value_info(b"x", [1, in_c, 6, 6], UINT8))
    body += ld(GRAPH_OUTPUT,
               value_info(b"y", [1, weight_dims[0], 6, 6], UINT8))
    return model(body)


CORPUS = {
    # A lone continuation byte: the varint never terminates.
    "truncated_varint.onnx": b"\x80",
    # 11 continuation bytes exceed the 64-bit varint limit.
    "overlong_varint.onnx": b"\x08" + b"\xff" * 11,
    # Field 1 with deprecated group wire type 3.
    "bad_wire_type.onnx": b"\x0b",
    # Graph field claims a ~2^62-byte payload with no bytes behind it.
    "length_overrun.onnx": tag(MODEL_GRAPH, 2) + b"\xff" * 8 + b"\x3f",
    # (2^40)^3 elements: overflows the int64 element count. The seed
    # importer computed a wrapped allocation size from this.
    "huge_dims.onnx": model(
        ld(GRAPH_INITIALIZER, tensor([1 << 40, 1 << 40, 1 << 40]))),
    # 2^32 * 2^32 wraps to exactly 0, masquerading as an empty tensor.
    "overflow_wrap_to_zero.onnx": model(
        ld(GRAPH_INITIALIZER, tensor([1 << 32, 1 << 32]))),
    # Negative dimension (protobuf encodes it as a 10-byte varint).
    "negative_dim.onnx": model(ld(GRAPH_INITIALIZER, tensor([-1, 4]))),
    # raw_data carries 3 bytes for a 2x2 fp32 tensor (16 expected);
    # trusting the dims here reads past the payload.
    "raw_data_short.onnx": model(
        ld(GRAPH_INITIALIZER, tensor([2, 2], raw=b"\x00\x01\x02"))),
    # Nested length fields that each lie about the remaining size.
    "nested_length_lies.onnx": model(
        tag(GRAPH_INITIALIZER, 2) + varint(200) + tensor([4])),
    # Unknown tensor dtype 999.
    "unknown_dtype.onnx": model(
        ld(GRAPH_INITIALIZER, tensor([1], dtype=999))),
    # A [0, 3] initializer reshaped by the constant spec [0, -1]: the 0
    # copies a zero extent, and constant folding divided the element
    # count by the known product (0) and died with SIGFPE.
    "compile_reshape_zero_extent.onnx": model(
        ld(GRAPH_NAME, b"m")
        + ld(GRAPH_NODE, node(b"Reshape", [b"d", b"s"], [b"y"]))
        + ld(GRAPH_INITIALIZER, tensor([0, 3], name=b"d"))
        + ld(GRAPH_INITIALIZER,
             tensor([2], raw=struct.pack("<2q", 0, -1), dtype=INT64,
                    name=b"s"))
        + ld(GRAPH_OUTPUT, value_info(b"y", [0, 3]))),
    # QLinearConv whose kernel_shape (5x5) disagrees with its 3x3
    # weight: the int8 GEMM read 25 taps per channel from a weight row
    # of 9 (a heap over-read).
    "compile_qlinear_conv_kernel_shape.onnx": qlinear_conv(
        4, [8, 4, 3, 3], 0,
        [ints_attribute(b"kernel_shape", [5, 5]),
         ints_attribute(b"pads", [2, 2, 2, 2])]),
    # A 1-entry int32 bias on 8 output channels: requantization read
    # bias[oc] past its end.
    "compile_qlinear_conv_short_bias.onnx": qlinear_conv(
        4, [8, 4, 3, 3], 1, [ints_attribute(b"pads", [1, 1, 1, 1])]),
    # 5 output channels split into 2 groups: the last group's weight
    # rows run past the weight.
    "compile_qlinear_conv_group_remainder.onnx": qlinear_conv(
        4, [5, 2, 3, 3], 0,
        [int_attribute(b"group", 2),
         ints_attribute(b"pads", [1, 1, 1, 1])]),
}


def main():
    for name, data in sorted(CORPUS.items()):
        path = os.path.join(OUT, name)
        with open(path, "wb") as fh:
            fh.write(data)
        print(f"{name}: {len(data)} bytes")


if __name__ == "__main__":
    main()
