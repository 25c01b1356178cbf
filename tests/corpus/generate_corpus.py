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
FLOAT = 1
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


def node(op_type, inputs, outputs):
    body = b"".join(ld(NODE_INPUT, name) for name in inputs)
    body += b"".join(ld(NODE_OUTPUT, name) for name in outputs)
    return body + ld(NODE_OP_TYPE, op_type)


def value_info(name, dims):
    shape = b"".join(ld(SHAPE_DIM, vi(DIM_VALUE, d)) for d in dims)
    tensor_type = vi(TENSOR_TYPE_ELEM_TYPE, FLOAT)
    tensor_type += ld(TENSOR_TYPE_SHAPE, shape)
    return ld(VALUE_INFO_NAME, name) + ld(
        VALUE_INFO_TYPE, ld(TYPE_TENSOR_TYPE, tensor_type))


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
}


def main():
    for name, data in sorted(CORPUS.items()):
        path = os.path.join(OUT, name)
        with open(path, "wb") as fh:
            fh.write(data)
        print(f"{name}: {len(data)} bytes")


if __name__ == "__main__":
    main()
