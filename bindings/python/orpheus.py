"""Python bindings for the Orpheus edge-inference framework.

The paper exposes Orpheus "with the option of using Python bindings" so
that experiments embed in scripted workflows; this module is that
binding, implemented with ctypes over the stable C ABI
(src/capi/orpheus_c.h). It has no dependencies beyond the standard
library — numpy arrays are accepted when numpy is present, but plain
lists and array('f') buffers work everywhere.

Example:

    import orpheus

    orpheus.set_num_threads(1)           # the paper's configuration
    engine = orpheus.Engine.from_zoo("resnet-18", personality="orpheus")
    probabilities = engine.run([0.0] * engine.input_size)
    print(engine.input_shape, "->", engine.output_shape)
    print(max(probabilities))
"""

from __future__ import annotations

import ctypes
import os
from array import array
from typing import List, Optional, Sequence

__all__ = ["Engine", "OrpheusError", "set_num_threads", "version"]

_ORPHEUS_OK = 0


class OrpheusError(RuntimeError):
    """Raised when the Orpheus runtime reports an error."""


def _candidate_library_paths() -> List[str]:
    """Locations tried for liborpheus_c, most specific first."""
    names = ["liborpheus_c.so", "liborpheus_c.dylib"]
    roots = []
    env = os.environ.get("ORPHEUS_LIBRARY_PATH")
    if env:
        roots.append(env)
    here = os.path.dirname(os.path.abspath(__file__))
    # In-tree build layout: <repo>/bindings/python -> <repo>/build/...
    repo = os.path.dirname(os.path.dirname(here))
    roots.append(os.path.join(repo, "build", "src", "capi"))
    roots.append(here)
    paths = []
    for root in roots:
        for name in names:
            paths.append(os.path.join(root, name))
    paths.extend(names)  # Fall back to the system loader's search path.
    return paths


def _load_library() -> ctypes.CDLL:
    last_error: Optional[Exception] = None
    for path in _candidate_library_paths():
        try:
            return ctypes.CDLL(path)
        except OSError as error:  # Try the next candidate.
            last_error = error
    raise OrpheusError(
        "cannot load liborpheus_c; build with `cmake --build build` or "
        "set ORPHEUS_LIBRARY_PATH (last error: %s)" % last_error
    )


_lib = _load_library()

# --- prototypes -------------------------------------------------------------

_lib.orpheus_version.restype = ctypes.c_char_p
_lib.orpheus_last_error.restype = ctypes.c_char_p
_lib.orpheus_set_num_threads.argtypes = [ctypes.c_int]
_lib.orpheus_engine_create_zoo.restype = ctypes.c_void_p
_lib.orpheus_engine_create_zoo.argtypes = [ctypes.c_char_p,
                                           ctypes.c_char_p]
_lib.orpheus_engine_create_from_file.restype = ctypes.c_void_p
_lib.orpheus_engine_create_from_file.argtypes = [ctypes.c_char_p,
                                                 ctypes.c_char_p]
_lib.orpheus_engine_destroy.argtypes = [ctypes.c_void_p]
_lib.orpheus_engine_input_count.argtypes = [ctypes.c_void_p]
_lib.orpheus_engine_output_count.argtypes = [ctypes.c_void_p]
_lib.orpheus_engine_step_count.argtypes = [ctypes.c_void_p]
_lib.orpheus_engine_input_shape.argtypes = [
    ctypes.c_void_p, ctypes.c_int, ctypes.POINTER(ctypes.c_int64),
    ctypes.POINTER(ctypes.c_int)]
_lib.orpheus_engine_output_shape.argtypes = [
    ctypes.c_void_p, ctypes.c_int, ctypes.POINTER(ctypes.c_int64),
    ctypes.POINTER(ctypes.c_int)]
_lib.orpheus_engine_run.argtypes = [
    ctypes.c_void_p, ctypes.POINTER(ctypes.c_float), ctypes.c_size_t,
    ctypes.POINTER(ctypes.c_float), ctypes.c_size_t]
_lib.orpheus_engine_profile_csv.argtypes = [
    ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t]


def _last_error() -> str:
    message = _lib.orpheus_last_error()
    return message.decode("utf-8", "replace") if message else ""


def _check(status: int) -> None:
    if status != _ORPHEUS_OK:
        raise OrpheusError("orpheus error %d: %s" % (status, _last_error()))


def version() -> str:
    """Library version string, e.g. ``"orpheus 1.0.0"``."""
    return _lib.orpheus_version().decode("utf-8")


def set_num_threads(count: int) -> None:
    """Sets the global inference thread count (>= 1)."""
    _check(_lib.orpheus_set_num_threads(count))


class Engine:
    """A compiled single-input, single-output inference engine."""

    def __init__(self, handle: int):
        if not handle:
            raise OrpheusError(_last_error() or "engine creation failed")
        self._handle = handle

    # --- constructors -------------------------------------------------

    @classmethod
    def from_zoo(cls, model: str,
                 personality: Optional[str] = None) -> "Engine":
        """Compiles a model-zoo network (``"resnet-18"``, ...)."""
        handle = _lib.orpheus_engine_create_zoo(
            model.encode(), personality.encode() if personality else None)
        return cls(handle)

    @classmethod
    def from_onnx(cls, path: str,
                  personality: Optional[str] = None) -> "Engine":
        """Compiles an ONNX model file."""
        handle = _lib.orpheus_engine_create_from_file(
            path.encode(), personality.encode() if personality else None)
        return cls(handle)

    # --- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._handle:
            _lib.orpheus_engine_destroy(self._handle)
            self._handle = None

    def __del__(self):  # pragma: no cover - interpreter shutdown order
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --- introspection ---------------------------------------------------

    def _shape(self, query, index: int) -> List[int]:
        dims = (ctypes.c_int64 * 16)()
        rank = ctypes.c_int(16)
        _check(query(self._handle, index, dims, ctypes.byref(rank)))
        return [int(dims[i]) for i in range(rank.value)]

    @property
    def input_shape(self) -> List[int]:
        return self._shape(_lib.orpheus_engine_input_shape, 0)

    @property
    def output_shape(self) -> List[int]:
        return self._shape(_lib.orpheus_engine_output_shape, 0)

    @property
    def input_size(self) -> int:
        size = 1
        for dim in self.input_shape:
            size *= dim
        return size

    @property
    def output_size(self) -> int:
        size = 1
        for dim in self.output_shape:
            size *= dim
        return size

    @property
    def step_count(self) -> int:
        """Executable layers in the compiled plan."""
        return _lib.orpheus_engine_step_count(self._handle)

    # --- inference ---------------------------------------------------------

    def run(self, values: Sequence[float]) -> List[float]:
        """Runs one inference; ``values`` must have ``input_size``
        elements (any flat float sequence, including numpy arrays)."""
        buffer = array("f", values)
        if len(buffer) != self.input_size:
            raise OrpheusError(
                "input has %d elements, model expects %d"
                % (len(buffer), self.input_size))
        out = (ctypes.c_float * self.output_size)()
        in_ptr = (ctypes.c_float * len(buffer)).from_buffer(buffer)
        _check(_lib.orpheus_engine_run(self._handle, in_ptr, len(buffer),
                                       out, self.output_size))
        return list(out)

    def profile_csv(self) -> str:
        """Per-layer timing (CSV) over every previous run, one row per plan
        step: node,op,impl,output_shape,calls,total_ms,mean_ms."""
        needed = _lib.orpheus_engine_profile_csv(self._handle, None, 0)
        buffer = ctypes.create_string_buffer(needed + 1)
        _lib.orpheus_engine_profile_csv(self._handle, buffer, needed + 1)
        return buffer.value.decode("utf-8", "replace")


if __name__ == "__main__":
    # Smoke demo: classify random data with the quickstart model.
    import random

    print(version())
    set_num_threads(1)
    with Engine.from_zoo("tiny-cnn") as engine:
        print("input:", engine.input_shape, "output:",
              engine.output_shape, "steps:", engine.step_count)
        data = [random.uniform(-1, 1) for _ in range(engine.input_size)]
        probabilities = engine.run(data)
        best = max(range(len(probabilities)),
                   key=probabilities.__getitem__)
        print("predicted class %d (p=%.4f)" % (best, probabilities[best]))
