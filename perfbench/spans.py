"""In-process tracer: wraps qtomo's public functions and aggregates spans.

Each call of a wrapped function is a span. A span's self time is its
duration minus the part covered by the wrapped calls made inside it, so the
self times of all spans partition the time spent inside wrapped calls; the
rest of a command's in-process time belongs to the ``cli`` module, which is
not wrapped. Spans are aggregated as they close (calls, self time, bytes)
instead of being stored one by one, which keeps the tracer's own cost small.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time

LAYERS = ("simulate", "io", "tomography", "dynamics", "ops", "measures", "channels")

# Per-element helpers, called once per matrix entry or per operand check:
# wrapping them would make the tracer's own cost dominate the spans around them.
UNWRAPPED = frozenset({"as_square", "complex_to_json", "json_to_complex"})


def _result_len(args, result):
    return len(result)


def _text_len(args, result):
    return len(args[0])


def _file_size(args, result):
    return os.path.getsize(args[0])


# Bytes moved by the I/O boundaries. Event logs are ASCII, so characters are bytes.
BYTES = {
    "simulate.event_log_to_csv": _result_len,
    "simulate.event_log_from_csv": _text_len,
    "io.write_json_atomic": _file_size,
    "io.read_json": _file_size,
}


def _targets():
    for layer in LAYERS:
        module = importlib.import_module(f"qtomo.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_") and name not in UNWRAPPED):
                yield f"{layer}.{name}", obj


class Tracer:
    """Context manager that wraps every target in every loaded qtomo module.

    Functions are rebound wherever a qtomo module holds them, including names
    imported with ``from .x import f``, and restored on exit.
    """

    def __init__(self):
        self.stats = {}          # key -> [calls, self seconds, bytes]
        self.covered = 0.0       # total duration of outermost spans
        self.basis_dims = set()  # distinct d passed to ops.hermitian_basis
        self._stack = []
        self._restore = []

    def __enter__(self):
        # The package does not import cli; a module first imported while the
        # tracer is installed would keep the wrappers after it is removed.
        importlib.import_module("qtomo.cli")
        wrappers = {}
        for key, fn in _targets():
            self.stats[key] = [0, 0.0, 0]
            wrappers[id(fn)] = self._wrap(key, fn)
        for name, module in list(sys.modules.items()):
            if name != "qtomo" and not name.startswith("qtomo."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, value in self._restore:
            setattr(module, attr, value)
        self._restore.clear()
        return False

    def self_times(self):
        return {key: s[1] for key, s in self.stats.items()}

    def _wrap(self, key, fn):
        stack = self._stack
        stats = self.stats
        measure = BYTES.get(key)
        dims = self.basis_dims if key == "ops.hermitian_basis" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                entry = stats[key]
                entry[0] += 1
                entry[1] += duration - children[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.covered += duration
            if measure is not None:
                entry[2] += measure(args, result)
            if dims is not None:
                dims.add(int(args[0] if args else kwargs["d"]))
            return result

        return wrapper
