"""Span tracing around the public functions of the ``shiftrules`` modules.

The package itself carries no instrumentation, so the benchmark wraps
each public function of the nine modules and records one span per call:
name, start, end, parent span and operation id, plus a flag (1 = raised,
2 = the outcome probe for that function fired).  Spans stay in memory
and are written out once, when the traced process ends.

This module imports nothing outside the standard library at load time:
the traced CLI loads it before ``shiftrules``, and importing numpy here
would move numpy's import out of the measured ``cli.import_s``.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from time import perf_counter

MODULES = ("cli", "spectrum", "synthesis", "equidistant", "perturbation",
           "regularization", "variance", "fourier", "serialize")

# Outcome probes: a span gets flag 2 when its function returned a result
# the probe accepts.
PROBES = {
    "regularization.select_gamma_discrepancy": lambda sel: sel.status == "target_below_min",
}

RAISED, PROBED = 1, 2


class Tracer:
    """Records spans for the wrapped functions; install() and uninstall() swap them in and out."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.flag = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op = 0
        self.modules: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        nid = self.name_id.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        probe = PROBES.get(qualname)
        stack, span_name, parent, op_id = self.stack, self.span_name, self.parent, self.op_id
        flag, start, end = self.flag, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            flag.append(0)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                flag[sid] = RAISED
                raise
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if probe is not None and probe(result):
                flag[sid] = PROBED
            return result

        return traced

    def install(self, package: str = "shiftrules") -> None:
        """Wrap every public function of the package's modules.

        Names that other modules bound with ``from ... import`` are
        replaced too, found by identity.  ``names`` then lists every
        wrapped ``module.function``, called or not, and ``modules`` the
        loaded modules, so a caller can tell a function that was never
        called from one that no longer exists.
        """
        mods = {name: sys.modules.get(f"{package}.{name}") for name in MODULES}
        self.modules = [name for name, mod in mods.items() if mod is not None]
        holders = [m for m in mods.values() if m is not None] + [sys.modules[package]]
        originals = {}
        for name, mod in mods.items():
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (not attr.startswith("_") and isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    originals[id(fn)] = (fn, self._wrap(f"{name}.{attr}", fn))
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    self._saved.append((holder, attr, value))
                    setattr(holder, attr, originals[id(value)][1])

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._saved):
            setattr(holder, attr, value)
        self._saved.clear()

    def arrays(self) -> dict:
        import numpy as np

        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "flag": np.frombuffer(self.flag, dtype=np.int8).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def dump(self, path: str, meta: dict) -> None:
        import json

        import numpy as np

        meta = dict(meta, names=self.names, modules=self.modules)
        np.savez(path, meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 **self.arrays())


def load(path: str) -> tuple[dict, dict]:
    """(meta, arrays) as written by Tracer.dump."""
    import json

    import numpy as np

    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "meta"}
        meta = json.loads(data["meta"].tobytes().decode())
    return meta, arrays


def self_times(parent, start, end):
    """Span duration minus the time covered by its direct children.

    Spans come from one thread, so a span's children never overlap and
    the covered time is the sum of their durations.
    """
    import numpy as np

    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    parent = np.asarray(parent)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - covered
