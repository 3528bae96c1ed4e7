"""Span tracing of numrange from outside the package.

The tracer replaces, at module-attribute level, every public module-level
function of each numrange layer and ``numpy.linalg.eigh``/``eigvalsh``
with a wrapper that records one span: name, start, end, parent span and a
size (matrices solved, angles rotated, points hulled).  Calls inside the
package resolve these names through module attributes at call time, so
internal calls are traced too; private helpers are not wrapped and their
time counts as self time of the public function that called them.

Spans stay in flat arrays in memory until the run ends.  The untraced run
never installs the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "matcore", "rangegeo", "extremal", "birth", "kipp3", "maxent", "oracle")
LINALG = ("eigh", "eigvalsh")


def _matrices(args, kwargs):
    shape = np.shape(args[0] if args else kwargs["a"])
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _angles(args, kwargs):
    return int(np.size(args[1] if len(args) > 1 else kwargs["thetas"]))


def _hull_points(args, kwargs):
    return int(np.size(args[0] if args else kwargs["points"])) // 2


def _cloud_points(args, kwargs):
    pts = args[0] if args else kwargs["points"]
    return int(np.size(getattr(pts, "points", pts)))


# span sizes recorded for the per-layer ratios; every other span has size 0
SIZES = {
    "linalg.eigh": _matrices,
    "linalg.eigvalsh": _matrices,
    "matcore.rotate_stack": _angles,
    "rangegeo.convex_hull": _hull_points,
    "oracle.hull": _cloud_points,
}


class Tracer:
    """Records spans while ``recording`` is true and the wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.sizes = array("d")
        self._stack = [-1]
        self.recording = False
        self._saved: list[tuple[object, str, object]] = []

    def _targets(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"numrange.{layer}")
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if not name.startswith("_") and fn.__module__ == mod.__name__:
                    yield mod, name, f"{layer}.{name}"
        for name in LINALG:
            yield np.linalg, name, f"linalg.{name}"

    def install(self) -> None:
        for owner, attr, span_name in self._targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(span_name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, span_name: str, fn):
        nid = self.name_ids.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        size = SIZES.get(span_name)
        ids, parents, starts, ends, sizes = self.ids, self.parents, self.starts, self.ends, self.sizes
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            sizes.append(size(args, kwargs) if size else 0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def __len__(self) -> int:
        return len(self.ids)


class SpanWindow:
    """Spans [lo, hi) of one traced pass, with self times resolved."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.names = list(tracer.names)
        self.ids = np.frombuffer(tracer.ids, dtype=np.int32)[lo:hi].copy()
        parents = np.frombuffer(tracer.parents, dtype=np.int32)[lo:hi].astype(np.int64)
        self.parents = np.where(parents >= 0, parents - lo, -1)
        start = np.frombuffer(tracer.starts, dtype=np.float64)[lo:hi]
        end = np.frombuffer(tracer.ends, dtype=np.float64)[lo:hi]
        self.sizes = np.frombuffer(tracer.sizes, dtype=np.float64)[lo:hi].copy()
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = self.parents >= 0
        np.add.at(child, self.parents[has_parent], dur[has_parent])
        self.self_s = dur - child

    def mask(self, name: str) -> np.ndarray:
        """Spans of one function (``layer.function``) or of a whole layer."""
        if "." in name:
            wanted = [i for i, n in enumerate(self.names) if n == name]
        else:
            wanted = [i for i, n in enumerate(self.names) if n.split(".")[0] == name]
        return np.isin(self.ids, wanted)

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def self_seconds(self, name: str) -> float:
        return float(self.self_s[self.mask(name)].sum())

    def size(self, name: str, parent: str | None = None) -> float:
        m = self.mask(name)
        if parent is not None:
            m &= (self.parents >= 0) & self.mask(parent)[np.maximum(self.parents, 0)]
        return float(self.sizes[m].sum())
