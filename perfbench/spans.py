"""Span tracer for the traced run: wraps hermlab's public functions from outside.

Each public function of the layer modules (kernels, spectral, geometry,
control) is replaced, under every name a hermlab module looks it up by, with
a wrapper that records a span (name, start, end, parent span, operation id)
and, for the Hermite table, the entries it computes. The ``slice_first``
methods of the control-set classes and numpy's ``leggauss`` (only when
called from hermlab) are wrapped too. Spans are kept in flat in-memory
arrays while the tracer is active and written out once at the end.
"""

import array
import functools
import sys
import time
import types

import numpy as np

LAYERS = ("kernels", "spectral", "geometry", "control")
OP_SPAN = "operation"


def _table_entries(kmax, x, *args, **kwargs) -> int:
    return (int(kmax) + 1) * int(np.size(x))


WORK = {"kernels.hermite_function_table": _table_entries}


class Tracer:
    """Records spans of wrapped calls while ``active`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.op = array.array("q")
        self.work = array.array("q")
        self._stack: list[int] = []
        self._undo: list = []
        self.op_id = -1
        self.active = False

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, work: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.work.append(work)
        self._stack.append(i)
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, caller_prefix: str | None = None):
        nid = self._name(name)
        work = WORK.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active or (
                caller_prefix is not None
                and not sys._getframe(1).f_globals.get("__name__", "").startswith(caller_prefix)
            ):
                return fn(*args, **kwargs)
            i = tracer._open(nid, work(*args, **kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return traced

    def operation(self, op_id: int, fn):
        """Run one benchmark operation under a top-level span."""
        self.op_id = op_id
        i = self._open(self._name(OP_SPAN), 0)
        try:
            return fn()
        finally:
            self._close(i)

    def install(self):
        """Swap the wrappers in under every name hermlab looks the functions up by."""
        loaded = [m for n, m in sys.modules.items() if n == "hermlab" or n.startswith("hermlab.")]
        for layer in LAYERS:
            mod = sys.modules[f"hermlab.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if not isinstance(fn, types.FunctionType):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for m in loaded:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._swap(m, key, wrapped)
        geometry = sys.modules["hermlab.geometry"]
        for cls in vars(geometry).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, geometry.ControlSet)
                and cls is not geometry.ControlSet
                and "slice_first" in vars(cls)
            ):
                self._swap(cls, "slice_first", self.wrap("geometry.slice_first", vars(cls)["slice_first"]))
        legendre = np.polynomial.legendre
        self._swap(legendre, "leggauss", self.wrap("numpy.leggauss", legendre.leggauss, caller_prefix="hermlab"))

    def _swap(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def summarize(self, first: int, last: int) -> dict:
        """Per span name: calls, work and self seconds over spans [first, last).

        Self time is a span's duration minus the durations of its direct
        children; calls are sequential, so children nest inside parents.
        """
        # slicing copies, so no numpy view pins the growing arrays
        ids = np.frombuffer(self.name_id[first:last], dtype=np.int32)
        dur = np.frombuffer(self.end[first:last]) - np.frombuffer(self.start[first:last])
        par = np.frombuffer(self.parent[first:last], dtype=np.int64) - first
        work = np.frombuffer(self.work[first:last], dtype=np.int64)
        child = np.zeros_like(dur)
        has = par >= 0
        np.add.at(child, par[has], dur[has])
        self_s = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = ids == nid
            out[name] = {
                "calls": int(mask.sum()),
                "work": int(work[mask].sum()),
                "self_s": float(self_s[mask].sum()),
            }
        return out

    def write(self, path):
        """Write every span as compressed numpy arrays plus the name table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            operation=np.frombuffer(self.op, dtype=np.int64),
            work=np.frombuffer(self.work, dtype=np.int64),
        )
