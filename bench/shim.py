"""Counting shim and in-memory span recorder, used only by the traced run.

Inside ``with Shim(tracer):`` every public function and every class
constructor of the ``qcausal`` package, and the numpy kernels it calls
(``linalg.eigh``, ``linalg.eigvalsh``, ``linalg.svd``, ``linalg.qr`` and
``einsum``), record one span per call: name, start, end and the span that
was open when it started.  On exit every original binding is put back.

A function is rebound in every ``qcausal.*`` module namespace that holds
the same object, and in module-level dicts such as ``campaigns.RUNNERS``.
``from .labeled import partial_trace`` copies the binding, so patching only
the defining module would miss every call made through a copy.

Besides spans the tracer keeps the counts that per-layer ratios need:
``n^3`` summed over eigensolves, the distinct interventional states built,
and the distinct (state, label set) marginals whose entropy was asked for.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import sys
from time import perf_counter

import numpy as np

NUMPY_KERNELS = (
    (np.linalg, "eigh", "numpy.eigh"),
    (np.linalg, "eigvalsh", "numpy.eigvalsh"),
    (np.linalg, "svd", "numpy.svd"),
    (np.linalg, "qr", "numpy.qr"),
    (np, "einsum", "numpy.einsum"),
)


def _digest(matrix: np.ndarray) -> bytes:
    return hashlib.sha1(np.ascontiguousarray(matrix).view(np.uint8)).digest()


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._stack: list[int] = []
        self.eig_flops = 0
        self.states_built = 0
        self.state_digests: set[bytes] = set()
        self.marginals: set[tuple[bytes, frozenset]] = set()
        self._last_matrix = None
        self._last_digest = b""

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        start = perf_counter()
        self.starts.append(start)
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    # Counters fed by the wrappers after the callee's span has closed.

    def count_eig(self, a) -> None:
        shape = np.shape(a)
        self.eig_flops += int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3

    def count_state(self, state) -> None:
        self.states_built += 1
        self.state_digests.add(_digest(state.tau.matrix))

    def count_marginal(self, rho, subsystem) -> None:
        # all marginals of one state share its digest, so hash it once
        matrix = rho.matrix
        if matrix is not self._last_matrix:
            self._last_matrix = matrix
            self._last_digest = _digest(matrix)
        labels = rho.labels if subsystem is None else subsystem
        self.marginals.add((self._last_digest, frozenset(labels)))

    def stats(self) -> dict[str, dict]:
        """Per span name: ``calls``, self time ``s`` and inclusive ``durations``.

        Self time is a span's duration minus the durations of its children.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict] = {}
        for i, name in enumerate(self.names):
            entry = out.get(name)
            if entry is None:
                entry = out[name] = {"calls": 0, "s": 0.0, "durations": []}
            entry["calls"] += 1
            entry["s"] += dur[i] - child[i]
            entry["durations"].append(dur[i])
        return out


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(args, kwargs)
        return result
    return wrapper


def _wrap_interventional_state(tracer: Tracer, fn):
    # one span name per backend, so the two routes are timed apart
    @functools.wraps(fn)
    def wrapper(source, backend="statevector"):
        return tracer.call(f"process.interventional_state.{backend}", fn,
                           (source, backend), {})
    return wrapper


class Shim:
    """Context manager that installs the counting wrappers, then restores."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple] = []

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            self._set(value, key, wrapper)

    def __enter__(self) -> "Shim":
        t = self.tracer
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "qcausal" or n.startswith("qcausal.")]
        hooks = {
            "entropy.entropy": lambda a, k: t.count_marginal(
                a[0], a[1] if len(a) > 1 else k.get("subsystem")),
        }
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isfunction(obj):
                    if name == "process.interventional_state":
                        wrapper = _wrap_interventional_state(t, obj)
                    else:
                        wrapper = _wrap(t, name, obj, hooks.get(name))
                    self._rebind(modules, obj, wrapper)
                elif inspect.isclass(obj) and "__init__" in vars(obj):
                    after = (lambda a, k: t.count_state(a[0])) \
                        if name == "process.InterventionalState" else None
                    self._set(obj, "__init__", _wrap(t, name, obj.__init__, after))
        for owner, attr, name in NUMPY_KERNELS:
            after = (lambda a, k: t.count_eig(a[0])) if "eig" in attr else None
            self._set(owner, attr, _wrap(t, name, getattr(owner, attr), after))
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()
