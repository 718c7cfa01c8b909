"""Span tracing of pctsolve from outside the program.

The tracer replaces each public callable listed in ``SPANS`` with a wrapper
that records a span around the call.  A function is replaced in its defining
module and under every other name a pctsolve module binds it to (for example
``cli.solve_effective_mass`` and the ``jacobi`` / ``laguerre_assoc`` names in
``refpotentials``), so no caller bypasses the wrapper; methods are replaced on
their classes.  Nothing inside the program changes.

Each thread keeps its own span stack (``cli.cmd_verify`` runs its configs in
a thread pool), and each span is tagged with the config run it belongs to.
Spans are aggregated in memory per (span, tag):

* ``calls``  - number of calls;
* ``self_s`` - wall time minus the wall time of child spans;
* ``busy_s`` - thread CPU time minus that of child spans, so time a thread
  spent waiting (for the interpreter lock, or for other threads) is
  ``self_s - busy_s``;
* ``points`` - total size of the ``x`` / ``y`` argument, for spans that take
  one.

Calls are also counted per (parent span, span) edge, which gives ratios such
as forward evaluations per inverted point.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import threading
import time

import numpy as np

#: (span name, owner, attribute names).  The owner is a pctsolve module, or
#: "module.Class" for methods; several attributes aggregate into one span.
SPANS = (
    ("exprlang.eval_jet", "exprlang", ("eval_jet",)),
    ("massmodel.profile_init", "massmodel.MassProfile", ("__init__",)),
    ("massmodel.mass_jet", "massmodel.MassProfile", ("mass_jet",)),
    ("massmodel.mapping_init", "massmodel.MappingFunction", ("__init__",)),
    ("massmodel.forward", "massmodel.MappingFunction", ("forward",)),
    ("massmodel.inverse", "massmodel.MappingFunction", ("inverse",)),
    ("pctengine.build", "pctengine.TargetSystem", ("build",)),
    ("pctengine.suggest_domain", "pctengine", ("suggest_domain",)),
    ("pctengine.potential", "pctengine.TargetSystem", ("potential",)),
    ("pctengine.wavefunction", "pctengine.TargetSystem", ("wavefunction",)),
    ("refpotentials.potential", "refpotentials.Morse", ("potential",)),
    ("refpotentials.potential", "refpotentials.PoschlTeller", ("potential",)),
    ("refpotentials.potential", "refpotentials.Hulthen", ("potential",)),
    ("refpotentials.eigenfunction", "refpotentials.Morse", ("eigenfunction",)),
    ("refpotentials.eigenfunction", "refpotentials.PoschlTeller", ("eigenfunction",)),
    ("refpotentials.eigenfunction", "refpotentials.Hulthen", ("eigenfunction",)),
    ("qmath.poly", "qmath", ("laguerre_assoc", "jacobi")),
    (
        "qmath.hyp",
        "qmath",
        ("cosh_q", "sinh_q", "tanh_q", "coth_q", "sech_q", "csch_q", "arcsinh_q", "arccosh_q"),
    ),
    ("eigensolver.solve", "eigensolver", ("solve_effective_mass",)),
    ("eigensolver.residual", "eigensolver", ("residual_norm",)),
    ("eigensolver.overlap", "eigensolver", ("overlap",)),
    ("cli.load_config", "cli", ("load_config",)),
    ("cli.cmd_verify", "cli", ("cmd_verify",)),
)

#: spans whose wall time is also compared with the process CPU time spent
#: during them (all threads), giving their concurrency
CONCURRENCY_SPANS = ("cli.cmd_verify",)

#: per-config work in cmd_verify's pool: tags the calling thread with the run
_RUN_TAGGER = ("cli", "_verify_one")

NO_TAG = "-"


def span_names():
    return list(dict.fromkeys(name for name, _, _ in SPANS))


def point_spans():
    """Span names that record points (those taking an x or y argument)."""
    names = []
    for name, owner_path, attrs in SPANS:
        owner = _resolve(owner_path)
        for attr in attrs:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if _point_arg(fn) is not None and name not in names:
                names.append(name)
    return names


def _resolve(owner):
    module_name, _, class_name = owner.partition(".")
    module = importlib.import_module("pctsolve." + module_name)
    return getattr(module, class_name) if class_name else module


def _point_arg(fn):
    """(position, name) of fn's ``x`` or ``y`` parameter, or None."""
    for i, p in enumerate(inspect.signature(fn).parameters.values()):
        if p.name in ("x", "y"):
            return i, p.name
    return None


class _ThreadState:
    def __init__(self):
        self.stack = []  # frames: [span name, child wall, child cpu]
        self.tag = NO_TAG
        self.totals = {}  # (span, tag) -> [calls, self_s, busy_s, points]
        self.edges = {}  # (parent span, span) -> calls
        self.concurrency = {}  # span -> [wall_s, process cpu_s]


class Tracer:
    """Installs span wrappers into the loaded pctsolve modules."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []  # (owner, attribute, original raw value)

    # recording -------------------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    def _wrap(self, name, fn):
        point_arg = _point_arg(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            th = tracer._state()
            stack = th.stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0, 0.0]
            stack.append(frame)
            w0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                c1 = time.thread_time()
                w1 = time.perf_counter()
                stack.pop()
                wall, cpu = w1 - w0, c1 - c0
                if stack:
                    stack[-1][1] += wall
                    stack[-1][2] += cpu
                key = (name, th.tag)
                rec = th.totals.get(key)
                if rec is None:
                    rec = th.totals[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += wall - frame[1]
                rec[2] += cpu - frame[2]
                if point_arg is not None:
                    pos, arg = point_arg
                    value = args[pos] if pos < len(args) else kwargs[arg]
                    size = getattr(value, "size", None)  # numpy arrays and scalars
                    rec[3] += int(np.size(value) if size is None else size)
                edge = (parent, name)
                th.edges[edge] = th.edges.get(edge, 0) + 1

        if name in CONCURRENCY_SPANS:
            inner = traced

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                w0, p0 = time.perf_counter(), time.process_time()
                try:
                    return inner(*args, **kwargs)
                finally:
                    rec = tracer._state().concurrency.setdefault(name, [0.0, 0.0])
                    rec[0] += time.perf_counter() - w0
                    rec[1] += time.process_time() - p0

        return traced

    def _tagger(self, fn):
        @functools.wraps(fn)
        def tagged(run, *args, **kwargs):
            with self.tag(run["name"]):
                return fn(run, *args, **kwargs)

        return tagged

    @contextlib.contextmanager
    def tag(self, label):
        """Tag the spans of the calling thread with ``label``."""
        th = self._state()
        prev, th.tag = th.tag, label
        try:
            yield
        finally:
            th.tag = prev

    # installation ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, value)

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items()) if n == "pctsolve" or n.startswith("pctsolve.")
        ]
        replacements = []
        for name, owner_path, attrs in SPANS:
            owner = _resolve(owner_path)
            for attr in attrs:
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._patch(owner, attr, self._wrap(name, raw))
                else:
                    fn = getattr(owner, attr)
                    replacements.append((fn, self._wrap(name, fn)))
        module, attr = _RUN_TAGGER
        fn = getattr(_resolve(module), attr)
        replacements.append((fn, self._tagger(fn)))
        # rebind every module-level name that refers to a wrapped function
        for fn, wrapper in replacements:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # results ---------------------------------------------------------------

    def by_tag(self):
        """{tag: {span: {calls, self_s, busy_s, points}}} over all threads."""
        out = {}
        for th in self._threads:
            for (name, tag), (calls, self_s, busy_s, points) in th.totals.items():
                rec = out.setdefault(tag, {}).setdefault(
                    name, {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "points": 0}
                )
                rec["calls"] += calls
                rec["self_s"] += self_s
                rec["busy_s"] += busy_s
                rec["points"] += points
        return out

    def spans(self):
        """{span: {calls, self_s, busy_s, points}} summed over tags."""
        out = {
            name: {"calls": 0, "self_s": 0.0, "busy_s": 0.0, "points": 0}
            for name in span_names()
        }
        for per_span in self.by_tag().values():
            for name, rec in per_span.items():
                for key, value in rec.items():
                    out[name][key] += value
        return out

    def edges(self):
        out = {}
        for th in self._threads:
            for edge, calls in th.edges.items():
                out[edge] = out.get(edge, 0) + calls
        return out

    def concurrency(self):
        """{span: process CPU seconds / wall seconds} for CONCURRENCY_SPANS."""
        wall, cpu = {}, {}
        for th in self._threads:
            for name, (w, c) in th.concurrency.items():
                wall[name] = wall.get(name, 0.0) + w
                cpu[name] = cpu.get(name, 0.0) + c
        return {name: cpu[name] / wall[name] if wall.get(name) else 0.0 for name in CONCURRENCY_SPANS}
