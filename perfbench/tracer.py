"""Outside-in tracer for the eitecho layers.

The tracer wraps the public entry points of each ``eitecho`` module from the
outside; nothing under ``src/`` knows about it.  Each wrapped call records a
span (name, start, end, parent span, thread) and, where the layer has one, a
count taken from the call's return value or from a raised
``FitFailureError``.  Spans are kept in memory and reduced to per-layer
metrics when the run ends.

A layer's self time is its spans' durations minus the union of their child
intervals.  Children can overlap because ``ensemble_average`` may hand members
to a thread pool; the pool is swapped for one that carries the submitting
span into its workers, so those spans get the right parent.

An entry point that does not exist (a later change may delete or rename one)
is skipped, and the metrics derived from it are reported as absent instead of
crashing the run.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import math
import pkgutil
import re
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

# Serializers whose time is summed into cli.serialize_s.
SERIALIZER_NAME = re.compile(r"^(to_csv|to_json|[a-z0-9_]+_csv|[a-z0-9_]+_json)$")

# (metric name, unit, better): the per-layer metrics, in report order, grouped
# by layer with the end-to-end metric and workload each one should move.
PER_LAYER = [
    # setup_s, all workloads
    ("config.parse_config.s", "s", "lower"),
    # wall_s on compensate; no change expected on temp_scan
    ("lambda_system.liouvillian.calls", "count", "lower"),
    ("lambda_system.liouvillian.self_s", "s", "lower"),
    ("lambda_system.lindblad_rhs.calls", "count", "lower"),
    # wall_s and peak_rss_mb on temp_scan, wall_s on ensemble_echo
    ("dynamics.run_sequence.calls", "count", "lower"),
    ("dynamics.run_sequence.self_s", "s", "lower"),
    ("dynamics.steps", "count", "lower"),
    ("dynamics.state_bytes_max", "B", "lower"),
    # wall_s on ensemble_echo, and the echo tail on compensate
    ("ensemble.ensemble_average.calls", "count", "lower"),
    ("ensemble.ensemble_average.self_s", "s", "lower"),
    ("ensemble.members", "count", "lower"),
    ("ensemble.echo_ms.p50", "ms", "lower"),
    ("ensemble.echo_ms.p99", "ms", "lower"),
    # wall_s on compensate and ensemble_echo; ok_ratio on temp_scan (fit failures)
    ("readout.synthesize_beat.calls", "count", "lower"),
    ("readout.synthesize_beat.self_s", "s", "lower"),
    ("readout.beat_amplitude.self_s", "s", "lower"),
    ("readout.assemble_decay_curve.self_s", "s", "lower"),
    ("readout.fit_decay.calls", "count", "lower"),
    ("readout.fit_decay.self_s", "s", "lower"),
    ("readout.fit_decay.iterations", "count", "lower"),
    ("readout.fit_decay.failures", "count", "lower"),
    # wall_s on compensate
    ("studies.field_sweep.self_s", "s", "lower"),
    ("studies.temperature_scan.self_s", "s", "lower"),
    ("studies.scaling_study.self_s", "s", "lower"),
    ("studies.compensation_search.self_s", "s", "lower"),
    ("studies.compensation_search.evaluations", "count", "lower"),
    # wall_s on ensemble_echo (the 8k-row CSV)
    ("cli.serialize_s", "s", "lower"),
    # user + sys of the untraced run: do threads buy wall time or only burn CPU?
    ("process.cpu_s", "s", "lower"),
    # traced wall_s minus untraced wall_s
    ("trace.overhead_s", "s", "lower"),
]


def _members(args, kwargs):
    spec = kwargs.get("spec", args[2] if len(args) > 2 else None)
    return spec.n_optical * spec.n_spin * max(1, len(spec.zeeman_branches))


class Tracer:
    """Spans and counters collected while one CLI run executes."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self.spans = []          # (name, start, end, parent id, span id, thread id)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.absent = set()      # metric names whose source was missing

    # -- recording ---------------------------------------------------------

    def add(self, name, value=1):
        with self._lock:
            self.counts[name] += value

    def peak(self, name, value):
        with self._lock:
            self.maxima[name] = max(self.maxima[name], value)

    def _hook(self, metric, fn):
        # a counter that cannot be read from this return value is absent,
        # never a crash of the traced run
        try:
            fn()
        except (AttributeError, TypeError, IndexError, KeyError):
            self.absent.add(metric)

    def span(self, name, fn, on_return=None, on_raise=None):
        """Wrap `fn` so that each call records one span named `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = self._current.get()
            token = self._current.set(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(exc)
                raise
            finally:
                end = time.perf_counter()
                self._current.reset(token)
                with self._lock:
                    self.spans.append((name, start, end, parent, sid, threading.get_ident()))
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return wrapper

    def counter(self, name, fn):
        """Wrap `fn` so that each call only increments `name`; for hot leaves."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every traced entry point in every eitecho namespace that binds it."""
        import eitecho
        from eitecho.errors import FitFailureError

        modules = [eitecho] + [importlib.import_module(f"eitecho.{info.name}")
                               for info in pkgutil.iter_modules(eitecho.__path__)]

        def rebind(original, wrapper):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        def on_trajectory(traj, args, kwargs):
            self._hook("dynamics.steps", lambda: self.add("dynamics.steps", len(traj.times) - 1))
            self._hook("dynamics.state_bytes_max",
                       lambda: self.peak("dynamics.state_bytes_max", traj.states.nbytes))

        def on_average(result, args, kwargs):
            self._hook("ensemble.members",
                       lambda: self.add("ensemble.members", _members(args, kwargs)))

        def on_fit(result, args, kwargs):
            self._hook("readout.fit_decay.iterations",
                       lambda: self.add("readout.fit_decay.iterations", result.iterations))

        def on_fit_error(exc):
            if isinstance(exc, FitFailureError):
                self.add("readout.fit_decay.failures")

        def on_search(result, args, kwargs):
            self._hook("studies.compensation_search.evaluations",
                       lambda: self.add("studies.compensation_search.evaluations",
                                        result.evaluations))

        hooks = {
            "dynamics.run_sequence": (on_trajectory, None),
            "ensemble.ensemble_average": (on_average, None),
            "readout.fit_decay": (on_fit, on_fit_error),
            "studies.compensation_search": (on_search, None),
        }
        entry_points = {
            "config": ["parse_config"],
            "lambda_system": ["liouvillian"],
            "dynamics": ["run_sequence"],
            "ensemble": ["ensemble_average"],
            "readout": ["echo_amplitude", "synthesize_beat", "beat_amplitude",
                        "assemble_decay_curve", "fit_decay"],
            "studies": ["field_sweep", "temperature_scan", "scaling_study",
                        "compensation_search"],
        }
        # metrics read from an entry point whose name they do not start with
        derived = {
            "dynamics.run_sequence": ["dynamics.steps", "dynamics.state_bytes_max"],
            "ensemble.ensemble_average": ["ensemble.members", "ensemble.echo_ms.p50",
                                          "ensemble.echo_ms.p99"],
        }
        for mod_name, names in entry_points.items():
            for fname in names:
                name = f"{mod_name}.{fname}"
                original = getattr(sys.modules.get(f"eitecho.{mod_name}"), fname, None)
                if not callable(original):
                    self.absent.update(m for m, _, _ in PER_LAYER
                                       if m.startswith(name + "."))
                    self.absent.update(derived.get(name, []))
                    continue
                on_return, on_raise = hooks.get(name, (None, None))
                rebind(original, self.span(name, original, on_return, on_raise))

        rhs = getattr(sys.modules.get("eitecho.lambda_system"), "lindblad_rhs", None)
        if callable(rhs):
            rebind(rhs, self.counter("lambda_system.lindblad_rhs.calls", rhs))
        else:
            self.absent.add("lambda_system.lindblad_rhs.calls")

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for meth, fn in list(vars(value).items()):
                        if SERIALIZER_NAME.match(meth) and callable(fn):
                            setattr(value, meth,
                                    self.span(f"cli.serialize:{value.__name__}.{meth}", fn))
                elif (callable(value) and getattr(value, "__module__", None) == mod.__name__
                      and SERIALIZER_NAME.match(attr)):
                    rebind(value, self.span(f"cli.serialize:{attr}", value))
                elif value is ThreadPoolExecutor:
                    setattr(mod, attr, _ContextExecutor)

    # -- reduction ---------------------------------------------------------

    def metrics(self):
        """Per-layer metrics from the recorded spans and counters.

        Keys are metric names; a layer that recorded nothing has no key.
        """
        children = defaultdict(list)
        for name, start, end, parent, sid, _ in self.spans:
            children[parent].append((start, end))
        calls = defaultdict(int)
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        echo_ms = []
        for name, start, end, parent, sid, _ in self.spans:
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += (end - start) - _covered(children.get(sid, ()), start, end)
            if name == "ensemble.ensemble_average":
                echo_ms.append(1e3 * (end - start))

        out = {f"{name}.calls": n for name, n in calls.items()}
        out.update({f"{name}.self_s": s for name, s in self_s.items()})
        out["config.parse_config.s"] = total_s.get("config.parse_config", 0.0)
        out["cli.serialize_s"] = sum(v for k, v in total_s.items()
                                     if k.startswith("cli.serialize:"))
        out["ensemble.echo_ms.p50"] = _percentile(echo_ms, 50)
        out["ensemble.echo_ms.p99"] = _percentile(echo_ms, 99)
        out.update(self.counts)
        out.update(self.maxima)
        return out


class _ContextExecutor(ThreadPoolExecutor):
    """Thread pool whose workers see the span that submitted the work."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def _percentile(values, pct):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]
