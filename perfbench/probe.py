"""Instrumentation of manychain installed from outside the package.

Nothing in src/ is edited: the benchmark rebinds module attributes before the
command runs. Two levels exist.

Markers are always installed. They note when each HMC iteration starts and
how many leapfrog steps it took, time the warmup and sampling passes, time a
calibration kernel every quarter second, and keep the states the passes end
in and the streamed moments, which the correctness checks use. Besides the
calibration runs, which the parent takes out of every time, they add two
clock reads per iteration and wrap a handful of other calls, so the untraced
runs that give the end-to-end metrics pay next to nothing for them.

Tracing (a Tracer) wraps every public function and method of the layer
modules prng, model, sampler, diagnostics and cli. A function is timed under
the layer that defines it, at every name it is bound to: sampler.split is
timed as prng.split. A function or method added to a layer later is timed
without a change here. Spans are kept in memory and written out by the caller
once the command has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import threading
import time
from array import array
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("prng", "model", "sampler", "diagnostics", "cli")
# layers whose spans are taken out of other spans' own time (self_s)
_LEAF_LAYERS = ("prng", "model")


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # open span ids, innermost last
        self.leaf_depth = 0
        self.leaf_total = 0.0  # seconds in outermost leaf spans of this thread


class Tracer:
    """Spans (id, name, start, end, parent) plus per-metric sums."""

    def __init__(self):
        self._lock = threading.Lock()
        self._state = _ThreadState()
        self._next_id = itertools.count()
        self.names: list[str] = []
        self._sums: list[tuple[str, bool, list]] = []  # metric, leaf, [calls, s, self_s]
        self._counts: dict[str, float] = defaultdict(float)
        self._spans = {k: array(t) for k, t in
                       (("id", "q"), ("name", "i"), ("parent", "q"), ("t0", "d"), ("t1", "d"))}

    def add(self, key: str, value: float):
        with self._lock:
            self._counts[key] += value

    @property
    def counts(self) -> dict[str, float]:
        """Sums by metric name; methods of the same name in one layer (the
        two sinks' record, say) share theirs."""
        out = defaultdict(float, self._counts)
        for metric, leaf, (calls, seconds, own) in self._sums:
            if calls:
                out[metric + ".calls"] += calls
                out[metric + ".s"] += seconds
                if not leaf:
                    out[metric + ".self_s"] += own
        return dict(out)

    def wrap(self, fn, metric: str, leaf: bool, post=None):
        """Return fn timed as one span per call under metric."""
        nid = len(self.names)
        self.names.append(metric)
        acc = [0, 0.0, 0.0]
        self._sums.append((metric, leaf, acc))
        st = self._state
        lock = self._lock
        next_id = self._next_id.__next__
        ids, names, parents, t0s, t1s = (self._spans[k].append
                                         for k in ("id", "name", "parent", "t0", "t1"))
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = st.stack
            parent = stack[-1] if stack else -1
            sid = next_id()
            stack.append(sid)
            if leaf:
                st.leaf_depth += 1
            leaf_before = st.leaf_total
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                if leaf:
                    st.leaf_depth -= 1
                    if st.leaf_depth == 0:
                        st.leaf_total += dt
                with lock:
                    ids(sid)
                    names(nid)
                    parents(parent)
                    t0s(t0)
                    t1s(t1)
                    acc[0] += 1
                    acc[1] += dt
                    if not leaf:
                        acc[2] += dt - (st.leaf_total - leaf_before)
            if post is not None:
                post(self, args, result)
            return result

        return traced

    def spans(self) -> dict[str, np.ndarray]:
        """Spans in the order they ended; parent is a span id, -1 for none."""
        return {k: np.array(v) for k, v in self._spans.items()}


# ------------------------------------------------------------ post-call counts

def _count_step(tracer, args, result):
    out = result[1]
    chains = out.is_accepted.shape[0]
    tracer.add("sampler.leapfrog_steps", out.num_leapfrog_used * chains)
    tracer.add("sampler.proposals", chains)
    tracer.add("sampler.accepted", int(out.is_accepted.sum()))
    tracer.add("sampler.nonfinite_proposals", int(np.isneginf(out.log_accept_ratio).sum()))


def _rows_counter(metric):
    def post(tracer, args, result):
        z = args[1] if len(args) > 1 else None
        if isinstance(z, np.ndarray):
            tracer.add(metric + ".rows", z.shape[0] if z.ndim == 2 else 1)
    return post


def _bytes_counter(metric):
    def post(tracer, args, result):
        if args and isinstance(args[0], (str, os.PathLike)) and os.path.exists(args[0]):
            tracer.add(metric + ".bytes", os.path.getsize(args[0]))
    return post


def _post_for(layer, name, is_method):
    metric = f"{layer}.{name}"
    if metric == "sampler.hmc_step":
        return _count_step
    if layer == "model" and is_method:
        return _rows_counter(metric)
    if layer == "cli" and name.startswith("write_"):
        return _bytes_counter(metric)
    return None


def install_tracing(tracer: Tracer):
    """Rebind every public callable of the layer modules to a timed wrapper."""
    mods = {layer: importlib.import_module(f"manychain.{layer}") for layer in LAYERS}
    home = {mod.__name__: layer for layer, mod in mods.items()}
    wrapped = {}  # function -> its one wrapper, shared by every binding
    classes = set()

    def wrapper_for(fn, layer, is_method):
        if fn not in wrapped:
            wrapped[fn] = tracer.wrap(
                fn, f"{layer}.{fn.__name__}", layer in _LEAF_LAYERS,
                _post_for(layer, fn.__name__, is_method),
            )
        return wrapped[fn]

    def wrap_class(cls, layer):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                w = wrapper_for(attr.__func__, layer, False)
                setattr(cls, name, type(attr)(w))
            elif inspect.isfunction(attr):
                setattr(cls, name, wrapper_for(attr, layer, True))

    for mod in mods.values():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_"):
                continue
            origin = getattr(obj, "__module__", None)
            if origin not in home:
                continue
            if inspect.isfunction(obj):
                setattr(mod, name, wrapper_for(obj, home[origin], False))
            elif inspect.isclass(obj) and obj not in classes and not issubclass(obj, BaseException):
                classes.add(obj)
                wrap_class(obj, home[origin])

    # the chunk pool: time the coordinator spends handing chunks out and
    # waiting for them; its worker threads record their own model spans
    pool_map = tracer.wrap(lambda submit, *a: list(submit(*a)), "sampler.pool_map", True)

    class TimedPool(ThreadPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            return iter(pool_map(functools.partial(super().map, **kwargs), fn, *iterables))

    mods["sampler"].ThreadPoolExecutor = TimedPool


# ------------------------------------------------------------------- markers

# The machine the benchmark shares runs the same code up to 1.8 times faster
# or slower from one minute to the next. A fixed kernel, timed every
# CALIBRATE_EVERY_S between iterations, measures that speed as the run goes,
# so the parent can state every time in reference seconds.
CALIBRATE_EVERY_S = 0.25


class Calibration:
    """A fixed mix of the work manychain does: a (16, 24) x (24, 1000)
    matmul, logaddexp and expit over the product, and Philox generator
    constructions. About 11 ms on the machine the README describes."""

    def __init__(self):
        from scipy.special import expit

        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(1000, 24))
        self._z = rng.normal(size=(16, 24))
        self._expit = expit

    def __call__(self) -> float:
        t0 = time.monotonic()
        for i in range(10):
            logits = self._z @ self._x.T
            np.logaddexp(0.0, logits)
            self._expit(logits)
            for j in range(20):
                key = np.array([i, j], dtype=np.uint64)
                np.random.Generator(np.random.Philox(key=key)).random(4)
        return time.monotonic() - t0


class Record:
    """What the markers saw during one command. All times are
    time.monotonic(), the clock the parent read when it started the process."""

    def __init__(self):
        self.first_step: float | None = None
        # one [start, leapfrog steps used, expected leapfrog steps] per iteration
        self.steps: list[list[float]] = []
        # warmup and sampling passes: t0, t1, steps, chains, retained
        self.passes: list[dict] = []
        # one [start, seconds] per calibration run
        self.calibration: list[list[float]] = []
        self.arrays: dict[str, np.ndarray] = {}
        self._calibrate = Calibration()

    def calibrate(self):
        t = time.monotonic()
        self.calibration.append([t, self._calibrate()])


def install_markers(rec: Record):
    from manychain import cli, sampler

    hmc_step = sampler.hmc_step

    def timed_step(target, config, *args, **kwargs):
        t = time.monotonic()
        if rec.first_step is None:
            rec.first_step = t
        batch, out = hmc_step(target, config, *args, **kwargs)
        # jitter draws uniformly on {1, ..., 2 L}, whose mean is L + 1/2
        expected = config.num_leapfrog_steps + (0.5 if config.jitter else 0.0)
        rec.steps.append([t, out.num_leapfrog_used, expected])
        if time.monotonic() - rec.calibration[-1][0] >= CALIBRATE_EVERY_S:
            rec.calibrate()
        return batch, out

    sampler.hmc_step = timed_step

    def add_pass(t0, steps, chains, retained):
        rec.passes.append({"t0": t0, "t1": time.monotonic(), "steps": steps,
                           "chains": chains, "retained": retained})

    warmup_adapt = cli.warmup_adapt

    def timed_warmup(target, config, z_init, root_key, num_warmup, *args, **kwargs):
        t0 = time.monotonic()
        config, batch, info = warmup_adapt(target, config, z_init, root_key, num_warmup,
                                           *args, **kwargs)
        add_pass(t0, num_warmup, batch.num_chains, False)
        rec.arrays["warm_z"] = np.array(batch.z)
        rec.arrays["warm_value"] = np.array(batch.value)
        return config, batch, info

    cli.warmup_adapt = timed_warmup

    run_chains = cli.run_chains

    def timed_pass(*args, **kwargs):
        t0 = time.monotonic()
        summary = run_chains(*args, **kwargs)
        retained = kwargs.get("sink") is not None
        add_pass(t0, summary.num_steps, summary.num_chains, retained)
        if retained:
            rec.arrays["final_z"] = np.array(summary.final_batch.z)
            rec.arrays["final_value"] = np.array(summary.final_batch.value)
        return summary

    cli.run_chains = timed_pass

    report = sampler.MomentsSink.report

    def moments_report(self):
        m = self.moments
        if m is not None:
            rec.arrays["moments_mean"] = np.array(m.mean)
            rec.arrays["moments_m2"] = np.array(m.m2)
            rec.arrays["moments_count"] = np.array(m.count)
        return report(self)

    sampler.MomentsSink.report = moments_report
