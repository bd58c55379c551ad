"""Measurement from outside the program: layer spans, cache timing, memory.

The program is not instrumented for the benchmark.  A traced run instead
replaces a few public functions, while it runs, with wrappers that time
each call and count its work, and restores them afterwards.  A wrapper is
installed wherever a module bound the function by name, so calls made
through ``from .x import f`` are timed too.
"""

from __future__ import annotations

import contextlib
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional


class Tracer:
    """Per-layer times and counts, kept in buckets.

    A bucket holds what one traced phase spent in each layer: one run, or
    the set-up and reference work a workload measures once.  Spans and
    counts recorded while no bucket is open, or on a disabled tracer, are
    dropped, so the same workload code serves traced and untraced runs.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.fixed: Dict[str, float] = defaultdict(float)
        self.runs: List[Dict[str, float]] = []
        self._open: Optional[Dict[str, float]] = None
        #: Time the wrappers spent on side measurements inside the open
        #: bucket; subtracted from a traced run's wall time.
        self.excluded_s = 0.0

    @contextlib.contextmanager
    def bucket(self, fixed: bool = False) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        target = self.fixed if fixed else defaultdict(float)
        self._open, self.excluded_s = target, 0.0
        try:
            yield
        finally:
            self._open = None
            if not fixed:
                self.runs.append(target)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if self._open is None:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def add(self, name: str, value: float) -> None:
        if self._open is not None:
            self._open[name] += value

    def value(self, name: str) -> float:
        """Fixed part plus the median over traced runs."""
        per_run = [run.get(name, 0.0) for run in self.runs]
        mid = statistics.median(per_run) if per_run else 0.0
        return self.fixed.get(name, 0.0) + mid

    def on_batch(self, stats: Dict[str, int]) -> None:
        """``gate_level_missed(on_batch=)`` hook: batch, work and drops."""
        self.add("gates.batches", 1)
        self.add("gates.work", stats["work"])
        self.add("gates.faults_dropped", stats["dropped"])
        self.add("gates.faults_graded", stats["faults"])


# ----------------------------------------------------------------------
# Wrapping public functions
# ----------------------------------------------------------------------
def _rebind(original, replacement) -> List[tuple]:
    """Point every ``repro`` module name bound to ``original`` at
    ``replacement``; returns what to restore."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro"
                               or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def _timed(tracer: Tracer, fn: Callable, metric: Optional[str],
           after: Optional[Callable] = None) -> Callable:
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        if metric is not None:
            tracer.add(metric, time.perf_counter() - t0)
        if after is not None:
            after(args, kwargs, out)
        return out
    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def layer_probes(tracer: Tracer) -> Iterator[None]:
    """Time the layer boundaries the workloads cross, while active."""
    from repro.analysis import compatibility, spectrum
    from repro.experiments.config import ExperimentContext
    from repro.faultsim import dictionary, engine, patterns
    from repro.generators.base import TestGenerator
    from repro.parallel import pool
    from repro.rtl.simulate import simulate

    def universe_built(args, kwargs, out):
        tracer.add("faultsim.universe_builds", 1)

    def session_tracked(args, kwargs, out):
        # The tracker rides the datapath simulation as a hook; simulating
        # the same stimulus without it splits datapath from tracker time.
        graph, raw = args[0], args[2]
        tracer.add("faultsim.sessions", 1)
        tracer.add("faultsim.vectors", len(raw))
        t0 = time.perf_counter()
        simulate(graph, raw)
        dt = time.perf_counter() - t0
        tracer.add("rtl.simulate_s", dt)
        tracer.excluded_s += dt

    def tasks_counted(args, kwargs, out):
        tracer.add("parallel.tasks", len(args[1]))

    undo: List[tuple] = []
    for original, metric, after in (
        (dictionary.build_fault_universe, "faultsim.universe_s",
         universe_built),
        (patterns.track_patterns, "faultsim.track_s", session_tracked),
        (engine.coverage_of_tracker, "faultsim.classify_s", None),
        (spectrum.generator_spectrum, "analysis.spectrum_s", None),
        (compatibility.compatibility_ratio, "analysis.spectrum_s", None),
        (pool.parallel_map, None, tasks_counted),
    ):
        undo += _rebind(original, _timed(tracer, original, metric, after))

    designs = ExperimentContext.designs
    sequence = TestGenerator.sequence
    ExperimentContext.designs = property(
        _timed(tracer, designs.fget, "filters.design_s"))
    TestGenerator.sequence = _timed(tracer, sequence, "generators.sequence_s")
    try:
        yield
    finally:
        ExperimentContext.designs = designs
        TestGenerator.sequence = sequence
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


def _array_bytes(arrays: Dict[str, object]) -> int:
    """Array payload of a cache entry; the JSON metadata is not counted."""
    return sum(getattr(a, "nbytes", 0) for a in arrays.values())


def timed_cache(tracer: Tracer, root: str):
    """An :class:`~repro.cache.ArtifactCache` that times its own I/O."""
    from repro.cache import ArtifactCache

    class TimedCache(ArtifactCache):
        def load(self, kind, payload):
            t0 = time.perf_counter()
            out = super().load(kind, payload)
            tracer.add("cache.load_s", time.perf_counter() - t0)
            if out is None:
                tracer.add("cache.misses", 1)
            else:
                tracer.add("cache.hits", 1)
                tracer.add("cache.bytes", _array_bytes(out))
            return out

        def store(self, kind, payload, arrays, meta=None):
            t0 = time.perf_counter()
            out = super().store(kind, payload, arrays, meta)
            tracer.add("cache.store_s", time.perf_counter() - t0)
            tracer.add("cache.bytes", _array_bytes(arrays))
            return out

    return TimedCache(root)


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def _pss_kb(pid: int) -> int:
    """Proportional set size: shared pages split among their sharers, so
    forked pool workers are not counted twice for the parent's pages."""
    try:
        with open(f"/proc/{pid}/smaps_rollup", "rb") as fh:
            for line in fh:
                if line.startswith(b"Pss:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        pass
    return 0


def _children(pid: int) -> List[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except (FileNotFoundError, ProcessLookupError, PermissionError):
            continue
        if int(stat[stat.rfind(b")") + 2:].split()[1]) == pid:
            out.append(int(entry))
    return out


class PeakMemory:
    """Sampled high-water mark of the summed PSS of this process and its
    children (the pool workers), in MB, over a ``with`` block."""

    INTERVAL_S = 0.05
    #: Listing children scans all of /proc; do it every this many samples.
    CHILD_SCAN_EVERY = 10

    def __init__(self) -> None:
        self.peak_mb = 0.0
        self._children: List[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self, scan: bool = True) -> None:
        me = os.getpid()
        if scan:
            self._children = _children(me)
        kb = _pss_kb(me) + sum(_pss_kb(c) for c in self._children)
        self.peak_mb = max(self.peak_mb, kb / 1024.0)

    def _loop(self) -> None:
        tick = 0
        while not self._stop.wait(self.INTERVAL_S):
            tick += 1
            self._sample(scan=tick % self.CHILD_SCAN_EVERY == 0)

    def __enter__(self) -> "PeakMemory":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
