"""Names, units and predictions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same names; ``run.py``
refuses to start when the two disagree, so a later change that renames a
metric has to rename it in both places.

Each per-layer entry records which workloads exercise the layer and which
end-to-end metric a change to that layer should move there.  On the other
workloads the layer does no work, the metric reads 0, and the prediction is
"no change".
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

PAPER = ("paper_cold", "paper_warm")
EXACT = ("exact_lp", "exact_pool")
ALL = PAPER + EXACT


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    workloads: Tuple[str, ...]
    #: End-to-end: what the value is.  Per-layer: the end-to-end metric a
    #: change to the layer should move on the workloads it applies to.
    note: str


#: End-to-end metrics, measured with tracing and the collector off.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", ALL,
           "import of the pipeline plus the median of the workload's "
           "set-up repetitions"),
    Metric("run_s", "s", "lower", ALL, "median wall time of one full run"),
    Metric("faults_per_s", "faults/s", "higher", ALL,
           "fault verdicts delivered / run_s (exact_*: faults graded; "
           "paper_*: verdicts of the 15 cell-level sessions)"),
    Metric("peak_rss_mb", "MB", "lower", ALL,
           "median over runs of the sampled peak of summed PSS, process "
           "plus pool workers"),
]

#: Printed beside the end-to-end metrics but not listed in BENCHMARK.json:
#: it is 0 on a correct program, and the benchmark contract admits only
#: metrics that are never 0.  The JSON result carries the same numbers as
#: ``attempted`` and ``failed``.
FAIL_FRAC = Metric("fail_frac", "ratio", "lower", ALL,
                   "operations whose output failed its check / attempted")

ARTIFACTS = ([f"table{i}" for i in range(1, 7)]
             + [f"figure{i}" for i in range(1, 14)])

PER_LAYER: List[Metric] = [
    *(Metric(f"experiments.{a}_s", "s", "lower", PAPER, "run_s")
      for a in ARTIFACTS),
    Metric("filters.design_s", "s", "lower", ALL,
           "run_s on paper_cold; setup_s on exact_*"),
    Metric("faultsim.universe_s", "s", "lower", PAPER, "run_s"),
    Metric("faultsim.universe_builds", "count", "lower", PAPER, "run_s"),
    Metric("faultsim.track_s", "s", "lower", ("paper_cold",), "run_s"),
    Metric("faultsim.classify_s", "s", "lower", ("paper_cold",), "run_s"),
    Metric("faultsim.sessions", "count", "lower", ("paper_cold",), "run_s"),
    Metric("faultsim.vectors", "count", "lower", ("paper_cold",), "run_s"),
    Metric("rtl.simulate_s", "s", "lower", ("paper_cold",), "run_s"),
    Metric("generators.sequence_s", "s", "lower", PAPER, "run_s"),
    Metric("analysis.spectrum_s", "s", "lower", PAPER, "run_s"),
    Metric("cache.load_s", "s", "lower", PAPER, "run_s on paper_warm"),
    Metric("cache.store_s", "s", "lower", PAPER, "run_s on paper_cold"),
    Metric("cache.hits", "count", "higher", PAPER, "run_s on paper_warm"),
    Metric("cache.misses", "count", "lower", PAPER, "run_s on paper_cold"),
    Metric("cache.bytes", "bytes", "lower", PAPER, "run_s"),
    Metric("gates.compile_s", "s", "lower", EXACT,
           "run_s, faults_per_s"),
    Metric("gates.golden_s", "s", "lower", EXACT, "run_s, faults_per_s"),
    Metric("gates.grade_s", "s", "lower", EXACT,
           "run_s, faults_per_s, peak_rss_mb"),
    Metric("gates.batches", "count", "lower", EXACT, "run_s"),
    Metric("gates.work", "count", "lower", EXACT, "run_s, faults_per_s"),
    Metric("gates.faults_dropped", "count", "higher", EXACT, "run_s"),
    Metric("gates.useful_frac", "ratio", "higher", EXACT,
           "run_s, faults_per_s"),
    Metric("parallel.pool_s", "s", "lower", ("exact_pool",),
           "run_s, faults_per_s"),
    Metric("parallel.inproc_s", "s", "lower", ("exact_pool",),
           "none (reference for speedup)"),
    Metric("parallel.speedup", "ratio", "higher", ("exact_pool",),
           "run_s, faults_per_s"),
    Metric("parallel.tasks", "count", "lower", ("exact_pool",), "run_s"),
    Metric("parallel.worker_cpu_s", "s", "lower", ("exact_pool",),
           "run_s"),
    Metric("telemetry.overhead_frac", "ratio", "lower",
           ("paper_cold", "exact_lp"),
           "none (collector is off in end-to-end runs)"),
    Metric("bench.trace_overhead_frac", "ratio", "lower", ALL, "none"),
]

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END + PER_LAYER}
