"""The four workloads: what each sets up, runs, and checks.

A workload's ``setup()`` builds its inputs from the seed; ``prepare()``
does the untimed per-run reset; ``run()`` is the timed operation;
``reference()`` computes, once and untimed, what the checks compare
against; ``check()`` returns how many of a run's operations failed.

Run-state rules (each run must start from the same state):

* ``paper_cold``: a fresh ``ExperimentContext``, an empty cache
  directory, and the process-wide reference-design memo cleared, so all
  three designs are rebuilt.
* ``paper_warm``: a fresh context over a cache directory that set-up
  filled once; the design memo is cleared too, so designs come from the
  cache.
* ``exact_*``: a freshly elaborated netlist per run, because
  ``compiled_program`` and ``fused_program`` memoize on the netlist and
  program objects; no compiled state carries over between runs.
* ``run.py`` drops ``REPRO_*`` variables from the environment before the
  program is imported, and every knob they would set is passed
  explicitly here.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
from typing import Dict, List, Tuple

import numpy as np

from catalog import ARTIFACTS
from probes import Tracer, timed_cache

from repro import experiments as ex
from repro.cache import ArtifactCache
from repro.faultsim import build_fault_universe, run_fault_coverage
from repro.filters import reference as reference_designs
from repro.gates import (compiled_program, elaborate, enumerate_cell_faults,
                         fused_program, gate_level_missed)
from repro.gates.compiled import golden_net_waves
from repro.gates.gatesim import pack_input_bits
from repro.generators import Type1Lfsr, match_width
from repro.parallel.gatework import gate_level_missed_parallel

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Exact-grading stimulus: the Table 4 session length and generator width.
VECTORS = 4096
WIDTH = 12
#: Faults graded per ``exact_pool`` run.  Sized so a pooled run on two
#: workers takes less time than an ``exact_lp`` run.
POOL_SAMPLE = 8192


def lfsr_state(seed: int) -> int:
    """The LFSR-1 initial state a workload seed selects.  Seed 0 is the
    paper's state 1, whose exact miss list has a committed digest."""
    return 1 + seed % ((1 << WIDTH) - 1)


def clear_design_memo() -> None:
    """Forget the process-wide reference designs so the next context
    rebuilds them (CSD quantization, scaling and ``rtl.build``)."""
    for build in (reference_designs.lowpass_design,
                  reference_designs.bandpass_design,
                  reference_designs.highpass_design):
        build.cache_clear()


def fault_key(fault) -> Tuple[int, int, str]:
    return (fault.node_id, fault.bit, fault.cell_fault.name)


def miss_digest(missed) -> str:
    keys = sorted(fault_key(f) for f in missed)
    return hashlib.sha256(json.dumps(keys).encode()).hexdigest()


class Workload:
    name = ""
    #: Set-up repetitions whose median is ``setup_s``.
    setup_reps = 3
    #: Time one set-up repetition's layer calls in a traced run.
    trace_setup = False
    #: Interleave collector-on runs in a traced run.
    telemetry_probe = False

    def __init__(self, seed: int, work_dir: pathlib.Path):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self, tracer: Tracer) -> None:
        pass

    def prepare(self) -> None:
        pass

    def run(self, tracer: Tracer):
        raise NotImplementedError

    def reference(self, tracer: Tracer) -> None:
        pass

    def operations(self) -> int:
        return 1

    def check(self, out) -> int:
        raise NotImplementedError

    def faults(self, outs) -> int:
        raise NotImplementedError

    def notes(self, outs) -> List[str]:
        return []


# ----------------------------------------------------------------------
# Paper regeneration
# ----------------------------------------------------------------------
class _Paper(Workload):
    """Tables 1-6 and Figures 1-13 at the paper's default configuration.

    The seed is ignored: every artifact uses the paper's fixed generator
    seeds, and each is checked against the text committed in
    ``benchmarks/results/``.
    """

    def __init__(self, seed: int, work_dir: pathlib.Path):
        super().__init__(seed, work_dir)
        results = ROOT / "benchmarks" / "results"
        # Committed as table1.txt ... table6.txt, figure01.txt ...
        self.expected = {
            a: (results / (f"{a}.txt" if a.startswith("table")
                           else f"figure{int(a[6:]):02d}.txt")
                ).read_text().strip()
            for a in ARTIFACTS}
        self._dirs = 0

    def fresh_dir(self) -> str:
        """A new, empty cache directory; the previous one is removed."""
        shutil.rmtree(self.work_dir / f"cache{self._dirs}",
                      ignore_errors=True)
        self._dirs += 1
        return str(self.work_dir / f"cache{self._dirs}")

    def regenerate(self, tracer: Tracer, cache_dir: str) -> Dict[str, object]:
        clear_design_memo()
        cache = (timed_cache(tracer, cache_dir) if tracer.enabled
                 else ArtifactCache(cache_dir))
        ctx = ex.ExperimentContext(config=ex.ExperimentConfig(),
                                   cache=cache, jobs=1)
        out = {}
        for name in ARTIFACTS:
            build = getattr(ex, name)
            with tracer.span(f"experiments.{name}_s"):
                out[name] = build() if name == "figure1" else build(ctx)
        return out

    def operations(self) -> int:
        return len(ARTIFACTS)

    def check(self, out) -> int:
        return sum(out[a].render().strip() != self.expected[a]
                   for a in ARTIFACTS)

    def faults(self, outs) -> int:
        # Verdicts the 15 cell-level sessions deliver: 12 Table 4 cells,
        # two Table 6 mixed sessions (LP, HP), one Figure 13 session (LP);
        # Table 1's last column is each design's universe size.
        n = {row[0]: row[-1] for row in outs[0]["table1"].rows}
        return 6 * n["LP"] + 4 * n["BP"] + 5 * n["HP"]

    def notes(self, outs) -> List[str]:
        """Fidelity beside speed: measured-vs-paper, printed only."""
        out = outs[0]
        t4 = {row[0]: row[1:] for row in out["table4"].rows}
        order = ("LFSR-1", "LFSR-D", "LFSR-M", "Ramp")
        errs = [abs(t4[d][i] - ex.PAPER_TABLE4[d][g]) / ex.PAPER_TABLE4[d][g]
                for d in t4 for i, g in enumerate(order)]
        t6 = {row[0]: row[1] for row in out["table6"].rows}
        lines = [f"fidelity: Table 4 |measured - paper| / paper: mean "
                 f"{100 * np.mean(errs):.1f}%, max {100 * max(errs):.1f}% "
                 f"over {len(errs)} cells"]
        for d in ("LP", "HP"):
            paper = ex.PAPER_TABLE4[d]["LFSR-1"] / ex.PAPER_TABLE6[d][0]
            lines.append(f"fidelity: Table 6 {d} LFSR-1 / mixed misses: "
                         f"{t4[d][0] / t6[d]:.2f}x measured, "
                         f"{paper:.2f}x paper")
        return lines


class PaperCold(_Paper):
    name = "paper_cold"
    telemetry_probe = True

    def prepare(self) -> None:
        self.cache_dir = self.fresh_dir()

    def run(self, tracer: Tracer):
        return self.regenerate(tracer, self.cache_dir)


class PaperWarm(_Paper):
    name = "paper_warm"
    #: Filling the cache is a whole cold regeneration; one per run.
    setup_reps = 1

    def setup(self, tracer: Tracer) -> None:
        self.cache_dir = self.fresh_dir()
        self.regenerate(tracer, self.cache_dir)

    def run(self, tracer: Tracer):
        return self.regenerate(tracer, self.cache_dir)


# ----------------------------------------------------------------------
# Exact gate-level grading
# ----------------------------------------------------------------------
class _Exact(Workload):
    trace_setup = True

    def setup(self, tracer: Tracer) -> None:
        clear_design_memo()
        ctx = ex.ExperimentContext(config=ex.ExperimentConfig())
        with tracer.span("filters.design_s"):
            self.design = ctx.designs["LP"]
        universe = enumerate_cell_faults(self.design.graph,
                                         elaborate(self.design.graph))
        self.universe_size = len(universe)
        self.raw = match_width(
            Type1Lfsr(WIDTH, seed=lfsr_state(self.seed)).sequence(VECTORS),
            WIDTH, WIDTH)
        self.graded = self.select(universe)

    def select(self, universe):
        return universe

    def prepare(self) -> None:
        self.netlist = elaborate(self.design.graph)

    def grade_in_process(self, tracer: Tracer, nl, faults, trace_batches):
        with tracer.span("gates.compile_s"):
            prog = compiled_program(nl)
            fused_program(prog)
        with tracer.span("gates.golden_s"):
            waves = golden_net_waves(prog,
                                     pack_input_bits(self.raw,
                                                     len(nl.input_bits)))
        with tracer.span("gates.grade_s"):
            return gate_level_missed(
                nl, self.raw, faults, program=prog, net_waves=waves,
                on_batch=tracer.on_batch if trace_batches else None)

    def reference(self, tracer: Tracer) -> None:
        """Excitation is necessary for detection: a fault the cell-level
        engine never excites on this stimulus must be missed exactly."""
        universe = build_fault_universe(self.design.graph, name="LP",
                                        prune_untestable=False)
        gen = Type1Lfsr(WIDTH, seed=lfsr_state(self.seed))
        cell = run_fault_coverage(self.design, gen, VECTORS,
                                  universe=universe)
        graded = {fault_key(f) for f in self.graded}
        self.unexcited = {fault_key(f) for f in cell.missed_faults()} & graded

    def faults(self, outs) -> int:
        return len(self.graded)

    def _consistent(self, missed) -> bool:
        return self.unexcited <= {fault_key(f) for f in missed}


class ExactLp(_Exact):
    name = "exact_lp"
    telemetry_probe = True

    def __init__(self, seed: int, work_dir: pathlib.Path):
        super().__init__(seed, work_dir)
        doc = json.loads((HERE / "expected.json").read_text())
        self.expected = (doc["exact_lp"] if lfsr_state(seed) == 1
                         else None)

    def run(self, tracer: Tracer):
        return self.grade_in_process(tracer, self.netlist, self.graded,
                                     trace_batches=tracer.enabled)

    def check(self, missed) -> int:
        ok = self._consistent(missed)
        if self.expected is not None:
            ok &= (len(missed) == self.expected["missed"]
                   and miss_digest(missed) == self.expected["digest"])
        return int(not ok)

    def notes(self, outs) -> List[str]:
        return [f"exact_lp: {len(self.graded)} faults, {VECTORS} vectors, "
                f"LFSR-1 state {lfsr_state(self.seed)}: "
                f"{len(outs[0])} missed exactly, "
                f"{len(self.unexcited)} never excited"]


class ExactPool(_Exact):
    name = "exact_pool"

    def __init__(self, seed: int, work_dir: pathlib.Path):
        super().__init__(seed, work_dir)
        self.jobs = min(2, os.cpu_count() or 1)

    def select(self, universe):
        rng = np.random.default_rng(self.seed)
        pick = np.sort(rng.choice(len(universe), POOL_SAMPLE, replace=False))
        return [universe[i] for i in pick]

    def run(self, tracer: Tracer):
        t0 = os.times()
        with tracer.span("parallel.pool_s"):
            missed = gate_level_missed_parallel(
                self.netlist, self.raw, self.graded, jobs=self.jobs)
        t1 = os.times()
        tracer.add("parallel.worker_cpu_s",
                   (t1.children_user - t0.children_user)
                   + (t1.children_system - t0.children_system))
        return missed

    def reference(self, tracer: Tracer) -> None:
        super().reference(tracer)
        with tracer.span("parallel.inproc_s"):
            missed = self.grade_in_process(tracer, elaborate(
                self.design.graph), self.graded, trace_batches=True)
        self.inproc = [fault_key(f) for f in missed]

    def check(self, missed) -> int:
        return int(not (self._consistent(missed)
                        and [fault_key(f) for f in missed] == self.inproc))

    def notes(self, outs) -> List[str]:
        return [f"exact_pool: {len(self.graded)} of {self.universe_size} faults "
                f"(sample seed {self.seed}), {self.jobs} workers, "
                f"LFSR-1 state {lfsr_state(self.seed)}: "
                f"{len(outs[0])} missed"]


WORKLOADS = {w.name: w for w in (PaperCold, PaperWarm, ExactLp, ExactPool)}
