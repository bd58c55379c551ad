"""The columnar fault universe pinned to the per-object code it replaced.

A :class:`~repro.faultsim.FaultUniverse` keeps its faults as columns
(``fault_cell``, ``fault_slot``, ``fault_mask``) and builds
:class:`~repro.faultsim.DesignFault` objects only on request.  Every
whole-universe loop that moved onto the columns is checked here against
the per-object loop it replaced, and a warm paper regeneration is
checked to build no full object list at all.
"""

from collections import Counter

import numpy as np
import pytest

from repro import experiments as ex
from repro.cache import ArtifactCache
from repro.faultsim import (
    UNSEEN,
    DesignFault,
    FaultUniverse,
    activation_counts,
    build_csa_universe,
    build_fault_universe,
    classify_missed_faults,
    report,
    run_fault_coverage,
)
from repro.faultsim.engine import LATENCY_EDGES, _record_detection_latencies
from repro.gates import variant_for_bit
from repro.generators import SineGenerator, Type1Lfsr
from repro.rtl import OpKind, carry_save_from_coefficients
from repro.telemetry import telemetry_session

from helpers import SMALL_COEFSETS


def _object_faults(graph):
    """The per-object universe builder the columns replaced."""
    from repro.faultsim.feasibility import design_feasible_masks

    feasible = design_feasible_masks(graph)
    faults = []
    for node in graph.arithmetic_nodes:
        for bit in range(node.fmt.width):
            variant = variant_for_bit(bit, node.fmt.width,
                                      node.kind is OpKind.SUB)
            for cf in variant.faults:
                effective = cf.detect_mask & feasible[(node.nid, bit)]
                if effective:
                    faults.append(DesignFault(
                        index=len(faults), node_id=node.nid, bit=bit,
                        cell_fault=cf, effective_mask=effective))
    return faults


def _assert_views_agree(universe: FaultUniverse) -> None:
    n = universe.fault_count
    assert n == len(universe.fault_cell) == len(universe.fault_slot) \
        == len(universe.fault_mask)
    assert [universe.fault(i) for i in range(n)] == universe.faults


class TestObjectViews:
    @pytest.mark.parametrize("name", ["LP", "BP", "HP"])
    def test_fault_matches_faults_on_paper_designs(self, ctx, name):
        universe = build_fault_universe(ctx.designs[name].graph, name=name)
        _assert_views_agree(universe)

    def test_fault_matches_faults_on_cell_spec_universe(self):
        csa = carry_save_from_coefficients(SMALL_COEFSETS["plain"],
                                           name="csa")
        universe = build_csa_universe(csa)
        assert universe.fault_count > 0
        _assert_views_agree(universe)

    def test_columns_match_the_object_builder(self, lp_design):
        universe = build_fault_universe(lp_design.graph, name="LP")
        assert universe.faults == _object_faults(lp_design.graph)

    def test_faults_list_is_built_once(self, small_design):
        universe = build_fault_universe(small_design.graph)
        assert universe.faults is universe.faults

    def test_fault_index_range(self, small_design):
        universe = build_fault_universe(small_design.graph)
        assert universe.fault(-1) == universe.faults[-1]
        with pytest.raises(IndexError):
            universe.fault(universe.fault_count)

    def test_faults_at_matches_a_scan(self, small_design):
        universe = build_fault_universe(small_design.graph)
        for node_id, bit in universe.cells:
            assert universe.faults_at(node_id, bit) == [
                f for f in universe.faults
                if f.node_id == node_id and f.bit == bit]


class TestColumnLoops:
    def test_activation_counts_matches_per_fault_loop(self, small_design):
        universe = build_fault_universe(small_design.graph)
        width = small_design.input_fmt.width
        stimulus = SineGenerator(width, freq=0.05, amplitude=0.9)
        got = activation_counts(small_design, universe, stimulus,
                                n_vectors=256)
        from repro.faultsim.classify import _normal_operation_tracker
        seen = _normal_operation_tracker(small_design, universe, stimulus,
                                         256).seen_mask()
        want = np.zeros(universe.fault_count, dtype=np.uint8)
        for fault in universe.faults:
            cell = universe.fault_cell[fault.index]
            mask = fault.cell_fault.detect_mask
            if any(seen[cell, p] for p in range(8) if mask & (1 << p)):
                want[fault.index] = 1
        assert got.dtype == np.uint8
        np.testing.assert_array_equal(got, want)
        assert 0 < int(got.sum()) < universe.fault_count

    def test_classify_missed_faults_splits_by_activatability(
            self, small_design):
        universe = build_fault_universe(small_design.graph)
        result = run_fault_coverage(small_design, Type1Lfsr(12), 64,
                                    universe=universe)
        stimulus = SineGenerator(small_design.input_fmt.width, freq=0.05,
                                 amplitude=0.9)
        split = classify_missed_faults(small_design, result, stimulus,
                                       n_vectors=256)
        active = activation_counts(small_design, universe, stimulus,
                                   n_vectors=256)
        missed = result.missed_faults()
        assert split.difficult == [f for f in missed if active[f.index]]
        assert split.near_redundant == [f for f in missed
                                        if not active[f.index]]

    def test_testability_report_counts_faults_per_tap(self, lp_design):
        universe = build_fault_universe(lp_design.graph, name="LP")
        result = run_fault_coverage(lp_design, Type1Lfsr(12), 256,
                                    universe=universe)
        total_by_node = Counter(f.node_id for f in universe.faults)
        rows = report.testability_report(lp_design,
                                         result).splitlines()[2:]
        for tap, row in zip(lp_design.taps, rows):
            assert int(row.split()[2]) == sum(
                total_by_node[nid] for nid in tap.operators)

    def test_latency_histograms_match_string_grouping(self, lp_design):
        universe = build_fault_universe(lp_design.graph, name="LP")
        result = run_fault_coverage(lp_design, Type1Lfsr(12), 512,
                                    universe=universe)
        # The same class name occurs in more than one cell variant.
        variants = Counter(cf.name for fs in set(universe.cell_faults)
                           for cf in fs)
        assert max(variants.values()) > 1
        with telemetry_session() as new:
            _record_detection_latencies(new, result)
        with telemetry_session() as old:
            detect = result.detect_time
            classes = np.array([f.cell_fault.name for f in universe.faults])
            for cls in np.unique(classes):
                times = detect[(classes == cls) & (detect != UNSEEN)]
                if times.size:
                    old.histogram(f"faultsim.detect_latency.{cls}",
                                  edges=LATENCY_EDGES).observe_many(times + 1)

        def histograms(tel):
            return [(name, h.counts.tolist(), h.count, h.total, h.min, h.max)
                    for name, h in tel.metrics().items()
                    if name.startswith("faultsim.detect_latency.")]

        assert histograms(new) == histograms(old)
        assert histograms(new)


class TestWarmRegenerationStaysColumnar:
    def test_no_full_fault_list_on_cold_or_warm_runs(self, tmp_path,
                                                     monkeypatch):
        """Table 1, Table 4 and Figure 2 (whose serious-fault search
        reads missed faults) build no whole-universe object list, cold
        or warm, with the collector off or on."""
        def refuse(self):
            raise AssertionError(
                f"{self.design_name}: full fault list built")

        monkeypatch.setattr(FaultUniverse, "faults", property(refuse))
        for collector in (False, True):
            cache_dir = str(tmp_path / f"cache-{collector}")
            for _run in ("cold", "warm"):
                ctx = ex.ExperimentContext(cache=ArtifactCache(cache_dir),
                                           jobs=1)
                if collector:
                    with telemetry_session():
                        self._regenerate(ctx)
                else:
                    self._regenerate(ctx)
                assert sorted(ctx._universes) == ["BP", "HP", "LP"]
                assert all(u._faults is None
                           for u in ctx._universes.values())

    @staticmethod
    def _regenerate(ctx):
        ex.table1(ctx)
        ex.table4(ctx)
        ex.figure2(ctx)
