"""Prototype design and the Table 1 reference datapaths."""

import numpy as np
import pytest

from repro.errors import DesignError
from repro.filters import (
    BANDPASS_SPEC,
    HIGHPASS_SPEC,
    LOWPASS_SPEC,
    FilterSpec,
    design_prototype,
    design_statistics,
    response_magnitude,
)


class TestPrototypes:
    @pytest.mark.parametrize("spec", [LOWPASS_SPEC, BANDPASS_SPEC,
                                      HIGHPASS_SPEC])
    def test_passband_and_stopband_levels(self, spec):
        coefs = design_prototype(spec)
        assert len(coefs) == spec.numtaps
        freqs, mag = response_magnitude(coefs)
        p_lo, p_hi = spec.passband
        pass_mask = (freqs >= p_lo + 1e-9) & (freqs <= p_hi)
        assert np.min(mag[pass_mask]) > 0.85
        # all zero-desired bands attenuate well
        for i, desired in enumerate(spec.desired):
            if desired > 0.5:
                continue
            lo, hi = spec.bands[2 * i], spec.bands[2 * i + 1]
            stop_mask = (freqs >= lo) & (freqs <= hi)
            assert np.max(mag[stop_mask]) < 0.15

    def test_symmetric_linear_phase(self):
        coefs = design_prototype(LOWPASS_SPEC)
        assert coefs == pytest.approx(coefs[::-1], abs=1e-9)

    def test_spec_validation(self):
        bad = FilterSpec(name="X", kind="lowpass", numtaps=8,
                         bands=(0.0, 0.1, 0.2, 0.5), desired=(1.0,),
                         weight=(1.0,))
        with pytest.raises(DesignError):
            design_prototype(bad)

    def test_even_length_highpass_rejected(self):
        bad = FilterSpec(name="X", kind="highpass", numtaps=8,
                         bands=(0.0, 0.3, 0.36, 0.5), desired=(0.0, 1.0),
                         weight=(1.0, 1.0))
        with pytest.raises(DesignError):
            design_prototype(bad)

    def test_passband_property(self):
        assert LOWPASS_SPEC.passband == (0.0, 0.035)
        assert HIGHPASS_SPEC.passband == (0.355, 0.5)


class TestReferenceDesigns:
    def test_table1_shape(self, ctx):
        paper = {"LP": (183, 60, 12, 15, 16, 57148),
                 "BP": (161, 58, 12, 14, 16, 50650),
                 "HP": (175, 60, 12, 15, 16, 55042)}
        for name, design in ctx.designs.items():
            s = design_statistics(design, ctx.universe(name))
            p_adders, p_regs, p_in, p_coef, p_out, p_faults = paper[name]
            assert s.registers == p_regs
            assert s.input_width == p_in
            assert s.coefficient_width == p_coef
            assert s.output_width == p_out
            # operator and fault counts within 20% of the paper's designs
            assert abs(s.adders - p_adders) / p_adders < 0.2
            assert abs(s.faults - p_faults) / p_faults < 0.2

    def test_designs_have_comparable_complexity(self, ctx):
        adders = [d.adder_count for d in ctx.designs.values()]
        assert max(adders) <= 1.2 * min(adders)  # paper: within 14%... ~20%

    def test_frequency_responses_have_expected_character(self, ctx):
        for name, design in ctx.designs.items():
            h = np.abs(design.frequency_response(512))
            dc, nyq = h[0], h[-1]
            mid = h[len(h) // 2]
            if name == "LP":
                assert dc > 10 * nyq
            elif name == "HP":
                assert nyq > 10 * dc
            else:
                assert mid > 5 * max(dc, nyq)

    def test_construction_is_deterministic(self, ctx):
        from repro.filters.reference import build_reference
        from repro.filters import LOWPASS_SPEC
        a = build_reference(LOWPASS_SPEC)
        b = build_reference(LOWPASS_SPEC)
        assert np.array_equal(a.coefficients, b.coefficients)
        assert [n.fmt for n in a.graph.nodes] == [n.fmt for n in b.graph.nodes]

    def test_l1_norm_below_unity(self, ctx):
        for design in ctx.designs.values():
            assert np.sum(np.abs(design.coefficients)) < 1.0
