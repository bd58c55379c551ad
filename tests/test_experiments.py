"""Experiment drivers: every table/figure function runs and reports the
expected structure; renderers produce sane text."""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    ExperimentContext,
    ascii_table,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure8,
    figure10,
    figure13,
    series_block,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    waveform_sketch,
)


class TestRender:
    def test_ascii_table_alignment(self):
        text = ascii_table(["a", "bb"], [[1, 2], [33, 4]])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1  # rectangular

    def test_ascii_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ascii_table(["a"], [[1, 2]])

    def test_series_block_thins_long_series(self):
        x = np.arange(1000.0)
        text = series_block(x, x, "t", "v", max_points=10)
        assert len(text.splitlines()) <= 12

    def test_series_block_length_mismatch(self):
        with pytest.raises(ValueError):
            series_block([1.0], [1.0, 2.0], "x", "y")

    def test_waveform_sketch(self):
        text = waveform_sketch(np.sin(np.linspace(0, 6.28, 100)))
        assert "max" in text and "min" in text


class TestConfig:
    def test_fast_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST", "1")
        cfg = ExperimentConfig.from_env()
        assert cfg.table4_vectors == 1024

    def test_default_matches_paper(self):
        cfg = ExperimentConfig()
        assert cfg.table4_vectors == 4096
        assert cfg.table6_vectors == 8192


class TestTables:
    def test_table1_rows(self, ctx):
        t = table1(ctx)
        assert len(t.rows) == 3
        assert t.rows[0][0] == "LP"
        assert "faults" in t.headers
        assert "Table 1" in t.render()

    def test_table2_is_the_eight_classes(self, ctx):
        t = table2(ctx)
        assert [r[0] for r in t.rows] == ["T1a", "T1b", "T2a", "T2b",
                                          "T5a", "T5b", "T6a", "T6b"]

    def test_table3_ratings_key_cells(self, ctx):
        t = table3(ctx)
        grid = {row[0]: row[1:] for row in t.rows}
        assert grid["LFSR-1"][0].startswith("-")   # LP incompatible
        assert grid["LFSR-D"] and all(c.startswith("+") for c in grid["LFSR-D"])
        assert grid["Ramp"][0].startswith("+")     # LP compatible
        assert grid["Ramp"][2].startswith("-")     # HP incompatible

    def test_table3_spectra_match_per_cell_ratios(self, ctx):
        """Table 3 computes each design's |H|^2 once per frequency grid;
        every cell must equal the per-cell ``compatibility_ratio``."""
        from repro.analysis import (compatibility_ratio, compatibility_table,
                                    generator_spectrum)

        gens = list(ctx.spectrum_generators().values())
        filters = [(d, ctx.designs[d].coefficients)
                   for d in ("LP", "BP", "HP")]
        results = iter(compatibility_table(gens, filters))
        for gen in gens:
            freqs, power = generator_spectrum(gen)
            for name, h in filters:
                r = next(results)
                assert (r.generator, r.filter_name) == (gen.name, name)
                assert (r.sigma_y2, r.flat_sigma_y2) == \
                    compatibility_ratio(freqs, power, h)

    def test_table4_against_table5_normalization(self, ctx):
        t4 = table4(ctx)
        t5 = table5(ctx)
        for r4, r5 in zip(t4.rows, t5.rows):
            name = r4[0]
            adders = ctx.designs[name].adder_count
            for m, n in zip(r4[1:], r5[1:]):
                assert n == pytest.approx(m / adders, abs=0.005)

    def test_table6_rows(self, ctx):
        t = table6(ctx)
        assert [r[0] for r in t.rows] == ["LP", "HP"]
        for row in t.rows:
            assert row[1] > 0

    def test_paper_rows_included_in_render(self, ctx):
        text = table4(ctx).render()
        assert "(paper)" in text and "519" in text


class TestFigures:
    def test_figure1_zones(self):
        r = figure1()
        assert "T1a" in r.text
        assert "primary input pdf" in r.series

    def test_figure4_five_spectra(self, ctx):
        r = figure4(ctx)
        assert len(r.series) == 5
        for x, y in r.series.values():
            assert len(x) == len(y) > 10

    def test_figure5_sigma(self, ctx):
        r = figure5(ctx)
        assert r.scalars["std"] == pytest.approx(0.577, abs=0.01)

    def test_figure8_overlap(self, ctx):
        r = figure8(ctx)
        assert r.scalars["overlap coefficient"] > 0.9

    def test_figure10_curves_decreasing(self, ctx):
        r = figure10(ctx)
        for label, (x, y) in r.series.items():
            assert np.all(np.diff(y) <= 0), label

    def test_figure13_mixed_curve_ends_lowest(self, ctx):
        r = figure13(ctx)
        finals = {k: v for k, v in r.scalars.items()}
        mixed_key = next(k for k in finals if k.startswith("mixed"))
        others = [v for k, v in finals.items() if k != mixed_key]
        assert finals[mixed_key] < min(others)

    def test_render_produces_text(self, ctx):
        assert "Figure 5" in figure5(ctx).render()


class TestSeriousMissSearch:
    def test_figures_2_and_3_share_one_search_per_context(self, ctx,
                                                          monkeypatch):
        """The Section 5 sine search runs once per context: Figure 3
        reuses Figure 2's, and only a new context searches again."""
        from repro.experiments import figures

        calls = []
        real = figures.fault_effect

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(figures, "fault_effect", counting)
        n = ctx.config.table4_vectors
        lfsr1 = ctx.standard_generators()["LFSR-1"]
        session = ctx.coverage("LP", lfsr1, n)

        def fresh_context():
            fresh = ExperimentContext(config=ctx.config)
            fresh.adopt_coverage("LP", lfsr1.name, n, session)
            return fresh

        one = fresh_context()
        figure2(one)
        per_search = len(calls)
        assert per_search > 0
        figure3(one)
        assert len(calls) == per_search
        figure3(fresh_context())
        assert len(calls) == 2 * per_search
