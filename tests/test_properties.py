"""Cross-cutting property-based tests (hypothesis).

These pin down algebraic invariants that individual example-based tests
cannot: monotonicity of the feasibility analysis, compositionality of
interval propagation, MISR sensitivity, window/stream consistency of the
LFSR word construction.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bist import Misr
from repro.faultsim import feasible_cell_mask
from repro.fixedpoint import Fixed, wrap
from repro.generators import FibonacciLfsr, bit_stream_to_words


class TestFeasibilityMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-40, 0), st.integers(0, 40), st.integers(0, 10),
        st.integers(-40, 0), st.integers(0, 40), st.integers(0, 10),
        st.integers(0, 5), st.booleans(),
    )
    def test_wider_intervals_never_lose_codes(self, a_lo, a_hi, a_grow,
                                              b_lo, b_hi, b_grow, k, is_sub):
        """Feasibility is monotone in the operand intervals: enlarging
        an interval can only add feasible codes.  This is what makes the
        interval over-approximation sound for pruning."""
        narrow = feasible_cell_mask((a_lo, a_lo + a_hi),
                                    (b_lo, b_lo + b_hi), k, is_sub)
        wide = feasible_cell_mask((a_lo - a_grow, a_lo + a_hi + a_grow),
                                  (b_lo - b_grow, b_lo + b_hi + b_grow),
                                  k, is_sub)
        assert narrow & ~wide == 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 6), st.booleans())
    def test_full_range_operands_reach_variant_feasible_set(self, k, is_sub):
        mask = feasible_cell_mask((-(1 << 10), (1 << 10) - 1),
                                  (-(1 << 10), (1 << 10) - 1), k, is_sub)
        if k == 0:
            expect = 0b10101010 if is_sub else 0b01010101
            assert mask == expect
        else:
            assert mask == 0xFF


def _modulo_wrap(raw, width):
    """``wrap`` as the modulo it replaced, kept as the reference."""
    half = 1 << (width - 1)
    return (raw + half) % (1 << width) - half


class TestWrapAlgebra:
    @given(st.integers(-(1 << 62), 1 << 62), st.integers(1, 60))
    def test_mask_wrap_equals_modulo_on_scalars(self, raw, width):
        assert wrap(raw, width) == _modulo_wrap(raw, width)
        assert wrap(np.int64(raw), width) == _modulo_wrap(np.int64(raw),
                                                          width)

    @given(st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=1,
                    max_size=40),
           st.integers(1, 60))
    def test_mask_wrap_equals_modulo_on_int64_arrays(self, values, width):
        """Bit-identical over the whole int64 range: sums that overflow
        int64 wrap modulo 2**64, which ``2**width`` divides."""
        arr = np.array(values, dtype=np.int64)
        got = wrap(arr, width)
        want = _modulo_wrap(arr, width)
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(2, 20))
    def test_wrap_is_a_ring_homomorphism(self, a, b, width):
        """wrap(a) + wrap(b) == wrap(a + b) modulo 2**width — addition can
        be wrapped before or after, which is what lets the simulator add
        full-precision int64 values and wrap once."""
        assert wrap(wrap(a, width) + wrap(b, width), width) == wrap(a + b,
                                                                    width)

    @given(st.integers(-(1 << 16), (1 << 16) - 1), st.integers(0, 6),
           st.integers(0, 6))
    def test_arithmetic_shifts_compose(self, raw, s1, s2):
        assert (raw >> s1) >> s2 == raw >> (s1 + s2)

    @given(st.integers(2, 24), st.integers(0, 24))
    def test_normalized_range_is_unit_interval(self, width, frac):
        q = Fixed(width, frac)
        assert q.normalize(q.min_raw) == -1.0
        assert q.normalize(q.max_raw) < 1.0


class TestLfsrWindows:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, (1 << 10) - 1))
    def test_words_reassemble_the_bit_stream(self, seed):
        """msb_to_lsb words are sliding windows: the MSB sequence of the
        words equals the underlying bit stream."""
        g1 = FibonacciLfsr(10, seed=seed)
        words = g1.sequence(200)
        g2 = FibonacciLfsr(10, seed=seed)
        # the register preload contributes the first word's bits; the
        # stream continues from there
        msbs = [(int(w) >> 9) & 1 for w in words]
        stream = list(g2.bit_stream(200))
        assert msbs == stream

    def test_window_function_matches_manual_packing(self):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        words = bit_stream_to_words(bits, 4, "msb_to_lsb")
        # first window = bits[0..3], newest (bits[3]) at the MSB
        b = [int(v) for v in bits]
        first = (b[3] << 3) | (b[2] << 2) | (b[1] << 1) | b[0]
        expect = first - 16 if first >= 8 else first
        assert int(words[0]) == expect


class TestMisrProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-(1 << 15), (1 << 15) - 1), min_size=2,
                    max_size=40),
           st.integers(0, 39), st.integers(1, (1 << 16) - 1))
    def test_single_word_corruption_always_caught(self, words, pos, flip):
        """A MISR never aliases on a single corrupted word (the error
        polynomial is a monomial times a nonzero word, and the feedback
        polynomial has full degree)."""
        pos %= len(words)
        m = Misr(16)
        good = m.signature(words)
        corrupted = list(words)
        corrupted[pos] = wrap(corrupted[pos] ^ flip, 16)
        if corrupted[pos] == words[pos]:
            return
        assert m.signature(corrupted) != good

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=30))
    def test_signature_is_deterministic_function(self, words):
        assert Misr(16).signature(words) == Misr(16).signature(words)
