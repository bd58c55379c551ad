"""The paper's named test generators: LFSR-1, LFSR-2, LFSR-D, LFSR-M.

These wrap the LFSR cores of :mod:`repro.generators.lfsr` with the output
networks Section 6 describes:

* ``Type1Lfsr`` (**LFSR-1**) — plain Fibonacci LFSR, full register per
  test.  Signal variance 0.3333 with reduced low-frequency power.
* ``Type2Lfsr`` (**LFSR-2**) — Galois LFSR; spectrum depends on the
  polynomial and shift direction.
* ``DecorrelatedLfsr`` (**LFSR-D**) — a Type 1 LFSR followed by an XOR
  decorrelator that inverts all bits *other than the LSB* whenever the
  LSB is 1.  Flat spectrum, variance still 0.3333, no repeated vectors.
* ``MaxVarianceLfsr`` (**LFSR-M**) — one LFSR bit per test selects the
  most positive or most negative word.  Variance 1, flat spectrum, but
  adjacent output bits are fully correlated, so low-order adder bits see
  only a fraction of the test patterns.
* ``PermutedLfsr`` — a Type 1 LFSR with an output permutation network,
  the spectrum-shaping variation mentioned at the end of Section 6's
  Type 1 discussion.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import GeneratorError
from ..fixedpoint import wrap
from .base import TestGenerator
from .lfsr import FibonacciLfsr, GaloisLfsr
from .polynomials import PAPER_TYPE2_POLY_12

__all__ = [
    "Type1Lfsr",
    "Type2Lfsr",
    "DecorrelatedLfsr",
    "MaxVarianceLfsr",
    "PermutedLfsr",
]


class Type1Lfsr(FibonacciLfsr):
    """LFSR-1: external-XOR LFSR, whole register read as the test word."""

    def __init__(self, width: int, poly: int = 0, seed: int = 1,
                 direction: str = "msb_to_lsb"):
        super().__init__(width, poly=poly, seed=seed, direction=direction,
                         name=f"LFSR-1/{width}")


class Type2Lfsr(GaloisLfsr):
    """LFSR-2: embedded-XOR LFSR.

    Defaults to the paper's 12-bit example polynomial 12B9h with
    LSB-to-MSB shifting when ``width == 12`` and no polynomial is given.
    """

    def __init__(self, width: int, poly: int = 0, seed: int = 1,
                 direction: str = "lsb_to_msb"):
        if poly == 0 and width == 12:
            poly = PAPER_TYPE2_POLY_12
        super().__init__(width, poly=poly, seed=seed, direction=direction,
                         name=f"LFSR-2/{width}")


class DecorrelatedLfsr(TestGenerator):
    """LFSR-D: Type 1 LFSR plus the paper's XOR decorrelator network.

    Whenever the word LSB is 1, all other bits are inverted.  This keeps
    the maximal-length properties (no repeated vectors, near-zero mean,
    variance 0.3333) while spreading power evenly over frequency.
    """

    def __init__(self, width: int, poly: int = 0, seed: int = 1,
                 direction: str = "msb_to_lsb"):
        super().__init__(width, f"LFSR-D/{width}")
        self._core = FibonacciLfsr(width, poly=poly, seed=seed,
                                   direction=direction)
        self.poly = self._core.poly

    def reset(self) -> None:
        self._core.reset()

    def generate(self, n: int) -> np.ndarray:
        words = self._core.generate(n)
        invert_mask = np.int64(((1 << self.width) - 1) & ~1)
        lsb_set = (words & 1).astype(bool)
        flipped = words ^ invert_mask
        # XOR on two's-complement raw values stays in range: only bits
        # 1..width-1 are touched, including the sign bit.
        return np.where(lsb_set, wrap(flipped, self.width), words)

    def hardware_cost(self):
        base = self._core.hardware_cost()
        return {"dff": base["dff"], "gates": base["gates"] + self.width - 1}


class MaxVarianceLfsr(TestGenerator):
    """LFSR-M: the LFSR bit stream selects +full-scale or -full-scale.

    Variance 1 (neglecting the asymmetry of two's complement: the word is
    ``2**(width-1) - 1`` or ``-2**(width-1)``), with a flat spectrum.
    """

    def __init__(self, width: int, poly: int = 0, seed: int = 1):
        super().__init__(width, f"LFSR-M/{width}")
        self._core = FibonacciLfsr(width, poly=poly, seed=seed)
        self.poly = self._core.poly

    def reset(self) -> None:
        self._core.reset()

    def generate(self, n: int) -> np.ndarray:
        bits = self._core.bit_stream(n)
        most_positive = np.int64((1 << (self.width - 1)) - 1)
        most_negative = np.int64(-(1 << (self.width - 1)))
        return np.where(bits.astype(bool), most_positive, most_negative)

    def hardware_cost(self):
        # Mode selection is wiring (replicate one stage across the word).
        return self._core.hardware_cost()


class PermutedLfsr(TestGenerator):
    """A Type 1 LFSR with a fixed output-bit permutation network.

    Section 6 notes the Type 1 spectrum "can be altered by some
    permutations of the output bits"; this wrapper applies an arbitrary
    permutation so that effect can be studied (see the ablation bench).
    """

    def __init__(self, width: int, permutation: Sequence[int],
                 poly: int = 0, seed: int = 1,
                 direction: str = "msb_to_lsb"):
        super().__init__(width, f"LFSR-P/{width}")
        if sorted(permutation) != list(range(width)):
            raise GeneratorError("permutation must rearrange 0..width-1")
        self.permutation = tuple(int(p) for p in permutation)
        self._core = FibonacciLfsr(width, poly=poly, seed=seed,
                                   direction=direction)
        self.poly = self._core.poly

    def reset(self) -> None:
        self._core.reset()

    def generate(self, n: int) -> np.ndarray:
        words = self._core.generate(n)
        out = np.zeros_like(words)
        for dst, src in enumerate(self.permutation):
            out |= ((words >> src) & 1) << dst
        return wrap(out, self.width)
