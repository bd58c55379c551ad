"""Linear-feedback shift-register cores.

Two classical structures (Abramovici et al. [9] of the paper):

* **Fibonacci / Type 1** — external XOR tree: one feedback bit computed
  from the tapped stages, shifted into one end of the register.  All
  register stages carry the *same* m-sequence at different delays, so a
  word read across the register is a sliding window of the bit stream.
* **Galois / Type 2** — embedded XORs between stages: each stage sees a
  differently-combined sequence, making the word spectrum depend on the
  polynomial and shift direction.

Shift directions follow the paper's naming: ``"msb_to_lsb"`` means the
new bit enters the MSB and register contents move toward the LSB;
``"lsb_to_msb"`` is the reverse.  For the Fibonacci word sequence this
only time-reverses the window, leaving the power spectrum unchanged
(Section 6); for Galois structures it matters.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeneratorError
from ..fixedpoint import wrap
from .base import TestGenerator
from .polynomials import default_poly, degree

__all__ = ["FibonacciLfsr", "GaloisLfsr", "bit_stream_to_words"]

_DIRECTIONS = ("msb_to_lsb", "lsb_to_msb")


def _recurrence_mask(poly: int, width: int) -> int:
    """Mask over the last ``width`` stream bits for the m-sequence recurrence.

    The stream satisfies ``s[n] = XOR_{i<N, p_i=1} s[n - (N - i)]``; bit
    ``j`` of the mask selects ``s[n-1-j]``, so the mask has bit ``N-i-1``
    set for every nonzero low-order coefficient ``p_i``.
    """
    mask = 0
    for i in range(width):
        if poly & (1 << i):
            mask |= 1 << (width - i - 1)
    return mask


def bit_stream_to_words(bits: np.ndarray, width: int, direction: str) -> np.ndarray:
    """Sliding-window words over an m-sequence bit stream.

    ``bits`` must hold ``n + width - 1`` stream bits; the result has ``n``
    words.  For ``msb_to_lsb`` the newest bit occupies the word MSB; for
    ``lsb_to_msb`` it occupies the LSB.
    """
    if direction not in _DIRECTIONS:
        raise GeneratorError(f"unknown shift direction {direction!r}")
    windows = np.lib.stride_tricks.sliding_window_view(bits, width)
    # windows[t, j] = bits[t + j]; the newest bit of word t is bits[t+width-1].
    if direction == "msb_to_lsb":
        # Newest bit (j = width-1) sits at the word MSB, oldest at the LSB.
        weights = 1 << np.arange(width, dtype=np.int64)
    else:
        # Newest bit sits at the word LSB.
        weights = 1 << np.arange(width - 1, -1, -1, dtype=np.int64)
    return wrap(windows.astype(np.int64) @ weights, width)


class FibonacciLfsr(TestGenerator):
    """Type 1 (external-XOR) LFSR emitting its full register each clock."""

    def __init__(
        self,
        width: int,
        poly: int = 0,
        seed: int = 1,
        direction: str = "msb_to_lsb",
        name: str = "",
    ):
        super().__init__(width, name or f"LFSR-1/{width}")
        self.poly = poly or default_poly(width)
        if degree(self.poly) != width:
            raise GeneratorError(
                f"polynomial degree {degree(self.poly)} != width {width}"
            )
        if direction not in _DIRECTIONS:
            raise GeneratorError(f"unknown shift direction {direction!r}")
        mask = (1 << width) - 1
        self.seed = seed & mask
        if self.seed == 0:
            raise GeneratorError("LFSR seed must be nonzero")
        self.direction = direction
        self._recur = _recurrence_mask(self.poly, width)
        self.reset()

    def reset(self) -> None:
        # The register holds the last `width` stream bits, newest in bit 0.
        self._history = self.seed

    def _next_bits(self, n: int) -> np.ndarray:
        """Advance the stream by ``n`` bits and return them."""
        out = np.empty(n, dtype=np.uint8)
        hist = self._history
        recur = self._recur
        mask = (1 << self.width) - 1
        for i in range(n):
            b = bin(hist & recur).count("1") & 1
            hist = ((hist << 1) | b) & mask
            out[i] = b
        self._history = hist
        return out

    def bit_stream(self, n: int) -> np.ndarray:
        """The raw pseudo-random bit stream (advances state)."""
        return self._next_bits(n)

    def generate(self, n: int) -> np.ndarray:
        if n <= 0:
            return np.zeros(0, dtype=np.int64)
        # Seed the window with the current register contents, then extend.
        prefix = np.array(
            [(self._history >> (self.width - 1 - j)) & 1 for j in range(self.width)],
            dtype=np.uint8,
        )
        # prefix is oldest-first: prefix[j] = s[n0 - width + j].
        new_bits = self._next_bits(n)
        stream = np.concatenate([prefix, new_bits])
        words = bit_stream_to_words(stream[1:], self.width, self.direction)
        return words[:n]

    def hardware_cost(self):
        taps = bin(self.poly & ((1 << self.width) - 1)).count("1")
        return {"dff": self.width, "gates": max(0, taps - 1)}


class GaloisLfsr(TestGenerator):
    """Type 2 (internal-XOR) LFSR emitting its full register each clock."""

    def __init__(
        self,
        width: int,
        poly: int = 0,
        seed: int = 1,
        direction: str = "lsb_to_msb",
        name: str = "",
    ):
        super().__init__(width, name or f"LFSR-2/{width}")
        self.poly = poly or default_poly(width)
        if degree(self.poly) != width:
            raise GeneratorError(
                f"polynomial degree {degree(self.poly)} != width {width}"
            )
        if direction not in _DIRECTIONS:
            raise GeneratorError(f"unknown shift direction {direction!r}")
        mask = (1 << width) - 1
        self.seed = seed & mask
        if self.seed == 0:
            raise GeneratorError("LFSR seed must be nonzero")
        self.direction = direction
        self.reset()

    def reset(self) -> None:
        self._state = self.seed

    def _step(self) -> int:
        mask = (1 << self.width) - 1
        low = self.poly & mask
        state = self._state
        if self.direction == "lsb_to_msb":
            # Contents move toward the MSB; the recirculated bit leaves the
            # MSB and XORs into the tapped stages.
            msb = (state >> (self.width - 1)) & 1
            state = ((state << 1) & mask) ^ (low if msb else 0)
        else:
            # Contents move toward the LSB; the bit leaving the LSB XORs in.
            lsb = state & 1
            state >>= 1
            if lsb:
                # Reflect the polynomial onto the right-shifting register.
                state ^= _reflect(low, self.width)
        self._state = state
        return state

    def generate(self, n: int) -> np.ndarray:
        out = np.empty(max(n, 0), dtype=np.int64)
        for i in range(n):
            out[i] = self._step()
        return wrap(out, self.width)

    def hardware_cost(self):
        taps = bin(self.poly & ((1 << self.width) - 1)).count("1")
        return {"dff": self.width, "gates": max(0, taps - 1)}


def _reflect(value: int, width: int) -> int:
    out = 0
    for i in range(width):
        if value & (1 << i):
            out |= 1 << (width - 1 - i)
    return out
