"""Two's-complement fixed-point formats.

The paper expresses every signal *relative to the bit width available at
that point in the circuit*: an ``N``-bit word ``b0 b1 ... b(N-1)`` is read
as ``-b0 + sum(b_i * 2**-i)``, i.e. a number in ``[-1, 1)``.  Inside a real
datapath, however, signals at different nodes share a common binary point
so that adders can combine them directly.  :class:`Fixed` therefore carries
both a total ``width`` and a fractional bit count ``frac``:

* the *engineering* value of a raw integer ``r`` is ``r * 2**-frac``;
* the *normalized* value (the paper's convention) is ``r / 2**(width-1)``,
  which always lies in ``[-1, 1)``.

Raw values are stored as plain ``int`` or ``numpy.int64`` arrays.  All
formats used by the filter designs in this package are narrow enough
(``width + frac`` well under 62) that ``int64`` intermediates never
overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FixedPointError

__all__ = ["Fixed", "wrap", "sign_bit", "bit"]

_MAX_WIDTH = 60


def wrap(raw, width: int):
    """Wrap integers into the two's-complement range of ``width`` bits.

    Mirrors the modular arithmetic of a hardware adder that simply drops
    carries out of the most significant bit.  Works on scalars and numpy
    arrays alike.  Masking the low ``width`` bits equals reducing modulo
    ``2**width`` for Python ints and for every int64, overflowed sums
    included (``2**width`` divides ``2**64``), and costs numpy a third
    to a half of what ``%`` does.
    """
    if not 1 <= width <= _MAX_WIDTH:
        raise FixedPointError(f"width must be in [1, {_MAX_WIDTH}], got {width}")
    half = 1 << (width - 1)
    return ((raw + half) & ((1 << width) - 1)) - half


def sign_bit(raw, width: int):
    """Return the sign (MSB) bit of ``raw`` in a ``width``-bit format."""
    return (np.asarray(raw) >> (width - 1)) & 1


def bit(raw, k):
    """Return bit ``k`` (LSB = 0) of a two's-complement raw value.

    Negative Python/numpy integers already use an infinite two's-complement
    representation, so a plain shift-and-mask is exact for any ``k``.
    """
    return (np.asarray(raw) >> k) & 1


@dataclass(frozen=True)
class Fixed:
    """A two's-complement fixed-point format.

    Parameters
    ----------
    width:
        Total number of bits, including the sign bit.
    frac:
        Number of fractional bits; the engineering value of a raw integer
        ``r`` is ``r * 2**-frac``.  ``frac`` may exceed ``width`` (a purely
        fractional signal known to be small) or be negative (an integer
        signal with trailing implied zeros); filter datapaths in this
        package use ``0 <= frac < width + 8``.
    """

    width: int
    frac: int

    def __post_init__(self) -> None:
        if not 1 <= self.width <= _MAX_WIDTH:
            raise FixedPointError(
                f"width must be in [1, {_MAX_WIDTH}], got {self.width}"
            )

    # ------------------------------------------------------------------
    # Ranges
    # ------------------------------------------------------------------
    @property
    def min_raw(self) -> int:
        """Most negative representable raw integer."""
        return -(1 << (self.width - 1))

    @property
    def max_raw(self) -> int:
        """Most positive representable raw integer."""
        return (1 << (self.width - 1)) - 1

    @property
    def lsb(self) -> float:
        """Engineering weight of one raw unit."""
        return 2.0 ** -self.frac

    @property
    def min_value(self) -> float:
        """Most negative representable engineering value."""
        return self.min_raw * self.lsb

    @property
    def max_value(self) -> float:
        """Most positive representable engineering value."""
        return self.max_raw * self.lsb

    @property
    def half_scale(self) -> float:
        """Engineering value corresponding to normalized magnitude 1.

        A signal whose engineering magnitude stays below ``half_scale``
        never overflows this format.
        """
        return 2.0 ** (self.width - 1 - self.frac)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def contains(self, raw) -> bool:
        """True when every element of ``raw`` is representable."""
        arr = np.asarray(raw)
        return bool(np.all(arr >= self.min_raw) and np.all(arr <= self.max_raw))

    def wrap(self, raw):
        """Wrap ``raw`` into this format's range (hardware overflow)."""
        return wrap(raw, self.width)

    def saturate(self, raw):
        """Clamp ``raw`` into this format's range."""
        return np.clip(np.asarray(raw), self.min_raw, self.max_raw)

    def from_float(self, value, rounding: str = "round"):
        """Quantize engineering value(s) to raw integers.

        ``rounding`` is ``"round"`` (ties away from zero, via numpy round),
        ``"floor"`` (truncation toward minus infinity, what a hardware
        right-shift performs), or ``"nearest-even"``.  Values outside the
        representable range raise :class:`FixedPointError`.
        """
        scaled = np.asarray(value, dtype=np.float64) * (1 << self.frac) \
            if self.frac >= 0 else np.asarray(value, dtype=np.float64) / (1 << -self.frac)
        if rounding == "round":
            raw = np.floor(scaled + 0.5).astype(np.int64)
        elif rounding == "floor":
            raw = np.floor(scaled).astype(np.int64)
        elif rounding == "nearest-even":
            raw = np.rint(scaled).astype(np.int64)
        else:
            raise FixedPointError(f"unknown rounding mode {rounding!r}")
        if not self.contains(raw):
            raise FixedPointError(
                f"value out of range for {self}: engineering range is "
                f"[{self.min_value}, {self.max_value}]"
            )
        if np.isscalar(value):
            return int(raw)
        return raw

    def to_float(self, raw):
        """Engineering value(s) of raw integer(s)."""
        return np.asarray(raw, dtype=np.float64) * self.lsb

    def normalize(self, raw):
        """Normalized value(s) in ``[-1, 1)`` — the paper's convention."""
        return np.asarray(raw, dtype=np.float64) / (1 << (self.width - 1))

    def rescale_raw(self, raw, target: "Fixed"):
        """Re-express ``raw`` in ``target``'s binary point, truncating LSBs.

        Increasing precision is exact (left shift); decreasing precision
        truncates toward minus infinity, exactly like discarding wires in
        hardware.  The result is *not* wrapped — callers decide whether
        the target width applies.
        """
        delta = target.frac - self.frac
        arr = np.asarray(raw)
        if delta >= 0:
            return arr << delta
        return arr >> -delta

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"Q({self.width},{self.frac})"
