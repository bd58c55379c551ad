"""Order-independent MISR signature merging over GF(2).

A Galois MISR (:class:`repro.bist.misr.Misr`) clocks one linear update
``L`` per word and XORs the (masked) word into its state, so from a
zero seed the final signature of a stream ``w_0 .. w_{n-1}`` is

    sig = XOR_i  L^(n-1-i) (w_i & mask)

— every word's contribution is independent of every other word's.  A
worker holding an arbitrary *subset* of stream positions can therefore
compact its shard into a single **partial** (the XOR of its words'
contributions), and the coordinator recovers the exact full-stream
signature by XORing partials — no matter how the universe was
partitioned, permuted or re-dispatched.  This is what lets a fleet
reproduce the single-node MISR signature bit for bit without shipping
the response stream anywhere.

``L`` is the ``width x width`` GF(2) matrix of the shift-and-poly step.
A partial is evaluated in Horner form over the sorted positions, each
gap ``L^k`` applied by square-and-multiply over precomputed squarings,
so a contiguous shard costs one matrix-vector product per word —
microseconds, not a re-simulation.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from ..errors import GeneratorError
from ..generators.polynomials import default_poly, degree

__all__ = [
    "combine_partials",
    "shard_signature_partial",
    "step_matrix",
    "stream_signature",
]

#: A GF(2) linear map as columns: ``cols[i]`` is the image of basis
#: vector ``1 << i`` packed as an int bitmask.
Matrix = List[int]


def resolve_poly(width: int, poly: int = 0) -> int:
    """The MISR feedback polynomial, defaulting like :class:`Misr`."""
    if width < 2:
        raise GeneratorError(f"MISR width must be >= 2, got {width}")
    poly = poly or default_poly(width)
    if degree(poly) != width:
        raise GeneratorError(
            f"polynomial degree {degree(poly)} != width {width}")
    return poly


def step_matrix(width: int, poly: int = 0) -> Matrix:
    """One MISR clock as a linear map: shift left, fold the poly on a
    set MSB (injection of the input word is handled separately)."""
    poly = resolve_poly(width, poly)
    mask = (1 << width) - 1
    low = poly & mask
    cols: Matrix = []
    for i in range(width):
        basis = 1 << i
        msb = (basis >> (width - 1)) & 1
        cols.append(((basis << 1) & mask) ^ (low if msb else 0))
    return cols


def mat_vec(cols: Matrix, v: int) -> int:
    out = 0
    i = 0
    while v:
        if v & 1:
            out ^= cols[i]
        v >>= 1
        i += 1
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Compose: ``(a . b)(v) == a(b(v))``."""
    return [mat_vec(a, col) for col in b]


def _squarings(width: int, poly: int, max_exp: int) -> List[Matrix]:
    """``[L, L^2, L^4, ...]`` covering exponents up to ``max_exp``."""
    mats = [step_matrix(width, poly)]
    while (1 << len(mats)) <= max_exp:
        mats.append(mat_mul(mats[-1], mats[-1]))
    return mats


def _apply_power(mats: List[Matrix], k: int, v: int) -> int:
    """``L^k (v)`` via the precomputed squarings."""
    j = 0
    while k and v:
        if k & 1:
            v = mat_vec(mats[j], v)
        k >>= 1
        j += 1
    return v


def shard_signature_partial(width: int, positions: Sequence[int],
                            words: Sequence[int], total: int,
                            poly: int = 0) -> int:
    """One shard's contribution to the full-stream MISR signature.

    ``positions`` are the global stream indices (0-based, ``< total``)
    of this shard's ``words``; the return value is
    ``XOR_i L^(total-1-positions[i]) (words[i] & mask)``.  XOR the
    partials of a complete, non-overlapping partition together
    (:func:`combine_partials`) and you have exactly
    ``Misr(width, poly).signature(full_stream)`` for a zero seed.
    """
    if len(positions) != len(words):
        raise GeneratorError(
            f"positions/words length mismatch: "
            f"{len(positions)} != {len(words)}")
    if total <= 0:
        return 0
    poly = resolve_poly(width, poly)
    mask = (1 << width) - 1
    mats = _squarings(width, poly, max(total - 1, 1))
    # Horner over the sorted positions: advance the accumulator by the
    # gap to the next word, inject it, and finally clock out the tail.
    low = poly & mask
    msb = width - 1
    acc = 0
    last = None
    for pos, word in sorted(zip(map(int, positions), words)):
        if not 0 <= pos < total:
            raise GeneratorError(
                f"stream position {pos} out of range [0, {total})")
        if last is not None:
            gap = pos - last
            if gap == 1:  # one MISR clock, as in step_matrix
                acc = ((acc << 1) & mask) ^ (low if acc >> msb else 0)
            else:
                acc = _apply_power(mats, gap, acc)
        acc ^= int(word) & mask
        last = pos
    if last is None:
        return 0
    return _apply_power(mats, total - 1 - last, acc)


def combine_partials(partials: Iterable[int]) -> int:
    """Merge shard partials into the full-stream signature (plain XOR)."""
    sig = 0
    for p in partials:
        sig ^= int(p)
    return sig


def stream_signature(width: int, words: Sequence[int],
                     poly: int = 0) -> int:
    """The single-node oracle: clock a real :class:`Misr` over the
    stream (zero seed, matching the partial algebra)."""
    from ..bist.misr import Misr

    return Misr(width, poly, seed=0).signature(words)
