"""Frequency-domain generator/filter compatibility (Section 6.1, Table 3).

The output signal variance of a filter under a test generator is
estimated from spectra alone:

    sigma_y^2 = (1/L) * sum_k |G[k]|^2 |H[k]|^2          (Section 6.1)

A mismatch between the generator spectrum ``G`` and the filter response
``H`` starves the passband and attenuates the test signal at internal
taps.  The *compatibility ratio* reported here normalizes that estimate
by what a spectrally flat generator of the same total power would
deliver, so 1.0 means "as good as white", below ~0.5 means the generator
wastes most of its power outside the passband, and above 1.0 means its
power happens to concentrate inside the passband.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError
from ..generators.base import TestGenerator
from .spectrum import generator_spectrum

__all__ = [
    "CompatibilityResult",
    "output_variance_estimate",
    "compatibility_ratio",
    "classify_ratio",
    "compatibility_table",
    "per_band_compatibility",
    "RATING_GOOD",
    "RATING_POOR",
]

#: Classification thresholds on the compatibility ratio.
RATING_GOOD = 0.55
RATING_POOR = 0.20


@dataclass(frozen=True)
class CompatibilityResult:
    """Compatibility of one generator with one filter."""

    generator: str
    filter_name: str
    sigma_y2: float
    flat_sigma_y2: float

    @property
    def ratio(self) -> float:
        if self.flat_sigma_y2 <= 0:
            raise AnalysisError("filter has no passband energy")
        return self.sigma_y2 / self.flat_sigma_y2

    @property
    def rating(self) -> str:
        return classify_ratio(self.ratio)


def _filter_gain_on(freqs: np.ndarray, h: np.ndarray) -> np.ndarray:
    """|H(e^j2πf)|^2 sampled on the generator's frequency grid."""
    h = np.asarray(h, dtype=np.float64)
    response = np.exp(-2j * np.pi * np.outer(freqs, np.arange(len(h)))) @ h
    return np.abs(response) ** 2


def output_variance_estimate(
    freqs: np.ndarray, gen_power: np.ndarray, h: np.ndarray
) -> float:
    """``(1/L) sum |G|^2 |H|^2`` on the given grid.

    ``gen_power`` must follow this package's spectrum normalization
    (bin mean equals total signal power), which makes the estimate an
    actual output variance in normalized units.
    """
    gain = _filter_gain_on(freqs, h)
    return float(np.mean(gen_power * gain))


def compatibility_ratio(
    freqs: np.ndarray, gen_power: np.ndarray, h: np.ndarray
) -> Tuple[float, float]:
    """(sigma_y^2, flat-reference sigma_y^2) for a generator spectrum."""
    return _ratio_terms(gen_power, _filter_gain_on(freqs, h))


def _ratio_terms(gen_power: np.ndarray, gain: np.ndarray
                 ) -> Tuple[float, float]:
    sigma_y2 = float(np.mean(gen_power * gain))
    total_power = float(np.mean(gen_power))
    flat = total_power * float(np.mean(gain))
    return sigma_y2, flat


def classify_ratio(ratio: float) -> str:
    """Map a compatibility ratio to the paper's +/±/− rating."""
    if ratio >= RATING_GOOD:
        return "+"
    if ratio < RATING_POOR:
        return "-"
    return "±"


def per_band_compatibility(
    freqs: np.ndarray,
    gen_power: np.ndarray,
    passbands: Sequence[Tuple[float, float]],
) -> Tuple[float, List[float]]:
    """Worst-passband compatibility of a generator.

    The paper's single-number metric ``sigma_y^2`` can be fooled by
    multi-passband filters: a generator that floods one passband while
    starving another still averages well (a Ramp "passes" a band-stop
    whose lower band touches DC).  This variant rates each unity band
    separately — generator band power over flat-generator band power —
    and returns ``(min_ratio, per_band_ratios)``; the *minimum* is the
    honest compatibility, since faults downstream of the starved band
    stay untested.
    """
    if not passbands:
        raise AnalysisError("need at least one passband")
    total_power = float(np.mean(gen_power))
    ratios: List[float] = []
    for lo, hi in passbands:
        mask = (freqs >= lo) & (freqs <= hi)
        if not np.any(mask):
            raise AnalysisError(f"no spectral bins inside [{lo}, {hi}]")
        band = float(np.mean(gen_power[mask]))
        ratios.append(band / max(total_power, 1e-300))
    return min(ratios), ratios


def compatibility_table(
    generators: Sequence[TestGenerator],
    filters: Sequence[Tuple[str, np.ndarray]],
) -> List[CompatibilityResult]:
    """Table 3: rate every generator against every filter.

    ``filters`` is a list of ``(name, impulse_response)`` pairs (the
    realized coefficients of a design work directly).
    """
    results: List[CompatibilityResult] = []
    # |H|^2 per filter, once per distinct frequency grid: generators of
    # one width share an rfftfreq grid.
    gains: Dict[bytes, List[np.ndarray]] = {}
    for gen in generators:
        freqs, power = generator_spectrum(gen)
        grid = freqs.tobytes()
        if grid not in gains:
            gains[grid] = [_filter_gain_on(freqs, h) for _name, h in filters]
        for (name, _h), gain in zip(filters, gains[grid]):
            sigma_y2, flat = _ratio_terms(power, gain)
            results.append(
                CompatibilityResult(
                    generator=gen.name, filter_name=name,
                    sigma_y2=sigma_y2, flat_sigma_y2=flat,
                )
            )
    return results
