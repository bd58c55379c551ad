"""Full BIST flow on a user-supplied filter.

Shows the complete library surface on a filter that is *not* one of the
paper's designs: a 31-tap halfband-style lowpass given as plain float
coefficients.

1. quantize to CSD and build the scaled datapath;
2. report design statistics including structurally pruned faults;
3. pick a mixed test scheme and grade the fault universe;
4. split the residual misses into difficult vs near-redundant given an
   assumed worst-case operating signal;
5. screen a few faulty devices through the MISR-based session.

Run:  python examples/custom_filter_bist.py
"""

import numpy as np
from scipy import signal as sp_signal

from repro.bist import BistSession, propose_scheme
from repro.faultsim import (
    build_fault_universe,
    classify_missed_faults,
    coverage_summary,
    run_fault_coverage,
)
from repro.filters import design_statistics
from repro.generators import SineGenerator
from repro.rtl import design_from_coefficients

N_VECTORS = 8192


def main() -> None:
    # 1. a user filter: 31-tap lowpass, passband to 0.2
    coefs = sp_signal.firwin(31, 0.4)  # firwin cutoff is in Nyquist units
    design = design_from_coefficients(coefs, name="user-lp31",
                                      coef_frac=14, max_nonzeros=4)
    universe = build_fault_universe(design.graph, name=design.name)
    stats = design_statistics(design, universe)
    print(f"{stats.name}: {stats.adders} operators, {stats.registers} "
          f"registers, {stats.faults} collapsed faults "
          f"({stats.uncollapsed_faults} uncollapsed)")

    # 2. pick a scheme and grade it
    scheme = propose_scheme(design, n_vectors=N_VECTORS)
    result = run_fault_coverage(design, scheme, N_VECTORS, universe=universe)
    print()
    print(coverage_summary(result))

    # 3. are the remaining misses serious?
    worst_case = SineGenerator(design.input_fmt.width, freq=0.05,
                               amplitude=0.95)
    classified = classify_missed_faults(design, result, worst_case,
                                        n_vectors=16384)
    print(f"\nresidual misses: {classified.serious_count} difficult "
          f"(activatable by the worst-case operating signal), "
          f"{len(classified.near_redundant)} near-redundant")

    # 4. screen a few faulty devices end to end through the MISR
    session = BistSession(design, scheme, n_vectors=N_VECTORS)
    detected_faults = [f for f in universe.faults
                       if result.detect_time[f.index] < N_VECTORS]
    rng = np.random.default_rng(42)
    sample = rng.choice(len(detected_faults), size=5, replace=False)
    print("\nscreening five faulty devices through the MISR session:")
    for i in sample:
        fault = detected_faults[int(i)]
        outcome = session.screen_fault(fault)
        verdict = "PASS (ALIASED!)" if outcome.passed else "FAIL (caught)"
        print(f"  {fault.label:42s} -> {verdict}")


if __name__ == "__main__":
    main()
