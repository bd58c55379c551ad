"""Counter-based (Ramp) test generator.

Counters are often already present on-chip and are sometimes reused as
test generators (Gupta/Rajski/Tyszer, ref [10] of the paper).  Read as a
two's-complement word, a free-running counter produces a sawtooth that
sweeps the full input range — concentrating essentially all signal power
at very low frequencies, which is why the paper finds it adequate for
lowpass filters and hopeless for highpass ones.
"""

from __future__ import annotations

import numpy as np

from ..errors import GeneratorError
from ..fixedpoint import wrap
from .base import TestGenerator

__all__ = ["RampGenerator"]


class RampGenerator(TestGenerator):
    """A count-by-``step`` counter read as a two's-complement word."""

    def __init__(self, width: int, step: int = 1, start: int = 0):
        super().__init__(width, f"Ramp/{width}" if step == 1 else
                         f"Ramp/{width}x{step}")
        if step % (1 << width) == 0:
            raise GeneratorError("step must not be a multiple of 2**width")
        self.step = int(step)
        self.start = int(start)
        self.reset()

    def reset(self) -> None:
        self._count = self.start

    def generate(self, n: int) -> np.ndarray:
        idx = self._count + self.step * np.arange(n, dtype=np.int64)
        self._count = int(self._count + self.step * n)
        return wrap(idx, self.width)

    def hardware_cost(self):
        # An incrementer: one half-adder per stage.
        return {"dff": self.width, "gates": 2 * self.width}
