"""Machine-speed gauge: a fixed pure-Python workload timed between operations.

On a shared machine the speed of this process drifts by tens of percent
over seconds to minutes, as neighbours come and go.  The gauge walks a
fixed set of generator expression trees (rendering and exact evaluation,
the same mix of calls, allocation and Fraction arithmetic as nradiv's
tree walkers) and never runs nradiv code, so its time moves with the
machine and not with the program under test.  Every latency is scaled by
`REFERENCE_S / gauge time around it`: the result reads as the latency on
a machine where the gauge takes `REFERENCE_S`.
"""

from __future__ import annotations

import time
from fractions import Fraction

import gen

# About the gauge's time on the 2-core Xeon sandbox (CPython 3.11.7) where
# this benchmark was written, in a quiet spell.  Fixed, so normalized
# numbers from different runs and commits compare directly.
REFERENCE_S = 0.0028


class Gauge:
    def __init__(self) -> None:
        variables = [f"x{i}" for i in range(8)]
        builder = gen._WideBuilder(gen.rng_for("gauge", 0), gen.rng_for("gauge", 1), variables, gen._DIVISOR_KINDS)
        self.trees = [builder.comparison(4, variables) for _ in range(24)]
        self.env = {v: Fraction(i - 3, 2) for i, v in enumerate(variables)}

    def sample(self) -> float:
        start = time.perf_counter()
        for tree in self.trees:
            gen.render(tree)
            gen.value(tree, self.env)
        return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Scale for a latency measured between two gauge samples."""

    return REFERENCE_S / ((before + after) / 2)
