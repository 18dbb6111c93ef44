"""Reference implementations kept for tests only.

reference_chain_walk is the plan-route chain walk that liomsim used before
light-cone finishes: at every site it forks the runner of the unpruned
chain network and finishes the whole remaining contraction.  It is slow
(about N times one plan pass per chain) but independent of the light-cone
construction, so the tests compare the library's walk against it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from liomsim.errors import NumericalIntegrityError
from liomsim.simulate import IMAG_TOL, ChainResult, _chain_plan
from liomsim.tensor import PlanRunner

# The frozen walk's own rule: a prefix probability at or below this counts
# as impossible.
DEGENERATE_PREFIX = 1e-30

_PROJ = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))


def reference_chain_walk(
    req, bits: Sequence[int] | None = None, seed: int | None = None
) -> ChainResult:
    """Chain rule on the plan route by full forks: the marginal of outcome
    0 at site w is a fork of the shared left contraction, finished over
    every remaining node; the prefix probability is carried by subtraction.
    With a seed, the branch is drawn from the stream conditional_chain
    uses."""
    rng = None if bits is not None else np.random.default_rng([int(seed), 0])
    network, plan, mark_nodes = _chain_plan(req)
    runner = PlanRunner(plan, network)
    out_bits: list[int] = []
    probs: list[float] = []
    den = 1.0
    for site in range(1, req.n_sites + 1):
        runner.run_to(runner.step_of(mark_nodes[site]))
        fork = runner.fork()
        fork.set_override(mark_nodes[site], _PROJ[0])
        raw = fork.finish()
        if abs(raw.imag) > IMAG_TOL or not -IMAG_TOL <= raw.real <= 1 + IMAG_TOL:
            raise NumericalIntegrityError(f"marginal {raw} out of range")
        val0 = min(max(raw.real, 0.0), 1.0)
        if den <= DEGENERATE_PREFIX:
            p0 = 1.0 if 2 * val0 >= den else 0.0
        else:
            p0 = val0 / den
            if not -IMAG_TOL <= p0 <= 1 + IMAG_TOL:
                raise NumericalIntegrityError(f"conditional probability {p0} outside [0,1]")
            p0 = min(max(p0, 0.0), 1.0)
        bit = int(bits[site - 1]) if bits is not None else (0 if rng.random() < p0 else 1)
        probs.append(p0)
        out_bits.append(bit)
        runner.set_override(mark_nodes[site], _PROJ[bit])
        den = val0 if bit == 0 else max(den - val0, 0.0)
    return ChainResult(bits="".join(map(str, out_bits)), probs=tuple(probs))
