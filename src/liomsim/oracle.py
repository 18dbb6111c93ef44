"""The exact reference: state-vector evolution and full outcome
distributions with their total-variation distance.

The library has one oracle, evolve_factored.  The LIOM form gives
e^{-iHt} = U e^{-iDt} U^dag exactly, so it applies the constituents of U
and the phases of the sigma diagonal D to a state vector and never builds
a 2^N x 2^N matrix.  It runs to the state cap model.MAX_STATE_N, and
exact_distribution, the `liomsim verify` self-check and the hardness
check all read it.

evolve_state is kept only as the tests' independent reference for the
factorisation: it materializes the dense (optionally truncated)
Hamiltonian, diagonalises it with eigh, and shares no code path with the
factored form.  It refuses N above MAX_ORACLE_N or the dense cap,
whichever is lower.

Both refuse, before allocating, what they cannot hold, and both refuse a
result whose norm is off by more than 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .errors import DomainError, FeasibilityError, NumericalIntegrityError
from .model import (
    MblInstance,
    _dense_cap,
    apply_to_state,
    check_constituent_widths,
    check_state_feasible,
    constituent_positions,
    dense_hamiltonian,
    sigma_diagonal,
)

# evolve_state diagonalises the dense 2^N x 2^N Hamiltonian, and eigh holds
# several matrices of that size at once: 256 MiB each at N=12, 4 GiB at
# N=14.  Its cap is this or the dense cap, whichever is lower.
MAX_ORACLE_N = 12


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over all 2^N bitstrings, indexed by basis integer."""

    n_sites: int
    probabilities: np.ndarray

    def probability(self, bits: str) -> float:
        if len(bits) != self.n_sites or set(bits) - {"0", "1"}:
            raise DomainError(f"bitstring {bits!r} does not match N={self.n_sites}")
        return float(self.probabilities[int(bits, 2)])

    def tvd(self, other: "OutcomeDistribution") -> float:
        if other.n_sites != self.n_sites:
            raise DomainError("distributions live on different chain sizes")
        return 0.5 * float(np.abs(self.probabilities - other.probabilities).sum())


def evolve_state(
    instance: MblInstance,
    t: float,
    r_j: int | None = None,
    r_u: int | None = None,
) -> np.ndarray:
    """exp(-iHt)|0...0> through a full eigendecomposition of the dense
    (optionally truncated) Hamiltonian.  N above min(MAX_ORACLE_N, dense
    cap) is refused before any matrix is built."""
    n = instance.n_sites
    cap = min(MAX_ORACLE_N, _dense_cap())
    if n > cap:
        raise FeasibilityError(
            f"the dense oracle diagonalises a 2^N x 2^N Hamiltonian of {16 * 4**n} bytes "
            f"per matrix; N={n} exceeds the oracle cap of {cap} sites"
        )
    ham = dense_hamiltonian(instance, r_j=r_j, r_u=r_u)
    vals, vecs = np.linalg.eigh(ham)
    initial = np.zeros(2**n, dtype=complex)
    initial[0] = 1.0
    state = vecs @ (np.exp(-1j * vals * t) * (vecs.conj().T @ initial))
    _check_norm(state, "dense", t)
    return state


def evolve_factored(
    instance: MblInstance,
    t: float,
    r_j: int | None = None,
    r_u: int | None = None,
) -> np.ndarray:
    """exp(-iHt)|0...0> = U e^{-iDt} U^dag |0...0> as a state vector: U's
    factors of width <= r_u, daggered, in placement order (U^dag), then
    the phases e^{-it D} of the sigma diagonal with couplings of range
    < r_j, then the same factors in reverse order (U).  None means
    untruncated, as in evolve_state.

    Refused before any constituent or state is built: N above the state
    cap, and a constituent whose 2^w x 2^w matrix exceeds it, named by its
    placement."""
    n = instance.n_sites
    check_state_feasible(n, "the factored oracle")
    positions = constituent_positions(n, r_u, instance.constituent_support)
    check_constituent_widths(positions, 2**model.MAX_STATE_N, "state cap")
    gates = instance.constituents_at(positions)
    phases = np.exp(-1j * t * sigma_diagonal(instance, r_j))
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    state = state.reshape((2,) * n)
    for cons in gates:
        state = apply_to_state(cons.matrix.conj().T, cons.sites, state, n)
    state = phases.reshape(state.shape) * state
    for cons in reversed(gates):
        state = apply_to_state(cons.matrix, cons.sites, state, n)
    state = state.ravel()
    _check_norm(state, "factored", t)
    return state


def _check_norm(state: np.ndarray, how: str, t: float) -> None:
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise NumericalIntegrityError(
            f"{how} evolution lost unitarity: norm {norm!r} after t={t}"
        )


def exact_distribution(
    instance: MblInstance,
    t: float,
    r_j: int | None = None,
    r_u: int | None = None,
) -> OutcomeDistribution:
    """Exact D(sigma) = |<sigma|exp(-iHt)|0...0>|^2 over all bitstrings,
    from evolve_factored."""
    state = evolve_factored(instance, t, r_j=r_j, r_u=r_u)
    probs = np.abs(state) ** 2
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise NumericalIntegrityError(f"distribution mass {total!r} deviates from 1")
    return OutcomeDistribution(instance.n_sites, probs)
