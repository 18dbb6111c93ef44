"""Brute-force dense references: state-vector evolution via eigendecomposition
of the fully materialized Hamiltonian, and full outcome distributions with
their total-variation distance.  Everything here is the slow, independent
side of every equivalence test; nothing here runs on chains above its own
site cap, MAX_ORACLE_N or the dense cap if that is lower.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FeasibilityError, NumericalIntegrityError
from .model import MblInstance, _dense_cap, dense_hamiltonian

# The oracle diagonalises the dense 2^N x 2^N Hamiltonian, and eigh holds
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
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-10:
        raise NumericalIntegrityError(
            f"dense evolution lost unitarity: norm {norm!r} after t={t}"
        )
    return state


def exact_distribution(
    instance: MblInstance,
    t: float,
    r_j: int | None = None,
    r_u: int | None = None,
) -> OutcomeDistribution:
    """Exact D(sigma) = |<sigma|exp(-iHt)|0...0>|^2 over all bitstrings."""
    state = evolve_state(instance, t, r_j=r_j, r_u=r_u)
    probs = np.abs(state) ** 2
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise NumericalIntegrityError(f"distribution mass {total!r} deviates from 1")
    return OutcomeDistribution(instance.n_sites, probs)
