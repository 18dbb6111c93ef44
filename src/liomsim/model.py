"""Data model for MBL spin-chain instances.

An instance is a chain of N qubits together with two oracles: a coupling
oracle giving the coefficient J_I of every z-string of the dressed spins,
and a constituent oracle giving the block unitaries whose layered product
forms the quasilocal dressing unitary U.  The dressed spin on site i is
tau_i^z = U sigma_i^z U^dagger, and the Hamiltonian is

    H = sum_I J_I tau_{i_1}^z ... tau_{i_p}^z,

with |J_I| <= exp(-(i_p - i_1)/xi).  Constituent widths are organised in
layers: the layer of width-n blocks tiles the chain in n sub-layers, and
each block satisfies ||1 - U_k^(n)||^2 <= q * exp(-(n-1)/xi) in operator
norm.  Blocks that would run past site N wrap around and factor into a
tensor product of two pieces.

Basis convention used everywhere in this package: computational z basis
with site 1 as the most significant bit of the basis index.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, FeasibilityError, NumericalIntegrityError

MAX_DENSE_N = 14

UNITARITY_TOL = 1e-12
CLOSENESS_SLACK = 1e-9


def _dense_cap() -> int:
    """Dense-materialization site cap; env override is read lazily so tests
    can adjust it."""
    import os

    raw = os.environ.get("LIOMSIM_MAX_DENSE_N")
    if raw is None:
        return MAX_DENSE_N
    try:
        return int(raw)
    except ValueError as exc:
        raise DomainError(f"LIOMSIM_MAX_DENSE_N must be an integer, got {raw!r}") from exc


def check_dense_feasible(n_sites: int, what: str) -> None:
    cap = _dense_cap()
    if n_sites > cap:
        raise FeasibilityError(
            f"{what} requires dense 2^N arrays; N={n_sites} exceeds the cap of {cap} sites"
        )


# The matrix-free paths (the factored oracle, sigma_diagonal and the 2D IQP
# state) hold a few 2^N-entry vectors and no 2^N x 2^N matrix.  A state of
# 2^22 complex entries takes 64 MiB; they refuse larger N before allocating.
MAX_STATE_N = 22


def check_state_feasible(n_sites: int, what: str) -> None:
    if n_sites > MAX_STATE_N:
        raise FeasibilityError(
            f"{what} holds 2^N-entry state vectors of {16 * 2**n_sites} bytes; "
            f"N={n_sites} exceeds the state cap of {MAX_STATE_N} sites "
            f"({16 * 2**MAX_STATE_N} bytes)"
        )


@dataclass(frozen=True)
class InstanceParams:
    """Global chain parameters.

    n_sites: number of qubits N (>= 1).
    xi: localization length in lattice units; must satisfy xi < 1/ln 2,
        which every analytic bound in this package requires.
    q_const: closeness constant q of the constituent bound (>= 1, O(1)).
    """

    n_sites: int
    xi: float
    q_const: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.n_sites, (int, np.integer)) or self.n_sites < 1:
            raise DomainError(f"n_sites must be a positive integer, got {self.n_sites!r}")
        if not (self.xi > 0):
            raise DomainError(f"xi must be positive, got {self.xi!r}")
        if self.xi >= 1 / math.log(2):
            raise DomainError(
                f"xi={self.xi} not allowed: the analytic bounds require xi < 1/ln 2 "
                f"~= {1 / math.log(2):.6f}"
            )
        if not (self.q_const >= 1):
            raise DomainError(f"q_const must be >= 1, got {self.q_const!r}")


@dataclass(frozen=True)
class CouplingIndex:
    """A strictly increasing tuple of site indices i_1 < ... < i_p."""

    sites: tuple[int, ...]

    def __init__(self, sites: Iterable[int]):
        sites_t = tuple(int(s) for s in sites)
        if len(sites_t) < 1:
            raise DomainError("coupling index needs at least one site")
        if any(b <= a for a, b in zip(sites_t, sites_t[1:])):
            raise DomainError(f"coupling index sites must be strictly increasing, got {sites_t}")
        if sites_t[0] < 1:
            raise DomainError(f"site indices are 1-based, got {sites_t}")
        object.__setattr__(self, "sites", sites_t)

    @property
    def order(self) -> int:
        return len(self.sites)

    @property
    def range(self) -> int:
        return self.sites[-1] - self.sites[0]

    @property
    def min_site(self) -> int:
        return self.sites[0]


@dataclass(frozen=True)
class Constituent:
    """One block U_k^(n) of the quasilocal unitary.

    sites lists the acted-on qubits in tensor order; for a wrapped block
    (start + width - 1 > N) this is (k..N, 1..k+n-1-N) and the matrix is a
    tensor product across the wrap.  The matrix is row-major over the bits
    of `sites` in that order.
    """

    start_site: int
    width: int
    sites: tuple[int, ...]
    matrix: np.ndarray | None
    is_identity: bool = False

    @classmethod
    def identity(cls, start_site: int, width: int, sites: tuple[int, ...]) -> "Constituent":
        return cls(start_site, width, sites, None, True)

    def dense_matrix(self) -> np.ndarray:
        if self.matrix is not None:
            return self.matrix
        return np.eye(2**self.width, dtype=complex)

    def validate(self, params: InstanceParams) -> None:
        n = self.width
        if not self.is_identity:
            m = self.matrix
            if m is None or m.shape != (2**n, 2**n):
                raise DomainError(
                    f"constituent ({self.start_site},{n}) matrix has wrong shape"
                )
            dev = np.linalg.norm(m.conj().T @ m - np.eye(2**n), 2)
            if dev > UNITARITY_TOL:
                raise DomainError(
                    f"constituent ({self.start_site},{n}) is not unitary: "
                    f"||M^dag M - 1|| = {dev:.3e} > {UNITARITY_TOL}"
                )
            closeness = np.linalg.norm(np.eye(2**n) - m, 2) ** 2
            bound = params.q_const * math.exp(-(n - 1) / params.xi)
            if closeness > bound * (1 + CLOSENESS_SLACK):
                raise DomainError(
                    f"constituent ({self.start_site},{n}) violates the closeness bound: "
                    f"||1-M||^2 = {closeness:.6e} > q*exp(-(n-1)/xi) = {bound:.6e}"
                )


@dataclass(frozen=True)
class Placement:
    """Position of one constituent in the layered product: width n,
    start site k, acted sites in tensor order (wrapping across site N)."""

    width: int
    start: int
    sites: tuple[int, ...]


def placement_sites(n_sites: int, start: int, width: int) -> tuple[int, ...]:
    end = start + width - 1
    if end <= n_sites:
        return tuple(range(start, end + 1))
    return tuple(range(start, n_sites + 1)) + tuple(range(1, end - n_sites + 1))


def constituent_placements(n_sites: int, max_width: int | None = None) -> list[Placement]:
    """All constituent positions in product order: the first entry is the
    leftmost factor of the operator product U (hence the one applied last
    to a ket).  Layer n runs through sub-layers j = 1..n, each stepping
    i = 0..floor((N-n)/n) with start k = i*n + j."""
    top = n_sites if max_width is None else min(max_width, n_sites)
    out: list[Placement] = []
    for n in range(1, top + 1):
        i_max = (n_sites - n) // n
        for j in range(1, n + 1):
            for i in range(i_max + 1):
                k = i * n + j
                out.append(Placement(n, k, placement_sites(n_sites, k, n)))
    return out


@dataclass(frozen=True)
class MblInstance:
    """Immutable MBL chain instance.

    couplings: pure function CouplingIndex -> float with the exponential
        decay guarantee.
    constituents: pure function (start k, width n) -> Constituent.
    coupling_support: optional explicit list of site tuples where J may be
        nonzero; None means all indices of order <= max_body.
    descriptor: JSON-serializable reconstruction recipe (see
        instance_to_json), or None for ad-hoc instances.
    """

    params: InstanceParams
    couplings: Callable[[CouplingIndex], float]
    constituents: Callable[[int, int], Constituent]
    max_body: int
    label: str = ""
    coupling_support: tuple[tuple[int, ...], ...] | None = None
    descriptor: dict | None = None
    _constituent_cache: dict = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    @property
    def n_sites(self) -> int:
        return self.params.n_sites

    def coupling(self, index: CouplingIndex | Sequence[int]) -> float:
        if not isinstance(index, CouplingIndex):
            index = CouplingIndex(index)
        if index.sites[-1] > self.n_sites:
            raise DomainError(
                f"coupling index {index.sites} out of range for N={self.n_sites}"
            )
        return float(self.couplings(index))

    def constituent(self, start: int, width: int) -> Constituent:
        if not (1 <= start <= self.n_sites and 1 <= width <= self.n_sites):
            raise DomainError(
                f"constituent position ({start},{width}) out of range for N={self.n_sites}"
            )
        key = (start, width)
        hit = self._constituent_cache.get(key)
        if hit is None:
            hit = self.constituents(start, width)
            self._constituent_cache[key] = hit
        return hit

    @property
    def support_size(self) -> int:
        """Number of index sets iter_indices walks, before ranges >= r_j and
        zero couplings are dropped."""
        if self.coupling_support is not None:
            return len(self.coupling_support)
        return sum(math.comb(self.n_sites, p) for p in range(1, self.max_body + 1))

    def iter_indices(self, r_j: int | None = None) -> Iterator[tuple[tuple[int, ...], float]]:
        """Yield (sites, J) for every index with a nonzero coupling, with
        ranges >= r_j dropped when r_j is given."""
        if self.coupling_support is not None:
            support: Iterable[tuple[int, ...]] = self.coupling_support
        else:
            support = (
                sites
                for p in range(1, self.max_body + 1)
                for sites in itertools.combinations(range(1, self.n_sites + 1), p)
            )
        for sites in support:
            if r_j is not None and sites[-1] - sites[0] >= r_j:
                continue
            value = self.coupling(CouplingIndex(sites))
            if value != 0.0:
                yield sites, value


def _index_seed_key(seed: int, sites: tuple[int, ...]) -> list[int]:
    return [seed & 0xFFFFFFFFFFFFFFFF, 1, len(sites), *sites]


def _constituent_seed_key(seed: int, start: int, width: int) -> list[int]:
    return [seed & 0xFFFFFFFFFFFFFFFF, 2, start, width]


def _random_hermitian_unit_norm(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Random Hermitian with unit operator norm, as (eigenvalues, eigenvectors)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    herm = (g + g.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    scale = np.max(np.abs(vals))
    if scale == 0.0:
        vals = np.zeros(dim)
        vals[-1] = 1.0
        return vals, np.eye(dim, dtype=complex)
    return vals / scale, vecs


def _theta_for_distance(target_sq: float) -> float:
    """Angle t with ||1 - exp(i t K)|| = sqrt(target_sq) for unit-norm
    Hermitian K (distance 2 sin(t/2))."""
    target = math.sqrt(target_sq)
    if target > 2:
        raise DomainError(
            f"requested constituent distance^2 {target_sq:.3f} exceeds the attainable 4"
        )
    return 2 * math.asin(target / 2)


def _random_constituent(
    params: InstanceParams, seed: int, start: int, width: int
) -> Constituent:
    sites = placement_sites(params.n_sites, start, width)
    target_sq = (params.q_const / 2) * math.exp(-(width - 1) / params.xi)
    theta = _theta_for_distance(target_sq)
    rng = np.random.default_rng(_constituent_seed_key(seed, start, width))
    wrapped = sites[-1] != start + width - 1
    if not wrapped:
        vals, vecs = _random_hermitian_unit_norm(rng, 2**width)
        mat = (vecs * np.exp(1j * theta * vals)) @ vecs.conj().T
    else:
        w1 = params.n_sites - start + 1
        w2 = width - w1
        vals1, vecs1 = _random_hermitian_unit_norm(rng, 2**w1)
        vals2, vecs2 = _random_hermitian_unit_norm(rng, 2**w2)
        # Exponentiate theta * (K1 (x) 1 + 1 (x) K2)/c with c the operator
        # norm of the sum, so the block is an exact tensor product across
        # the wrap and still sits at the prescribed distance from 1.
        c = max(vals1.max() + vals2.max(), -(vals1.min() + vals2.min()))
        piece1 = (vecs1 * np.exp(1j * (theta / c) * vals1)) @ vecs1.conj().T
        piece2 = (vecs2 * np.exp(1j * (theta / c) * vals2)) @ vecs2.conj().T
        mat = np.kron(piece1, piece2)
    return Constituent(start, width, sites, mat)


def build_random_instance(
    params: InstanceParams,
    seed: int,
    max_body: int,
    max_width: int | None = None,
    periodic: bool = True,
    label: str = "",
) -> MblInstance:
    """Random instance with couplings uniform in [-e^{-range/xi}, e^{-range/xi}]
    for orders <= max_body and constituents e^{i theta K} at the exact
    distance ||1-U||^2 = (q/2) e^{-(n-1)/xi}; deterministic in seed.

    max_width, if given, makes every constituent of width > max_width the
    identity (a banded dressing unitary); widths within the cap are
    unchanged.  periodic=False additionally sets every wrapped placement
    (one straddling the chain end) to identity, giving an open-boundary
    dressing with no long bond between the first and last sites.
    """
    if not isinstance(max_body, (int, np.integer)) or max_body < 1:
        raise DomainError(f"max_body must be a positive integer, got {max_body!r}")
    if max_body > params.n_sites:
        raise DomainError(f"max_body={max_body} exceeds n_sites={params.n_sites}")
    if max_width is not None and max_width < 1:
        raise DomainError(f"max_width must be >= 1, got {max_width!r}")
    seed = int(seed)
    xi = params.xi

    def coupling(index: CouplingIndex) -> float:
        if index.order > max_body:
            return 0.0
        bound = math.exp(-index.range / xi)
        rng = np.random.default_rng(_index_seed_key(seed, index.sites))
        return float(rng.uniform(-bound, bound))

    def constituent(start: int, width: int) -> Constituent:
        sites = placement_sites(params.n_sites, start, width)
        if max_width is not None and width > max_width:
            return Constituent.identity(start, width, sites)
        if not periodic and start + width - 1 > params.n_sites:
            return Constituent.identity(start, width, sites)
        return _random_constituent(params, seed, start, width)

    descriptor = {
        "kind": "random",
        "n_sites": params.n_sites,
        "xi": params.xi,
        "q": params.q_const,
        "seed": seed,
        "max_body": int(max_body),
    }
    if max_width is not None:
        descriptor["max_width"] = int(max_width)
    if not periodic:
        descriptor["periodic"] = False
    return MblInstance(
        params=params,
        couplings=coupling,
        constituents=constituent,
        max_body=int(max_body),
        label=label or f"random(seed={seed})",
        descriptor=descriptor,
    )


def build_explicit_instance(
    params: InstanceParams,
    couplings: dict[tuple[int, ...], float],
    constituents: dict[tuple[int, int], np.ndarray],
    label: str = "",
    validate: bool = True,
) -> MblInstance:
    """Instance from explicit tables; missing couplings are 0 and missing
    constituents are identity.  Constituent keys are (start, width) with
    matrices row-major over the wrapped site order."""
    coupling_table: dict[tuple[int, ...], float] = {}
    for raw_sites, value in couplings.items():
        index = CouplingIndex(raw_sites)
        if index.sites[-1] > params.n_sites:
            raise DomainError(f"coupling index {index.sites} out of range")
        if validate and abs(value) > math.exp(-index.range / params.xi) * (1 + 1e-12):
            raise DomainError(
                f"coupling {index.sites} = {value} violates decay bound "
                f"exp(-range/xi) = {math.exp(-index.range / params.xi):.6e}"
            )
        coupling_table[index.sites] = float(value)

    constituent_table: dict[tuple[int, int], Constituent] = {}
    for (start, width), mat in constituents.items():
        sites = placement_sites(params.n_sites, start, width)
        cons = Constituent(start, width, sites, np.asarray(mat, dtype=complex))
        if validate:
            cons.validate(params)
        constituent_table[(start, width)] = cons

    def coupling(index: CouplingIndex) -> float:
        return coupling_table.get(index.sites, 0.0)

    def constituent(start: int, width: int) -> Constituent:
        hit = constituent_table.get((start, width))
        if hit is not None:
            return hit
        return Constituent.identity(start, width, placement_sites(params.n_sites, start, width))

    max_body = max((len(s) for s in coupling_table), default=1)
    support = tuple(sorted(coupling_table))
    descriptor = {
        "kind": "explicit",
        "n_sites": params.n_sites,
        "xi": params.xi,
        "q": params.q_const,
        "couplings": [
            {"sites": list(sites), "value": coupling_table[sites]} for sites in support
        ],
        "constituents": [
            {
                "k": start,
                "n": width,
                "re": [float(x) for x in cons.dense_matrix().real.ravel()],
                "im": [float(x) for x in cons.dense_matrix().imag.ravel()],
            }
            for (start, width), cons in sorted(constituent_table.items())
        ],
    }
    return MblInstance(
        params=params,
        couplings=coupling,
        constituents=constituent,
        max_body=max_body,
        label=label or "explicit",
        coupling_support=support,
        descriptor=descriptor,
    )


# ---------------------------------------------------------------------------
# Dense materialization (small N only) and 2^N-vector helpers


def apply_to_state(
    matrix: np.ndarray, sites: Sequence[int], state: np.ndarray, n_sites: int
) -> np.ndarray:
    """Apply a 2^w x 2^w matrix acting on `sites` (1-based, tensor order)
    to a state tensor of shape (2,)*N possibly followed by extra axes."""
    w = len(sites)
    gate = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * w))
    axes_in = [s - 1 for s in sites]
    out = np.tensordot(gate, state, axes=(list(range(w, 2 * w)), axes_in))
    return np.moveaxis(out, list(range(w)), axes_in)


def dense_unitary(instance: MblInstance, max_width: int | None = None) -> np.ndarray:
    """Ordered product of all constituents of width <= max_width, embedded
    at their sites: the full dressing unitary U for max_width = N, the
    truncated U-tilde for max_width = r_U."""
    n = instance.n_sites
    check_dense_feasible(n, "dense_unitary")
    placements = constituent_placements(n, max_width)
    acc = np.eye(2**n, dtype=complex).reshape((2,) * n + (2**n,))
    # Product order: first placement is the leftmost operator factor, so it
    # is applied last when multiplying onto the identity from the left.
    for place in reversed(placements):
        cons = instance.constituent(place.start, place.width)
        if cons.is_identity:
            continue
        acc = apply_to_state(cons.dense_matrix(), cons.sites, acc, n)
    return acc.reshape(2**n, 2**n)


_SIGMA_Z = np.array([1.0, -1.0])


def z_string_diagonal(
    n_sites: int, terms: Iterable[tuple[tuple[int, ...], float]]
) -> np.ndarray:
    """Diagonal of sum_I c_I sigma^z_{i_1}...sigma^z_{i_p} in the
    computational basis (site 1 most significant), from (sites, c_I) terms.
    Each term is c_I times the broadcast product of its sites' [1, -1]
    signs, 2^p entries added onto the 2^N sum, so one 2^N vector is all
    that is held."""
    n = n_sites
    signs = [None] + [
        _SIGMA_Z.reshape((1,) * (s - 1) + (2,) + (1,) * (n - s)) for s in range(1, n + 1)
    ]
    diag = np.zeros((2,) * n)
    for sites, value in terms:
        term = value * signs[sites[0]]
        for s in sites[1:]:
            term = term * signs[s]
        diag += term
    return diag.ravel()


def sigma_diagonal(instance: MblInstance, r_j: int | None = None) -> np.ndarray:
    """Diagonal of H_sigma = sum_I J_I sigma^z_{i_1}...sigma^z_{i_p} in the
    computational basis (site 1 most significant), couplings with range
    >= r_j dropped when r_j is given.  It needs no dense matrix, so N is
    capped by the state cap MAX_STATE_N, not the dense cap; each coupling
    index costs one pass over the 2^N entries."""
    n = instance.n_sites
    check_state_feasible(n, "sigma_diagonal")
    return z_string_diagonal(n, instance.iter_indices(r_j))


def dense_hamiltonian(
    instance: MblInstance, r_j: int | None = None, r_u: int | None = None
) -> np.ndarray:
    """Dense H = U_eff H_sigma U_eff^dagger with the coupling cutoff r_j and
    the constituent width cutoff r_u (None means untruncated)."""
    n = instance.n_sites
    check_dense_feasible(n, "dense_hamiltonian")
    u = dense_unitary(instance, max_width=r_u)
    diag = sigma_diagonal(instance, r_j)
    ham = (u * diag) @ u.conj().T
    _check_hermitian(ham)
    return (ham + ham.conj().T) / 2


def _check_hermitian(ham: np.ndarray) -> None:
    """Refuse ham unless ||H - H^dagger||_2 <= 1e-12 * max(1, ||H||_2).  A
    Frobenius asymmetry within 1e-12 passes at once: it bounds the spectral
    one, and the right side is at least 1e-12.  Otherwise both spectral
    norms are computed."""
    diff = ham - ham.conj().T
    if np.linalg.norm(diff) <= 1e-12:
        return
    asym = np.linalg.norm(diff, 2)
    if asym > 1e-12 * max(1.0, np.linalg.norm(ham, 2)):
        raise NumericalIntegrityError(
            f"dense Hamiltonian failed the Hermiticity check: asymmetry {asym:.3e}"
        )


def dense_liom(instance: MblInstance, site: int, r_u: int | None = None) -> np.ndarray:
    """Dense dressed spin tau_site^z = U_eff sigma_site^z U_eff^dagger."""
    n = instance.n_sites
    check_dense_feasible(n, "dense_liom")
    if not (1 <= site <= n):
        raise DomainError(f"site {site} out of range for N={n}")
    u = dense_unitary(instance, max_width=r_u)
    z = np.arange(2**n)
    diag = 1.0 - 2.0 * ((z >> (n - site)) & 1)
    return (u * diag) @ u.conj().T


# ---------------------------------------------------------------------------
# Validation and serialization


def validate_instance(
    instance: MblInstance,
    max_width: int | None = None,
    coupling_samples: int = 1000,
    rng_seed: int = 0,
) -> list[str]:
    """Scan constituents (all (k, n) with n <= max_width, default all) and a
    random batch of coupling indices against the model invariants; returns a
    list of human-readable violations (empty when clean)."""
    params = instance.params
    n = params.n_sites
    top = n if max_width is None else min(max_width, n)
    problems: list[str] = []
    for width in range(1, top + 1):
        for start in range(1, n + 1):
            try:
                cons = instance.constituent(start, width)
                if not cons.is_identity:
                    cons.validate(params)
            except DomainError as exc:
                problems.append(str(exc))
    rng = np.random.default_rng(rng_seed)
    for _ in range(coupling_samples):
        order = int(rng.integers(1, min(instance.max_body, n) + 1))
        sites = tuple(sorted(rng.choice(np.arange(1, n + 1), size=order, replace=False)))
        index = CouplingIndex(sites)
        value = instance.coupling(index)
        if abs(value) > math.exp(-index.range / params.xi) * (1 + 1e-12):
            problems.append(
                f"coupling {sites} = {value} violates the decay bound "
                f"exp(-{index.range}/xi)"
            )
    return problems


def instance_to_json(instance: MblInstance) -> str:
    if instance.descriptor is None:
        raise DomainError(
            "instance has no serialization descriptor; build it via one of the "
            "generator functions or build_explicit_instance"
        )
    return json.dumps(instance.descriptor, sort_keys=True, indent=2) + "\n"


def instance_from_json(text: str) -> MblInstance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"instance descriptor is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "kind" not in data:
        raise DomainError("instance descriptor must be a JSON object with a 'kind' field")
    kind = data["kind"]
    try:
        params = InstanceParams(
            n_sites=int(data["n_sites"]), xi=float(data["xi"]), q_const=float(data.get("q", 1.0))
        )
    except KeyError as exc:
        raise DomainError(f"instance descriptor missing field {exc}") from exc
    if kind == "random":
        return build_random_instance(
            params,
            seed=int(data["seed"]),
            max_body=int(data["max_body"]),
            max_width=int(data["max_width"]) if "max_width" in data else None,
            periodic=bool(data.get("periodic", True)),
        )
    if kind == "explicit":
        couplings = {
            tuple(int(s) for s in row["sites"]): float(row["value"])
            for row in data.get("couplings", [])
        }
        constituents = {}
        for row in data.get("constituents", []):
            k, n = int(row["k"]), int(row["n"])
            dim = 2**n
            mat = np.asarray(row["re"], dtype=float) + 1j * np.asarray(row["im"], dtype=float)
            if mat.size != dim * dim:
                raise DomainError(
                    f"constituent ({k},{n}) needs {dim * dim} entries, got {mat.size}"
                )
            constituents[(k, n)] = mat.reshape(dim, dim)
        return build_explicit_instance(params, couplings, constituents)
    if kind == "iqp2d":
        from .hardness import HardnessSpec, build_iqp_instance

        spec = HardnessSpec(
            rows=int(data["rows"]),
            cols=int(data["cols"]),
            xi=float(data["xi"]),
            field_seed=int(data["seed"]),
        )
        return build_iqp_instance(spec).instance
    raise DomainError(f"unknown instance kind {kind!r}")
