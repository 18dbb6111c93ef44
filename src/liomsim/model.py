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

import functools
import itertools
import json
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import streams
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


def _integer(value, what: str) -> int:
    """value as an int; anything but an integer, a bool included, is
    refused rather than truncated, parsed from text or taken as 0 or 1."""
    if type(value) is int:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return int(value)


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
        if _integer(self.n_sites, "n_sites") < 1:
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
        sites_t = tuple(_integer(s, "coupling site") for s in sites)
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

    def violates_decay(self, value: float, xi: float) -> bool:
        """Whether a coupling on this index breaks |J_I| <= exp(-range/xi),
        beyond a relative slack of 1e-12 for rounding."""
        return abs(value) > math.exp(-self.range / xi) * (1 + 1e-12)


@dataclass(frozen=True, eq=False)
class Constituent:
    """One block U_k^(n) of the quasilocal unitary.

    sites lists the acted-on qubits in tensor order; for a wrapped block
    (start + width - 1 > N) this is (k..N, 1..k+n-1-N) and the matrix is a
    tensor product across the wrap.  The matrix is row-major over the bits
    of `sites` in that order.  Constituents compare and hash by identity,
    since their matrices are arrays.
    """

    start_site: int
    width: int
    sites: tuple[int, ...]
    matrix: np.ndarray

    def validate(self, params: InstanceParams) -> None:
        n, m = self.width, self.matrix
        if m.shape != (2**n, 2**n):
            raise DomainError(f"constituent ({self.start_site},{n}) matrix has wrong shape")
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


def placement_sites(n_sites: int, start: int, width: int) -> tuple[int, ...]:
    end = start + width - 1
    if end <= n_sites:
        return tuple(range(start, end + 1))
    return tuple(range(start, n_sites + 1)) + tuple(range(1, end - n_sites + 1))


# Bound of each cache of a family's structure (here and in the simulate
# module: positions, stream tails, layouts, windows, W's folds), which is
# derived from structural inputs alone, never from a seed or a drawn value.
_STRUCTURES = 64


def _is_position(n_sites: int, start: int, width: int) -> bool:
    """Whether (start, width) is a position of the layered product on N
    sites: sub-layer j = (start-1) mod width + 1 steps its blocks i =
    (start-1) // width up to floor((N-width)/width)."""
    return 1 <= width <= n_sites and 1 <= start and (start - 1) // width <= (n_sites - width) // width


def _check_position(n_sites: int, start: int, width: int) -> None:
    """Refuse (start, width) unless it is a position of the layered
    product on N sites, naming it."""
    if not (1 <= start <= n_sites and 1 <= width <= n_sites):
        raise DomainError(f"constituent position ({start},{width}) out of range for N={n_sites}")
    if not _is_position(n_sites, start, width):
        raise DomainError(
            f"constituent position ({start},{width}) is not a factor of U on N={n_sites}: "
            f"no block of the width-{width} layer starts at site {start}"
        )


@functools.lru_cache(maxsize=_STRUCTURES)
def constituent_positions(
    n_sites: int,
    max_width: int | None = None,
    support: tuple[tuple[int, int], ...] | None = None,
) -> tuple[tuple[int, int], ...]:
    """All constituent positions (start k, width n) of width <= max_width
    in product order: the first entry is the leftmost factor of the
    operator product U (hence the one applied last to a ket).  Layer n
    runs through sub-layers j = 1..n, each stepping i = 0..floor((N-n)/n)
    with start k = i*n + j.  With a support, only the listed positions
    are kept, in the same order.  It depends on its structural inputs
    alone, so it is derived once per family and cached."""
    top = n_sites if max_width is None else min(max_width, n_sites)
    if support is None:
        return tuple(
            (i * w + j, w)
            for w in range(1, top + 1)
            for j in range(1, w + 1)
            for i in range((n_sites - w) // w + 1)
        )
    return tuple(
        sorted(
            (
                (k, w)
                for k, w in support
                if w <= top and _is_position(n_sites, k, w)
            ),
            key=lambda kw: (kw[1], (kw[0] - 1) % kw[1], (kw[0] - 1) // kw[1]),
        )
    )


def check_constituent_widths(positions: Iterable[tuple[int, int]], cap: int, what: str) -> None:
    """Refuse, before any is drawn, a constituent whose 2^w x 2^w matrix
    holds more than `cap` entries, named by its placement and the cap."""
    for start, width in positions:
        if 4**width > cap:
            raise FeasibilityError(
                f"constituent ({start},{width}) is a 2^{width} x 2^{width} matrix of "
                f"{16 * 4**width} bytes, above the {what} of {16 * cap} bytes"
            )


@functools.lru_cache(maxsize=_STRUCTURES)
def _drawn_placements(
    n_sites: int, max_width: int | None, periodic: bool
) -> tuple[tuple[int, int], ...]:
    """The positions of constituent_positions of width <= max_width, less
    those wrapped past site N on an open chain: the ones a random instance
    draws."""
    return tuple(
        (k, w) for k, w in constituent_positions(n_sites, max_width) if periodic or k + w - 1 <= n_sites
    )


def nonidentity_constituents(
    instance: MblInstance, max_width: int | None = None
) -> list[Constituent]:
    """U's factors of width <= max_width, in the product order of
    constituent_positions."""
    positions = constituent_positions(instance.n_sites, max_width, instance.constituent_support)
    return instance.constituents_at(positions)


@dataclass(frozen=True)
class MblInstance:
    """Immutable MBL chain instance.

    couplings: pure function from a list of checked site tuples to their
        couplings J_I as one float array, with the exponential decay
        guarantee.
    constituents: pure function from a list of distinct positions
        (start k, width n) of U's factors to their constituents.
    coupling_support: optional explicit list of site tuples where J may be
        nonzero; None means all indices of order <= max_body.
    constituent_support: the positions (start k, width n) of
        constituent_positions that are U's factors, exactly its
        non-identity constituents; None means every position of the
        layered product is a factor.  Reading a constituent at any other
        position is refused.
    descriptor: JSON-serializable reconstruction recipe (see
        instance_to_json), or None for ad-hoc instances.

    A truncation reads the same instance with two cutoffs (couplings of
    range < r_J, factors of width <= r_U); no truncated copy is built.
    """

    params: InstanceParams
    couplings: Callable[[list[tuple[int, ...]]], np.ndarray]
    constituents: Callable[[list[tuple[int, int]]], list[Constituent]]
    max_body: int
    label: str = ""
    coupling_support: tuple[tuple[int, ...], ...] | None = None
    constituent_support: tuple[tuple[int, int], ...] | None = None
    descriptor: dict | None = None
    _constituent_cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

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
        return float(self.couplings([index.sites])[0])

    def constituent(self, start: int, width: int) -> Constituent:
        return self.constituents_at([(start, width)])[0]

    @functools.cached_property
    def _factors(self) -> frozenset[tuple[int, int]] | None:
        support = self.constituent_support
        return None if support is None else frozenset(support)

    def constituents_at(self, positions: Iterable[tuple[int, int]]) -> list[Constituent]:
        """The factor of U at every position (start k, width n), each built
        once per instance and cached: the positions not yet cached are
        built in one constituents call.  A position that is no factor is
        refused by name."""
        n = self.n_sites
        cache = self._constituent_cache
        positions = [
            (_integer(k, "constituent start"), _integer(w, "constituent width")) for k, w in positions
        ]
        missing = {}
        for start, width in positions:
            if (start, width) not in cache:
                _check_position(n, start, width)
                if self._factors is not None and (start, width) not in self._factors:
                    raise DomainError(
                        f"constituent position ({start},{width}) is not a factor of U: "
                        f"the instance lists its factors, and it is not among them"
                    )
                missing[start, width] = None
        if missing:
            todo = list(missing)
            cache.update(zip(todo, self.constituents(todo)))
        return [cache[key] for key in positions]

    def coupling_values(self, indices: Iterable[Sequence[int]]) -> np.ndarray:
        """J_I of every index in one couplings call, with coupling's
        DomainError for a malformed or out-of-range index."""
        n = self.n_sites
        checked = []
        for raw in indices:
            sites = tuple(_integer(s, "coupling site") for s in raw)
            if (
                not sites
                or sites[0] < 1
                or sites[-1] > n
                or not all(map(operator.lt, sites, sites[1:]))
            ):
                self.coupling(sites)
            checked.append(sites)
        return self.couplings(checked)

    def iter_indices(self, r_j: int | None = None) -> Iterator[tuple[tuple[int, ...], float]]:
        """Yield (sites, J) for every index with a nonzero coupling, with
        ranges >= r_j dropped when r_j is given.  The support's indices are
        read in batches: all of an explicit support at once, otherwise one
        batch per order."""
        if self.coupling_support is not None:
            batches: Iterable[Iterable[tuple[int, ...]]] = [self.coupling_support]
        else:
            batches = (
                itertools.combinations(range(1, self.n_sites + 1), p)
                for p in range(1, self.max_body + 1)
            )
        for batch in batches:
            kept = [s for s in batch if r_j is None or s[-1] - s[0] < r_j]
            for sites, value in zip(kept, self.coupling_values(kept).tolist()):
                if value != 0.0:
                    yield sites, value


# A random instance's stream keys are [seed mod 2^64, *tail] (see the
# streams module): the tail of coupling I and of constituent (k, n).
def _index_tail(sites: tuple[int, ...]) -> tuple[int, ...]:
    return (1, len(sites), *sites)


def _constituent_tail(start: int, width: int) -> tuple[int, int, int]:
    return (2, start, width)


@functools.lru_cache(maxsize=_STRUCTURES)
def _coupling_streams(
    indices: tuple[tuple[int, ...], ...], max_body: int
) -> tuple[np.ndarray | None, tuple[tuple[int, ...], ...], np.ndarray]:
    """The seed-free part of a random instance's coupling batch: the
    positions of the indices of order <= max_body (None when all are),
    the tails (1, |I|, *I) of their stream keys after the seed, and their
    ranges."""
    drawn = [i for i, sites in enumerate(indices) if len(sites) <= max_body]
    tails = tuple(_index_tail(indices[i]) for i in drawn)
    ranges = np.array([indices[i][-1] - indices[i][0] for i in drawn], dtype=np.intp)
    ranges.flags.writeable = False
    if len(drawn) == len(indices):
        return None, tails, ranges
    picked = np.array(drawn, dtype=np.intp)
    picked.flags.writeable = False
    return picked, tails, ranges


def _theta_for_distance(target_sq: float) -> float:
    """Angle t with ||1 - exp(i t K)|| = sqrt(target_sq) for unit-norm
    Hermitian K (distance 2 sin(t/2))."""
    target = math.sqrt(target_sq)
    if target > 2:
        raise DomainError(
            f"requested constituent distance^2 {target_sq:.3f} exceeds the attainable 4"
        )
    return 2 * math.asin(target / 2)


@dataclass(frozen=True)
class _ConstituentLayout:
    """The seed-free layout of a batch of random constituents: per
    position, its sites and the dimensions of its Hermitian pieces (two
    for a block wrapped past site N) and the index of its first piece;
    per dimension, its pieces; per piece, its row in its dimension's
    stack; and per position, the tail of its stream key after the seed.
    It holds tuples alone, no array."""

    sites: tuple[tuple[int, ...], ...]
    splits: tuple[tuple[int, ...], ...]
    firsts: tuple[int, ...]
    groups: tuple[tuple[int, tuple[int, ...]], ...]
    rows: tuple[int, ...]
    tails: tuple[tuple[int, int, int], ...]


@functools.lru_cache(maxsize=_STRUCTURES)
def _constituent_layout(n_sites: int, positions: tuple[tuple[int, int], ...]) -> _ConstituentLayout:
    splits = []
    for start, width in positions:
        end = start + width - 1
        splits.append((2**width,) if end <= n_sites else (2 ** (n_sites - start + 1), 2 ** (end - n_sites)))
    members: dict[int, list[int]] = {}
    rows = []
    for i, dim in enumerate(dim for dims in splits for dim in dims):
        ids = members.setdefault(dim, [])
        rows.append(len(ids))
        ids.append(i)
    return _ConstituentLayout(
        sites=tuple(placement_sites(n_sites, start, width) for start, width in positions),
        splits=tuple(splits),
        firsts=tuple(itertools.accumulate(map(len, splits), initial=0)),
        groups=tuple((dim, tuple(ids)) for dim, ids in members.items()),
        rows=tuple(rows),
        tails=tuple(_constituent_tail(start, width) for start, width in positions),
    )


def random_constituents(
    params: InstanceParams, seed: int, positions: Sequence[tuple[int, int]]
) -> list[Constituent]:
    """The random constituents e^{i theta K} of build_random_instance at the
    given positions (start k, width n), built in batched passes: all of
    their streams are seeded in one streams.generators pass, and the eigh,
    the phases and the product with the eigenvectors' adjoint each run once
    per dimension, stacked over the Hermitian pieces of that dimension.
    Every matrix is byte-equal to building its position alone.  Each
    piece draws the real, then the imaginary parts of its G straight into
    its row of its dimension's (pieces, 2, d, d) stack.  The batch's
    layout (pieces, their rows, stream tails) depends on N and the
    positions alone, so it is derived once and cached.

    K is a Gaussian Hermitian (G + G^dagger)/2 scaled to unit operator
    norm.  A position wrapped past site N draws one piece K1 on k..N and
    then K2 on 1..k+n-1-N, and exponentiates theta (K1 (x) 1 + 1 (x) K2)/c,
    with c the operator norm of the sum, so the block is an exact tensor
    product across the wrap and still sits at the prescribed distance."""
    positions = tuple((int(k), int(w)) for k, w in positions)
    lay = _constituent_layout(params.n_sites, positions)
    firsts, rows = lay.firsts, lay.rows
    draws = {dim: np.empty((len(ids), 2, dim, dim)) for dim, ids in lay.groups}
    for gen, dims, first in zip(streams.generators(lay.tails, seed), lay.splits, firsts):
        for j, dim in enumerate(dims):
            gen.standard_normal(out=draws[dim][rows[first + j]])

    vals, vecs = {}, {}
    for dim, stack in draws.items():
        g = stack[:, 0] + 1j * stack[:, 1]
        w, v = np.linalg.eigh((g + g.conj().swapaxes(1, 2)) / 2)
        scale = np.abs(w).max(axis=1, keepdims=True)
        zero = scale[:, 0] == 0.0
        w = w / np.where(zero[:, None], 1.0, scale)
        w[zero], v[zero] = np.eye(dim)[-1], np.eye(dim)
        vals[dim], vecs[dim] = w, v

    # Each piece's phases are exp(coef * eigenvalue): coef = i theta, or
    # i theta / c for both pieces of a wrapped pair.
    thetas = {}
    coef: list[complex] = []
    for (_, width), dims, first in zip(positions, lay.splits, firsts):
        theta = thetas.get(width)
        if theta is None:
            target_sq = (params.q_const / 2) * math.exp(-(width - 1) / params.xi)
            theta = thetas[width] = _theta_for_distance(target_sq)
        if len(dims) == 1:
            coef.append(1j * theta)
            continue
        v1, v2 = vals[dims[0]][rows[first]], vals[dims[1]][rows[first + 1]]
        c = max(v1.max() + v2.max(), -(v1.min() + v2.min()))
        coef += [1j * (theta / c)] * 2

    mats = {}
    for dim, ids in lay.groups:
        phase = np.exp(np.array([coef[i] for i in ids])[:, None] * vals[dim])
        u = vecs[dim]
        mats[dim] = list((u * phase[:, None, :]) @ u.conj().swapaxes(1, 2))

    out = []
    for (start, width), sites, dims, first in zip(positions, lay.sites, lay.splits, firsts):
        parts = [mats[dim][rows[first + j]] for j, dim in enumerate(dims)]
        mat = parts[0] if len(parts) == 1 else np.kron(*parts)
        out.append(Constituent(start, width, sites, mat))
    return out


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

    The streams are part of the contract.  Coupling I of order
    |I| <= max_body is

        np.random.default_rng([seed mod 2^64, 1, |I|, *I]).uniform(-b, b)

    with b = exp(-range(I)/xi).  A batch of couplings draws those doubles
    in one pass of streams.first_doubles and applies uniform's
    -b + (b - (-b)) * u.  Constituent (k, n) draws from
    default_rng([seed mod 2^64, 2, k, n]) the real, then the imaginary
    parts of a 2^n x 2^n standard-normal G; a wrapped one draws its piece
    on sites k..N first, then the one on 1..k+n-1-N.  A batch of
    constituents is built by random_constituents, seeded through
    streams.generators.

    q_const may be at most 8: width-1 constituents sit at ||1-U||^2 = q/2,
    and no unitary is further than 2 from the identity.

    max_width, if given, leaves out every constituent of width > max_width
    (a banded dressing unitary); widths within the cap are unchanged.
    periodic=False additionally leaves out every wrapped placement (one
    straddling the chain end), giving an open-boundary dressing with no
    long bond between the first and last sites.  Either way the instance
    lists the placements it draws as its constituent_support.
    """
    if _integer(max_body, "max_body") < 1:
        raise DomainError(f"max_body must be a positive integer, got {max_body!r}")
    if max_body > params.n_sites:
        raise DomainError(f"max_body={max_body} exceeds n_sites={params.n_sites}")
    if max_width is not None and _integer(max_width, "max_width") < 1:
        raise DomainError(f"max_width must be >= 1, got {max_width!r}")
    if params.q_const > 8:
        raise DomainError(
            f"q={params.q_const} exceeds 8, the largest q a random instance takes: "
            f"its width-1 constituents would sit at ||1-U||^2 = q/2 > 4"
        )
    seed = _integer(seed, "seed")
    n, xi = params.n_sites, params.xi

    def read_couplings(indices: list[tuple[int, ...]]) -> np.ndarray:
        drawn, tails, ranges = _coupling_streams(tuple(indices), max_body)
        u = streams.first_doubles(tails, seed)
        # exp(-range/xi) of each range, as uniform's bound b.
        bound = np.array([math.exp(-r / xi) for r in range(int(ranges.max(initial=0)) + 1)])[ranges]
        drawn_values = -bound + (bound - -bound) * u
        if drawn is None:
            return drawn_values
        values = np.zeros(len(indices))
        values[drawn] = drawn_values
        return values

    # An instance that draws fewer than every position lists the ones it
    # draws: its factors.
    support = None
    if max_width is not None or not periodic:
        support = _drawn_placements(n, None if max_width is None else int(max_width), bool(periodic))
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
        couplings=read_couplings,
        constituents=functools.partial(random_constituents, params, seed),
        max_body=int(max_body),
        label=label or f"random(seed={seed})",
        constituent_support=support,
        descriptor=descriptor,
    )


def table_couplings(
    table: dict[tuple[int, ...], float],
) -> Callable[[list[tuple[int, ...]]], np.ndarray]:
    """Coupling oracle reading a table keyed by site tuples; an index the
    table lacks reads 0."""
    return lambda indices: np.array([table.get(sites, 0.0) for sites in indices], dtype=float)


def build_explicit_instance(
    params: InstanceParams,
    couplings: dict[tuple[int, ...], float],
    constituents: dict[tuple[int, int], np.ndarray],
    label: str = "",
    validate: bool = True,
) -> MblInstance:
    """Instance from explicit tables; missing couplings are 0 and U's
    factors are exactly the listed constituents.  Constituent keys are
    positions (start, width) of the layered product (constituent_positions;
    any other key is refused by name) with matrices row-major over the
    wrapped site order."""
    coupling_table: dict[tuple[int, ...], float] = {}
    for raw_sites, value in couplings.items():
        index = CouplingIndex(raw_sites)
        if index.sites[-1] > params.n_sites:
            raise DomainError(f"coupling index {index.sites} out of range")
        if validate and index.violates_decay(value, params.xi):
            raise DomainError(
                f"coupling {index.sites} = {value} violates decay bound "
                f"exp(-range/xi) = {math.exp(-index.range / params.xi):.6e}"
            )
        coupling_table[index.sites] = float(value)

    constituent_table: dict[tuple[int, int], Constituent] = {}
    for (start, width), mat in constituents.items():
        _check_position(params.n_sites, start, width)
        sites = placement_sites(params.n_sites, start, width)
        cons = Constituent(start, width, sites, np.asarray(mat, dtype=complex))
        if validate:
            cons.validate(params)
        constituent_table[(start, width)] = cons

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
                "re": [float(x) for x in cons.matrix.real.ravel()],
                "im": [float(x) for x in cons.matrix.imag.ravel()],
            }
            for (start, width), cons in sorted(constituent_table.items())
        ],
    }
    return MblInstance(
        params=params,
        couplings=table_couplings(coupling_table),
        constituents=lambda positions: [constituent_table[pos] for pos in positions],
        max_body=max_body,
        label=label or "explicit",
        coupling_support=support,
        constituent_support=tuple(sorted(constituent_table)),
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
    acc = np.eye(2**n, dtype=complex).reshape((2,) * n + (2**n,))
    # Product order: first placement is the leftmost operator factor, so it
    # is applied last when multiplying onto the identity from the left.
    for cons in reversed(nonidentity_constituents(instance, max_width)):
        acc = apply_to_state(cons.matrix, cons.sites, acc, n)
    return acc.reshape(2**n, 2**n)


def z_string_diagonal(
    n_sites: int, terms: Iterable[tuple[tuple[int, ...], float]]
) -> np.ndarray:
    """Diagonal of sum_I c_I sigma^z_{i_1}...sigma^z_{i_p} in the
    computational basis (site 1 most significant), from (sites, c_I) terms.
    Entry z is sum_I c_I (-1)^popcount(z & mask(I)), with site s the bit
    2^(N-s) of mask(I): the Walsh-Hadamard transform of the coefficient
    vector c[mask(I)] += c_I, done in place in N passes of 2^N entries
    whatever the number of terms."""
    n = n_sites
    diag = np.zeros(2**n)
    for sites, value in terms:
        diag[sum(1 << (n - s) for s in sites)] += value
    for bit in range(n):
        pairs = diag.reshape(2**bit, 2, -1)
        low = pairs[:, 0] + pairs[:, 1]
        pairs[:, 1] = pairs[:, 0] - pairs[:, 1]
        pairs[:, 0] = low
    return diag


def sigma_diagonal(instance: MblInstance, r_j: int | None = None) -> np.ndarray:
    """Diagonal of H_sigma = sum_I J_I sigma^z_{i_1}...sigma^z_{i_p} in the
    computational basis (site 1 most significant), couplings with range
    >= r_j dropped when r_j is given.  It needs no dense matrix, so N is
    capped by the state cap MAX_STATE_N, not the dense cap, and it costs
    N 2^N whatever the size of the coupling support."""
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


# ---------------------------------------------------------------------------
# Validation and serialization


def validate_instance(
    instance: MblInstance,
    max_width: int | None = None,
    coupling_samples: int = 1000,
    rng_seed: int = 0,
) -> list[str]:
    """Scan U's factors of width <= max_width (default all) and a random
    batch of coupling indices against the model invariants; returns a list
    of human-readable violations (empty when clean)."""
    params = instance.params
    n = params.n_sites
    problems: list[str] = []
    for cons in nonidentity_constituents(instance, max_width):
        try:
            cons.validate(params)
        except DomainError as exc:
            problems.append(str(exc))
    rng = np.random.default_rng(rng_seed)
    indices = []
    for _ in range(coupling_samples):
        order = int(rng.integers(1, min(instance.max_body, n) + 1))
        indices.append(tuple(sorted(rng.choice(np.arange(1, n + 1), size=order, replace=False))))
    for sites, value in zip(indices, instance.coupling_values(indices).tolist()):
        index = CouplingIndex(sites)
        if index.violates_decay(value, params.xi):
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


_ABSENT = object()


def _field(record, key: str, convert: Callable, default=_ABSENT):
    """record[key] through convert, or default when the field is absent;
    a DomainError naming the field when it is missing without a default or
    convert refuses it."""
    if not isinstance(record, dict):
        raise DomainError(f"instance descriptor entry must be a JSON object, got {record!r}")
    if key not in record:
        if default is _ABSENT:
            raise DomainError(f"instance descriptor missing field {key!r}")
        return default
    try:
        return convert(record[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(
            f"instance descriptor field {key!r} is malformed: {record[key]!r}"
        ) from exc


def _json_bool(raw) -> bool:
    if not isinstance(raw, bool):
        raise TypeError(f"expected true or false, got {raw!r}")
    return raw


def instance_from_json(text: str) -> MblInstance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"instance descriptor is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "kind" not in data:
        raise DomainError("instance descriptor must be a JSON object with a 'kind' field")
    kind = data["kind"]
    params = InstanceParams(
        n_sites=_field(data, "n_sites", int),
        xi=_field(data, "xi", float),
        q_const=_field(data, "q", float, 1.0),
    )
    if kind == "random":
        return build_random_instance(
            params,
            seed=_field(data, "seed", int),
            max_body=_field(data, "max_body", int),
            max_width=_field(data, "max_width", int, None),
            periodic=_field(data, "periodic", _json_bool, True),
        )
    if kind == "explicit":
        couplings = {
            _field(row, "sites", lambda raw: tuple(map(int, raw))): _field(row, "value", float)
            for row in _field(data, "couplings", list, [])
        }
        constituents = {}
        for row in _field(data, "constituents", list, []):
            k, n = _field(row, "k", int), _field(row, "n", int)
            _check_position(params.n_sites, k, n)
            dim = 2**n
            re, im = (
                _field(row, part, functools.partial(np.asarray, dtype=float)) for part in ("re", "im")
            )
            if re.size != dim * dim or im.size != dim * dim:
                raise DomainError(
                    f"constituent ({k},{n}) needs {dim * dim} entries, "
                    f"got {re.size} real and {im.size} imaginary"
                )
            constituents[(k, n)] = (re + 1j * im).reshape(dim, dim)
        return build_explicit_instance(params, couplings, constituents)
    if kind == "iqp2d":
        from .hardness import HardnessSpec, build_iqp_instance

        spec = HardnessSpec(
            rows=_field(data, "rows", int),
            cols=_field(data, "cols", int),
            xi=_field(data, "xi", float),
            field_seed=_field(data, "seed", int),
        )
        return build_iqp_instance(spec).instance
    raise DomainError(f"unknown instance kind {kind!r}")
