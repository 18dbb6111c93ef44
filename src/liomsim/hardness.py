"""Hard-instance family: 1D chains whose long-time evolution prepares a 2D
IQP cluster-type state.

On a rows x cols grid in row-major order, every site carries a field h_i
and couples to its 1D neighbour (except across row boundaries) and to the
site directly below it (1D distance cols).  All pair couplings share the
single magnitude e^{-cols/xi} (the largest the decay condition allows for
the distance-cols pairs), every constituent is the one-site Hadamard (so
tau_i^z = sigma_i^x and q = 4), and nothing of order three or higher
appears.  Evolving |0...0> for time t = (pi/4) e^{cols/xi} then equals, up
to a global Hadamard layer, the state e^{-i H_2D}|+>^N with

    H_2D = -sum_<ij> (pi/4) sigma_i^z sigma_j^z + sum_i (pi/4) e^{cols/xi} h_i sigma_i^z,

which is checked here exactly at desk scale.  The fields are drawn so that
e^{cols/xi} h_i is 1 or 3/2 (each with probability 1/2), the smallest
positive representatives of the two allowed residues mod 4.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .errors import DomainError
from .model import (
    Constituent,
    InstanceParams,
    MblInstance,
    _integer,
    apply_to_state,
    check_state_feasible,
    table_couplings,
    z_string_diagonal,
)

# The mapping check evolves with oracle.evolve_factored.  perfbench/spans.py
# still patches hardness.evolve_state through this module's __dict__, so the
# name stays bound until the benchmark stops patching it (ROADMAP items 1
# and 10).
evolve_state = oracle.evolve_state

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2)


@dataclass(frozen=True)
class HardnessSpec:
    """Grid shape (rows x cols = N), localization length, and the seed for
    the random on-site fields."""

    rows: int
    cols: int
    xi: float
    field_seed: int = 0

    def __post_init__(self) -> None:
        if _integer(self.rows, "rows") < 1 or _integer(self.cols, "cols") < 1:
            raise DomainError(f"grid shape {self.rows}x{self.cols} is not positive")
        _integer(self.field_seed, "field_seed")
        if not (0 < self.xi < 1 / math.log(2)):
            raise DomainError(f"xi must lie in (0, 1/ln 2), got {self.xi}")

    @property
    def n_sites(self) -> int:
        return self.rows * self.cols

    @classmethod
    def square(cls, n_sites: int, xi: float, field_seed: int = 0) -> "HardnessSpec":
        side = math.isqrt(n_sites)
        if side * side != n_sites:
            raise DomainError(f"N={n_sites} is not a perfect square; give rows and cols")
        return cls(rows=side, cols=side, xi=xi, field_seed=field_seed)


@dataclass(frozen=True)
class HardnessInstance:
    """Generated hard instance plus its grid metadata."""

    spec: HardnessSpec
    instance: MblInstance
    h_fields: tuple[float, ...]
    edges: tuple[tuple[int, int], ...]
    time: float

    def grid_position(self, site: int) -> tuple[int, int]:
        """(row, col), both 1-based, of a 1D site under row-major layout."""
        if not (1 <= site <= self.spec.n_sites):
            raise DomainError(f"site {site} outside 1..{self.spec.n_sites}")
        return ((site - 1) // self.spec.cols + 1, (site - 1) % self.spec.cols + 1)


def grid_edges(rows: int, cols: int) -> tuple[tuple[int, int], ...]:
    """1D site pairs forming the grid: distance-1 pairs within a row and
    distance-cols pairs between consecutive rows."""
    n = rows * cols
    edges = [(i, i + 1) for i in range(1, n) if i % cols != 0]
    edges += [(i, i + cols) for i in range(1, n - cols + 1)]
    return tuple(sorted(edges))


def build_iqp_instance(spec: HardnessSpec) -> HardnessInstance:
    """Deterministic (in field_seed) hard instance on the requested grid."""
    n = spec.n_sites
    params = InstanceParams(n_sites=n, xi=spec.xi, q_const=4.0)
    magnitude = math.exp(-spec.cols / spec.xi)
    rng = np.random.default_rng([int(spec.field_seed) & 0xFFFFFFFFFFFFFFFF, 3])
    reps = 1.0 + 0.5 * rng.integers(0, 2, size=n)
    h_fields = tuple(float(r) * magnitude for r in reps)
    edges = grid_edges(spec.rows, spec.cols)
    table: dict[tuple[int, ...], float] = {(i,): h_fields[i - 1] for i in range(1, n + 1)}
    for i, j in edges:
        table[(i, j)] = -magnitude

    def read_constituents(positions: list[tuple[int, int]]) -> list[Constituent]:
        return [Constituent(start, 1, (start,), HADAMARD) for start, _ in positions]

    descriptor = {
        "kind": "iqp2d",
        "n_sites": n,
        "xi": spec.xi,
        "q": 4.0,
        "seed": int(spec.field_seed),
        "rows": spec.rows,
        "cols": spec.cols,
    }
    instance = MblInstance(
        params=params,
        couplings=table_couplings(table),
        constituents=read_constituents,
        max_body=2,
        label=f"iqp2d({spec.rows}x{spec.cols},seed={spec.field_seed})",
        coupling_support=tuple(sorted(table)),
        constituent_support=tuple((i, 1) for i in range(1, n + 1)),
        descriptor=descriptor,
    )
    return HardnessInstance(
        spec=spec,
        instance=instance,
        h_fields=h_fields,
        edges=edges,
        time=math.pi * math.exp(spec.cols / spec.xi) / 4,
    )


def hardness_time(n_sites: int, xi: float) -> float:
    """Evolution time pi e^{sqrt(N)/xi} / 4 at which the square-grid family
    realizes its 2D circuit."""
    if n_sites < 1:
        raise DomainError(f"N must be >= 1, got {n_sites}")
    if xi <= 0:
        raise DomainError(f"xi must be positive, got {xi}")
    return math.pi * math.exp(math.sqrt(n_sites) / xi) / 4


@dataclass(frozen=True)
class MappingReport:
    """Outcome of the 1D-vs-2D equivalence check."""

    fidelity: float
    tolerance: float
    passed: bool
    n_sites: int
    time: float
    leading_1d: tuple[tuple[str, complex], ...] = ()
    leading_2d: tuple[tuple[str, complex], ...] = ()

    def to_jsonable(self) -> dict:
        def amp_list(pairs):
            return [
                {"bits": bits, "re": amp.real, "im": amp.imag} for bits, amp in pairs
            ]

        return {
            "fidelity": self.fidelity,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "n_sites": self.n_sites,
            "time": self.time,
            "leading_1d": amp_list(self.leading_1d),
            "leading_2d": amp_list(self.leading_2d),
        }


def two_d_state(spec: HardnessSpec, h_fields: tuple[float, ...]) -> np.ndarray:
    """e^{-i H_2D} |+>^N for the diagonal 2D Hamiltonian built from the grid
    edges and the given fields (evolution time 1)."""
    n = spec.n_sites
    check_state_feasible(n, "2D state construction")
    scale = math.exp(spec.cols / spec.xi)
    terms = [((i, j), -math.pi / 4) for i, j in grid_edges(spec.rows, spec.cols)]
    terms += [((i,), (math.pi / 4) * scale * h_fields[i - 1]) for i in range(1, n + 1)]
    return np.exp(-1j * z_string_diagonal(n, terms)) * (2 ** (-n / 2))


def _leading(state: np.ndarray, n: int, top: int = 5) -> tuple[tuple[str, complex], ...]:
    idx = np.argsort(-np.abs(state))[:top]
    return tuple((format(int(i), f"0{n}b"), complex(state[i])) for i in idx)


def verify_2d_mapping(
    spec: HardnessSpec,
    tolerance: float = 1e-9,
    perturb_site: int | None = None,
    perturb_rel: float = 0.01,
) -> MappingReport:
    """Exact check that the 1D evolution at the instance time equals (after
    a global Hadamard layer) the 2D IQP state.

    The 1D state comes from oracle.evolve_factored, which applies the
    Hadamard constituents and the sigma-diagonal phases to a state vector
    and builds no 2^N x 2^N matrix, so grids up to the state cap
    model.MAX_STATE_N (4x4 among them) are checked; a larger N is refused
    before any state is allocated.

    perturb_site moves that site's field off the allowed value by the given
    relative amount on the 1D side only; generically the fidelity must then
    drop, which serves as the negative control.
    """
    n = spec.n_sites
    hard = build_iqp_instance(spec)
    h_fields = hard.h_fields

    instance = hard.instance
    if perturb_site is not None:
        if not (1 <= perturb_site <= n):
            raise DomainError(f"perturb_site {perturb_site} outside 1..{n}")
        support = instance.coupling_support
        table = dict(zip(support, instance.coupling_values(support).tolist()))
        table[(perturb_site,)] *= 1.0 + perturb_rel
        instance = dataclasses.replace(
            instance,
            couplings=table_couplings(table),
            label=instance.label + "|perturbed",
            descriptor=None,
        )

    psi_1d = oracle.evolve_factored(instance, hard.time)
    rotated = psi_1d.reshape((2,) * n)
    for site in range(1, n + 1):
        rotated = apply_to_state(HADAMARD, (site,), rotated, n)
    rotated = rotated.ravel()
    psi_2d = two_d_state(spec, h_fields)
    fidelity = float(abs(np.vdot(psi_2d, rotated)) ** 2)
    passed = fidelity >= 1 - tolerance
    leading_1d = () if passed else _leading(rotated, n)
    leading_2d = () if passed else _leading(psi_2d, n)
    return MappingReport(
        fidelity=fidelity,
        tolerance=tolerance,
        passed=passed,
        n_sites=n,
        time=hard.time,
        leading_1d=leading_1d,
        leading_2d=leading_2d,
    )
