"""Two-sided truncation of an MBL instance and the analytic error bounds.

Truncation is two cutoffs on one instance: couplings whose site range
reaches r_J are dropped, and so are the factors of U wider than r_U.  Every
reader takes the cutoffs itself (iter_indices(r_j), the W windows,
constituent_positions(N, r_u, support), the oracles' r_j and r_u), so no
truncated copy of the instance is built.  The resulting
Hamiltonian error ||H - H~|| admits a closed-form bound

    ||Delta H|| <= C_J * N * r_J * e^{-k r_J}  +  C_U * N^2 * e^{-r_U/(2 xi)}

whose prefactors are computed exactly from xi and q (never absorbed into an
unnamed constant), built on top of bounds for the binomial tail sums

    S_{p,n0} = sum_{n >= n0} C(n, p) e^{-n/xi}.

All of this requires xi < 1/ln 2; the constructor of InstanceParams already
rejects anything larger.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, SaturationWarning
from .model import InstanceParams, MblInstance, _integer

BIG_C = 10.8


@dataclass(frozen=True)
class TruncationRadii:
    """Coupling range cutoff r_J and constituent width cutoff r_U.

    Values larger than the chain length are allowed and act as no-ops
    (nothing on an N-site chain has range >= N or width > N anyway).
    """

    r_j: int
    r_u: int

    def __post_init__(self) -> None:
        for name, value in (("r_J", self.r_j), ("r_U", self.r_u)):
            if _integer(value, name) < 1:
                raise DomainError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class BoundConstants:
    """All xi- and q-dependent prefactors appearing in the bounds.

    a = ln(e^{1/xi} - 1), kappa = 1/xi - ln 2, k_min = min(kappa, a);
    c_1 and c_2 are the two pieces of the coupling-term prefactor
    C_J = c_1 + c_2, and c_U is the constituent-term prefactor
    8 sqrt(q) e^{-1/xi} C sum_p (p+2) p e^{-a p}.
    """

    xi: float
    q: float
    a: float
    kappa: float
    k_min: float
    big_c: float
    c_1: float
    c_2: float
    c_j: float
    c_u: float

    @classmethod
    def for_params(cls, xi: float, q: float = 1.0) -> "BoundConstants":
        if not (0 < xi < 1 / math.log(2)):
            raise DomainError(f"bounds require 0 < xi < 1/ln 2, got xi={xi}")
        if q < 1:
            raise DomainError(f"q must be >= 1, got {q}")
        a = math.log(math.expm1(1 / xi))
        kappa = 1 / xi - math.log(2)
        c_1 = 0.5 / (1 - math.exp(-kappa))
        c_2 = BIG_C / (1 - math.exp(-a)) ** 2
        x = math.exp(-a)
        weighted_sum = x * (1 + x) / (1 - x) ** 3 + 2 * x / (1 - x) ** 2
        c_u = 8 * math.sqrt(q) * math.exp(-1 / xi) * BIG_C * weighted_sum
        return cls(
            xi=xi,
            q=q,
            a=a,
            kappa=kappa,
            k_min=min(kappa, a),
            big_c=BIG_C,
            c_1=c_1,
            c_2=c_2,
            c_j=c_1 + c_2,
            c_u=c_u,
        )

    def n_star(self, p: int) -> float:
        return p / (1 - math.exp(-1 / self.xi))


def spn0_bound(p: int, n0: int, xi: float) -> float:
    """Three-branch upper bound on S_{p,n0} = sum_{n>=n0} C(n,p) e^{-n/xi}:

    p = 0:              C e^{-n0/xi}
    p > 0, n0 < n*:     C p e^{-a p}
    p > 0, n0 >= n*:    C (n0^{p+1} sqrt(p) / p!) e^{-n0/xi}

    with C = 10.8, a = ln(e^{1/xi}-1), n* = p/(1 - e^{-1/xi}).
    """
    if not (0 < xi < 1 / math.log(2)):
        raise DomainError(f"spn0_bound requires 0 < xi < 1/ln 2, got xi={xi}")
    if p < 0:
        raise DomainError(f"p must be nonnegative, got {p}")
    if n0 < p:
        raise DomainError(f"n0 must be >= p for the binomial to make sense, got n0={n0} < p={p}")
    if p == 0:
        return BIG_C * math.exp(-n0 / xi)
    constants = BoundConstants.for_params(xi)
    if n0 < constants.n_star(p):
        return BIG_C * p * math.exp(-constants.a * p)
    return BIG_C * (n0 ** (p + 1) * math.sqrt(p) / math.factorial(p)) * math.exp(-n0 / xi)


def spn0_aggregate_bound(x1: int, x2: int, n0: int, xi: float) -> float:
    """Bound on the aggregate sum_{p=x1}^{x2} S_{p,n0}: e^{-kappa n0}/(1-e^{-kappa})
    with kappa = 1/xi - ln 2 (independent of the p window, which only needs
    0 <= x1 <= x2 <= n0)."""
    if not (0 <= x1 <= x2 <= n0):
        raise DomainError(f"need 0 <= x1 <= x2 <= n0, got ({x1}, {x2}, {n0})")
    if not (0 < xi < 1 / math.log(2)):
        raise DomainError(f"aggregate bound requires 0 < xi < 1/ln 2, got xi={xi}")
    kappa = 1 / xi - math.log(2)
    return math.exp(-kappa * n0) / (1 - math.exp(-kappa))


def gamma_upper_bound(a: float, z: float) -> float:
    """Upper bound z^a e^{-z} / (z - (a-1)) on the upper incomplete Gamma
    function Gamma(a, z), valid for a >= 1 and z > a - 1.  For a < 1 the
    inequality can fail (e.g. a=0.5, z=2), so that regime is rejected."""
    if a < 1:
        raise DomainError(f"gamma_upper_bound needs a >= 1, got a={a}")
    if not (z > a - 1):
        raise DomainError(f"gamma_upper_bound needs z > a-1, got a={a}, z={z}")
    return z**a * math.exp(-z) / (z - (a - 1))


def liom_deviation_bound(params: InstanceParams, r_u: int) -> float:
    """Bound 8 sqrt(q) N e^{-r_U/(2 xi)} on ||tau_i^z - tau~_i^z|| for the
    width-truncated dressing unitary."""
    if r_u < 1:
        raise DomainError(f"r_U must be >= 1, got {r_u}")
    return 8 * math.sqrt(params.q_const) * params.n_sites * math.exp(-r_u / (2 * params.xi))


def delta_h_terms(params: InstanceParams, radii: TruncationRadii) -> tuple[float, float]:
    """The two pieces of the ||Delta H|| bound: the coupling-cutoff term
    C_J N r_J e^{-k r_J} and the width-cutoff term C_U N^2 e^{-r_U/(2 xi)}."""
    constants = BoundConstants.for_params(params.xi, params.q_const)
    n = params.n_sites
    term_j = constants.c_j * n * radii.r_j * math.exp(-constants.k_min * radii.r_j)
    term_u = constants.c_u * n**2 * math.exp(-radii.r_u / (2 * params.xi))
    return term_j, term_u


def delta_h_bound(params: InstanceParams, radii: TruncationRadii) -> float:
    """Certified upper bound on ||H - H~|| for the given radii."""
    term_j, term_u = delta_h_terms(params, radii)
    return term_j + term_u


def select_radii(params: InstanceParams, epsilon: float, t: float) -> TruncationRadii:
    """Componentwise-smallest radii whose delta_h_bound terms are each at
    most epsilon/(2t), so that ||Delta H|| t <= epsilon and the sampled
    distribution is within epsilon TVD of the exact one.

    The coupling term r -> C_J N r e^{-k r} can rise before it falls (its
    peak sits near r = 1/k), so "smallest" means smallest r from which the
    term stays below target for every larger radius.  If the target is out
    of reach within r <= N a SaturationWarning (with the achieved bound
    attached) is emitted and the saturated radii are returned.
    """
    if not (0 < epsilon < 1):
        raise DomainError(f"epsilon must lie in (0,1), got {epsilon}")
    if not (0 < t < math.inf):
        raise DomainError(f"t must be positive and finite, got {t}")
    target = epsilon / (2 * t)
    n = params.n_sites
    constants = BoundConstants.for_params(params.xi, params.q_const)

    term_j = [
        constants.c_j * n * r * math.exp(-constants.k_min * r) for r in range(1, n + 1)
    ]
    suffix_max = list(term_j)
    for i in range(n - 2, -1, -1):
        suffix_max[i] = max(suffix_max[i], suffix_max[i + 1])
    r_j = next((r for r in range(1, n + 1) if suffix_max[r - 1] <= target), None)

    def term_u(r: int) -> float:
        return constants.c_u * n**2 * math.exp(-r / (2 * params.xi))

    r_u = next((r for r in range(1, n + 1) if term_u(r) <= target), None)

    saturated = r_j is None or r_u is None
    radii = TruncationRadii(r_j if r_j is not None else n, r_u if r_u is not None else n)
    if saturated:
        achieved = delta_h_bound(params, radii)
        warning = SaturationWarning(
            f"radius search saturated at r=N={n} before reaching per-term target "
            f"{target:.3e}; achieved total bound {achieved:.3e}"
        )
        warning.achieved_bound = achieved
        warnings.warn(warning)
    return radii


@dataclass(frozen=True)
class TruncatedInstance:
    """An instance, the two cutoffs to read it with and their certified
    error bound.

    base: the untruncated instance; a reader keeps its couplings of range
        < radii.r_j and its factors of width <= radii.r_u.
    delta_h_bound: recomputable via delta_h_bound(base.params, radii).
    """

    base: MblInstance
    radii: TruncationRadii
    delta_h_bound: float

    @property
    def params(self) -> InstanceParams:
        return self.base.params


def truncate(instance: MblInstance, radii: TruncationRadii) -> TruncatedInstance:
    """The instance with the radii to read it by and their ||Delta H||
    bound: couplings of range >= r_J (the cutoff boundary itself) and
    factors of width > r_U are left out by every reader.  No instance is
    built."""
    return TruncatedInstance(
        base=instance, radii=radii, delta_h_bound=delta_h_bound(instance.params, radii)
    )
