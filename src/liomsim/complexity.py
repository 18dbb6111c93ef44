"""Numeric evaluator for the approximate-circuit-complexity upper bounds.

The evaluator picks truncation radii from the closed-form recipes
r_J = ceil(1.01 ln(Nt)/k) and r_U = ceil(2.02 xi ln(N^2 t)), enlarging each
until its truncation error term (times t) fits inside epsilon/4 so the
error ledger

    eps/6 + eps/6 + eps/6 + ||Delta H|| t  <  eps

closes (three synthesis budgets for the two U~ halves and the diagonal
evolution, plus the truncation bound with q = 1).  Per-gate synthesis
accuracies delta are set so each budget is hit exactly.  All hidden O(1)
prefactors are fixed to 1, so outputs are "paper-bound units": only growth
in N and t is meaningful, not absolute gate counts.  The whole construction
is sublinear in t exactly when xi < 1/(4.04 ln 2); larger xi yields an
infeasibility error.

Alongside the structural gate-count bound (which carries ln(1/delta) and
radius-polynomial factors that drift a log-log fit upward at desk scales),
the report exposes the pure power-law form N (N^2 t)^{exp_U} + N (N t)^{exp_H}
whose slope in log t is exactly the asymptotic exponent.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import InfeasibilityError
from .model import InstanceParams, _integer
from .truncation import BoundConstants, TruncationRadii, delta_h_terms

XI_SUBLINEAR_MAX = 1 / (4.04 * math.log(2))

_ENLARGE_CAP = 10_000


@dataclass(frozen=True)
class ComplexityQuery:
    n_sites: int
    t: float
    xi: float
    epsilon: float

    def __post_init__(self) -> None:
        if _integer(self.n_sites, "n_sites") < 1:
            raise InfeasibilityError(f"n_sites must be >= 1, got {self.n_sites}")
        if not (0 < self.t < math.inf):
            raise InfeasibilityError(f"t must be positive and finite, got {self.t}")
        if not (self.xi > 0):
            raise InfeasibilityError(f"xi must be positive, got {self.xi}")
        if not (0 < self.epsilon < 1):
            raise InfeasibilityError(f"epsilon must lie in (0,1), got {self.epsilon}")


@dataclass(frozen=True)
class SynthesisError:
    """Total error of compiling one U~ from delta-accurate gates: the exact
    closed form and its simple cap 2 N delta r^2 4^r (exact <= cap always)."""

    exact: float
    cap: float


def u_synthesis_error(n_sites: int, r_u: int, delta: float) -> SynthesisError:
    if n_sites < 1 or r_u < 1 or delta < 0:
        raise InfeasibilityError(
            f"u_synthesis_error needs positive arguments, got N={n_sites}, r_U={r_u}, delta={delta}"
        )
    exact = n_sites * delta * (4 / 27) * ((9 * r_u**2 - 6 * r_u + 5) * 4**r_u - 5)
    cap = 2 * n_sites * delta * r_u**2 * 4**r_u
    return SynthesisError(exact=exact, cap=cap)


def sublinearity_exponents(xi: float, k_min: float) -> tuple[float, float]:
    """Exponents of t in the two gate-count terms: (2.02 xi ln 4,
    1.01 ln 4 / k_min); both below 1 exactly when xi < 1/(4.04 ln 2)."""
    if xi <= 0 or k_min <= 0:
        raise InfeasibilityError(f"need xi > 0 and k_min > 0, got xi={xi}, k_min={k_min}")
    return (2.02 * xi * math.log(4), 1.01 * math.log(4) / k_min)


@dataclass(frozen=True)
class ComplexityReport:
    query: ComplexityQuery
    r_u: int
    r_j: int
    r_u_formula: int
    r_j_formula: int
    delta_u: float
    delta_j: float
    c_u_bound: float
    c_h_bound: float
    total_bound: float
    scaling_bound: float
    exp_u: float
    exp_h: float
    error_ledger: dict[str, float]

    def to_jsonable(self) -> dict:
        """The report's fields with the query's flattened in, and feasible."""
        report = asdict(self)
        del report["query"]
        return {**asdict(self.query), **report, "feasible": True}


def _gate_sum(r_u: int) -> float:
    """1 + sum_{k=2}^{r_U} k^2 4^k; the one-site layer contributes without
    the 4^k factor."""
    return 1.0 + sum(k**2 * 4**k for k in range(2, r_u + 1))


def circuit_complexity_bound(query: ComplexityQuery) -> ComplexityReport:
    """Evaluate the gate-count bound, or raise InfeasibilityError when the
    radius recipes cannot be sublinear (xi >= 1/(4.04 ln 2)) or N and t are
    so large that the bound's arithmetic overflows a double."""
    xi, n, t = query.xi, query.n_sites, query.t
    if xi >= 1 / math.log(2):
        raise InfeasibilityError(
            f"xi={xi} is outside the model's xi < 1/ln 2 domain, hence also outside "
            f"the sublinearity condition xi < 1/(4.04 ln 2) ~= {XI_SUBLINEAR_MAX:.6f}"
        )
    constants = BoundConstants.for_params(xi, q=1.0)
    exp_u, exp_h = sublinearity_exponents(xi, constants.k_min)
    if xi >= XI_SUBLINEAR_MAX:
        raise InfeasibilityError(
            f"infeasible: xi={xi} gives a t-exponent {exp_u:.4f} >= 1 for the U~ term; "
            f"the construction requires xi < 1/(4.04 ln 2) ~= {XI_SUBLINEAR_MAX:.6f}"
        )
    try:
        return _evaluate(query, constants, exp_u, exp_h)
    except OverflowError as exc:
        # From N^2 t = inf on, or where 4^{r_U} passes the largest double.
        raise InfeasibilityError(
            f"the gate-count bound overflows a double at N={n}, t={t}: {exc}"
        ) from exc


def _evaluate(
    query: ComplexityQuery, constants: BoundConstants, exp_u: float, exp_h: float
) -> ComplexityReport:
    """circuit_complexity_bound for a query whose xi it has admitted."""
    xi, n, t, eps = query.xi, query.n_sites, query.t, query.epsilon
    r_j_formula = max(1, math.ceil(1.01 * math.log(n * t) / constants.k_min))
    r_u_formula = max(1, math.ceil(2.02 * xi * math.log(n**2 * t)))
    params = InstanceParams(n_sites=n, xi=xi, q_const=1.0)

    def terms(r_j: int, r_u: int) -> tuple[float, float]:
        return delta_h_terms(params, TruncationRadii(r_j, r_u))

    def enlarged(radius: int, term, name: str) -> int:
        """The least radius from `radius` on whose term, times t, fits in eps/4."""
        while term(radius) * t > eps / 4:
            radius += 1
            if radius > _ENLARGE_CAP:
                raise InfeasibilityError(
                    f"{name}-radius search exceeded {_ENLARGE_CAP} without closing the "
                    f"error ledger; xi={xi} is too close to the infeasibility boundary"
                )
        return radius

    r_j = enlarged(r_j_formula, lambda r: terms(r, r_u_formula)[0], "coupling")
    r_u = enlarged(r_u_formula, lambda r: terms(r_j, r)[1], "width")

    delta_u = eps / (12 * n * r_u**2 * 4**r_u)
    delta_j = eps / (12 * n * r_j**2 * 4**r_j)
    c_u = n * math.log(1 / delta_u) * _gate_sum(r_u)
    c_h = n * math.log(1 / delta_j) * r_j**2 * 4**r_j
    term_j, term_u = terms(r_j, r_u)
    truncation_error = (term_j + term_u) * t
    ledger = {
        "u_synthesis": eps / 6,
        "u_synthesis_mirror": eps / 6,
        "h_synthesis": eps / 6,
        "truncation": truncation_error,
    }
    ledger_total = sum(ledger.values())
    ledger["total"] = ledger_total
    if not ledger_total < eps:
        raise InfeasibilityError(
            f"error ledger {ledger_total:.6e} does not close below epsilon={eps}; "
            f"the construction requires xi < 1/(4.04 ln 2) ~= {XI_SUBLINEAR_MAX:.6f}"
        )
    scaling = n * (n**2 * t) ** exp_u + n * (n * t) ** exp_h
    return ComplexityReport(
        query=query,
        r_u=r_u,
        r_j=r_j,
        r_u_formula=r_u_formula,
        r_j_formula=r_j_formula,
        delta_u=delta_u,
        delta_j=delta_j,
        c_u_bound=c_u,
        c_h_bound=c_h,
        total_bound=2 * c_u + c_h,
        scaling_bound=scaling,
        exp_u=exp_u,
        exp_h=exp_h,
        error_ledger=ledger,
    )


def sweep(
    n_sites: int, xi: float, epsilon: float, t_values: list[float]
) -> list[tuple[float, float, float]]:
    """(t, total_bound, scaling_bound) rows for slope fitting."""
    rows = []
    for t in t_values:
        report = circuit_complexity_bound(ComplexityQuery(n_sites, t, xi, epsilon))
        rows.append((t, report.total_bound, report.scaling_bound))
    return rows
