"""Tests for the gate-count bound evaluator."""

import math
import re
import warnings

import numpy as np
import pytest

from liomsim.complexity import (
    XI_SUBLINEAR_MAX,
    ComplexityQuery,
    circuit_complexity_bound,
    sublinearity_exponents,
    sweep,
    u_synthesis_error,
)
from liomsim.errors import InfeasibilityError
from liomsim.truncation import BoundConstants


def test_query_validation():
    ComplexityQuery(4, 1.0, 0.2, 0.1)
    with pytest.raises(InfeasibilityError):
        ComplexityQuery(0, 1.0, 0.2, 0.1)
    with pytest.raises(InfeasibilityError):
        ComplexityQuery(4, 0.0, 0.2, 0.1)
    with pytest.raises(InfeasibilityError):
        ComplexityQuery(4, 1.0, -0.2, 0.1)
    with pytest.raises(InfeasibilityError):
        ComplexityQuery(4, 1.0, 0.2, 1.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_query_refuses_a_non_finite_t(t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibilityError, match=f"t must be positive and finite, got {t}"):
            ComplexityQuery(16, t, 0.3, 0.1)


@pytest.mark.parametrize("xi, t", [(0.3, 1e308), (0.356, 1e305)], ids=["n2t-overflows", "gates-overflow"])
def test_bound_refuses_a_t_that_overflows(xi, t):
    # 16^2 * 1e308 is inf; at 1e305 and xi near the sublinear limit N^2 t is
    # finite, but 4^{r_U} no longer fits a double.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InfeasibilityError, match=re.escape(f"overflows a double at N=16, t={t}")):
            circuit_complexity_bound(ComplexityQuery(16, t, xi, 0.1))


def test_u_synthesis_error_small_radius():
    # r_U = 1: only the one-site layer, so the exact error is 4 N delta and
    # the cap is 8 N delta.
    err = u_synthesis_error(5, 1, 0.01)
    assert err.exact == pytest.approx(4 * 5 * 0.01, rel=1e-12)
    assert err.cap == pytest.approx(8 * 5 * 0.01, rel=1e-12)
    with pytest.raises(InfeasibilityError):
        u_synthesis_error(0, 1, 0.01)
    with pytest.raises(InfeasibilityError):
        u_synthesis_error(5, 1, -0.01)


def test_u_synthesis_cap_dominates_exact():
    for r in range(1, 41):
        err = u_synthesis_error(3, r, 1e-6)
        assert err.cap >= err.exact > 0, r
        assert err.cap / err.exact <= 2.0


def test_sublinearity_exponents_threshold():
    constants = BoundConstants.for_params(0.15)
    exp_u, exp_h = sublinearity_exponents(0.15, constants.k_min)
    assert exp_u == pytest.approx(2.02 * 0.15 * math.log(4), rel=1e-12)
    assert exp_h == pytest.approx(1.01 * math.log(4) / constants.k_min, rel=1e-12)
    assert exp_u < 1 and exp_h < 1
    # At the boundary value the U~ exponent hits 1 exactly.
    boundary, _ = sublinearity_exponents(XI_SUBLINEAR_MAX, 1.0)
    assert boundary == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(InfeasibilityError):
        sublinearity_exponents(0.0, 1.0)


def test_report_frozen_point():
    report = circuit_complexity_bound(ComplexityQuery(16, 1000.0, 0.15, 0.1))
    assert report.r_j_formula == 2
    assert report.r_j == 3
    assert report.r_u_formula == 4
    assert report.r_u == 4
    assert report.error_ledger["total"] == pytest.approx(
        0.05914146537888168, rel=1e-10
    )
    assert report.error_ledger["total"] < 0.1
    assert report.exp_u == pytest.approx(0.42004719141932684, rel=1e-12)
    assert report.exp_h == pytest.approx(0.23439402984916866, rel=1e-12)
    assert report.scaling_bound == pytest.approx(3145.8527505669413, rel=1e-10)
    assert report.total_bound == pytest.approx(2535079.093592468, rel=1e-10)
    assert report.delta_u == pytest.approx(1.2715657552083333e-07, rel=1e-10)
    assert report.delta_j == pytest.approx(9.042245370370371e-07, rel=1e-10)
    assert report.c_u_bound == pytest.approx(1203413.75, rel=1e-6)
    assert report.c_h_bound == pytest.approx(128251.59, rel=1e-6)
    assert report.total_bound == pytest.approx(
        2 * report.c_u_bound + report.c_h_bound, rel=1e-12
    )


def test_report_ledger_structure():
    report = circuit_complexity_bound(ComplexityQuery(8, 10.0, 0.2, 0.3))
    ledger = report.error_ledger
    assert set(ledger) == {
        "u_synthesis",
        "u_synthesis_mirror",
        "h_synthesis",
        "truncation",
        "total",
    }
    assert ledger["u_synthesis"] == ledger["u_synthesis_mirror"] == 0.3 / 6
    assert ledger["truncation"] <= 0.3 / 2 + 1e-12
    assert ledger["total"] == pytest.approx(
        sum(v for k, v in ledger.items() if k != "total"), rel=1e-12
    )
    assert ledger["total"] < 0.3
    payload = report.to_jsonable()
    assert payload["feasible"] is True
    assert payload["r_u"] == report.r_u


def test_ledger_closes_across_settings():
    for n in (4, 16, 64):
        for t in (0.5, 10.0, 1e4):
            for eps in (0.05, 0.4):
                report = circuit_complexity_bound(ComplexityQuery(n, t, 0.2, eps))
                assert report.error_ledger["total"] < eps, (n, t, eps)
                assert report.r_j >= report.r_j_formula
                assert report.r_u >= report.r_u_formula


def test_infeasible_xi_messages():
    with pytest.raises(InfeasibilityError) as half:
        circuit_complexity_bound(ComplexityQuery(16, 1000.0, 0.5, 0.1))
    assert "t-exponent 1.4002" in str(half.value)
    assert "0.357103" in str(half.value)
    with pytest.raises(InfeasibilityError) as big:
        circuit_complexity_bound(ComplexityQuery(16, 1000.0, 1.5, 0.1))
    assert "1/ln 2" in str(big.value)
    # Exactly at the boundary is still infeasible.
    with pytest.raises(InfeasibilityError):
        circuit_complexity_bound(ComplexityQuery(16, 1000.0, XI_SUBLINEAR_MAX, 0.1))


def test_total_bound_sublinear_in_t():
    for t in (10.0, 100.0, 1000.0):
        small = circuit_complexity_bound(ComplexityQuery(16, t, 0.15, 0.1))
        large = circuit_complexity_bound(ComplexityQuery(16, 10 * t, 0.15, 0.1))
        assert large.total_bound / small.total_bound < 10.0
        assert large.scaling_bound / small.scaling_bound < 10.0


def test_scaling_bound_slope_matches_exponent():
    t_values = [10.0**k for k in range(2, 7)]
    rows = sweep(16, 0.15, 0.1, t_values)
    logs_t = np.log([r[0] for r in rows])
    logs_scaling = np.log([r[2] for r in rows])
    slope = np.polyfit(logs_t, logs_scaling, 1)[0]
    report = circuit_complexity_bound(ComplexityQuery(16, 100.0, 0.15, 0.1))
    # At large t the U~ term dominates the power-law form, so the fitted
    # slope approaches exp_u from below.
    assert slope <= report.exp_u + 1e-6
    assert slope >= report.exp_h - 1e-6
    assert slope < 1.0


def test_monotonicity_in_n():
    small = circuit_complexity_bound(ComplexityQuery(8, 100.0, 0.2, 0.1))
    large = circuit_complexity_bound(ComplexityQuery(32, 100.0, 0.2, 0.1))
    assert large.total_bound > small.total_bound
    assert large.scaling_bound > small.scaling_bound
    assert large.r_u >= small.r_u
    assert large.r_j >= small.r_j


def test_sweep_rows():
    rows = sweep(8, 0.2, 0.2, [1.0, 10.0])
    assert len(rows) == 2
    assert rows[0][0] == 1.0 and rows[1][0] == 10.0
    assert all(len(r) == 3 for r in rows)
    assert rows[1][1] > rows[0][1]
