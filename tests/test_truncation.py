"""Tests for the truncation radii, tail-sum bounds, and the two cutoffs
that truncation reads an instance with."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liomsim.errors import DomainError, SaturationWarning
from liomsim.model import (
    InstanceParams,
    build_explicit_instance,
    build_random_instance,
    dense_hamiltonian,
    nonidentity_constituents,
)
from liomsim.simulate import SimulationRequest
from liomsim.truncation import (
    BIG_C,
    BoundConstants,
    TruncationRadii,
    delta_h_bound,
    delta_h_terms,
    gamma_upper_bound,
    liom_deviation_bound,
    select_radii,
    spn0_aggregate_bound,
    spn0_bound,
    truncate,
)

XI_GRID = (0.3, 0.5, 0.8, 1.2)


def brute_tail(p, n0, xi, n_max=400):
    """sum_{n>=n0} C(n,p) e^{-n/xi}, summed to n_max plus a geometric cap on
    the rest (term ratios are at most rho for n > n_max)."""
    total = sum(math.comb(n, p) * math.exp(-n / xi) for n in range(n0, n_max + 1))
    rho = (n_max + 2) / (n_max + 2 - p) * math.exp(-1 / xi)
    assert rho < 1
    first_left_out = math.comb(n_max + 1, p) * math.exp(-(n_max + 1) / xi)
    return total + first_left_out / (1 - rho)


def test_radii_validation():
    radii = TruncationRadii(3, 5)
    assert (radii.r_j, radii.r_u) == (3, 5)
    with pytest.raises(DomainError):
        TruncationRadii(0, 3)
    with pytest.raises(DomainError):
        TruncationRadii(3, 0)
    with pytest.raises(DomainError):
        TruncationRadii(2.5, 3)


def test_constants_frozen_values():
    c = BoundConstants.for_params(0.5, 1.0)
    assert c.a == pytest.approx(1.854586542131141, rel=1e-12)
    assert c.kappa == pytest.approx(1.3068528194400546, rel=1e-12)
    assert c.k_min == c.kappa
    assert c.c_1 == pytest.approx(0.6855612525908628, rel=1e-12)
    assert c.c_2 == pytest.approx(15.179999223364007, rel=1e-12)
    assert c.c_j == pytest.approx(15.865560475954869, rel=1e-12)
    assert c.c_u == pytest.approx(8.671827013979058, rel=1e-12)
    assert c.big_c == BIG_C == 10.8


def test_constants_weighted_sum_matches_series():
    # c_u uses a closed form for sum_p (p+2) p x^p; check it against the
    # series summed far past convergence.
    for xi in XI_GRID:
        c = BoundConstants.for_params(xi, 1.0)
        x = math.exp(-c.a)
        series = sum((p + 2) * p * x**p for p in range(1, 4000))
        expected = 8 * math.exp(-1 / xi) * BIG_C * series
        assert c.c_u == pytest.approx(expected, rel=1e-12)


def test_constants_scale_with_q():
    base = BoundConstants.for_params(0.5, 1.0)
    scaled = BoundConstants.for_params(0.5, 4.0)
    assert scaled.c_u == pytest.approx(2 * base.c_u, rel=1e-12)
    assert scaled.c_j == pytest.approx(base.c_j, rel=1e-12)


def test_constants_domain():
    with pytest.raises(DomainError):
        BoundConstants.for_params(1.5)
    with pytest.raises(DomainError):
        BoundConstants.for_params(1 / math.log(2))
    with pytest.raises(DomainError):
        BoundConstants.for_params(0.0)
    with pytest.raises(DomainError):
        BoundConstants.for_params(0.5, q=0.5)


def test_spn0_frozen_values():
    assert spn0_bound(0, 3, 0.5) == pytest.approx(0.026770523507996673, rel=1e-12)
    assert spn0_bound(2, 5, 0.5) == pytest.approx(0.04333850757060211, rel=1e-12)
    assert spn0_bound(3, 3, 0.5) == pytest.approx(0.12423240873887395, rel=1e-12)


def test_spn0_branch_structure():
    # p = 0 is a pure exponential in n0.
    assert spn0_bound(0, 7, 0.5) == pytest.approx(BIG_C * math.exp(-14), rel=1e-12)
    # Below n* the bound does not depend on n0 at all.
    c = BoundConstants.for_params(0.5)
    assert c.n_star(3) == pytest.approx(3.469552928248997, rel=1e-12)
    assert spn0_bound(3, 3, 0.5) == spn0_bound(3, 3, 0.5)
    # n0 = 3 sits below n*(3) ~ 3.47, n0 = 4 above it: different branches.
    small = spn0_bound(3, 3, 0.5)
    assert small == pytest.approx(BIG_C * 3 * math.exp(-3 * c.a), rel=1e-12)
    large = spn0_bound(3, 4, 0.5)
    assert large == pytest.approx(
        BIG_C * 4**4 * math.sqrt(3) / 6 * math.exp(-8), rel=1e-12
    )


def test_spn0_is_upper_bound_sampled_grid():
    for xi in XI_GRID:
        for p in range(7):
            for n0 in {p, p + 1, p + 3, 12, 25, 40}:
                if n0 < p:
                    continue
                assert spn0_bound(p, n0, xi) >= brute_tail(p, n0, xi), (xi, p, n0)


@settings(max_examples=120, deadline=None)
@given(
    xi=st.sampled_from(XI_GRID),
    p=st.integers(min_value=0, max_value=6),
    n0=st.integers(min_value=0, max_value=40),
)
def test_spn0_upper_bound_property(xi, p, n0):
    if n0 < p:
        n0 = p
    assert spn0_bound(p, n0, xi) >= brute_tail(p, n0, xi)


def test_spn0_validation():
    with pytest.raises(DomainError):
        spn0_bound(-1, 3, 0.5)
    with pytest.raises(DomainError):
        spn0_bound(4, 3, 0.5)
    with pytest.raises(DomainError):
        spn0_bound(0, 3, 1.5)


def test_aggregate_frozen_value_and_bound():
    assert spn0_aggregate_bound(0, 5, 10, 0.5) == pytest.approx(
        2.8939203772030428e-06, rel=1e-12
    )
    # The aggregate bound dominates the actual sum of tails over the window.
    for xi in XI_GRID:
        for x1, x2, n0 in [(0, 5, 10), (0, 3, 3), (2, 6, 8), (0, 0, 0)]:
            actual = sum(brute_tail(p, n0, xi) for p in range(x1, x2 + 1))
            assert spn0_aggregate_bound(x1, x2, n0, xi) >= actual, (xi, x1, x2, n0)


def test_aggregate_validation():
    with pytest.raises(DomainError):
        spn0_aggregate_bound(3, 2, 10, 0.5)
    with pytest.raises(DomainError):
        spn0_aggregate_bound(0, 5, 4, 0.5)
    with pytest.raises(DomainError):
        spn0_aggregate_bound(-1, 2, 10, 0.5)
    with pytest.raises(DomainError):
        spn0_aggregate_bound(0, 2, 10, 1.6)


def test_gamma_upper_bound_points():
    quad = pytest.importorskip("scipy.integrate").quad
    for a, z in [(2.0, 3.0), (1.5, 4.0), (3.0, 8.0), (1.0, 0.5), (4.0, 3.5)]:
        value, err = quad(lambda t: t ** (a - 1) * math.exp(-t), z, math.inf)
        assert err < 1e-8
        assert gamma_upper_bound(a, z) >= value - 1e-8, (a, z)
    with pytest.raises(DomainError):
        gamma_upper_bound(3.0, 1.9)
    # a < 1 is outside the bound's validity: Gamma(0.5, 2) ~ 0.0806 exceeds
    # the would-be bound 2^0.5 e^-2 / 2.5 ~ 0.0766.
    with pytest.raises(DomainError):
        gamma_upper_bound(0.5, 2.0)


def test_liom_deviation_frozen_value():
    params = InstanceParams(8, 0.4)
    assert liom_deviation_bound(params, 6) == pytest.approx(
        0.03539739968946135, rel=1e-12
    )
    assert liom_deviation_bound(params, 6) == pytest.approx(
        8 * 8 * math.exp(-6 / 0.8), rel=1e-12
    )
    q4 = InstanceParams(8, 0.4, q_const=4.0)
    assert liom_deviation_bound(q4, 6) == pytest.approx(
        2 * liom_deviation_bound(params, 6), rel=1e-12
    )
    with pytest.raises(DomainError):
        liom_deviation_bound(params, 0)


def test_delta_h_terms_closed_form():
    params = InstanceParams(8, 0.5)
    radii = TruncationRadii(4, 5)
    c = BoundConstants.for_params(0.5, 1.0)
    term_j, term_u = delta_h_terms(params, radii)
    assert term_j == pytest.approx(c.c_j * 8 * 4 * math.exp(-c.k_min * 4), rel=1e-12)
    assert term_u == pytest.approx(c.c_u * 64 * math.exp(-5.0), rel=1e-12)
    assert delta_h_bound(params, radii) == pytest.approx(term_j + term_u, rel=1e-15)


def test_delta_h_terms_decay_in_radii():
    params = InstanceParams(12, 0.5)
    # The width term is strictly decreasing in r_U; the coupling term is
    # decreasing once past its peak near 1/k.
    prev_u = math.inf
    for r in range(1, 13):
        _, term_u = delta_h_terms(params, TruncationRadii(1, r))
        assert term_u < prev_u
        prev_u = term_u
    c = BoundConstants.for_params(0.5)
    start = math.ceil(1 / c.k_min)
    prev_j = math.inf
    for r in range(start, 13):
        term_j, _ = delta_h_terms(params, TruncationRadii(r, 1))
        assert term_j < prev_j
        prev_j = term_j


def test_select_radii_frozen_point():
    params = InstanceParams(16, 0.4)
    radii = select_radii(params, 0.01, 100.0)
    assert (radii.r_j, radii.r_u) == (10, 14)
    assert delta_h_bound(params, radii) == pytest.approx(
        4.671584927293113e-05, rel=1e-12
    )
    assert delta_h_bound(params, radii) <= 1e-4


def test_select_radii_meets_target_componentwise():
    params = InstanceParams(24, 0.5)
    eps, t = 0.05, 3.0
    radii = select_radii(params, eps, t)
    target = eps / (2 * t)
    term_j, term_u = delta_h_terms(params, radii)
    assert term_j <= target and term_u <= target
    # Componentwise minimality: one step smaller on either radius breaks the
    # target, either directly or at some larger coupling radius (the coupling
    # term can rise before it falls).
    if radii.r_u > 1:
        _, smaller_u = delta_h_terms(params, TruncationRadii(radii.r_j, radii.r_u - 1))
        assert smaller_u > target
    if radii.r_j > 1:
        worst = max(
            delta_h_terms(params, TruncationRadii(r, radii.r_u))[0]
            for r in range(radii.r_j - 1, params.n_sites + 1)
        )
        assert worst > target


def test_select_radii_doubling_t_increment():
    params = InstanceParams(40, 0.4)
    c = BoundConstants.for_params(0.4)
    max_step = math.ceil(math.log(2) * max(2 * 0.4, 1 / c.k_min)) + 1
    for t in (0.5, 2.0, 8.0, 32.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = select_radii(params, 0.01, t)
            doubled = select_radii(params, 0.01, 2 * t)
        assert 0 <= doubled.r_j - base.r_j <= max_step
        assert 0 <= doubled.r_u - base.r_u <= max_step


def test_select_radii_saturation_warning():
    params = InstanceParams(4, 0.5)
    with pytest.warns(SaturationWarning) as rec:
        radii = select_radii(params, 0.001, 1000.0)
    assert (radii.r_j, radii.r_u) == (4, 4)
    warning = rec[0].message
    assert warning.achieved_bound == pytest.approx(
        delta_h_bound(params, radii), rel=1e-15
    )
    assert warning.achieved_bound > 0.001 / 2000.0


def test_select_radii_validation():
    params = InstanceParams(8, 0.5)
    with pytest.raises(DomainError):
        select_radii(params, 0.0, 1.0)
    with pytest.raises(DomainError):
        select_radii(params, 1.0, 1.0)
    with pytest.raises(DomainError):
        select_radii(params, 0.1, 0.0)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_select_radii_refuses_a_non_finite_t_before_any_warning(t):
    # An infinite t once saturated the radius search, warned, and was
    # refused only after.
    inst = build_random_instance(InstanceParams(8, 0.5), seed=1, max_body=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"t must be positive and finite, got {t}"):
            select_radii(inst.params, 0.1, t)
        with pytest.raises(DomainError, match=f"got {t}"):
            SimulationRequest.certified(inst, t, 0.1)


def _x_rotation(theta):
    return np.array(
        [
            [math.cos(theta), -1j * math.sin(theta)],
            [-1j * math.sin(theta), math.cos(theta)],
        ],
        dtype=complex,
    )


def _explicit_fixture():
    params = InstanceParams(4, 0.5)
    rot = _x_rotation(0.3)
    # ||1 - M||^2 = 4 sin^2(phi) for the two-site product; phi = 0.12 keeps
    # it under the width-2 closeness bound e^{-1/xi} = e^{-2}.
    small = _x_rotation(0.12)
    wide = np.kron(small, np.eye(2)) @ np.kron(np.eye(2), small)
    # ranges 0, 1, 2, 3: each J sits under exp(-range/xi) at xi = 0.5
    couplings = {(1,): 0.9, (1, 2): 0.1, (1, 3): 0.01, (1, 4): 0.002}
    constituents = {(1, 1): rot, (2, 2): wide}
    return params, build_explicit_instance(params, couplings, constituents)


def test_truncate_boundary_semantics():
    params, inst = _explicit_fixture()
    radii = truncate(inst, TruncationRadii(2, 1)).radii
    # range >= r_J is dropped, the boundary included; range < r_J survives.
    assert dict(inst.iter_indices(radii.r_j)) == {(1,): 0.9, (1, 2): 0.1}
    # width > r_U is dropped; width <= r_U is the instance's own factor.
    kept = nonidentity_constituents(inst, radii.r_u)
    assert [(c.start_site, c.width) for c in kept] == [(1, 1)]
    assert kept[0] is inst.constituent(1, 1)
    # The truncated Hamiltonian is that of the instance holding only those.
    alone = build_explicit_instance(
        params, {(1,): 0.9, (1, 2): 0.1}, {(1, 1): inst.constituent(1, 1).matrix}
    )
    np.testing.assert_array_equal(
        dense_hamiltonian(inst, r_j=radii.r_j, r_u=radii.r_u), dense_hamiltonian(alone)
    )


def test_truncate_full_radii_is_passthrough():
    params, inst = _explicit_fixture()
    n = params.n_sites
    assert list(inst.iter_indices(n)) == list(inst.iter_indices())
    assert nonidentity_constituents(inst, n) == nonidentity_constituents(inst)
    np.testing.assert_array_equal(dense_hamiltonian(inst, r_j=n, r_u=n), dense_hamiltonian(inst))


def test_truncate_filters_support():
    # The coupling cutoff filters the support before it is read: the
    # oracle is never handed an index of range >= r_J.
    _, inst = _explicit_fixture()
    read = []

    def spy(indices):
        read.extend(indices)
        return inst.couplings(indices)

    spied = dataclasses.replace(inst, couplings=spy)
    survived = dict(spied.iter_indices(truncate(spied, TruncationRadii(2, 2)).radii.r_j))
    assert survived == {(1,): 0.9, (1, 2): 0.1}
    assert read == [(1,), (1, 2)]


def test_truncated_instance_bound_recompute():
    params, inst = _explicit_fixture()
    radii = TruncationRadii(3, 2)
    trunc = truncate(inst, radii)
    assert trunc.delta_h_bound == pytest.approx(
        delta_h_bound(params, radii), rel=1e-15
    )
    assert trunc.params is params
    assert trunc.base is inst
    assert trunc.radii == radii


def test_truncated_norm_within_bound_single_point():
    params = InstanceParams(5, 0.5)
    inst = build_random_instance(params, seed=11, max_body=3)
    radii = TruncationRadii(3, 3)
    trunc = truncate(inst, radii)
    h_full = dense_hamiltonian(inst)
    h_trunc = dense_hamiltonian(inst, r_j=radii.r_j, r_u=radii.r_u)
    diff = np.linalg.norm(h_full - h_trunc, 2)
    assert diff <= trunc.delta_h_bound
