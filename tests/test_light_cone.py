"""Tests for W's light cone: its width, its exactness, and the prefix cones
the chain walk shares with the per-factor walk."""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import reference_light_cone, reference_mps_sigma_z

from liomsim.model import InstanceParams, build_random_instance
from liomsim.mps import build_mps
from liomsim.simulate import (
    _PLANS,
    ObservableProduct,
    SimulationRequest,
    _light_cone,
    _observable_nodes,
    _one_shot_network,
    _w_nodes,
    _w_runs,
    build_expectation_network,
    expectation,
)
from liomsim.tensor import execute, qubitwise_schedule
from liomsim.truncation import TruncationRadii


@functools.cache
def _criterion_6_request(n):
    inst = build_random_instance(
        InstanceParams(n, 0.5), seed=n, max_body=2, max_width=2, periodic=False
    )
    return SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(6, 6))


@functools.cache
def _family_request(seed):
    """A certified N=32 request of the banded family the expect_plan
    benchmark queries (xi=0.3, width 2, max_body 3, open chain)."""
    inst = build_random_instance(
        InstanceParams(32, 0.3), seed=seed, max_width=2, max_body=3, periodic=False
    )
    return SimulationRequest.certified(inst, 1.0, 0.05)


def _wrapped_request():
    # The request of test_wrapped_periodic_instance_runs_on_the_plan_route:
    # a constituent wraps past site N.
    inst = build_random_instance(InstanceParams(4, 0.5), seed=3, max_body=3)
    return SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(1, 2))


# Both families have constituents of width at most 2.  Each of U~'s layers
# of width-2 gates (two, at offsets 1 and 2) moves a cone's edge by at most
# one site, and V's windows of r_J sites by r_J - 1, so a sigma^z cone
# reaches at most r_J - 1 + 2 * 2 sites to either side of its site.
_FAMILIES = {
    "criterion-6": [_criterion_6_request(n) for n in (32, 64, 128)],
    "expect_plan": [_family_request(11)],
}


def _reach(req):
    return req.radii.r_j - 1 + 4


def _sigma_z_cone(req, p):
    """The sites of the W factors the sigma^z_p network keeps, and the
    length of its plan."""
    network, key = _one_shot_network(req, _observable_nodes(ObservableProduct(p)))
    w_list = _w_nodes(req)
    sites = {s for node, k in zip(w_list, key[1]) if k for s in node.sites}
    return sites, len(_PLANS.plan(network, key).steps)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_sigma_z_cones_span_a_window_fixed_by_the_radii(family):
    # The kept factors of sigma^z_p lie within _reach sites of p, at every
    # p and N, and in the bulk the cones of one parity of p (the layers of
    # U~ are brickwork) reach equally far at every p and N.
    bulk = set()
    for req in _FAMILIES[family]:
        reach, n = _reach(req), req.n_sites
        for p in range(1, n + 1):
            sites, _ = _sigma_z_cone(req, p)
            assert p - reach <= min(sites) and max(sites) <= p + reach, (n, p)
            if reach < p <= n - reach:
                bulk.add((p % 2, p - min(sites), max(sites) - p))
    assert len(bulk) == 2


@pytest.mark.parametrize(
    "family, bulk_steps, last_steps", [("criterion-6", 59, 39), ("expect_plan", 49, 33)]
)
def test_bulk_sigma_z_plans_have_one_length_at_every_n(family, bulk_steps, last_steps):
    for req in _FAMILIES[family]:
        reach, n = _reach(req), req.n_sites
        steps = {p: _sigma_z_cone(req, p)[1] for p in range(1, n + 1)}
        assert {steps[p] for p in range(reach + 1, n - reach + 1)} == {bulk_steps}, n
        assert (steps[n // 2], steps[n]) == (bulk_steps, last_steps), n


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_pruned_sigma_z_equals_the_unpruned_value(family):
    # Every site against a transfer sweep of the MPS of all of W|0>, and
    # three sites of the first request against the unpruned network.
    for req in _FAMILIES[family]:
        n = req.n_sites
        unpruned = reference_mps_sigma_z(build_mps(n, _w_nodes(req), _w_runs(req)))
        pruned = [expectation(req, ObservableProduct(p), engine="plan") for p in range(1, n + 1)]
        np.testing.assert_allclose(pruned, unpruned, rtol=0, atol=1e-12)
    req = _FAMILIES[family][0]
    for p in (1, req.n_sites // 2, req.n_sites):
        network = build_expectation_network(req, ObservableProduct(p), prune=False)
        value = execute(qubitwise_schedule(network), network)
        pruned = expectation(req, ObservableProduct(p), engine="plan")
        assert pruned == pytest.approx(value.real, abs=1e-12), p


@pytest.mark.parametrize(
    "req", [*_FAMILIES["criterion-6"], *_FAMILIES["expect_plan"]],
    ids=["criterion-6-32", "criterion-6-64", "criterion-6-128", "expect_plan"],
)
def test_prefix_cones_keep_the_per_factor_walks_flags(req):
    # The chain walk's cones on open chains, and so its bits and p0, are
    # unchanged; _check_against_dense covers factors that wrap.
    w_list = _w_nodes(req)
    for k in range(1, req.n_sites + 1):
        support = range(1, k + 1)
        assert _light_cone(req, support) == reference_light_cone(w_list, support), k


def _random_observables(rng, n):
    """sigma^z at every site, then projector products with scattered
    projectors below a pivot and rotations on scattered sites."""
    out = [ObservableProduct(p) for p in range(1, n + 1)]
    for _ in range(4):
        pivot = int(rng.integers(1, n + 1))
        below = [s for s in range(1, pivot) if rng.random() < 0.4]
        rotated = [s for s in range(1, n + 1) if rng.random() < 0.3]
        rotations = []
        for s in rotated:
            q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            rotations.append((s, q * (np.diag(r) / np.abs(np.diag(r)))))
        out.append(
            ObservableProduct(
                pivot,
                projectors=tuple((s, int(rng.integers(0, 2))) for s in below),
                pivot_kind=str(rng.choice(["sigma_z", "proj0", "proj1"])),
                rotations=tuple(rotations),
            )
        )
    return out


def _wraps(node):
    return max(node.sites) - min(node.sites) != node.width - 1


def _check_against_dense(req, rng):
    # Prefix cones keep the per-factor walk's flags unless a gate wraps
    # past site N: a kept wrapped gate adds site N to a prefix support, and
    # the runs then keep fewer factors.  They still keep every factor that
    # meets the prefix, all the chain walk's forks need.
    w_list = _w_nodes(req)
    wrapped = any(_wraps(node) for node in w_list)
    for k in range(1, req.n_sites + 1):
        got, want = _light_cone(req, range(1, k + 1)), reference_light_cone(w_list, range(1, k + 1))
        if wrapped:
            assert all(b or not a for a, b in zip(got, want)), k
            assert all(g for g, node in zip(got, w_list) if min(node.sites) <= k), k
        else:
            assert got == want, k
    for obs in _random_observables(rng, req.n_sites):
        plan = expectation(req, obs, engine="plan")
        assert plan == pytest.approx(expectation(req, obs, engine="dense"), abs=1e-12), obs


def test_wrapped_periodic_instance_matches_the_dense_route():
    req = _wrapped_request()
    assert any(_wraps(node) for node in _w_nodes(req))
    for seed in range(5):
        _check_against_dense(req, np.random.default_rng(seed))


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(3, 10),
    periodic=st.booleans(),
    max_width=st.integers(1, 2),
    r_j=st.integers(1, 4),
    r_u=st.integers(1, 4),
    xi=st.sampled_from([0.3, 0.5, 0.8]),
    inst_seed=st.integers(0, 2**31 - 1),
    obs_seed=st.integers(0, 2**31 - 1),
)
def test_pruned_values_match_the_dense_route(
    n, periodic, max_width, r_j, r_u, xi, inst_seed, obs_seed
):
    inst = build_random_instance(
        InstanceParams(n, xi), seed=inst_seed, max_body=3, max_width=max_width, periodic=periodic
    )
    radii = TruncationRadii(min(r_j, n), min(r_u, n))
    req = SimulationRequest(instance=inst, t=1.3, epsilon=0.5, radii=radii)
    _check_against_dense(req, np.random.default_rng(obs_seed))
