"""Tests for W's light cone: its width, its exactness, and the prefix cones
the chain walk shares with the per-factor walk."""

import functools
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import reference_light_cone, reference_mps_sigma_z

from liomsim.model import InstanceParams, build_random_instance
from liomsim.mps import build_mps
from liomsim.oracle import exact_distribution
from liomsim.simulate import (
    ObservableProduct,
    SimulationRequest,
    _light_cone,
    _observable_nodes,
    _one_shot_network,
    _w,
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
    """The sites of the W factors in the light cone of sigma^z_p, and the
    length of the plan expectation runs for it."""
    _, shot = _one_shot_network(req, _observable_nodes(ObservableProduct(p)), fold=True)
    w_list = _w(req).nodes
    sites = {s for node, k in zip(w_list, _light_cone(req, [p])) if k for s in node.sites}
    return sites, len(shot.plan.steps)


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
    "family, bulk_steps, last_steps", [("criterion-6", 53, 35), ("expect_plan", 43, 29)]
)
def test_bulk_sigma_z_plans_have_one_length_at_every_n(family, bulk_steps, last_steps):
    # The lengths with U~'s outer layers folded into the observable; the
    # unfolded plans were 59 and 39 steps (criterion-6), 49 and 33
    # (expect_plan).
    for req in _FAMILIES[family]:
        reach, n = _reach(req), req.n_sites
        steps = {p: _sigma_z_cone(req, p)[1] for p in range(1, n + 1)}
        assert {steps[p] for p in range(reach + 1, n - reach + 1)} == {bulk_steps}, n
        assert (steps[n // 2], steps[n]) == (bulk_steps, last_steps), n


@pytest.mark.parametrize(
    "family, folded, unfolded",
    [
        ("criterion-6", (53, 12, 43_353), (59, 14, 122_713)),
        ("expect_plan", (43, 11, 15_905), (49, 13, 55_585)),
    ],
    ids=["criterion-6", "expect_plan"],
)
def test_bulk_sigma_z_fold_halves_the_computed_cost(family, folded, unfolded):
    # Structural pin of the bulk sigma^z plan at N=32, as (steps, peak
    # axes, entries written: the sum of 2^mem_axes_after), folded and not.
    # Change it only with the scheduler or the fold.
    req = _FAMILIES[family][0]
    middle = _observable_nodes(ObservableProduct(req.n_sites // 2))

    def shape(fold):
        _, shot = _one_shot_network(req, middle, fold=fold)
        plan = shot.plan
        return len(plan.steps), plan.peak_mem_axes, sum(1 << s.mem_axes_after for s in plan.steps)

    assert shape(True) == folded
    assert shape(False) == unfolded
    assert 2 * folded[2] <= unfolded[2]


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_pruned_sigma_z_equals_the_unpruned_value(family):
    # Every site against a transfer sweep of the MPS of all of W|0>, and
    # three sites of the first request against the unpruned network.
    for req in _FAMILIES[family]:
        n = req.n_sites
        unpruned = reference_mps_sigma_z(build_mps(n, _w(req).nodes, _w(req).structure.runs))
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
    w_list = _w(req).nodes
    for k in range(1, req.n_sites + 1):
        support = range(1, k + 1)
        assert _light_cone(req, support) == reference_light_cone(w_list, support), k


def _rotation(rng):
    """A random 2x2 unitary."""
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_observables(rng, n):
    """sigma^z at every site, then products of sigma^z and projector
    factors on scattered sites, with rotations on scattered sites."""
    out = [ObservableProduct(p) for p in range(1, n + 1)]
    for _ in range(4):
        kinds = rng.choice(["", "sigma_z", "proj0", "proj1"], size=n, p=[0.4, 0.3, 0.15, 0.15])
        if not any(kinds):
            kinds[rng.integers(n)] = "sigma_z"
        rotated = [s for s in range(1, n + 1) if rng.random() < 0.3]
        rotations = [(s, _rotation(rng)) for s in rotated]
        sites = list(enumerate(kinds.tolist(), 1))
        out.append(
            ObservableProduct(
                *[s for s, kind in sites if kind == "sigma_z"],
                projectors=tuple((s, int(kind[4])) for s, kind in sites if kind.startswith("proj")),
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
    w_list = _w(req).nodes
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
    assert any(_wraps(node) for node in _w(req).nodes)
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


@settings(
    max_examples=30,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(3, 10),
    periodic=st.booleans(),
    max_width=st.sampled_from([None, 1, 2]),
    r_j=st.integers(1, 3),
    r_u=st.integers(1, 3),
    inst_seed=st.integers(0, 2**31 - 1),
)
def test_folded_observables_match_the_dense_route(n, periodic, max_width, r_j, r_u, inst_seed):
    # sigma^z at every site, rotated sigma^z, and adjacent and distant
    # sigma^z products, on banded and unbanded, open and periodic
    # instances: the plan route, which may fold W's last runs into the
    # observable, against the dense route.  The chosen fold never costs
    # more than none, and a product with a projector never folds.
    inst = build_random_instance(
        InstanceParams(n, 0.5), seed=inst_seed, max_body=2, max_width=max_width, periodic=periodic
    )
    radii = TruncationRadii(min(r_j, n), min(r_u, n))
    req = SimulationRequest(instance=inst, t=1.3, epsilon=0.5, radii=radii)
    rng = np.random.default_rng(inst_seed)
    observables = [ObservableProduct(p) for p in range(1, n + 1)]
    observables += [ObservableProduct(p, rotations=((p, _rotation(rng)),)) for p in range(1, n + 1)]
    observables += [ObservableProduct(p, p + 1) for p in range(1, n)]
    observables += [ObservableProduct(1, n), ObservableProduct(1, (n + 1) // 2)]
    for obs in observables:
        plan = expectation(req, obs, engine="plan")
        assert plan == pytest.approx(expectation(req, obs, engine="dense"), abs=1e-12), obs
        middle = _observable_nodes(obs)
        _, shot = _one_shot_network(req, middle, fold=True)
        _, flat = _one_shot_network(req, middle, fold=False)
        assert shot.cost <= flat.cost == sum(1 << s.mem_axes_after for s in flat.plan.steps), obs
    with_projector = ObservableProduct(1, projectors=((n, 0),))
    pruned = build_expectation_network(req, with_projector)
    flat = _one_shot_network(req, _observable_nodes(with_projector))[0]
    assert [node.name for node in pruned.nodes] == [node.name for node in flat.nodes]
    assert f"P[{n}]" in [node.name for node in pruned.nodes]


def _two_site_sigma_z(dist, i, j):
    """<sigma^z_i sigma^z_j> of an outcome distribution."""
    n = dist.n_sites
    z = np.arange(2**n)
    signs = 1 - 2 * (((z >> (n - i)) ^ (z >> (n - j))) & 1)
    return float(dist.probabilities @ signs)


@pytest.mark.parametrize(
    "n, build",
    [
        (6, {"max_body": 3}),
        (8, {"max_body": 3, "max_width": 2, "periodic": False}),
        (10, {"max_body": 2, "max_width": 2, "periodic": False}),
    ],
    ids=["periodic-6", "banded-8", "banded-10"],
)
def test_two_site_sigma_z_products_match_the_oracle(n, build):
    inst = build_random_instance(InstanceParams(n, 0.5), seed=n, **build)
    radii = TruncationRadii(3, 2)
    req = SimulationRequest(instance=inst, t=1.1, epsilon=0.5, radii=radii)
    dist = exact_distribution(inst, req.t, r_j=radii.r_j, r_u=radii.r_u)
    for i, j in itertools.combinations(range(1, n + 1), 2):
        want = _two_site_sigma_z(dist, i, j)
        for engine in ("plan", "dense"):
            got = expectation(req, ObservableProduct(i, j), engine=engine)
            assert got == pytest.approx(want, abs=1e-12), (i, j, engine)


@pytest.mark.parametrize("n", [32, 64])
def test_far_apart_sigma_z_products_factorise(n):
    # W^dag sigma^z_i W and W^dag sigma^z_j W act on disjoint light cones,
    # and |0...0> is a product state, so the correlator factorises.
    req = _criterion_6_request(n)
    gap = 2 * _reach(req) + 1
    for i, j in ((1, n), (2, 2 + gap), (n // 4, n // 4 + gap)):
        cone_i, cone_j = _sigma_z_cone(req, i)[0], _sigma_z_cone(req, j)[0]
        assert cone_i.isdisjoint(cone_j), (i, j)
        product = expectation(req, ObservableProduct(i), engine="plan") * expectation(
            req, ObservableProduct(j), engine="plan"
        )
        got = expectation(req, ObservableProduct(i, j), engine="plan")
        assert got == pytest.approx(product, abs=1e-12), (i, j)
