"""Tests for one-shot conditional probabilities on both routes."""

import dataclasses
import itertools

import numpy as np
import pytest

from liomsim import simulate
from liomsim.model import InstanceParams, build_explicit_instance, build_random_instance
from liomsim.oracle import evolve_factored, exact_distribution
from liomsim.simulate import (
    PLAN_CACHE_STEPS,
    ObservableProduct,
    SimulationRequest,
    _light_cone_pair,
    _prefix_tree,
    conditional_probability,
    expectation,
)
from liomsim.tensor import ExpectationNetwork, PlanRunner, qubitwise_schedule
from liomsim.truncation import TruncationRadii


def _request(n, seed, radii, **build_kwargs):
    inst = build_random_instance(
        InstanceParams(n, 0.5), seed=seed, max_body=min(n, 3), **build_kwargs
    )
    return SimulationRequest(instance=inst, t=1.3, epsilon=0.5, radii=radii)


def _prefixes(n):
    """Every (prefix, site) pair of an N-site chain, site 1 included."""
    for site in range(1, n + 1):
        for bits in itertools.product((0, 1), repeat=site - 1):
            yield list(bits), site


def test_dense_pair_rule_is_bit_identical_to_the_tree_ratio():
    # Each tree entry is numpy's sum of its two children, so v0 / (v0 + v1)
    # equals the former tree[site][2i] / tree[site-1][i] bit for bit.
    req = _request(10, seed=5, radii=TruncationRadii(3, 3))
    tree = _prefix_tree(req)
    for bits, site in _prefixes(10):
        index = int("".join(map(str, bits)) or "0", 2)
        assert tree[site - 1][index] == tree[site][2 * index] + tree[site][2 * index + 1]
        got = conditional_probability(req, bits, site, engine="dense")
        assert got == tree[site][2 * index] / tree[site - 1][index], (bits, site)


@pytest.mark.parametrize(
    "n, seed, radii, build_kwargs",
    [
        (4, 3, TruncationRadii(3, 2), {}),
        (6, 7, TruncationRadii(2, 2), {"max_width": 2}),
        (8, 11, TruncationRadii(3, 3), {"max_width": 2, "periodic": False}),
    ],
)
def test_plan_conditionals_match_dense_and_oracle(n, seed, radii, build_kwargs):
    req = _request(n, seed, radii, **build_kwargs)
    dist = exact_distribution(req.instance, req.t, r_j=radii.r_j, r_u=radii.r_u)
    tree = dist.probabilities.reshape((2,) * n)
    for bits, site in _prefixes(n):
        sub = tree[tuple(bits)]
        oracle = float(sub[0].sum() / sub.sum())
        plan = conditional_probability(req, bits, site, engine="plan")
        dense = conditional_probability(req, bits, site, engine="dense")
        assert plan == pytest.approx(dense, abs=1e-10), (bits, site)
        assert plan == pytest.approx(oracle, abs=1e-10), (bits, site)


@pytest.fixture
def schedules(monkeypatch):
    """A fresh shared plan cache, with every network it schedules recorded
    in the list this fixture returns."""
    monkeypatch.setattr(simulate, "_PLANS", simulate._PlanCache())
    scheduled = []

    def counted(network):
        scheduled.append(network)
        return qubitwise_schedule(network)

    monkeypatch.setattr(simulate, "qubitwise_schedule", counted)
    return scheduled


def test_plan_conditional_contracts_one_network_forked_at_the_pivot(monkeypatch, schedules):
    # The qubit-wise conditional the plan route falls back to, on the
    # criterion-6 family at N=32: one pruned network of sites 1..site, its
    # prefix projectors and an identity mark on the site, scheduled once
    # into the shared cache, run once to its end and once more from the
    # mark on by the fork.  No light cone of the chain walk is built.
    inst = build_random_instance(
        InstanceParams(32, 0.5), seed=32, max_body=2, max_width=2, periodic=False
    )
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(6, 6))
    site = 17
    bits = np.random.default_rng(0).integers(0, 2, site - 1).tolist()

    steps = []
    step = PlanRunner.step

    def counted_step(self):
        steps.append(self)
        step(self)

    def refused(*args, **kwargs):
        raise AssertionError("a plan-route conditional took another path")

    monkeypatch.setattr(simulate, "_cone", refused)
    monkeypatch.setattr(simulate, "build_expectation_network", refused)
    monkeypatch.setattr(simulate, "expectation", refused)
    monkeypatch.setattr(PlanRunner, "step", counted_step)
    pair = _light_cone_pair(req, bits, site)
    monkeypatch.undo()

    (network,) = schedules
    plan = qubitwise_schedule(network)
    mark = next(pos for pos, node in enumerate(network.nodes) if node.name == f"I[{site}]")
    mark_step = plan.step_of[mark]
    assert plan.steps[mark_step].node_index == mark
    assert 0 < mark_step < len(plan.steps) - 1
    assert len(steps) == 2 * len(plan.steps) - mark_step
    assert req._state.ket is None and not req._state.cone_targets
    v0 = expectation(req, ObservableProduct.prefix_projector(bits + [0]), engine="plan")
    v1 = expectation(req, ObservableProduct.prefix_projector(bits + [1]), engine="plan")
    assert (pair[0] / (pair[0] + pair[1])).real == pytest.approx(v0 / (v0 + v1), abs=1e-12)


def _family_request(seed):
    """A certified N=32 request of the banded family the expect_plan
    benchmark queries (xi=0.3, width 2, max_body 3, open chain)."""
    inst = build_random_instance(
        InstanceParams(32, 0.3), seed=seed, max_width=2, max_body=3, periodic=False
    )
    return SimulationRequest.certified(inst, 1.0, 0.05)


def test_conditionals_keep_no_cone_and_share_one_plan_per_site(schedules):
    req = _family_request(11)
    rng = np.random.default_rng(3)
    for site in range(1, 33):
        _light_cone_pair(req, rng.integers(0, 2, site - 1).tolist(), site)
    assert req._state.ket is None and not req._state.cone_targets
    assert len(schedules) == 32
    plans = simulate._PLANS
    held = [shot.plan for shot in plans.entries.values()]
    assert plans.steps == sum(len(plan.steps) for plan in held) <= PLAN_CACHE_STEPS
    # Another prefix of a site takes the plan its first prefix scheduled.
    for site in (2, 20, 32):
        _light_cone_pair(req, [1] * (site - 1), site)
    assert len(schedules) == 32
    assert {id(shot.plan) for shot in plans.entries.values()} == {id(plan) for plan in held}


def test_conditional_network_pins_its_prefix(schedules):
    # Structural pin: the k=32 conditional of the expect_plan family, whose
    # 31 prefix projectors pin their ids, against the same network with
    # each projector an ordinary diagonal, as scheduled before projectors
    # pinned.  Change it only with the scheduler.
    req = _family_request(11)
    prefix = np.random.default_rng(4).integers(0, 2, 31).tolist()
    _light_cone_pair(req, prefix, 32)
    (network,) = schedules
    nodes = tuple(
        dataclasses.replace(node, kind="diag") if node.kind == "proj" else node
        for node in network.nodes
    )
    assert sum(node.kind == "proj" for node in network.nodes) == 31
    unpinned = ExpectationNetwork(network.n_sites, nodes, network.r_u, network.r_j)

    def shape(plan):
        entries = sum(1 << step.mem_axes_after for step in plan.steps)
        return len(plan.steps), plan.peak_mem_axes, entries

    pinned, before = qubitwise_schedule(network), qubitwise_schedule(unpinned)
    assert shape(pinned) == (189, 13, 803_267)
    assert shape(before) == (220, 14, 1_653_059)
    assert pinned.peak_open_legs == before.peak_open_legs


@pytest.mark.parametrize("radii", [TruncationRadii(6, 6), TruncationRadii(3, 3)])
def test_plan_conditionals_match_the_factored_oracle_at_n15(radii):
    # N=15 is above the dense cap of 14: every prefix of a seeded
    # bitstring on the criterion-6 family, as a conditional and as a
    # projector expectation.
    n = 15
    inst = build_random_instance(
        InstanceParams(n, 0.5), seed=n, max_body=2, max_width=2, periodic=False
    )
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=radii)
    state = evolve_factored(inst, req.t, r_j=radii.r_j, r_u=radii.r_u)
    tree = (np.abs(state) ** 2).reshape((2,) * n)
    bits = np.random.default_rng(15).integers(0, 2, n).tolist()
    for site in range(1, n + 1):
        sub = tree[tuple(bits[: site - 1])]
        got = conditional_probability(req, bits[: site - 1], site, engine="plan")
        assert got == pytest.approx(float(sub[0].sum() / sub.sum()), abs=1e-10), site
        marginal = expectation(req, ObservableProduct.prefix_projector(bits[:site]), engine="plan")
        assert marginal == pytest.approx(float(tree[tuple(bits[:site])].sum()), abs=1e-10), site


def test_plan_conditionals_and_sigma_z_match_exact_distribution_at_n16():
    # A banded open chain with 696 coupling indices of order <= 3.  Along
    # the likeliest branch every conditional is read off the MPS and off
    # the light cone, and every sigma^z_p is checked too.
    n = 16
    radii = TruncationRadii(3, 3)
    inst = build_random_instance(
        InstanceParams(n, 0.5), seed=n, max_body=3, max_width=2, periodic=False
    )
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=radii)
    probs = exact_distribution(inst, req.t, r_j=radii.r_j, r_u=radii.r_u).probabilities
    tree = probs.reshape((2,) * n)
    prefix: list[int] = []
    for site in range(1, n + 1):
        sub = tree[tuple(prefix)]
        want = float(sub[0].sum() / sub.sum())
        got = conditional_probability(req, prefix, site, engine="plan")
        assert req._state.conditional_route == "mps"
        assert got == pytest.approx(want, abs=1e-10), site
        v0, v1 = (complex(v).real for v in _light_cone_pair(req, prefix, site))
        assert v0 / (v0 + v1) == pytest.approx(want, abs=1e-10), site
        signs = 1.0 - 2.0 * ((np.arange(2**n) >> (n - site)) & 1)
        sigma_z = expectation(req, ObservableProduct(site), engine="plan")
        assert sigma_z == pytest.approx(float(signs @ probs), abs=1e-10), site
        prefix.append(0 if want >= 0.5 else 1)


@pytest.mark.xfail(
    strict=True,
    reason="the dense route's pair has ~1e-16/sqrt(P(prefix)) relative error; "
    "it awaits a floor rule (ROADMAP item 3)",
)
def test_dense_conditional_after_a_1e_30_prefix():
    # Hadamard factors make tau_i^z = sigma_i^x, so the sites are
    # independent: P(z_i = 1) = sin^2(J_i t), and site 6 after 11111 is
    # cos^2(1) whatever the prefix, which the plan route reads.
    params = InstanceParams(6, 0.5, q_const=4.0)
    couplings = {(i,): 1e-3 for i in range(1, 6)}
    couplings[(6,)] = 1.0
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    inst = build_explicit_instance(params, couplings, {(i, 1): hadamard for i in range(1, 7)})
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(2, 2))
    truth = np.cos(1.0) ** 2
    assert conditional_probability(req, [1] * 5, 6, engine="plan") == pytest.approx(truth, abs=1e-12)
    assert conditional_probability(req, [1] * 5, 6, engine="dense") == pytest.approx(truth, abs=1e-10)
