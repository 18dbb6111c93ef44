"""Tests for one-shot conditional probabilities on both routes."""

import itertools

import numpy as np
import pytest

from liomsim import simulate
from liomsim.model import InstanceParams, build_random_instance
from liomsim.oracle import exact_distribution
from liomsim.simulate import (
    ObservableProduct,
    SimulationRequest,
    _prefix_tree,
    build_expectation_network,
    conditional_probability,
)
from liomsim.tensor import PlanRunner, qubitwise_schedule
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


def test_plan_conditional_contracts_one_network_forked_at_the_pivot(monkeypatch):
    # Criterion-6 family at N=32: one pruned network of P(prefix, 0), run
    # once to its end and once more from the pivot on by the fork.
    inst = build_random_instance(
        InstanceParams(32, 0.5), seed=32, max_body=2, max_width=2, periodic=False
    )
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(6, 6))
    site = 17
    bits = np.random.default_rng(0).integers(0, 2, site - 1).tolist()
    network = build_expectation_network(req, ObservableProduct.prefix_projector(bits + [0]))
    plan = qubitwise_schedule(network)
    pivot = next(i for i, node in enumerate(network.nodes) if node.name == f"O[{site}]")
    pivot_step = next(i for i, step in enumerate(plan.steps) if step.node_index == pivot)
    assert 0 < pivot_step < len(plan.steps) - 1

    builds, steps = [], []
    build, step = simulate.build_expectation_network, PlanRunner.step

    def counted_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    def counted_step(self):
        steps.append(self)
        step(self)

    def no_expectation(*args, **kwargs):
        raise AssertionError("a plan-route conditional called expectation")

    monkeypatch.setattr(simulate, "build_expectation_network", counted_build)
    monkeypatch.setattr(simulate, "expectation", no_expectation)
    monkeypatch.setattr(PlanRunner, "step", counted_step)
    got = conditional_probability(req, bits, site, engine="plan")
    monkeypatch.undo()

    assert len(builds) == 1
    assert len(steps) == 2 * len(plan.steps) - pivot_step
    v0 = simulate.expectation(req, ObservableProduct.prefix_projector(bits + [0]), engine="plan")
    v1 = simulate.expectation(req, ObservableProduct.prefix_projector(bits + [1]), engine="plan")
    assert got == pytest.approx(v0 / (v0 + v1), abs=1e-12)
