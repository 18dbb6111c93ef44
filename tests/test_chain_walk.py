"""Tests for the plan-route chain walk with light-cone finishes."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import reference_chain_walk

from liomsim.errors import FeasibilityError, StructuralError
from liomsim.model import InstanceParams, build_explicit_instance, build_random_instance
from liomsim.oracle import exact_distribution
from liomsim.simulate import (
    ObservableProduct,
    SimulationRequest,
    _chain_plan,
    _cone_target,
    conditional_chain,
    conditional_probability,
    expectation,
    sample,
)
from liomsim.tensor import PlanRunner
from liomsim.truncation import TruncationRadii


def _oracle_conditionals(req, bits):
    dist = exact_distribution(req.instance, req.t, r_j=req.radii.r_j, r_u=req.radii.r_u)
    tree = dist.probabilities.reshape((2,) * req.n_sites)
    out = []
    for k in range(req.n_sites):
        sub = tree[tuple(int(b) for b in bits[:k])]
        out.append(float(sub[0].sum() / sub.sum()))
    return out


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
    chain_seed=st.integers(0, 2**31 - 1),
    engine=st.sampled_from(["plan", "dense"]),
)
def test_light_cone_walk_matches_reference_and_oracle(
    n, periodic, max_width, r_j, r_u, xi, inst_seed, chain_seed, engine
):
    inst = build_random_instance(
        InstanceParams(n, xi),
        seed=inst_seed,
        max_body=min(n, 3),
        max_width=max_width,
        periodic=periodic,
    )
    radii = TruncationRadii(min(r_j, n), min(r_u, n))
    req = SimulationRequest(instance=inst, t=1.3, epsilon=0.5, radii=radii)
    chain = conditional_chain(req, seed=chain_seed, engine=engine)
    ref = reference_chain_walk(req, seed=chain_seed)
    assert chain.bits == ref.bits
    np.testing.assert_allclose(chain.probs, ref.probs, rtol=0, atol=1e-12)
    oracle = _oracle_conditionals(req, chain.bits)
    np.testing.assert_allclose(chain.probs, oracle, rtol=0, atol=1e-10)


def _criterion_6_request(n):
    inst = build_random_instance(
        InstanceParams(n, 0.5), seed=n, max_body=2, max_width=2, periodic=False
    )
    return SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(6, 6))


def _computed_ops(plan):
    """Per step, 2^|accumulator ids + node ids| and the live axes after it,
    replayed from the plan's index bookkeeping."""
    absorbed = [0] * len(plan.index_endpoints)
    live: set[int] = set()
    out = []
    for step in plan.steps:
        ids = plan.node_indices[step.node_index]
        union = live.union(ids)
        for idx in ids:
            absorbed[idx] += 1
        live = {i for i in union if absorbed[i] < plan.index_endpoints[i]}
        out.append((2 ** len(union), len(live)))
    return out


def test_light_cone_finishes_cost_less_than_one_pass():
    req = _criterion_6_request(32)
    _, plan, _ = _chain_plan(req)
    one_pass = sum(ops for ops, _ in _computed_ops(plan))
    conditional_chain(req, seed=0, engine="plan")
    targets = req._cache["cone_targets"]
    assert sorted(targets) == list(range(1, 33))
    finishes = 0
    for target in targets.values():
        costs = _computed_ops(target.plan)
        assert [axes for _, axes in costs] == [s.mem_axes_after for s in target.plan.steps]
        assert max(axes for _, axes in costs) <= plan.peak_mem_axes
        # The move runs once per site, the remaining steps once per outcome.
        finishes += costs[0][0] + 2 * sum(ops for ops, _ in costs[1:])
    assert finishes < one_pass


def test_light_cone_walk_matches_reference_on_criterion_6_family():
    req = _criterion_6_request(12)
    for seed in (0, 1):
        chain = conditional_chain(req, seed=seed, engine="plan")
        ref = reference_chain_walk(req, seed=seed)
        assert chain.bits == ref.bits
        np.testing.assert_allclose(chain.probs, ref.probs, rtol=0, atol=1e-12)


def test_cone_targets_built_only_by_a_chain():
    req = _criterion_6_request(12)
    expectation(req, ObservableProduct(1), engine="plan")
    assert "cone_targets" not in req._cache
    conditional_chain(req, seed=0, engine="plan")
    assert len(req._cache["cone_targets"]) == 12


def test_fork_target_refuses_another_cut():
    req = _criterion_6_request(8)
    network, plan, marks = _chain_plan(req)
    runner = PlanRunner(plan, network)
    runner.run_to(runner.step_of(marks[3]))
    target = _cone_target(req, runner, 3)
    runner.run_to(runner.step_of(marks[4]))
    with pytest.raises(StructuralError):
        runner.fork(target)


def _product_request(n):
    # Single-site constituents and couplings: the state stays a product, so
    # P(z_k = 0 | any prefix) = (1 + <Z_k>)/2.
    inst = build_random_instance(
        InstanceParams(n, 0.5), seed=1, max_body=1, max_width=1, periodic=False
    )
    return SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(2, 1))


def _product_truth(req):
    """(1 + <Z_k>)/2 per site from 2x2 matrices: W acts on site k as
    U_k V_k U_k^dag with V_k = diag(e^{-i t J_k}, e^{i t J_k})."""
    inst = req.instance
    truth = []
    for k in range(1, req.n_sites + 1):
        u = inst.constituent(k, 1).dense_matrix()
        phase = np.exp(-1j * req.t * inst.coupling((k,)))
        w = u @ np.diag([phase, phase.conjugate()]) @ u.conj().T
        truth.append(abs(w[0, 0]) ** 2)
    return truth


def test_chain_through_unlikely_prefix_at_n160():
    # Taking the unlikely bit on sites 1-12 drives P(prefix) to ~1e-12,
    # where a prefix probability carried by subtraction gave a conditional
    # of 1.058.
    req = _product_request(160)
    truth = _product_truth(req)
    assert truth[4] == pytest.approx(
        (1 + expectation(req, ObservableProduct(5), engine="plan")) / 2, abs=1e-12
    )
    bits = [
        int(p > 0.5) if k < 12 else int(p <= 0.5) for k, p in enumerate(truth)
    ]
    chain = conditional_chain(req, bits=bits, engine="plan")
    np.testing.assert_allclose(chain.probs, truth, rtol=0, atol=1e-10)


def _unlikely_bits(truth):
    return [int(p > 0.5) for p in truth]


def test_dense_chain_through_unlikely_prefix_at_n14():
    # The unlikely bit at every site: a prefix probability carried by
    # subtraction gave a conditional of 1.79 here.
    req = _product_request(14)
    truth = _product_truth(req)
    chain = conditional_chain(req, bits=_unlikely_bits(truth), engine="dense")
    np.testing.assert_allclose(chain.probs, truth, rtol=0, atol=1e-10)


def test_one_shot_conditional_below_1e_30_prefix_at_n160():
    # Past P(prefix) = 1e-30 an absolute cut answered 1.0 (truth 0.979 at
    # site 30); the plain ratio of the two marginals is right.
    req = _product_request(160)
    truth = _product_truth(req)
    bits = _unlikely_bits(truth)
    for site in (30, 40):
        log_prefix = sum(
            math.log10(p if b == 0 else 1 - p) for b, p in zip(bits, truth[: site - 1])
        )
        assert log_prefix < -30
        got = conditional_probability(req, bits[: site - 1], site, engine="plan")
        assert got == pytest.approx(truth[site - 1], abs=1e-10)


def test_chain_below_1e_30_prefix_at_n300():
    # A sampled branch whose prefix probability falls below 1e-30 near site
    # 210; an absolute 1e-30 cut reported p0 = 1 from there on.
    req = _product_request(300)
    truth = _product_truth(req)
    chain = conditional_chain(req, seed=0, engine="plan")
    log_prefix = np.cumsum(
        [math.log10(p if b == "0" else 1 - p) for b, p in zip(chain.bits, truth)]
    )
    assert log_prefix[-1] < -30
    np.testing.assert_allclose(chain.probs, truth, rtol=0, atol=1e-10)


def test_plan_chain_impossible_prefix_convention():
    inst = build_explicit_instance(InstanceParams(3, 0.5), {}, {})
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(3, 3))
    assert conditional_probability(req, "1", 2, engine="plan") == 1.0
    assert conditional_chain(req, bits="100", engine="plan").probs == (1.0, 1.0, 1.0)
    assert conditional_chain(req, bits="010", engine="plan").probs == (1.0, 1.0, 1.0)
    assert all(r.bits == "000" for r in sample(req, 3, seed=0, engine="plan"))


def test_chain_above_caps_is_refused_not_asserted():
    # Periodic N=16 with radii (3,3): the chain plan has 61 open legs
    # against an analytic bound of 56 and needs 53 memory axes, above the
    # engine cap; the cap is checked first, so this is a refusal.  N is
    # above the dense cap too, and every entry point says so alike.
    inst = build_random_instance(InstanceParams(16, 0.5), seed=1, max_body=3)
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(3, 3))
    no_route = r"above the dense cap of \d+ sites, so no exact route is feasible"
    with pytest.raises(FeasibilityError, match=no_route):
        conditional_chain(req, seed=0)
    with pytest.raises(FeasibilityError, match=no_route):
        sample(req, 1, seed=0)
    with pytest.raises(FeasibilityError, match=no_route):
        expectation(req, ObservableProduct(1))
    # Within the dense cap, a refused plan route points to the dense one.
    inst = build_random_instance(InstanceParams(12, 0.5), seed=1, max_body=3)
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(3, 3))
    with pytest.raises(
        FeasibilityError, match=r"within the dense cap of \d+ sites, use engine='dense'"
    ):
        conditional_chain(req, seed=0, engine="plan")


def test_wrapped_periodic_instance_runs_on_the_plan_route():
    # A constituent wrapping past site N lifts this chain plan to 17 open
    # legs, above the open-chain bound of 16 for (r_U=2, r_J=1).  The bound
    # does not cover such networks, so they carry no radii and the plan
    # route runs instead of reporting a scheduler bug.
    inst = build_random_instance(InstanceParams(4, 0.5), seed=3, max_body=3)
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(1, 2))
    network, plan, _ = _chain_plan(req)
    assert plan.peak_open_legs == 17
    assert network.r_u is None and network.r_j is None
    for branch in ({"seed": 0}, {"bits": "1010"}):
        chain = conditional_chain(req, engine="plan", **branch)
        dense = conditional_chain(req, engine="dense", **branch)
        assert chain.bits == dense.bits
        np.testing.assert_allclose(chain.probs, dense.probs, rtol=0, atol=1e-12)
        oracle = _oracle_conditionals(req, chain.bits)
        np.testing.assert_allclose(chain.probs, oracle, rtol=0, atol=1e-10)
    dist = exact_distribution(req.instance, req.t, r_j=1, r_u=2)
    sign = 1 - 2 * (np.arange(16) & 1)
    value = expectation(req, ObservableProduct(4), engine="plan")
    assert value == pytest.approx(expectation(req, ObservableProduct(4), engine="dense"), abs=1e-12)
    assert value == pytest.approx(float(dist.probabilities @ sign), abs=1e-10)
