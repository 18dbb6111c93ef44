"""Tests for the qubit-wise scheduler and plan runner, and for the
leg-labelled reference contraction they are checked against."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import DenseTensor, Leg, contract, naive_network_value, reference_schedule

from liomsim import tensor
from liomsim.errors import FeasibilityError, StructuralError
from liomsim.model import InstanceParams, build_random_instance
from liomsim.simulate import SimulationRequest, _cone, conditional_chain
from liomsim.tensor import (
    ExpectationNetwork,
    ForkTarget,
    PlacedTensor,
    PlanRunner,
    execute,
    open_leg_bound,
    qubitwise_schedule,
)
from liomsim.truncation import TruncationRadii


def test_leg_validation():
    Leg(1, 0, "in")
    Leg(3, 7, "out")
    with pytest.raises(StructuralError):
        Leg(1, 0, "sideways")


def test_dense_tensor_validation():
    legs = (Leg(1, 0, "out"), Leg(2, 0, "out"))
    DenseTensor(legs, np.arange(4.0))
    with pytest.raises(StructuralError):
        DenseTensor((legs[0], legs[0]), np.arange(4.0))
    with pytest.raises(StructuralError):
        DenseTensor(legs, np.arange(8.0))
    with pytest.raises(StructuralError):
        DenseTensor(legs, np.array([1.0, np.nan, 0.0, 0.0]))


def test_contract_inner_product():
    leg = Leg(1, 0, "out")
    ket = DenseTensor((leg,), np.array([1.0, 0.0]))
    assert contract(ket, ket, [(leg, leg)]).data[0] == 1.0 + 0j


def test_contract_hadamard_column():
    out_leg, in_leg = Leg(1, 1, "out"), Leg(1, 0, "in")
    ket = DenseTensor((Leg(1, 0, "out"),), np.array([1.0, 0.0]))
    h = DenseTensor((out_leg, in_leg), np.array([1, 1, 1, -1]) / math.sqrt(2))
    result = contract(ket, h, [(Leg(1, 0, "out"), in_leg)])
    assert result.legs == (out_leg,)
    np.testing.assert_allclose(result.as_array(), [1 / math.sqrt(2)] * 2)


def test_contract_matches_triple_loop():
    rng = np.random.default_rng(5)
    legs_a = (Leg(1, 0, "out"), Leg(2, 0, "out"), Leg(3, 0, "out"))
    legs_b = (Leg(1, 0, "in"), Leg(2, 0, "in"), Leg(4, 0, "out"))
    a = DenseTensor(legs_a, rng.normal(size=8) + 1j * rng.normal(size=8))
    b = DenseTensor(legs_b, rng.normal(size=8) + 1j * rng.normal(size=8))
    result = contract(a, b, [(legs_a[0], legs_b[0]), (legs_a[1], legs_b[1])])
    assert result.legs == (legs_a[2], legs_b[2])
    aa, bb = a.as_array(), b.as_array()
    expected = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    expected[k, l] += aa[i, j, k] * bb[i, j, l]
    np.testing.assert_allclose(result.as_array(), expected, atol=1e-14)


def test_contract_outer_product_and_linearity():
    rng = np.random.default_rng(6)
    leg_a, leg_b = Leg(1, 0, "out"), Leg(2, 0, "out")
    a = DenseTensor((leg_a,), rng.normal(size=2))
    b1 = DenseTensor((leg_b,), rng.normal(size=2))
    b2 = DenseTensor((leg_b,), rng.normal(size=2))
    outer = contract(a, b1, [])
    assert outer.legs == (leg_a, leg_b)
    np.testing.assert_allclose(
        outer.as_array(), np.outer(a.as_array(), b1.as_array()), atol=1e-15
    )
    b_sum = DenseTensor((leg_b,), b1.data + 3.5 * b2.data)
    lhs = contract(a, b_sum, []).data
    rhs = contract(a, b1, []).data + 3.5 * contract(a, b2, []).data
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_contract_error_paths():
    leg = Leg(1, 0, "out")
    other = Leg(2, 0, "out")
    a = DenseTensor((leg,), np.array([1.0, 2.0]))
    b = DenseTensor((other,), np.array([3.0, 4.0]))
    with pytest.raises(StructuralError):
        contract(a, b, [(leg, leg)])
    with pytest.raises(StructuralError):
        contract(a, b, [(other, other)])
    c = DenseTensor((leg, other), np.arange(4.0))
    with pytest.raises(StructuralError):
        contract(c, c, [(leg, leg), (leg, other)])


def test_contract_repeat_is_bit_identical():
    rng = np.random.default_rng(7)
    legs_a = (Leg(1, 0, "out"), Leg(2, 0, "out"), Leg(3, 0, "out"))
    legs_b = (Leg(1, 0, "in"), Leg(2, 0, "in"), Leg(3, 0, "in"))
    a = DenseTensor(legs_a, rng.normal(size=8) + 1j * rng.normal(size=8))
    b = DenseTensor(legs_b, rng.normal(size=8) + 1j * rng.normal(size=8))
    pairs = list(zip(legs_a, legs_b))
    first = contract(a, b, pairs).data
    second = contract(a, b, pairs).data
    assert first.tobytes() == second.tobytes()


def test_placed_tensor_validation():
    with pytest.raises(StructuralError):
        PlacedTensor("x", "blob", (1,), None)
    with pytest.raises(StructuralError):
        PlacedTensor("x", "cap_ket", (1, 2), None)
    with pytest.raises(StructuralError):
        PlacedTensor("x", "gate", (1, 1), np.eye(4))


def test_open_leg_bound_values():
    assert open_leg_bound(3, 3) == 56
    # sum_{n=2}^{6} n(n-1) = 70, plus 2(r_J - 1) + 2 = 12, times 4
    assert open_leg_bound(6, 6) == 328
    assert open_leg_bound(1, 1) == 8


def _cap(name, wire, kind="cap_ket", data=None):
    return PlacedTensor(name, kind, (wire,), data)


def _closed_network(rng, n_sites, layers):
    """Caps on every wire around `layers` random interior nodes; each layer
    spec is (kind, sites)."""
    nodes = [_cap(f"k{w}", w) for w in range(1, n_sites + 1)]
    for i, (kind, sites) in enumerate(layers):
        w = len(sites)
        if kind == "gate":
            data = rng.normal(size=(4**w,)) + 1j * rng.normal(size=(4**w,))
        else:
            data = rng.normal(size=(2**w,)) + 1j * rng.normal(size=(2**w,))
        nodes.append(PlacedTensor(f"n{i}", kind, tuple(sites), data))
    nodes.extend(_cap(f"b{w}", w, "cap_bra") for w in range(1, n_sites + 1))
    return ExpectationNetwork(n_sites=n_sites, nodes=tuple(nodes))


LAYER_SETS = [
    (2, [("gate", (1, 2)), ("diag", (1,)), ("gate", (2, 1))]),
    (3, [("gate", (1, 2)), ("gate", (2, 3)), ("diag", (1, 3)), ("gate", (3, 2))]),
    (3, [("diag", (2,)), ("gate", (3, 1)), ("diag", (1, 2, 3)), ("gate", (1,))]),
    (4, [("gate", (1, 2)), ("gate", (3, 4)), ("diag", (2, 3)), ("gate", (2, 3)), ("diag", (4,))]),
]


def test_execute_matches_naive_reference():
    for seed, (n_sites, layers) in enumerate(LAYER_SETS):
        rng = np.random.default_rng(100 + seed)
        net = _closed_network(rng, n_sites, layers)
        plan = qubitwise_schedule(net)
        fast = execute(plan, net)
        slow = naive_network_value(net)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12), (n_sites, layers)


@st.composite
def _random_networks(draw):
    """A closed network on 1-5 wires: caps with or without data, gates of
    width 1-3, and diagonals, which share one id with every diagonal next to
    them on a wire.  Wires no layer touches have a ket cap and a bra cap on
    one id."""
    n_sites = draw(st.integers(1, 5))
    layers = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["gate", "diag"]))
        width = draw(st.integers(1, min(3, n_sites)))
        layers.append((kind, tuple(draw(st.permutations(range(1, n_sites + 1)))[:width])))
    capped = draw(st.lists(st.booleans(), min_size=2 * n_sites, max_size=2 * n_sites))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = []
    for i, (kind, sites) in enumerate(layers):
        size = 4 ** len(sites) if kind == "gate" else 2 ** len(sites)
        data = (rng.normal(size=size) + 1j * rng.normal(size=size)) / 2 ** len(sites)
        nodes.append(PlacedTensor(f"n{i}", kind, sites, data))

    def cap(kind, w, with_data):
        data = rng.normal(size=2) + 1j * rng.normal(size=2) if with_data else None
        return _cap(f"{kind}{w}", w, kind, data)

    kets = [cap("cap_ket", w, capped[w - 1]) for w in range(1, n_sites + 1)]
    bras = [cap("cap_bra", w, capped[n_sites + w - 1]) for w in range(1, n_sites + 1)]
    return ExpectationNetwork(n_sites=n_sites, nodes=tuple(kets + nodes + bras))


def _magnitude(net):
    """The network's value with every entry replaced by its modulus: a
    bound on the sum of the moduli of the terms the contraction adds."""
    nodes = tuple(
        PlacedTensor(node.name, node.kind, node.sites, np.abs(tensor._node_array(node)))
        for node in net.nodes
    )
    return abs(naive_network_value(ExpectationNetwork(net.n_sites, nodes)))


@settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(net=_random_networks())
def test_runner_kernel_matches_naive_reference(net):
    plan = qubitwise_schedule(net)
    runner = PlanRunner(plan, net)
    for _ in plan.steps:
        runner.step()
        assert runner._acc.flags.c_contiguous
        assert runner._acc.ndim == len(runner.open_ids)
    value = runner.finish()
    assert value == execute(plan, net)
    assert abs(value - naive_network_value(net)) <= 1e-12 * max(1.0, _magnitude(net))


def _unitary(rng, width):
    z = rng.normal(size=(2**width, 2**width)) + 1j * rng.normal(size=(2**width, 2**width))
    return np.linalg.qr(z)[0]


@settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(net=_random_networks(), data=st.data())
def test_runner_matches_naive_reference_after_a_fork_move_and_overrides(net, data):
    # `full` is net with a unitary g and its inverse inserted next to each
    # other on the same wires, so both have one value.  A runner on full,
    # stopped before the pair, moves onto net's plan as a ForkTarget, where
    # the ids on either side of the pair are one, and finishes with some
    # diagonals overridden.
    n = net.n_sites
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    # The pair sits on the top wires and the runner stops close to it, so
    # nodes after the pair on its wires are often absorbed before it: then
    # the ids on both of its sides are open, and the move takes a diagonal.
    width = data.draw(st.integers(1, min(3, n)))
    sites = tuple(data.draw(st.permutations(range(n - width + 1, n + 1))))
    g = _unitary(rng, width)
    pair = (PlacedTensor("g", "gate", sites, g), PlacedTensor("g+", "gate", sites, g.conj().T))
    at = data.draw(st.integers(n, len(net.nodes) - n))
    full = ExpectationNetwork(n, net.nodes[:at] + pair + net.nodes[at:])
    plan, target_plan = qubitwise_schedule(full), qubitwise_schedule(net)
    cut = min(plan.step_of[at], plan.step_of[at + 1])
    start = max(0, cut - data.draw(st.integers(0, 3)))
    runner = PlanRunner(plan, full)
    runner.run_to(start)
    ids = {}
    for a, b in zip(plan.steps[:start], target_plan.steps[:start]):
        assert full.nodes[a.node_index] is net.nodes[b.node_index]
        ids.update(zip(plan.node_indices[a.node_index], target_plan.node_indices[b.node_index]))
    twin = runner.fork(ForkTarget(net, target_plan, start, {i: ids[i] for i in runner.open_ids}))
    assert sorted(twin.open_ids) == sorted(
        {i for b in target_plan.steps[:start] for i in target_plan.node_indices[b.node_index]
         if target_plan.last_step[i] >= start}
    )
    nodes = list(net.nodes)
    for pos, node in enumerate(net.nodes):
        if node.kind == "diag" and target_plan.step_of[pos] >= start and data.draw(st.booleans()):
            values = rng.normal(size=2**node.width) + 1j * rng.normal(size=2**node.width)
            twin.set_override(pos, values)
            nodes[pos] = PlacedTensor(node.name, "diag", node.sites, values)
    want = ExpectationNetwork(n, tuple(nodes))
    assert abs(twin.finish() - naive_network_value(want)) <= 1e-12 * max(1.0, _magnitude(want))


def _criterion_6_chain_plan(n):
    inst = build_random_instance(
        InstanceParams(n, 0.5), seed=n, max_body=2, max_width=2, periodic=False
    )
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(6, 6))
    return req, _cone(req, n)


def test_planned_pass_calls_einsum_only_in_fork_moves(monkeypatch):
    calls = {"einsum": 0, "moves": 0}
    einsum, fork = tensor._einsum, PlanRunner.fork

    def counted_einsum(*args):
        calls["einsum"] += 1
        return einsum(*args)

    def counted_fork(self, target=None):
        calls["moves"] += target is not None
        return fork(self, target)

    monkeypatch.setattr(tensor, "_einsum", counted_einsum)
    monkeypatch.setattr(PlanRunner, "fork", counted_fork)
    req, (network, plan, _) = _criterion_6_chain_plan(32)
    PlanRunner(plan, network).finish()
    assert calls == {"einsum": 0, "moves": 0}
    conditional_chain(req, seed=0, engine="plan")
    assert calls["moves"] == 32
    assert calls["einsum"] == calls["moves"]


def test_criterion_6_pass_layout_is_pinned():
    # Structural pin: the forms and the transposes of one criterion-6 pass
    # at N=32 under the layout rule.  Change it only with the rule.
    _, (network, plan, _) = _criterion_6_chain_plan(32)
    forms = Counter(step.form for step in plan.steps)
    assert forms == {"matmul": 172, "mul": 64, "slice": 48}
    assert sum(step.perm is not None for step in plan.steps) == 151
    # Gates and site-block diagonals that keep an id open are padded.
    assert sum(step.strides is not None for step in plan.steps) == 109
    runner = PlanRunner(plan, network)
    for p, step in enumerate(plan.steps):
        before = set(runner.open_ids)
        runner.step()
        ids = set(plan.node_indices[step.node_index])
        closing = {i for i in ids if plan.last_step[i] == p}
        assert sorted(runner.open_ids) == sorted((before | ids) - closing)
        assert len(runner.open_ids) == step.mem_axes_after


def _assert_matches_reference_schedule(net):
    plan = qubitwise_schedule(net)
    ref = reference_schedule(net)
    assert list(plan.node_indices) == ref["node_indices"]
    assert plan.index_endpoints == ref["index_endpoints"]
    assert [(s.node_index, s.name, s.mem_axes_after) for s in plan.steps] == ref["steps"]
    assert plan.peak_open_legs == ref["peak_open_legs"]
    assert plan.peak_mem_axes == ref["peak_mem_axes"]
    assert [plan.step_of[s.node_index] for s in plan.steps] == list(range(len(plan.steps)))
    carriers = [[] for _ in plan.index_endpoints]
    for pos, ids in enumerate(plan.node_indices):
        for idx in ids:
            carriers[idx].append(plan.step_of[pos])
    assert plan.last_step == [max(steps) for steps in carriers]


@settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(net=_random_networks())
def test_scheduler_matches_frozen_reference(net):
    _assert_matches_reference_schedule(net)


def test_scheduler_matches_frozen_reference_on_simulator_networks():
    # Every light-cone network of the criterion-6 instances, and the wrapped
    # periodic chain whose dense legs exceed the open-chain bound.
    for n in (32, 64):
        inst = build_random_instance(
            InstanceParams(n, 0.5), seed=n, max_body=2, max_width=2, periodic=False
        )
        req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(6, 6))
        for site in range(1, n + 1):
            _assert_matches_reference_schedule(_cone(req, site)[0])
    inst = build_random_instance(InstanceParams(4, 0.5), seed=3, max_body=3)
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(1, 2))
    _assert_matches_reference_schedule(_cone(req, 4)[0])


def test_fork_shares_the_accumulator():
    # Every accumulator is C-contiguous and no step writes into one, so a
    # twin sharing it finishes with the bits of a twin given a copy.
    rng = np.random.default_rng(18)
    net, diag_index = _diag_split_network(rng)
    runner = PlanRunner(qubitwise_schedule(net), net)
    runner.run_to(runner.plan.step_of[diag_index])
    shared, copied = runner.fork(), runner.fork()
    assert shared._acc is runner._acc
    copied._acc = runner._acc.copy()
    assert shared.finish() == copied.finish() == runner.finish()


def test_execute_repeat_is_bit_identical():
    rng = np.random.default_rng(42)
    net = _closed_network(rng, *LAYER_SETS[1])
    plan = qubitwise_schedule(net)
    first = execute(plan, net)
    second = execute(qubitwise_schedule(net), net)
    assert first == second
    assert np.complex128(first).tobytes() == np.complex128(second).tobytes()


def test_schedule_is_data_independent():
    n_sites, layers = LAYER_SETS[1]
    plans = []
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        net = _closed_network(rng, n_sites, layers)
        plans.append(qubitwise_schedule(net))
    assert plans[0] == plans[1]
    assert [s.node_index for s in plans[0].steps] == [s.node_index for s in plans[1].steps]
    assert plans[0].peak_open_legs == plans[1].peak_open_legs


def test_schedule_absorption_order_and_coverage():
    rng = np.random.default_rng(9)
    net = _closed_network(rng, *LAYER_SETS[2])
    plan = qubitwise_schedule(net)
    order = [step.node_index for step in plan.steps]
    assert sorted(order) == list(range(len(net.nodes)))
    min_sites = [net.nodes[pos].min_site for pos in order]
    assert min_sites == sorted(min_sites)
    # Equal min-site nodes keep their application order.
    for prev, cur in zip(order, order[1:]):
        if net.nodes[prev].min_site == net.nodes[cur].min_site:
            assert prev < cur
    assert plan.peak_mem_axes <= plan.peak_open_legs


def test_schedule_rejects_open_networks():
    nodes = (
        _cap("k1", 1),
        PlacedTensor("g", "gate", (1,), np.eye(2)),
    )
    with pytest.raises(StructuralError):
        qubitwise_schedule(ExpectationNetwork(n_sites=1, nodes=nodes))
    inner_cap = (
        _cap("k1", 1),
        _cap("k1b", 1),
        _cap("b1", 1, "cap_bra"),
    )
    with pytest.raises(StructuralError):
        qubitwise_schedule(ExpectationNetwork(n_sites=1, nodes=inner_cap))
    with pytest.raises(StructuralError, match="empty network"):
        qubitwise_schedule(ExpectationNetwork(n_sites=1, nodes=()))


def test_naive_rejects_open_network():
    nodes = (_cap("k1", 1), PlacedTensor("g", "gate", (1,), np.eye(2)))
    with pytest.raises(StructuralError):
        naive_network_value(ExpectationNetwork(n_sites=1, nodes=nodes))


def test_runner_feasibility_refusal(monkeypatch):
    rng = np.random.default_rng(11)
    net = _closed_network(rng, *LAYER_SETS[3])
    plan = qubitwise_schedule(net)
    assert plan.peak_mem_axes >= 2
    monkeypatch.setattr(tensor, "MAX_EXEC_AXES", plan.peak_mem_axes - 1)
    with pytest.raises(FeasibilityError):
        PlanRunner(plan, net)
    monkeypatch.setattr(tensor, "MAX_EXEC_AXES", plan.peak_mem_axes)
    assert execute(plan, net) is not None


def test_runner_checks_analytic_bound_tag():
    # A network tagged with radii whose analytic bound is below the plan's
    # real peak must be refused as a scheduler bug.
    rng = np.random.default_rng(12)
    layers = [("gate", (1, 2, 3)), ("gate", (2, 3, 4)), ("gate", (3, 4, 1)), ("gate", (4, 3, 2))]
    base = _closed_network(rng, 4, layers)
    plan = qubitwise_schedule(base)
    assert plan.peak_open_legs > open_leg_bound(1, 1)
    tagged = ExpectationNetwork(n_sites=4, nodes=base.nodes, r_u=1, r_j=1)
    with pytest.raises(AssertionError):
        PlanRunner(qubitwise_schedule(tagged), tagged)


def test_runner_mismatched_plan():
    rng = np.random.default_rng(13)
    small = _closed_network(rng, *LAYER_SETS[0])
    large = _closed_network(rng, *LAYER_SETS[1])
    with pytest.raises(StructuralError):
        PlanRunner(qubitwise_schedule(small), large)


def _diag_split_network(rng):
    n_sites, layers = LAYER_SETS[1]
    net = _closed_network(rng, n_sites, layers)
    diag_index = next(
        i for i, node in enumerate(net.nodes) if node.kind == "diag"
    )
    return net, diag_index


def test_runner_fork_branches_sum_to_total():
    rng = np.random.default_rng(14)
    net, diag_index = _diag_split_network(rng)
    plan = qubitwise_schedule(net)
    total = execute(plan, net)

    runner = PlanRunner(plan, net)
    runner.run_to(runner.plan.step_of[diag_index])
    original = np.asarray(net.nodes[diag_index].data, dtype=complex).reshape(
        (2,) * net.nodes[diag_index].width
    )
    branch_values = []
    for bit in (0, 1):
        mask = np.zeros_like(original)
        if original.ndim == 2:
            mask[bit, :] = original[bit, :]
        else:
            mask[bit] = original[bit]
        fork = runner.fork()
        fork.set_override(diag_index, mask)
        branch_values.append(fork.finish())
    assert sum(branch_values) == pytest.approx(total, rel=1e-12, abs=1e-12)
    # The parent runner is untouched by the forks and still finishes.
    assert runner.finish() == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_runner_fork_inherits_override():
    rng = np.random.default_rng(15)
    net, diag_index = _diag_split_network(rng)
    plan = qubitwise_schedule(net)
    runner = PlanRunner(plan, net)
    override = np.zeros(2 ** net.nodes[diag_index].width, dtype=complex)
    override[0] = 1.0
    runner.set_override(diag_index, override)
    direct = runner.fork().finish()
    again = PlanRunner(plan, net)
    again.set_override(diag_index, override)
    assert direct == pytest.approx(again.finish(), rel=1e-14)


def test_runner_override_rules():
    rng = np.random.default_rng(16)
    net, diag_index = _diag_split_network(rng)
    plan = qubitwise_schedule(net)
    runner = PlanRunner(plan, net)
    gate_index = next(i for i, node in enumerate(net.nodes) if node.kind == "gate")
    with pytest.raises(StructuralError):
        runner.set_override(gate_index, np.ones(4))
    runner.run_to(len(plan.steps))
    with pytest.raises(StructuralError):
        runner.set_override(diag_index, np.ones(2 ** net.nodes[diag_index].width))


def test_runner_records_observed_peak():
    rng = np.random.default_rng(17)
    net = _closed_network(rng, *LAYER_SETS[2])
    plan = qubitwise_schedule(net)
    before = dict(vars(plan))
    runner = PlanRunner(plan, net)
    assert runner.observed_peak == 0
    runner.finish()
    assert 0 < runner.observed_peak <= plan.peak_mem_axes
    # Plans are cached and shared, so a run writes nothing onto its plan.
    assert vars(plan) == before


def test_runner_refuses_steps_beyond_einsum_labels(monkeypatch):
    # One gate over 30 wires: after it the accumulator holds 59 ids.  No
    # step calls einsum, so with a raised memory cap the runner accepts the
    # plan; the one einsum left is a fork move, and moving those 59 ids
    # onto a target needs 59 labels, which the target refuses when it is
    # built, before any array is allocated.
    n = 30
    nodes = (
        [PlacedTensor(f"ket[{w}]", "cap_ket", (w,), None) for w in range(1, n + 1)]
        + [PlacedTensor("G", "gate", tuple(range(1, n + 1)), None)]
        + [PlacedTensor(f"bra[{w}]", "cap_bra", (w,), None) for w in range(1, n + 1)]
    )
    net = ExpectationNetwork(n_sites=n, nodes=tuple(nodes))
    plan = qubitwise_schedule(net)
    assert plan.peak_mem_axes < 64
    monkeypatch.setattr(tensor, "MAX_EXEC_AXES", 64)
    PlanRunner(plan, net)
    start = plan.step_of[n] + 1
    held = tensor._axes_before(plan, start)
    assert len(held) == 59
    with pytest.raises(
        FeasibilityError, match=f"fork move onto step {start} needs 59 einsum labels"
    ):
        ForkTarget(net, plan, start, {i: i for i in held})
