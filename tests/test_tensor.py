"""Tests for the qubit-wise scheduler and plan runner, and for the
leg-labelled reference contraction they are checked against."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import (
    DenseTensor,
    Leg,
    contract,
    naive_network_value,
    reference_cone,
    reference_schedule,
)

from liomsim import tensor
from liomsim.errors import FeasibilityError, StructuralError
from liomsim.model import InstanceParams, build_random_instance
from liomsim.simulate import (
    ObservableProduct,
    SimulationRequest,
    _ket,
    _reaches,
    build_expectation_network,
    conditional_chain,
)
from liomsim.tensor import (
    ExpectationNetwork,
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
    # A projector pins its id to b and drops its other entry, so it must be
    # |0><0| or |1><1| on one wire.
    PlacedTensor("P", "proj", (1,), np.array([0.0, 1.0]))
    for sites, data in (((1, 2), np.eye(4)[0]), ((1,), np.array([0.5, 0.5])), ((1,), None)):
        with pytest.raises(StructuralError, match="projector P must be"):
            PlacedTensor("P", "proj", sites, data)


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
def _random_networks(draw, projectors=True):
    """A closed network on 1-5 wires: caps with or without data, gates of
    width 1-3, and diagonals, which share one id with every diagonal next to
    them on a wire.  Wires no layer touches have a ket cap and a bra cap on
    one id.  Unless projectors is False, basis projectors |b><b| are drawn
    among the layers (next to caps with or without data, beside diagonals
    and other projectors), and up to two more each sit between a one-wire
    rotation and its mirror."""
    n_sites = draw(st.integers(1, 5))
    kinds = ["gate", "diag", "proj"] if projectors else ["gate", "diag"]
    layers = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(kinds))
        width = 1 if kind == "proj" else draw(st.integers(1, min(3, n_sites)))
        layers.append((kind, tuple(draw(st.permutations(range(1, n_sites + 1)))[:width])))
    capped = draw(st.lists(st.booleans(), min_size=2 * n_sites, max_size=2 * n_sites))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nodes = []
    for i, (kind, sites) in enumerate(layers):
        if kind == "proj":
            nodes.append(_projector(f"n{i}", sites[0], draw(st.integers(0, 1))))
            continue
        size = 4 ** len(sites) if kind == "gate" else 2 ** len(sites)
        data = (rng.normal(size=size) + 1j * rng.normal(size=size)) / 2 ** len(sites)
        nodes.append(PlacedTensor(f"n{i}", kind, sites, data))

    def cap(kind, w, with_data):
        data = rng.normal(size=2) + 1j * rng.normal(size=2) if with_data else None
        return _cap(f"{kind}{w}", w, kind, data)

    kets = [cap("cap_ket", w, capped[w - 1]) for w in range(1, n_sites + 1)]
    bras = [cap("cap_bra", w, capped[n_sites + w - 1]) for w in range(1, n_sites + 1)]
    for j in range(draw(st.integers(0, 2)) if projectors else 0):
        w, at = draw(st.integers(1, n_sites)), draw(st.integers(0, len(nodes)))
        r = _unitary(rng, 1)
        nodes[at:at] = [
            PlacedTensor(f"R{j}", "gate", (w,), r),
            _projector(f"P{j}", w, draw(st.integers(0, 1))),
            PlacedTensor(f"R{j}'", "gate", (w,), r.conj().T),
        ]
    return ExpectationNetwork(n_sites=n_sites, nodes=tuple(kets + nodes + bras))


def _projector(name, wire, bit):
    return PlacedTensor(name, "proj", (wire,), np.eye(2, dtype=complex)[bit])


def _magnitude(net):
    """The network's value with every entry replaced by its modulus: a
    bound on the sum of the moduli of the terms the contraction adds."""
    nodes = tuple(
        node if node.data is None
        else PlacedTensor(node.name, node.kind, node.sites, np.abs(node.legs))
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
@given(net=_random_networks(projectors=False), data=st.data())
def test_runner_matches_naive_reference_after_a_fork_and_overrides(net, data):
    # A runner stopped part way forks, and the twin finishes with some
    # diagonals it has not absorbed overridden; the runner itself finishes
    # the network as given.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    plan = qubitwise_schedule(net)
    runner = PlanRunner(plan, net)
    start = data.draw(st.integers(0, len(plan.steps)))
    runner.run_to(start)
    twin = runner.fork()
    nodes = list(net.nodes)
    for pos, node in enumerate(net.nodes):
        if node.kind == "diag" and plan.step_of[pos] >= start and data.draw(st.booleans()):
            values = rng.normal(size=2**node.width) + 1j * rng.normal(size=2**node.width)
            twin.set_override(pos, values)
            nodes[pos] = PlacedTensor(node.name, "diag", node.sites, values)
    want = ExpectationNetwork(net.n_sites, tuple(nodes))
    assert abs(twin.finish() - naive_network_value(want)) <= 1e-12 * max(1.0, _magnitude(want))
    assert runner.finish() == execute(plan, net)


def _criterion_6_chain_plan(n):
    inst = build_random_instance(
        InstanceParams(n, 0.5), seed=n, max_body=2, max_width=2, periodic=False
    )
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(6, 6))
    return req, reference_cone(req, n)


def test_criterion_6_pass_layout_is_pinned():
    # Structural pin: the forms and the transposes of one criterion-6 pass
    # at N=32 under the layout rule and with the caps' ids pinned.  Change
    # it only with the rule.
    _, (network, plan, _) = _criterion_6_chain_plan(32)
    forms = Counter(step.form for step in plan.steps)
    assert forms == {"matmul": 171, "mul": 49}
    assert sum(step.perm is not None for step in plan.steps) == 151
    # Gates and site-block diagonals that keep an id open batch over it.
    assert sum(step.form == "matmul" and len(step.shape) == 3 for step in plan.steps) == 109
    # The 64 caps are no steps.  Each of their ids is taken at entry 0 by
    # the one other node that carries it: a wire's first gate or its last
    # mirror, 32 width-2 gates in all.
    picks = [step.pick for step in plan.steps if step.pick is not None]
    assert len(picks) == 32
    assert sum(pick.count(0) for pick in picks) == 64
    runner = PlanRunner(plan, network)
    absorbed = Counter()
    for step in plan.steps:
        before = set(runner.open_ids)
        runner.step()
        ids = {i for i in plan.node_indices[step.node_index] if plan.index_endpoints[i]}
        absorbed.update(plan.node_indices[step.node_index])
        closing = {i for i in ids if absorbed[i] == plan.index_endpoints[i]}
        assert sorted(runner.open_ids) == sorted((before | ids) - closing)
        assert len(runner.open_ids) == step.mem_axes_after


def test_criterion_6_ket_half_is_pinned(monkeypatch):
    # Structural pin: the ket half the chain walk contracts at N=32 (ket
    # caps, W's 94 factors, 32 marks and 32 caps of ones; the ket caps'
    # ids are pinned) in light-cone order, against 220 steps and 16 axes
    # for the chain network.  A chain runs its steps up to the last mark
    # and peaks at the plan's peak.  Change it only with the order or the
    # layout rule.
    req, (_, chain_plan, _) = _criterion_6_chain_plan(32)
    _, plan, marks = _ket(req)
    assert (len(plan.steps), plan.peak_mem_axes) == (158, 10)
    assert (len(chain_plan.steps), chain_plan.peak_mem_axes) == (220, 16)
    assert Counter(step.form for step in plan.steps) == {"matmul": 78, "mul": 80}
    assert sum(step.perm is not None for step in plan.steps) == 44
    walks = []
    step = PlanRunner.step

    def recorded(self):
        walks.append(self)
        step(self)

    monkeypatch.setattr(PlanRunner, "step", recorded)
    conditional_chain(req, seed=0, engine="plan")
    (walk,) = set(walks)
    assert walk.plan is plan and walk.observed_peak == 10
    assert len(walks) == walk.position == plan.step_of[marks[32]] == 156


def _assert_matches_reference_schedule(net, sites=None):
    plan = qubitwise_schedule(net, sites)
    ref = reference_schedule(net, sites)
    assert list(plan.node_indices) == ref["node_indices"]
    assert plan.index_endpoints == ref["index_endpoints"]
    assert [(s.node_index, s.name, s.mem_axes_after) for s in plan.steps] == ref["steps"]
    assert plan.step_of == ref["step_of"]
    pinned_by = ref["pinned_by"]
    assert plan.pins == tuple(
        (pinned_by[idx], p, k)
        for p, (pos, _, _) in enumerate(ref["steps"])
        for k, idx in enumerate(ref["node_indices"][pos])
        if idx in pinned_by
    )
    assert plan.peak_open_legs == ref["peak_open_legs"]
    assert plan.peak_mem_axes == ref["peak_mem_axes"]
    assert [plan.step_of[s.node_index] for s in plan.steps] == list(range(len(plan.steps)))


@settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(net=_random_networks())
def test_scheduler_matches_frozen_reference(net):
    _assert_matches_reference_schedule(net)


@settings(max_examples=80, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(net=_random_networks(), data=st.data())
def test_scheduler_with_absorbing_sites_matches_frozen_reference(net, data):
    # Any per-node absorbing site gives a plan of the same value.
    n = net.n_sites
    sites = data.draw(st.lists(st.integers(1, n), min_size=len(net.nodes), max_size=len(net.nodes)))
    _assert_matches_reference_schedule(net, sites)
    value = execute(qubitwise_schedule(net, sites), net)
    assert abs(value - naive_network_value(net)) <= 1e-12 * max(1.0, _magnitude(net))


def test_scheduler_matches_frozen_reference_on_simulator_networks():
    # Every light-cone network of the criterion-6 instances, and the wrapped
    # periodic chain whose dense legs exceed the open-chain bound.
    for n in (32, 64):
        inst = build_random_instance(
            InstanceParams(n, 0.5), seed=n, max_body=2, max_width=2, periodic=False
        )
        req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(6, 6))
        for site in range(1, n + 1):
            _assert_matches_reference_schedule(reference_cone(req, site)[0])
        network, _, _ = _ket(req)
        wires = list(range(1, n + 1))
        _assert_matches_reference_schedule(network, wires + _reaches(req) + 2 * wires)
    inst = build_random_instance(InstanceParams(4, 0.5), seed=3, max_body=3)
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(1, 2))
    _assert_matches_reference_schedule(reference_cone(req, 4)[0])


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


def _with_projector(net, pos, wire, bit, name="P"):
    """net with a basis projector |bit><bit| on `wire` at node position pos."""
    nodes = list(net.nodes)
    nodes.insert(pos, _projector(name, wire, bit))
    return ExpectationNetwork(net.n_sites, tuple(nodes))


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
    # P0 and P1 on wire 2 between the gates n0 and n1, which pins its id:
    # one plan serves both outcomes, field for field.
    variants = []
    for seed in (0, 1):
        net = _closed_network(np.random.default_rng(seed), n_sites, layers)
        variants += [qubitwise_schedule(_with_projector(net, 4, 2, bit)) for bit in (0, 1)]
    for plan in variants[1:]:
        for f in dataclasses.fields(plan):
            assert getattr(plan, f.name) == getattr(variants[0], f.name), f.name
    assert {pos for pos, _, _ in variants[0].pins} == {4}
    assert 4 not in {step.node_index for step in variants[0].steps}


def test_schedule_absorption_order_and_coverage():
    rng = np.random.default_rng(9)
    net = _closed_network(rng, *LAYER_SETS[2])
    plan = qubitwise_schedule(net)
    order = [step.node_index for step in plan.steps]
    # Every node but the caps without data is a step.
    assert sorted(order) == [
        pos for pos, node in enumerate(net.nodes) if not node.kind.startswith("cap")
    ]
    min_sites = [net.nodes[pos].min_site for pos in order]
    assert min_sites == sorted(min_sites)
    # Equal min-site nodes keep their application order.
    for prev, cur in zip(order, order[1:]):
        if net.nodes[prev].min_site == net.nodes[cur].min_site:
            assert prev < cur
    assert plan.peak_mem_axes <= plan.peak_open_legs


def test_a_network_of_caps_alone_is_an_empty_plan_of_value_1():
    bare = ExpectationNetwork(
        3, tuple(_cap(f"k{w}", w) for w in (1, 2, 3)) + tuple(_cap(f"b{w}", w, "cap_bra") for w in (1, 2, 3))
    )
    plan = qubitwise_schedule(bare)
    assert plan.steps == [] and plan.peak_mem_axes == 0
    assert plan.index_endpoints == [0, 0, 0]
    # Pinning leaves the dense count alone: one bond per wire.
    assert plan.peak_open_legs == 1
    assert execute(plan, bare) == 1.0
    # A cap with data on a pinned id is a step that multiplies by its entry 0.
    ket = _cap("k1", 1, data=np.array([0.25 - 0.5j, 3.0]))
    capped = ExpectationNetwork(3, (ket,) + bare.nodes[1:])
    plan = qubitwise_schedule(capped)
    assert [(step.node_index, step.form) for step in plan.steps] == [(0, "mul")]
    assert execute(plan, capped) == naive_network_value(capped) == 0.25 - 0.5j


def test_caps_with_data_are_steps_that_match_the_naive_reference():
    # A |+> product state, read out with <+| or with <0| on every wire.
    rng = np.random.default_rng(19)
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    _, layers = LAYER_SETS[3]
    for bra in (plus, None):
        net = _closed_network(rng, 4, layers)
        nodes = [
            dataclasses.replace(node, data=plus if node.kind == "cap_ket" else bra)
            if node.kind.startswith("cap") else node
            for node in net.nodes
        ]
        net = ExpectationNetwork(4, tuple(nodes))
        plan = qubitwise_schedule(net)
        steps = {step.node_index for step in plan.steps}
        assert steps == {pos for pos, node in enumerate(nodes) if node.data is not None}
        assert plan.index_endpoints.count(0) == (0 if bra is not None else 4)
        assert abs(execute(plan, net) - naive_network_value(net)) <= 1e-12 * max(1.0, _magnitude(net))


def test_runner_weights_are_the_slice_norms_on_a_diagonal_id():
    # At a mark of the ket half, weights reads the squared norms of the
    # accumulator's slices on the mark's id; a node it cannot read is
    # refused by name.
    req, _ = _criterion_6_chain_plan(8)
    network, plan, marks = _ket(req)
    runner = PlanRunner(plan, network)
    for site in range(1, 9):
        runner.run_to(plan.step_of[marks[site]])
        axis = runner.open_ids.index(plan.node_indices[marks[site]][0])
        slices = np.moveaxis(runner._acc, axis, 0)
        want = [np.sum(np.abs(slices[b]) ** 2) for b in (0, 1)]
        np.testing.assert_allclose(runner.weights(marks[site]), want, rtol=1e-13)
    # Before any mark is set, site 1's weights are the marginals of W|0>.
    fresh = PlanRunner(plan, network)
    fresh.run_to(plan.step_of[marks[1]])
    assert sum(fresh.weights(marks[1])) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(StructuralError, match="one-wire diagonal"):
        runner.weights(len(network.nodes) - 1)
    runner.step()
    with pytest.raises(StructuralError, match="already absorbed"):
        runner.weights(marks[8])


def test_runner_refuses_to_override_a_projector():
    rng = np.random.default_rng(22)
    n_sites, layers = LAYER_SETS[1]
    net = _with_projector(_closed_network(rng, n_sites, layers), 4, 2, 1)
    runner = PlanRunner(qubitwise_schedule(net), net)
    with pytest.raises(StructuralError, match="only diagonal nodes can be overridden, P is proj"):
        runner.set_override(4, np.array([1.0, 0.0]))


_CRITERION_5_OPEN_LEGS = {
    (3, 3): 33, (3, 4): 37, (3, 6): 45, (4, 3): 57, (4, 4): 61,
    (4, 6): 69, (6, 3): 145, (6, 4): 145, (6, 6): 149,
}


@pytest.mark.parametrize("n", [16, 32, 64])
def test_pinning_keeps_the_dense_leg_count_of_criterion_5_networks(n):
    # The dense-convention peaks of criterion 5's unpruned full-prefix
    # networks, as scheduled before the caps' ids were pinned, and as
    # scheduled with every cap given data, which pins nothing.
    for r_u in (3, 4, 6):
        inst = build_random_instance(
            InstanceParams(n, 0.5), seed=50 + n + r_u, max_body=2, max_width=r_u, periodic=False
        )
        for r_j in (3, 4, 6):
            req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(r_j, r_u))
            obs = ObservableProduct.prefix_projector([0] * n)
            network = build_expectation_network(req, obs, prune=False)
            peak = qubitwise_schedule(network).peak_open_legs
            assert peak == _CRITERION_5_OPEN_LEGS[r_u, r_j]
            zero = np.array([1.0, 0.0], dtype=complex)
            nodes = tuple(
                dataclasses.replace(node, data=zero) if node.kind.startswith("cap") else node
                for node in network.nodes
            )
            assert qubitwise_schedule(dataclasses.replace(network, nodes=nodes)).peak_open_legs == peak


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


def test_runner_accepts_steps_beyond_einsum_labels(monkeypatch):
    # One gate over 30 wires: after it the accumulator holds 59 ids, more
    # than the 52 labels numpy's einsum accepts.  No step calls einsum, so
    # with a raised memory cap the runner accepts the plan.
    # The caps carry data, so that they pin no id.
    n = 30
    zero = np.array([1.0, 0.0], dtype=complex)
    nodes = (
        [PlacedTensor(f"ket[{w}]", "cap_ket", (w,), zero) for w in range(1, n + 1)]
        + [PlacedTensor("G", "gate", tuple(range(1, n + 1)), None)]
        + [PlacedTensor(f"bra[{w}]", "cap_bra", (w,), zero) for w in range(1, n + 1)]
    )
    net = ExpectationNetwork(n_sites=n, nodes=tuple(nodes))
    plan = qubitwise_schedule(net)
    assert plan.peak_mem_axes < 64
    assert len(tensor._axes_before(plan, plan.step_of[n] + 1)) == 59
    monkeypatch.setattr(tensor, "MAX_EXEC_AXES", 64)
    PlanRunner(plan, net)
