"""Tests for the plan-route chain walk with light-cone finishes."""

import copy
import hashlib
import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import reference_chain_walk, reference_double_walk
from test_light_cone import _family_request

from liomsim import simulate, tensor
from liomsim.errors import FeasibilityError, StructuralError
from liomsim.model import (
    InstanceParams,
    apply_to_state,
    build_explicit_instance,
    build_random_instance,
)
from liomsim.oracle import evolve_state, exact_distribution
from liomsim.simulate import (
    ObservableProduct,
    SimulationRequest,
    _cone,
    _cone_move,
    _cone_target,
    _environment_at,
    _ket,
    _PlanMarginals,
    _evolved_tensor,
    _light_cone,
    _w,
    build_expectation_network,
    conditional_chain,
    conditional_probability,
    expectation,
    sample,
)
from liomsim.tensor import ForkTarget, PlacedTensor, PlanRunner, environment
from liomsim.w import _fold_program, _run_folds
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
    read from the plan's axis orders: the ids after a step are among the
    ids before it and its node's.  Pinned ids (no carrier counted) are no
    axis of either operand.  A tail starts from the ids of its head."""
    out = []
    for p, step in enumerate(plan.steps):
        ids = plan.node_indices[step.node_index]
        union = set(tensor._axes_before(plan, p)).union(i for i in ids if plan.index_endpoints[i])
        live = set(tensor._axes_before(plan, p + 1))
        assert live <= union
        out.append((2 ** len(union), len(live)))
    return out


def _kernel_ops(plan):
    """Per step, the multiply-adds of its kernel, read off the operand
    shapes the runner uses: 2^axes for a broadcast multiply, K·C·Nw·R for
    a matmul of the (K, Nw, C) node operand and the (K, C, R)
    accumulator.  Each node operand holds the node's entries, no more."""
    out, before = [], 2 ** len(plan.head)
    for step in plan.steps:
        ids = [i for i in plan.node_indices[step.node_index] if plan.index_endpoints[i]]
        assert math.prod(step.shape) == 2 ** len(ids)
        if step.form == "mul":
            out.append(2**step.mem_axes_after)
        else:
            k, nw, c = step.shape if len(step.shape) == 3 else (1, *step.shape)
            r, rest = divmod(before, k * c)
            assert not rest and k * nw * r == 2**step.mem_axes_after
            out.append(k * c * nw * r)
        before = 2**step.mem_axes_after
    return out


def test_no_step_does_padded_work():
    # Every kernel does the contraction's multiply-adds and no more: the
    # unpruned chain network, the ket half, every light-cone target's tail
    # and the folded sigma^z plans of the expect_plan family.
    req = _criterion_6_request(32)
    _, plan, _ = _cone(req, req.n_sites)
    conditional_chain(req, seed=0, engine="plan")
    plans = [plan, _ket(req)[1]] + [target.plan for target in req._state.cone_targets.values()]
    family = _family_request(11)
    plans += [
        simulate._observable_network(family, ObservableProduct(p))[1].plan for p in range(1, 33)
    ]
    assert len(plans) == 66
    for p in plans:
        assert _kernel_ops(p) == [ops for ops, _ in _computed_ops(p)]
    assert sum(_kernel_ops(plan)) == 12_752_962


def test_light_cone_finishes_cost_less_than_one_pass(monkeypatch):
    # A whole chain computes fewer entries than one pass over the chain
    # network: the ket-half pass, and at each site the move, both
    # outcomes' tail steps up to the cut (_environment_at) and their two
    # dot products with the site's environment.  The tail's steps from
    # the cut on ran once per outcome before environments: 1 456 steps a
    # warm chain, against 268 now.
    req = _criterion_6_request(32)
    _, plan, _ = _cone(req, req.n_sites)
    one_pass = sum(ops for ops, _ in _computed_ops(plan))
    conditional_chain(req, seed=0, engine="plan")
    state = req._state
    targets = state.cone_targets
    assert sorted(targets) == sorted(state.environments) == list(range(1, 33))
    _, ket, marks = _ket(req)
    # The ket runner stops at the last mark.
    steps = ket.step_of[marks[32]]
    chain = sum(ops for ops, _ in _computed_ops(ket)[:steps])
    for site, target in targets.items():
        assert target.start == 0
        costs = _computed_ops(target.plan)
        assert max(axes for _, axes in costs) <= plan.peak_mem_axes
        env = state.environments[site]
        assert env.size == 2 ** costs[-1][1]
        # The move onto the target's ids runs once per site, the tail's
        # steps and the dot product once per outcome.
        moved = 2 ** len(set(target.labels + target.conj_labels))
        chain += moved + 2 * (sum(ops for ops, _ in costs) + env.size)
        steps += 2 * len(target.plan.steps)
    assert chain < one_pass
    calls = 0
    step = PlanRunner.step

    def counted(self):
        nonlocal calls
        calls += 1
        step(self)

    monkeypatch.setattr(PlanRunner, "step", counted)
    conditional_chain(req, seed=1, engine="plan")
    assert calls == steps == 268


def _pinned_ids(network, plan):
    """The ids the network's dataless caps carry."""
    return {
        plan.node_indices[pos][0]
        for pos, node in enumerate(network.nodes)
        if node.kind.startswith("cap") and node.data is None
    }


def test_chain_and_cone_plans_never_hold_a_cap_id():
    # The ids of the caps are pinned: no step of the chain plan or of any
    # cone plan holds one, and every other id is held.
    req = _criterion_6_request(32)
    conditional_chain(req, seed=0, engine="plan")
    for site in range(1, req.n_sites + 1):
        network, plan, _ = _cone(req, site)
        pinned = _pinned_ids(network, plan)
        assert pinned == {i for i, ends in enumerate(plan.index_endpoints) if ends == 0}
        assert pinned.isdisjoint(plan.axes)
        assert set(plan.axes) | pinned == set(range(len(plan.index_endpoints)))
    # A cone pins exactly the chain's ids at its cut, so no move takes an
    # entry of an axis.
    assert all(target.pick is None for target in req._state.cone_targets.values())


def test_endpoint_replay_gives_every_chain_and_cone_step_its_axes(monkeypatch):
    # The replay the benchmark's plan_step_costs runs over plan.steps:
    # count each id's absorbed carriers, and an id is live while fewer
    # than index_endpoints[id] are absorbed.  Pinned ids have 0 endpoints,
    # so they never are.  The live set after each step is the plan's axes,
    # on the chain, on every cone and on the qubit-wise conditional of
    # every site, whose prefix projectors pin their ids.
    req = _criterion_6_request(32)
    monkeypatch.setattr(simulate, "_PLANS", simulate._PlanCache())
    bits = np.random.default_rng(6).integers(0, 2, req.n_sites).tolist()
    for site in range(1, req.n_sites + 1):
        simulate._light_cone_pair(req, bits[: site - 1], site)
    conditionals = [shot.plan for shot in simulate._PLANS.entries.values()]
    assert len(conditionals) == req.n_sites
    assert sum(len(plan.pins) > 0 for plan in conditionals) == req.n_sites - 1
    cones = [_cone(req, site)[1] for site in range(1, req.n_sites + 1)]
    for plan in cones + conditionals:
        absorbed = [0] * len(plan.index_endpoints)
        live: set[int] = set()
        for p, step in enumerate(plan.steps):
            ids = plan.node_indices[step.node_index]
            for idx in ids:
                absorbed[idx] += 1
            live = {i for i in live.union(ids) if absorbed[i] < plan.index_endpoints[i]}
            assert len(live) == step.mem_axes_after
            assert live == set(tensor._axes_before(plan, p + 1))
        assert all(a == ends for a, ends in zip(absorbed, plan.index_endpoints) if ends)


def test_pruned_network_caps_only_its_light_cone():
    # A bare wire contributes <0|0> = 1, so a pruned network caps only the
    # wires of its light cone.
    req = _criterion_6_request(32)
    network = build_expectation_network(req, ObservableProduct(1))
    w_list = _w(req).nodes
    cone = {1}.union(*(node.sites for node, k in zip(w_list, _light_cone(req, [1])) if k))
    assert len(cone) < 32
    for kind in ("cap_ket", "cap_bra"):
        caps = [node.sites[0] for node in network.nodes if node.kind == kind]
        assert caps == sorted(cone)
    touched = {s for node in network.nodes for s in node.sites}
    assert touched == cone


_CRITERION_6_CHAINS = json.loads(
    (Path(__file__).parent / "criterion_6_chains.json").read_text()
)


@pytest.mark.parametrize("n, seed", [(32, 0), (32, 1), (64, 0), (64, 1)])
def test_criterion_6_chains_keep_their_values(n, seed):
    # Bits and p0 of the criterion-6 chains as computed before the chain
    # walk and the one-shot conditional shared one light-cone builder.
    want = _CRITERION_6_CHAINS[f"{n}/{seed}"]
    chain = conditional_chain(_criterion_6_request(n), seed=seed, engine="plan")
    assert chain.bits == want["bits"]
    np.testing.assert_allclose(
        chain.probs, [float.fromhex(p) for p in want["p0"]], rtol=0, atol=1e-12
    )


def test_criterion_8_records_keep_their_bytes():
    # SHA-256 of the bitstrings of criterion 8's 100 000 records, one per
    # line, as sampled before the dense walk was batched.
    inst = build_random_instance(InstanceParams(4, 0.5), seed=77, max_body=3)
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(3, 3))
    records = sample(req, 100_000, seed=123)
    digest = hashlib.sha256("\n".join(r.bits for r in records).encode()).hexdigest()
    assert digest == "17bcbd5eef636e44887f578978bb5743ffd5af502259c45e63de9e827e367fc8"


def _fold_misses(nodes):
    """Gates whose wires all meet one gate next to them, on the same side;
    that gate covers all of their sites, so build_w should have folded
    the pair."""
    misses = []
    for i, node in enumerate(nodes):
        if node.kind != "gate":
            continue
        for side in (range(i - 1, -1, -1), range(i + 1, len(nodes))):
            nbrs = {next((j for j in side if s in nodes[j].sites), None) for s in node.sites}
            if len(nbrs) == 1 and None not in nbrs and nodes[min(nbrs)].kind == "gate":
                misses.append((node.name, nodes[min(nbrs)].name))
    return misses


def test_folded_w_shortens_the_chain_plan():
    # Every single-site constituent folds into the width-2 gate next to
    # it: 158 W factors become 94 and a plan pass 412 steps become 284,
    # of which the 64 dataless caps are no steps since their ids are
    # pinned (peak 18 axes before pinning).
    req = _criterion_6_request(32)
    _, plan, _ = _cone(req, req.n_sites)
    assert len(plan.steps) == 220
    assert plan.peak_mem_axes == 16
    assert _fold_misses(_w(req).nodes) == []
    for n in (16, 32, 64):
        _, plan, _ = _cone(_criterion_6_request(n), n)
        # The unfolded plans peaked at 19 memory axes and 29 open legs.
        assert plan.peak_mem_axes <= 19
        assert plan.peak_open_legs <= 29


def _fold_gates(nodes):
    """The library's fold of a factor list, with its data."""
    program = _fold_program([PlacedTensor(n.name, n.kind, n.sites, None) for n in nodes])
    data = _run_folds(program, [node.data for node in nodes])
    return [PlacedTensor(n.name, n.kind, n.sites, d) for n, d in zip(program.nodes, data)]


def test_fold_reaches_gates_exposed_by_a_fold():
    # The wide gate first absorbs the two gates ending its wires; only then
    # does the gate they followed end its wires, and it folds too.  A
    # diagonal between gates stops folding on its wire.
    rng = np.random.default_rng(5)

    def gate(name, sites):
        dim = 2 ** len(sites)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        return PlacedTensor(name, "gate", sites, q)

    nodes = [
        gate("a", (2, 3)),
        gate("b", (1, 2)),
        gate("c", (4, 3)),
        gate("d", (4, 1, 2, 3)),
        gate("u", (5,)),
        PlacedTensor("v", "diag", (5,), np.exp(1j * rng.normal(size=2))),
        gate("e", (5,)),
        gate("f", (4, 5)),
    ]
    folded = _fold_gates(nodes)
    assert [node.name for node in folded] == ["d*c*b*a", "u", "v", "f*e"]
    assert _fold_misses(folded) == []
    psi = rng.normal(size=(2,) * 5) + 1j * rng.normal(size=(2,) * 5)

    def walk(factors):
        out = psi
        for node in factors:
            if node.kind == "gate":
                out = apply_to_state(node.data, node.sites, out, 5)
            else:
                out = out * node.data.reshape(1, 1, 1, 1, 2)
        return out

    np.testing.assert_allclose(walk(folded), walk(nodes), rtol=0, atol=1e-12)


@pytest.mark.parametrize("periodic", [False, True])
@pytest.mark.parametrize("n", [3, 5, 6, 8])
def test_folded_w_matches_oracle_state(n, periodic):
    # Wide constituents fold into wrapped gates whose sites are not
    # ascending and into gates of width 3 and 4.
    for r_u in (1, 2, 3, 4):
        inst = build_random_instance(
            InstanceParams(n, 0.5), seed=7 * n + r_u, max_body=3, periodic=periodic
        )
        radii = TruncationRadii(min(3, n), min(r_u, n))
        req = SimulationRequest(instance=inst, t=1.3, epsilon=0.5, radii=radii)
        assert _fold_misses(_w(req).nodes) == []
        psi = _evolved_tensor(req).ravel()
        ref = evolve_state(inst, req.t, r_j=radii.r_j, r_u=radii.r_u)
        np.testing.assert_allclose(psi, ref, rtol=0, atol=1e-12)


def test_chain_holds_at_most_two_accumulators():
    # Each step drops the runner's old accumulator before computing the new
    # one, so a warm chain peaks at two arrays of the plan's peak size.
    req = _criterion_6_request(16)
    conditional_chain(req, seed=0, engine="plan")
    _, plan, _ = _cone(req, req.n_sites)
    tracemalloc.start()
    try:
        conditional_chain(req, seed=1, engine="plan")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 16 * 2**plan.peak_mem_axes


def test_folded_two_point_function_holds_at_most_two_accumulators():
    # The one-shot twin of the test above.  A warm <sigma^z_16 sigma^z_18>
    # folds U~'s outer layers into a gate on sites 14..19; a step that
    # keeps ids of that gate open batches over them, where a kron(I, g)
    # padding took a 2048 x 2048 operand (64 MiB) for a 2^13 accumulator.
    # numpy's ufunc iterator may buffer two operands of a broadcast
    # multiply, 8192 entries each, whatever the accumulator's size.
    req = _criterion_6_request(32)
    obs = ObservableProduct(16, 18)
    value = expectation(req, obs, engine="plan")
    network, shot = simulate._observable_network(req, obs)
    (gate,) = [node for node in network.nodes if node.name == simulate._folded_name(shot.support)]
    tracemalloc.start()
    try:
        assert expectation(req, obs, engine="plan") == value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 16 * 2**shot.plan.peak_mem_axes + gate.data.nbytes + 2 * 16 * 8192
    full = build_expectation_network(req, obs, prune=False)
    assert abs(value - tensor.execute(tensor.qubitwise_schedule(full), full)) <= 1e-12


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
    conditional_probability(req, "01101", 6, engine="plan")
    conditional_probability(req, "1" * 11, 12, engine="plan")
    assert not req._state.cone_targets and not req._state.environments
    conditional_chain(req, seed=0, engine="plan")
    assert len(req._state.cone_targets) == len(req._state.environments) == 12


def test_fork_target_refuses_another_cut():
    # A cone's target takes the ket-half runner at the site's mark and the
    # accumulator it held where the site's group starts, and no other.
    req = _criterion_6_request(8)
    source = _PlanMarginals(req)
    target = _cone_target(req, 3)
    runner = source.pause(3)
    assert runner.fork(target).position == 0
    runner.hold()
    with pytest.raises(StructuralError, match="another held accumulator"):
        runner.fork(target)
    source.pause(4)
    with pytest.raises(StructuralError, match="a different point of the contraction"):
        runner.fork(target)


def test_fork_target_refuses_a_plan_above_the_cap(monkeypatch):
    # A target's plan is checked once, when the target is built, as a
    # runner's is, from its start on: the steps before it never run on a
    # target.  Forks onto it run no further checks.
    req = _criterion_6_request(8)
    source = _PlanMarginals(req)
    runner = source.pause(3)
    peak = _cone_target(req, 3).plan.peak_mem_axes
    _, plan, marks = _cone(req, 3)
    assert peak == tensor._peak_from(plan, plan.step_of[marks[3]]) < plan.peak_mem_axes
    req._state.cone_targets.clear()
    monkeypatch.setattr(tensor, "MAX_EXEC_AXES", peak - 1)
    with pytest.raises(FeasibilityError, match="engine cap; N=8 is within the dense cap"):
        _cone_target(req, 3)
    assert 3 not in req._state.cone_targets
    monkeypatch.setattr(tensor, "MAX_EXEC_AXES", peak)
    assert runner.fork(_cone_target(req, 3)).position == 0


def test_fork_target_refuses_a_plan_that_keeps_an_id_the_runner_lacks():
    # The fork's einsum writes the target plan's axis order at `start`, so
    # every id of that order must come from one an operand holds.
    req = _criterion_6_request(8)
    target = _cone_target(req, 3)
    head = tensor._axes_before(target.plan, target.start)

    def without_one(ids, other):
        """ids less one whose plan id the plan keeps open and only it maps to."""
        values = list(ids.values())
        key = next(
            i for i, b in ids.items() if b in head and b not in other and values.count(b) == 1
        )
        return {i: b for i, b in ids.items() if i != key}

    kept, held = target.ids, target.conj_ids
    for ids, conj in ((without_one(kept, held.values()), held), (kept, without_one(held, kept.values()))):
        with pytest.raises(StructuralError, match="keeps an id the runner does not hold"):
            ForkTarget(target.network, target.plan, target.start, ids, conj)


_IDENTITY_REQUESTS = {
    # The criterion-6 family.
    "criterion-6 N=32": lambda: _criterion_6_request(32),
    # A banded periodic chain: two of W's factors wrap past site N.
    "banded periodic N=12": lambda: SimulationRequest(
        instance=build_random_instance(
            InstanceParams(12, 0.5), seed=0, max_body=2, max_width=2, periodic=True
        ),
        t=1.0,
        epsilon=0.5,
        radii=TruncationRadii(3, 3),
    ),
    # Unbanded, with three-body couplings.
    "unbanded max_body-3 N=8": lambda: SimulationRequest(
        instance=build_random_instance(InstanceParams(8, 0.5), seed=3, max_body=3, periodic=False),
        t=1.0,
        epsilon=0.5,
        radii=TruncationRadii(3, 2),
    ),
}


@pytest.mark.parametrize("name", list(_IDENTITY_REQUESTS))
def test_ket_half_move_equals_the_double_network_move(name, monkeypatch):
    # The left part of the chain network, its marks set to |b><b| / v, is
    # the ket half K<=w, its marks e_b / sqrt(v), times conj(K<=w-1).  So at
    # every site the walk's two-operand move writes the accumulator the
    # double-network runner moves onto the same cone plan and start, in the
    # same axis order (a tail renumbers its ids in order), and the move
    # onto the tail gives the bits of the move onto the full cone plan.
    req = _IDENTITY_REQUESTS[name]()
    if name.startswith("banded periodic"):
        assert len(_w(req).structure.wrapped) == 2
    moves = []
    ref = reference_double_walk(req, seed=5, moves=moves)
    walked = []
    fork = PlanRunner.fork

    def recorded(self, target=None):
        twin = fork(self, target)
        if target is not None:
            full = fork(self, _cone_move(req, len(walked) + 1))
            assert np.array_equal(full._acc, twin._acc)
            walked.append(twin._acc)
        return twin

    monkeypatch.setattr(PlanRunner, "fork", recorded)
    chain = conditional_chain(req, seed=5, engine="plan")
    monkeypatch.undo()
    assert chain.bits == ref.bits
    np.testing.assert_allclose(chain.probs, ref.probs, rtol=0, atol=1e-12)
    assert len(walked) == len(moves) == req.n_sites
    for site, (got, want) in enumerate(zip(walked, moves), 1):
        assert got.shape == want.shape, site
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale, err_msg=f"site {site}")


def _finished_from(plan, network, at, acc):
    """The plan's value, run from step `at` on with accumulator acc."""
    runner = PlanRunner.__new__(PlanRunner)
    runner._resume(plan, network, at, acc)
    return runner.finish()


def _random_accumulator(rng, axes):
    return rng.normal(size=(2,) * axes) + 1j * rng.normal(size=(2,) * axes)


@pytest.mark.parametrize("name", list(_IDENTITY_REQUESTS))
def test_environment_finishes_a_tail_from_its_cut(name):
    # At every site, finishing the cone's tail from its cut on a random
    # accumulator gives that accumulator's dot product with the site's
    # environment; the chain keeps that environment and the tail's steps
    # before the cut.  The cut is the first step that leaves fewer axes
    # than the tail's head, or the tail's end.
    req = _IDENTITY_REQUESTS[name]()
    rng = np.random.default_rng(29)
    conditional_chain(req, seed=5, engine="plan")
    for site in range(1, req.n_sites + 1):
        tail = _cone_move(req, site).tail()
        at = _environment_at(tail.plan)
        axes = [step.mem_axes_after for step in tail.plan.steps]
        assert all(a >= len(tail.plan.head) for a in axes[: at - 1])
        assert at == len(axes) or axes[at - 1] < len(tail.plan.head)
        env = req._state.environments[site]
        assert np.array_equal(env, environment(tail.plan, tail.network, at))
        assert len(_cone_target(req, site).plan.steps) == at
        acc = _random_accumulator(rng, axes[at - 1])
        np.testing.assert_allclose(
            np.dot(acc.ravel(), env),
            _finished_from(tail.plan, tail.network, at, acc),
            rtol=1e-12,
            err_msg=f"site {site}",
        )


def test_environment_reads_the_projectors_that_pin():
    # A one-shot conditional's plan, whose prefix projectors pin their
    # ids: the backward pass takes each projector's b where the runner
    # does, from every cut on.  A random accumulator's value cancels far
    # below its terms, so the tolerance is relative to the sum of the
    # terms' moduli: the value with every entry replaced by its modulus.
    req = _criterion_6_request(12)
    bits = [1, 0, 1, 1, 0, 1, 1]
    middle = [simulate._wire_node(f"proj{b}", w) for w, b in enumerate(bits, 1)]
    network, shot = simulate._one_shot_network(req, middle + [simulate._wire_node("diag", 8)])
    moduli = replace(
        network,
        nodes=tuple(
            node if node.data is None else replace(node, data=np.abs(node.data))
            for node in network.nodes
        ),
    )
    plan = shot.plan
    picks = tensor._bit_picks(plan, network)
    assert picks
    rng = np.random.default_rng(3)
    for at in range(max(picks) + 1):
        axes = plan.steps[at - 1].mem_axes_after if at else 0
        acc = _random_accumulator(rng, axes)
        got = np.dot(acc.ravel(), environment(plan, network, at))
        scale = np.dot(np.abs(acc).ravel(), environment(plan, moduli, at)).real
        assert abs(got - _finished_from(plan, network, at, acc)) <= 1e-12 * scale, at


def test_chain_environments_hold_one_accumulator_per_site():
    # The environments a first N=32 chain builds, as tracemalloc sees the
    # numpy memory the tensor module allocated and the request keeps: at
    # most one array of the cut's size per site, nothing of the passes.
    req = _criterion_6_request(32)
    tracemalloc.start()
    try:
        conditional_chain(req, seed=0, engine="plan")
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
    held = held.filter_traces([tracemalloc.Filter(True, tensor.__file__)])
    targets = req._state.cone_targets
    bound = sum(16 * 2 ** target.plan.steps[-1].mem_axes_after for target in targets.values())
    assert sum(trace.size for trace in held.traces) <= bound
    assert sum(env.nbytes for env in req._state.environments.values()) == bound


@pytest.fixture(scope="module")
def n300_chain():
    # The first chain of an N=300 product-state request, which schedules
    # O(N^2) light-cone structure, run once for the tests that read it.
    req = _product_request(300)
    return req, conditional_chain(req, seed=0, engine="plan")


def test_n300_chain_retains_a_few_mib(n300_chain):
    # A request's chain state grows as O(N): the ket half, and per site a
    # cone tail cut at its environment and the environment.  tracemalloc
    # counts a deep copy of that state, the W factors it shares included:
    # tracing the first chain itself runs ~20x slower (2.7 MiB retained
    # when measured so).
    req, _ = n300_chain
    state = req._state
    assert len(state.environments) == 300
    tracemalloc.start()
    try:
        held = copy.deepcopy((state.ket, state.cone_targets, state.environments))
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held[2].keys() == state.environments.keys()
    assert retained <= 3.3 * 2**20


@pytest.mark.parametrize("n", [32, 64])
def test_ket_half_chains_match_the_double_network_walk(n):
    # Twelve seeds: the same bits, byte for byte, and p0 to rounding.
    req = _criterion_6_request(n)
    targets: dict = {}
    for seed in range(12):
        chain = conditional_chain(req, seed=seed, engine="plan")
        ref = reference_double_walk(req, seed=seed, targets=targets)
        assert chain.bits == ref.bits, seed
        np.testing.assert_allclose(chain.probs, ref.probs, rtol=0, atol=1e-12, err_msg=str(seed))


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
    sites = range(1, req.n_sites + 1)
    couplings = inst.coupling_values([(k,) for k in sites]).tolist()
    truth = []
    for cons, coupling in zip(inst.constituents_at([(k, 1) for k in sites]), couplings):
        u = cons.matrix
        phase = np.exp(-1j * req.t * coupling)
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


@pytest.mark.xfail(
    strict=True,
    reason="the plan route's P(prefix, b) underflows to 0 on the MPS and on the light "
    "cone and is read as the impossible-prefix 1.0; it awaits a rescaled marginal "
    "(ROADMAP item 3)",
)
def test_plan_conditional_after_a_1e_525_prefix_at_n400():
    # The less likely bit at sites 1-399: P(prefix) = 10^-525.5, below the
    # smallest double.  The chain walk on the same bits is right, as it
    # rescales each mark.
    req = _product_request(400)
    truth = _product_truth(req)
    bits = _unlikely_bits(truth)
    log_prefix = sum(math.log10(p if b == 0 else 1 - p) for b, p in zip(bits, truth[:399]))
    assert log_prefix == pytest.approx(-525.5, abs=0.05)
    got = conditional_probability(req, bits[:399], 400, engine="plan")
    assert got == pytest.approx(truth[399], abs=1e-10)


def test_chain_below_1e_30_prefix_at_n300(n300_chain):
    # A sampled branch whose prefix probability falls below 1e-30 near site
    # 210; an absolute 1e-30 cut reported p0 = 1 from there on.
    req, chain = n300_chain
    truth = _product_truth(req)
    log_prefix = np.cumsum(
        [math.log10(p if b == "0" else 1 - p) for b, p in zip(chain.bits, truth)]
    )
    assert log_prefix[-1] < -30
    np.testing.assert_allclose(chain.probs, truth, rtol=0, atol=1e-10)


def test_plan_chain_impossible_prefix_convention():
    inst = build_explicit_instance(InstanceParams(3, 0.5), {}, {})
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(3, 3))
    assert conditional_probability(req, "1", 2, engine="plan") == 1.0
    # On a bare wire the projector's id is pinned by the caps, so P1 is a
    # step that takes its entry 0, exactly.
    assert expectation(req, ObservableProduct(projectors=((2, 1),)), engine="plan") == 0.0
    assert expectation(req, ObservableProduct(projectors=((2, 0),)), engine="plan") == 1.0
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
    network, plan, _ = _cone(req, req.n_sites)
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
