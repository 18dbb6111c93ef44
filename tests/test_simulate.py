"""Tests for site blocks, expectation engines, and chain-rule sampling."""

import copy
import dataclasses
import functools
import gc
import itertools
import math
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from reference import block_trivial, block_window, naive_network_value

from liomsim import simulate
from liomsim.cli import EXIT_DOMAIN, EXIT_OK, main
from liomsim.errors import DomainError, FeasibilityError
from liomsim.model import (
    InstanceParams,
    build_explicit_instance,
    build_random_instance,
    dense_hamiltonian,
    sigma_diagonal,
)
from liomsim.oracle import exact_distribution, evolve_state
from liomsim.simulate import (
    ChainResult,
    ObservableProduct,
    SimulationRequest,
    build_expectation_network,
    conditional_chain,
    conditional_probability,
    expectation,
    sample,
    site_blocks,
)
from liomsim.tensor import ContractionPlan, PlanStep, execute, qubitwise_schedule
from liomsim.truncation import TruncationRadii, delta_h_bound, truncate

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def _random_request(n, seed, t=0.7, radii=None, **build_kwargs):
    params = InstanceParams(n, 0.5)
    inst = build_random_instance(params, seed=seed, max_body=min(n, 3), **build_kwargs)
    if radii is None:
        radii = TruncationRadii(n, n)
    return SimulationRequest(instance=inst, t=t, epsilon=0.5, radii=radii)


def test_observable_validation():
    obs = ObservableProduct.prefix_projector("010")
    assert obs.sigma_z == ()
    assert obs.projectors == ((1, 0), (2, 1), (3, 0))
    assert obs.support() == (1, 2, 3)
    obs = ObservableProduct(7, 2, projectors=((5, 1), (3, 0)))
    assert obs.sigma_z == (2, 7)
    assert obs.projectors == ((3, 0), (5, 1))
    assert obs.support() == (2, 3, 5, 7)
    with pytest.raises(DomainError, match="factor site must be >= 1, got 0"):
        ObservableProduct(0)
    with pytest.raises(DomainError, match="factor site must be >= 1, got -1"):
        ObservableProduct(2, projectors=((-1, 0),))
    with pytest.raises(DomainError, match="needs at least one factor"):
        ObservableProduct()
    with pytest.raises(DomainError, match="needs at least one factor"):
        ObservableProduct(rotations=((1, HADAMARD),))
    # One factor per site: sigma^z twice is the identity, and sigma^z
    # with a projector is a signed projector.
    with pytest.raises(DomainError, match="factor site 2 is given more than once"):
        ObservableProduct(2, 2)
    with pytest.raises(DomainError, match="factor site 2 is given more than once"):
        ObservableProduct(2, projectors=((2, 0),))
    with pytest.raises(DomainError):
        ObservableProduct(2, projectors=((1, 3),))
    with pytest.raises(DomainError):
        ObservableProduct(2, rotations=((1, np.eye(3)),))
    with pytest.raises(DomainError):
        ObservableProduct.prefix_projector("")
    # A repeated site used to keep only its last entry: P0 P1 on site 1,
    # which is 0, became P1.
    with pytest.raises(DomainError, match="factor site 1 is given more than once"):
        ObservableProduct(3, projectors=((1, 0), (1, 1)))
    with pytest.raises(DomainError, match="rotation site 2 is given more than once"):
        ObservableProduct(3, rotations=((2, HADAMARD), (1, HADAMARD), (2, np.eye(2))))
    # A non-unitary rotation used to surface only as an out-of-range
    # expectation, or as a silently wrong one inside the range.
    with pytest.raises(DomainError, match="rotation on site 1 is not unitary"):
        ObservableProduct(3, rotations=((1, 2 * np.eye(2)),))
    with pytest.raises(DomainError, match="rotation on site 2 is not unitary"):
        ObservableProduct(3, rotations=((1, HADAMARD), (2, np.diag([1.0, 1.0 + 1e-9]))))
    # Rotation sites below 1 would index the state from its far end.
    for site in (0, -1):
        with pytest.raises(DomainError, match="rotation site"):
            ObservableProduct(4, rotations=((site, HADAMARD),))
    req = _random_request(4, seed=2)
    for obs in (
        ObservableProduct(5),
        ObservableProduct(4, rotations=((5, HADAMARD),)),
        ObservableProduct(2, rotations=((7, HADAMARD),)),
    ):
        with pytest.raises(DomainError, match="out of range for N=4"):
            build_expectation_network(req, obs)


def test_observable_refuses_sites_and_bits_that_are_not_integers():
    # Sites and bits used to be read with int(...): 1.7 truncated to a
    # proj1 factor, 1.9 to site 1, and "a" raised a bare ValueError.
    with pytest.raises(DomainError, match="prefix projector bits must be 2 binary digits"):
        ObservableProduct.prefix_projector([0, 1.7])
    with pytest.raises(DomainError, match="projector site must be an integer, got 1.9"):
        ObservableProduct(2, projectors=((1.9, 0),))
    with pytest.raises(DomainError, match="prefix projector bits must be 3 binary digits"):
        ObservableProduct.prefix_projector("01a")
    with pytest.raises(DomainError, match="sigma\\^z site must be an integer"):
        ObservableProduct(2.0)
    with pytest.raises(DomainError, match="sigma\\^z site must be an integer"):
        ObservableProduct(3, True)
    with pytest.raises(DomainError, match="projector outcomes must be 1 binary digits"):
        ObservableProduct(2, projectors=((1, True),))
    with pytest.raises(DomainError, match="rotation site must be an integer"):
        ObservableProduct(2, rotations=(("1", HADAMARD),))
    obs = ObservableProduct(np.int64(3), projectors=((np.int64(1), np.int64(1)),))
    assert obs.sigma_z == (3,) and type(obs.sigma_z[0]) is int
    assert obs.projectors == ((1, 1),)
    assert ObservableProduct.prefix_projector([1, 0]) == ObservableProduct.prefix_projector("10")


def test_rotated_observables_compare_and_hash_by_value():
    # Rotations used to be kept as arrays, so == raised "truth value of an
    # array is ambiguous" and hash() "unhashable type".
    a = ObservableProduct(1, rotations=((1, HADAMARD),))
    b = ObservableProduct(1, rotations=((1, HADAMARD.copy()),))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != ObservableProduct(1, rotations=((1, np.eye(2)),))
    assert a != ObservableProduct(1, rotations=((2, HADAMARD),))
    assert a != ObservableProduct(1)
    assert ObservableProduct(2, 3) == ObservableProduct(3, 2)
    assert hash(ObservableProduct(2, 3)) == hash(ObservableProduct(3, 2))
    # The nodes carry the rotation's values as an array.
    (rotation, _, mirror) = simulate._observable_nodes(a)
    np.testing.assert_array_equal(rotation.data, HADAMARD)
    np.testing.assert_array_equal(mirror.data, HADAMARD.conj().T)


@pytest.mark.parametrize("engine", ["dense", "plan", "auto"])
def test_expectation_refuses_rotation_sites_above_n(engine):
    req = _random_request(4, seed=2, radii=TruncationRadii(3, 2))
    for site in (5, 6):
        obs = ObservableProduct(4, rotations=((site, HADAMARD),))
        with pytest.raises(DomainError, match=f"site {site} out of range for N=4"):
            expectation(req, obs, engine=engine)
    # A rotation on site N itself is in range on every route.
    obs = ObservableProduct(4, rotations=((4, HADAMARD),))
    assert -1.0 <= expectation(req, obs, engine=engine) <= 1.0


def test_request_validation_and_cache():
    req = _random_request(3, seed=1)
    assert req.trunc is req.trunc
    assert req.n_sites == 3
    with pytest.raises(DomainError):
        SimulationRequest(req.instance, t=-1.0, epsilon=0.5, radii=req.radii)
    with pytest.raises(DomainError):
        SimulationRequest(req.instance, t=1.0, epsilon=0.0, radii=req.radii)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_request_refuses_a_non_finite_time_or_budget(value):
    req = _random_request(3, seed=1)
    with pytest.raises(DomainError, match=f"t must be finite, got {value}"):
        SimulationRequest(req.instance, t=value, epsilon=0.5, radii=req.radii)
    with pytest.raises(DomainError, match=f"epsilon must lie in \\(0,1\\), got {value}"):
        SimulationRequest(req.instance, t=1.0, epsilon=value, radii=req.radii)


def _answers(req, engine):
    """A sigma^z expectation, a conditional and a sampled chain of req."""
    return (
        expectation(req, ObservableProduct(4), engine=engine),
        conditional_probability(req, "011", 4, engine=engine),
        conditional_chain(req, seed=3, engine=engine),
    )


@pytest.mark.parametrize("engine", ["dense", "plan"])
def test_a_replaced_request_derives_its_own_state(engine):
    # dataclasses.replace makes a request with state of its own: once the
    # original has answered, each replaced request, t, then the radii, then
    # the instance, answers as one built fresh with the same fields.
    def build(seed):
        return build_random_instance(
            InstanceParams(8, 0.5), seed=seed, max_body=2, max_width=2, periodic=False
        )

    req = SimulationRequest(build(4), t=1.0, epsilon=0.5, radii=TruncationRadii(3, 3))
    _answers(req, engine)
    for change in ({"t": 5.0}, {"radii": TruncationRadii(2, 2)}, {"instance": build(5)}):
        replaced = dataclasses.replace(req, **change)
        fresh = SimulationRequest(
            replaced.instance, t=replaced.t, epsilon=replaced.epsilon, radii=replaced.radii
        )
        assert _answers(replaced, engine) == _answers(fresh, engine), change
        assert _answers(req, engine) != _answers(replaced, engine), change
        req = replaced


def test_certified_request_uses_radius_selection():
    params = InstanceParams(16, 0.4)
    inst = build_random_instance(params, seed=3, max_body=2, max_width=2)
    req = SimulationRequest.certified(inst, t=100.0, epsilon=0.01)
    assert (req.radii.r_j, req.radii.r_u) == (10, 14)


def test_site_blocks_product_matches_diagonal():
    # Multiplying every block's phases into the full z register reproduces
    # exp(-i t H_sigma) entry for entry.
    n, t = 5, 1.3
    req = _random_request(n, seed=9, t=t, radii=TruncationRadii(3, 3))
    blocks = site_blocks(req.trunc, t)
    assert [b.site for b in blocks] == list(range(1, n + 1))
    acc = np.ones((2,) * n, dtype=complex)
    for block in blocks:
        shape = [1] * n
        for s in block_window(block):
            shape[s - 1] = 2
        acc = acc * block.phases.reshape(shape)
    diag = sigma_diagonal(req.instance, req.radii.r_j)
    np.testing.assert_allclose(
        acc.ravel(), np.exp(-1j * t * diag), atol=1e-12
    )


def test_site_block_single_coupling_phases():
    # One on-site coupling J = 1: at t = pi both z outcomes pick up phase -1.
    params = InstanceParams(2, 0.5)
    inst = build_explicit_instance(params, {(1,): 1.0}, {})
    trunc = truncate(inst, TruncationRadii(1, 1))
    blocks = site_blocks(trunc, math.pi)
    np.testing.assert_allclose(blocks[0].phases, [-1.0, -1.0], atol=1e-12)
    assert block_trivial(blocks[1])


def _hadamard_request(t):
    params = InstanceParams(1, 0.5, q_const=4.0)
    inst = build_explicit_instance(params, {(1,): 1.0}, {(1, 1): HADAMARD})
    return SimulationRequest(
        instance=inst, t=t, epsilon=0.5, radii=TruncationRadii(1, 1)
    )


def test_single_site_closed_forms():
    # H = tau^z with tau^z = H sigma^z H = sigma^x, so starting from |0>:
    # P(1) = sin^2 t and <sigma^z> = cos 2t.
    for t in (0.0, 0.4, 1.1, math.pi / 2):
        req = _hadamard_request(t)
        p1 = expectation(req, ObservableProduct(projectors=((1, 1),)))
        assert p1 == pytest.approx(math.sin(t) ** 2, abs=1e-12)
        z = expectation(req, ObservableProduct(1))
        assert z == pytest.approx(math.cos(2 * t), abs=1e-12)
        for engine in ("plan", "dense"):
            assert expectation(
                req, ObservableProduct(projectors=((1, 1),)), engine=engine
            ) == pytest.approx(math.sin(t) ** 2, abs=1e-12)


def test_time_zero_is_initial_state():
    req = _random_request(4, seed=21, t=0.0, radii=TruncationRadii(2, 2))
    assert expectation(req, ObservableProduct.prefix_projector("0000")) == pytest.approx(
        1.0, abs=1e-12
    )
    assert conditional_probability(req, "", 1) == pytest.approx(1.0, abs=1e-12)
    records = sample(req, 3, seed=5)
    assert all(r.bits == "0000" for r in records)


OBSERVABLES = [
    ObservableProduct(1),
    ObservableProduct(projectors=((3, 0),)),
    ObservableProduct.prefix_projector("010"),
    ObservableProduct(projectors=((1, 1), (2, 1))),
    ObservableProduct(2, rotations=((2, HADAMARD),)),
]


def test_engines_agree_on_random_instances():
    # Radii below N keep the contraction frontier narrow enough for the plan
    # engine while exercising wrapped width-2 constituents.
    for seed in (0, 1):
        req = _random_request(4, seed=seed, t=0.9, radii=TruncationRadii(3, 2))
        for obs in OBSERVABLES:
            dense = expectation(req, obs, engine="dense")
            plan = expectation(req, obs, engine="plan")
            assert dense == pytest.approx(plan, abs=1e-10), (seed, obs)


def test_engines_agree_on_banded_instance():
    req = _random_request(
        6, seed=4, t=1.7, radii=TruncationRadii(3, 2), max_width=2, periodic=False
    )
    for obs in OBSERVABLES:
        dense = expectation(req, obs, engine="dense")
        plan = expectation(req, obs, engine="plan")
        assert dense == pytest.approx(plan, abs=1e-10)


def test_plan_matches_naive_reference():
    req = _random_request(3, seed=7, t=0.8)
    for obs in OBSERVABLES[:4]:
        net = build_expectation_network(req, obs)
        value = naive_network_value(net)
        assert abs(value.imag) < 1e-10
        assert expectation(req, obs, engine="plan") == pytest.approx(
            value.real, abs=1e-10
        )


def test_pruning_preserves_value():
    req = _random_request(6, seed=8, t=0.6, radii=TruncationRadii(2, 2), max_width=2)
    obs = ObservableProduct(projectors=((1, 0),))
    pruned = build_expectation_network(req, obs, prune=True)
    full = build_expectation_network(req, obs, prune=False)
    assert len(pruned.nodes) < len(full.nodes)
    from liomsim.tensor import execute, qubitwise_schedule

    v1 = execute(qubitwise_schedule(pruned), pruned)
    v2 = execute(qubitwise_schedule(full), full)
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_projector_branches_sum():
    req = _random_request(5, seed=10, t=1.2)
    for prefix in ("", "0", "01", "101"):
        parent = (
            1.0
            if prefix == ""
            else expectation(req, ObservableProduct.prefix_projector(prefix))
        )
        child_sum = sum(
            expectation(req, ObservableProduct.prefix_projector(prefix + b))
            for b in "01"
        )
        assert abs(parent - child_sum) <= 1e-9


def test_chain_product_matches_oracle_n2():
    req = _random_request(2, seed=12, t=2.3)
    dist = exact_distribution(req.instance, req.t)
    for bits in itertools.product((0, 1), repeat=2):
        chain = conditional_chain(req, bits=bits)
        p = 1.0
        for bit, p0 in zip(bits, chain.probs):
            p *= p0 if bit == 0 else 1.0 - p0
        assert p == pytest.approx(dist.probability("".join(map(str, bits))), abs=1e-10)


def test_chain_probabilities_normalize():
    req = _random_request(4, seed=13, t=1.9)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=4):
        chain = conditional_chain(req, bits=bits)
        p = 1.0
        for bit, p0 in zip(bits, chain.probs):
            p *= p0 if bit == 0 else 1.0 - p0
        total += p
    assert total == pytest.approx(1.0, abs=1e-9)


def test_chain_matches_pairwise_conditionals():
    # Radii below N keep the plan route's chain network within the engine cap.
    bits = (0, 1, 1, 0, 1)
    for engine, radii in (("auto", None), ("plan", TruncationRadii(3, 2))):
        req = _random_request(5, seed=14, t=0.8, radii=radii)
        chain = conditional_chain(req, bits=bits, engine=engine)
        for k in range(5):
            direct = conditional_probability(req, bits[:k], k + 1, engine=engine)
            assert chain.probs[k] == pytest.approx(direct, abs=1e-10), (engine, k)


def test_chain_engines_agree():
    req = _random_request(5, seed=15, t=1.1, radii=TruncationRadii(3, 2), max_width=2)
    bits = (1, 0, 0, 1, 0)
    dense = conditional_chain(req, bits=bits, engine="dense")
    plan = conditional_chain(req, bits=bits, engine="plan")
    assert dense.bits == plan.bits == "10010"
    np.testing.assert_allclose(dense.probs, plan.probs, atol=1e-10)


def test_degenerate_prefix_convention():
    # Identity evolution leaves |00...0>; impossible prefixes hand the whole
    # conditional to the surviving branch deterministically.
    params = InstanceParams(3, 0.5)
    inst = build_explicit_instance(params, {}, {})
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(3, 3))
    assert conditional_probability(req, "1", 2) == 1.0
    chain = conditional_chain(req, bits="100")
    assert chain.probs == (1.0, 1.0, 1.0)
    records = sample(req, 4, seed=0)
    assert all(r.bits == "000" for r in records)


def test_sampling_is_deterministic_and_indexed():
    req = _random_request(4, seed=16, t=1.4)
    first = sample(req, 5, seed=99)
    second = sample(req, 5, seed=99)
    assert [r.bits for r in first] == [r.bits for r in second]
    assert [r.index for r in first] == list(range(5))
    assert all(r.seed == 99 for r in first)
    # Streams are per-index, so a shorter run is a prefix of a longer one.
    short = sample(req, 3, seed=99)
    assert [r.bits for r in short] == [r.bits for r in first[:3]]
    # Records are made on access from the packed bitstrings.
    assert len(first) == 5 and first[-1] == first[4] == list(first)[4]
    with pytest.raises(IndexError):
        first[5]
    other = sample(req, 5, seed=100)
    assert [r.bits for r in other] != [r.bits for r in first]


def test_sampling_engine_invariant():
    req = _random_request(4, seed=17, t=1.0, radii=TruncationRadii(3, 2), max_width=2)
    dense = sample(req, 6, seed=11, engine="dense")
    plan = sample(req, 6, seed=11, engine="plan")
    assert [r.bits for r in dense] == [r.bits for r in plan]


def test_chain_result_seeded_matches_sample():
    req = _random_request(4, seed=18, t=0.9)
    chain = conditional_chain(req, seed=42)
    assert isinstance(chain, ChainResult)
    assert chain.bits == sample(req, 1, seed=42)[0].bits


def test_chain_validation_errors():
    req = _random_request(3, seed=19)
    with pytest.raises(DomainError):
        conditional_chain(req)
    with pytest.raises(DomainError):
        conditional_chain(req, bits="01")
    with pytest.raises(DomainError):
        conditional_chain(req, bits="021")
    with pytest.raises(DomainError):
        conditional_chain(req, bits="010", engine="warp")
    with pytest.raises(DomainError):
        conditional_probability(req, "0", 3)
    with pytest.raises(DomainError):
        conditional_probability(req, "0", 4)
    with pytest.raises(DomainError):
        expectation(req, ObservableProduct(5))
    with pytest.raises(DomainError):
        expectation(req, ObservableProduct(1), engine="warp")
    with pytest.raises(DomainError):
        sample(req, 0, seed=1)
    # A count that is not an integer, or is a bool, is refused rather than
    # truncated, read as text or taken as 1.
    for count in (2.5, "3", True, None):
        with pytest.raises(DomainError, match="n_samples must be an integer"):
            sample(req, count, seed=1)
    assert len(sample(req, np.int64(2), seed=1)) == 2
    # A seed that is not an integer is refused, not truncated or parsed.
    for seed in (1.5, "7", True, None):
        message = f"seed must be an integer, got {re.escape(repr(seed))}"
        with pytest.raises(DomainError, match=message):
            sample(req, 3, seed)
        if seed is not None:
            with pytest.raises(DomainError, match="seed must be an integer"):
                conditional_chain(req, seed=seed)
    assert sample(req, 2, np.int64(7)).seed == 7
    # Bits and prefixes with a digit other than 0 or 1, and sites outside
    # 1..N, are refused by name.
    for bits in ("01a0", "0a1", [0, 1, 2], [0, 1.0, 1], [0, True, 1], ["0", "1", "1"]):
        message = f"bits must be 3 binary digits, got {re.escape(repr(bits))}"
        with pytest.raises(DomainError, match=message):
            conditional_chain(req, bits=bits)
    with pytest.raises(DomainError, match="prefix of site 3 must be 2 binary digits, got '0x'"):
        conditional_probability(req, "0x", 3)
    for site in (0, -1):
        with pytest.raises(DomainError, match=f"site {site} out of range for N=3"):
            conditional_probability(req, "", site)
    with pytest.raises(DomainError, match="site must be an integer, got 2.0"):
        conditional_probability(req, "0", 2.0)
    assert conditional_chain(req, bits=np.array([0, 1, 1])) == conditional_chain(req, bits="011")


def test_conditional_chain_refuses_bits_and_seed_together():
    # The seed used to be dropped without a word when bits were given.
    req = _random_request(3, seed=30, t=0.5)
    with pytest.raises(DomainError, match="either fixed bits or a seed, got bits='010', seed=5"):
        conditional_chain(req, bits="010", seed=5)
    with pytest.raises(DomainError, match="either fixed bits or a seed, got bits=None, seed=None"):
        conditional_chain(req)
    assert conditional_chain(req, seed=5).probs == conditional_chain(
        req, bits=conditional_chain(req, seed=5).bits
    ).probs


def test_truncated_distribution_within_budget():
    # TVD(D, D~) <= ||Delta H|| t <= bound * t.
    n, t = 5, 1.5
    params = InstanceParams(n, 0.5)
    inst = build_random_instance(params, seed=20, max_body=3)
    radii = TruncationRadii(3, 3)
    full = exact_distribution(inst, t)
    truncated = exact_distribution(inst, t, r_j=radii.r_j, r_u=radii.r_u)
    h_full = dense_hamiltonian(inst)
    h_trunc = dense_hamiltonian(inst, r_j=radii.r_j, r_u=radii.r_u)
    delta = np.linalg.norm(h_full - h_trunc, 2)
    assert full.tvd(truncated) <= delta * t + 1e-12
    assert delta * t <= delta_h_bound(params, radii) * t


def test_exact_state_overlap_bound():
    n, t = 5, 0.9
    params = InstanceParams(n, 0.5)
    inst = build_random_instance(params, seed=22, max_body=2)
    radii = TruncationRadii(3, 3)
    psi = evolve_state(inst, t)
    psi_trunc = evolve_state(inst, t, r_j=radii.r_j, r_u=radii.r_u)
    h_diff = np.linalg.norm(
        dense_hamiltonian(inst) - dense_hamiltonian(inst, r_j=radii.r_j, r_u=radii.r_u),
        2,
    )
    overlap = abs(np.vdot(psi, psi_trunc))
    assert overlap >= 1 - (h_diff * t) ** 2 / 2 - 1e-12


def test_expectation_close_to_untruncated():
    # For ||O|| <= 1 the truncated expectation sits within 2 ||Delta H|| t of
    # the untruncated one.
    n, t = 5, 1.1
    params = InstanceParams(n, 0.5)
    inst = build_random_instance(params, seed=23, max_body=2)
    radii = TruncationRadii(3, 3)
    req = SimulationRequest(instance=inst, t=t, epsilon=0.5, radii=radii)
    psi = evolve_state(inst, t)
    h_diff = np.linalg.norm(
        dense_hamiltonian(inst) - dense_hamiltonian(inst, r_j=radii.r_j, r_u=radii.r_u),
        2,
    )
    probs = np.abs(psi) ** 2
    for prefix in ("0", "00", "101"):
        exact_p = sum(
            probs[z]
            for z in range(2**n)
            if format(z, f"0{n}b").startswith(prefix)
        )
        approx_p = expectation(req, ObservableProduct.prefix_projector(prefix))
        assert abs(exact_p - approx_p) <= 2 * h_diff * t + 1e-12


def test_evolved_state_matches_oracle_untruncated():
    # With radii (N, N) nothing is cut, so the network route reproduces the
    # eigendecomposition evolution exactly.
    req = _random_request(4, seed=24, t=1.8)
    state = evolve_state(req.instance, req.t)
    probs = np.abs(state) ** 2
    for z in range(16):
        bits = format(z, "04b")
        p_net = expectation(req, ObservableProduct.prefix_projector(bits))
        assert p_net == pytest.approx(float(probs[z]), abs=1e-10)


# ---------------------------------------------------------------------------
# The shared cache of one-shot plans


@pytest.fixture
def plans(monkeypatch):
    """A fresh, empty one-shot plan cache in place of the process-wide one,
    and the networks simulate schedules while the test runs."""
    cache = simulate._PlanCache()
    monkeypatch.setattr(simulate, "_PLANS", cache)
    scheduled = []

    def counted(network):
        scheduled.append(network)
        return qubitwise_schedule(network)

    monkeypatch.setattr(simulate, "qubitwise_schedule", counted)
    cache.scheduled = scheduled
    return cache


@functools.cache
def _family_request(seed):
    """A certified N=32 request of the banded family the expect_plan
    benchmark queries (xi=0.3, width 2, max_body 3, open chain)."""
    inst = build_random_instance(
        InstanceParams(32, 0.3), seed=seed, max_width=2, max_body=3, periodic=False
    )
    return SimulationRequest.certified(inst, 1.0, 0.05)


def _keyed(req, obs):
    """The network expectation contracts for obs and its plan-cache entry."""
    return simulate._observable_network(req, obs)


def _assert_same_plan(got: ContractionPlan, want: ContractionPlan):
    for f in dataclasses.fields(ContractionPlan):
        if f.name != "steps":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert len(got.steps) == len(want.steps)
    for a, b in zip(got.steps, want.steps):
        for f in dataclasses.fields(PlanStep):
            assert getattr(a, f.name) == getattr(b, f.name), (b.name, f.name)


def test_cached_plans_equal_fresh_schedules(plans):
    # A hit hands one request's network the plan scheduled for another's:
    # it must be the plan a fresh schedule of its own network gives.
    first, second = _family_request(11), _family_request(12)
    prefix = np.random.default_rng(5).integers(0, 2, 32).tolist()
    observables = [ObservableProduct(p) for p in range(1, 33)]
    observables += [ObservableProduct.prefix_projector(prefix[:k]) for k in (2, 9, 20, 32)]
    for obs in observables:
        _, owner = _keyed(first, obs)
        scheduled = len(plans.scheduled)
        network, got = _keyed(second, obs)
        assert got is owner
        assert len(plans.scheduled) == scheduled
        _assert_same_plan(got.plan, qubitwise_schedule(network))
    assert len(plans.entries) == len(observables)
    # A wrapped periodic chain carries no radii (r_u is None).
    inst = build_random_instance(InstanceParams(4, 0.5), seed=3, max_body=3)
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(1, 2))
    for obs in (ObservableProduct(4), ObservableProduct.prefix_projector("0110")):
        network, owner = _keyed(req, obs)
        assert network.r_u is None
        assert _keyed(req, obs)[1] is owner
        _assert_same_plan(owner.plan, qubitwise_schedule(network))


def test_requests_of_one_structure_share_a_plan(plans):
    first, second = _family_request(11), _family_request(12)
    for site in (1, 16, 32):
        obs = ObservableProduct(site)
        before = len(plans.scheduled)
        values = [expectation(first, obs, engine="plan")]
        scheduled = len(plans.scheduled)
        values.append(expectation(second, obs, engine="plan"))
        # Only the first request's query schedules; both then find its entry.
        assert scheduled > before
        one, two = (_keyed(req, obs) for req in (first, second))
        assert one[1] is two[1]
        assert len(plans.scheduled) == scheduled
        fresh = [execute(qubitwise_schedule(net), net).real for net, _ in (one, two)]
        assert [v.hex() for v in values] == [v.hex() for v in fresh]


def test_a_plan_is_shared_only_with_the_same_structure(plans):
    req = _family_request(11)
    middle = simulate._observable_nodes(ObservableProduct(3))
    network, shot = simulate._one_shot_network(req, middle)
    plan = shot.plan

    def radii(r_j, r_u):
        return SimulationRequest(req.instance, req.t, req.epsilon, TruncationRadii(r_j, r_u))

    r_j, r_u = req.radii.r_j, req.radii.r_u
    variants = [
        # Other radii give another W, so another token.
        simulate._one_shot_network(radii(r_j, r_u + 1), middle),
        simulate._one_shot_network(radii(r_j + 1, r_u), middle),
        # A middle node with another name, or without its data.
        simulate._one_shot_network(req, [dataclasses.replace(middle[0], name="renamed")]),
        simulate._one_shot_network(req, [dataclasses.replace(middle[0], data=None)]),
    ]
    # Each variant scheduled its own network once.
    assert len(plans.scheduled) == 1 + len(variants)
    for variant, variant_shot in variants:
        got = variant_shot.plan
        assert got is not plan
        _assert_same_plan(got, qubitwise_schedule(variant))
    assert simulate._one_shot_network(req, list(middle))[1].plan is plan
    # A bra cap without data pins its id and is no step; one with data
    # closes its wire by a matmul on its data.
    cap = next(i for i, node in enumerate(network.nodes) if node.kind == "cap_bra")
    assert cap not in {step.node_index for step in plan.steps}
    nodes = list(network.nodes)
    nodes[cap] = dataclasses.replace(nodes[cap], data=np.array([1.0, 0.0], dtype=complex))
    capped = qubitwise_schedule(dataclasses.replace(network, nodes=tuple(nodes)))
    assert capped.steps[capped.step_of[cap]].node_index == cap
    assert capped.steps[capped.step_of[cap]].form == "matmul"
    assert len(plans.scheduled) == 5


def _unfolded_query(req, obs):
    """The plan-cache key and builder of obs's network without a fold."""
    middle = simulate._observable_nodes(obs)
    return ("unfolded", obs), functools.partial(simulate._schedule_one_shot, req, middle, False)


def test_plan_cache_is_bounded_by_steps_least_recent_first(plans, monkeypatch):
    req = _random_request(8, seed=4, radii=TruncationRadii(3, 3), max_width=2)
    a, b, c = (_unfolded_query(req, ObservableProduct(p)) for p in (2, 5, 8))
    sizes = [len(build().plan.steps) for _, build in (a, b, c)]
    plans.scheduled.clear()
    bound = sum(sizes) - 1
    monkeypatch.setattr(simulate, "PLAN_CACHE_STEPS", bound)
    shot_a, shot_b = plans.get(*a), plans.get(*b)
    assert plans.get(*a) is shot_a
    shot_c = plans.get(*c)
    # b was used least recently, so c's insertion evicted it.
    assert list(plans.entries.values()) == [shot_a, shot_c]
    assert plans.steps == sizes[0] + sizes[2] <= bound
    assert plans.get(*b) is not shot_b
    assert plans.steps == sum(len(s.plan.steps) for s in plans.entries.values()) <= bound
    assert len(plans.scheduled) == 4
    # A plan longer than the whole bound is never stored.
    full = _unfolded_query(req, ObservableProduct.prefix_projector("0" * 8))
    monkeypatch.setattr(simulate, "PLAN_CACHE_STEPS", len(full[1]().plan.steps) - 1)
    held = list(plans.entries.values())
    assert plans.get(*full) is not plans.get(*full)
    assert list(plans.entries.values()) == held
    assert len(plans.scheduled) == 7


def _holds_ndarray(obj) -> bool:
    if isinstance(obj, np.ndarray):
        return True
    if dataclasses.is_dataclass(obj):
        return any(_holds_ndarray(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return any(map(_holds_ndarray, obj))
    return False


def test_plan_cache_keeps_no_request_alive(plans):
    req = _random_request(10, seed=7, radii=TruncationRadii(3, 3), max_width=2)
    factor = weakref.ref(simulate._w(req).nodes[0])
    for site in range(1, 11):
        expectation(req, ObservableProduct(site), engine="plan")
    assert plans.entries
    assert not any(map(_holds_ndarray, plans.entries))
    assert not any(map(_holds_ndarray, plans.entries.values()))
    # The networks the fixture recorded hold the factors; the cache must not.
    plans.scheduled.clear()
    del req
    gc.collect()
    assert factor() is None


def test_shared_plans_are_never_written(plans):
    first, second = _family_request(11), _family_request(12)
    _, shot = _keyed(first, ObservableProduct(5))
    plan = shot.plan
    snapshot = copy.deepcopy(plan)
    rng = np.random.default_rng(9)
    for i in range(100):
        req = (first, second)[i % 2]
        site = int(rng.integers(1, 33))
        if i % 5 == 0:
            # Both requests run the snapshotted plan itself.
            obs = ObservableProduct(5)
        elif i % 3:
            obs = ObservableProduct(site)
        else:
            obs = ObservableProduct.prefix_projector(rng.integers(0, 2, site).tolist())
        expectation(req, obs, engine="plan")
    assert _keyed(first, ObservableProduct(5))[1].plan is plan
    _assert_same_plan(plan, snapshot)


def test_cli_refuses_a_w_factor_above_the_engine_cap(tmp_path, capsys):
    # The defaults (unbanded, periodic) at N=32 and xi=0.5 draw factors up
    # to the chain's width; t=1, eps=0.1 certifies radii (9,13), and a
    # width-13 matrix has 2^26 entries, above the 2^24 engine cap.  Every
    # route builds W, so the refusal gives no route advice.
    path = tmp_path / "wide.json"
    assert main(["gen", "--n", "32", "--xi", "0.5", "--seed", "1", "--out", str(path)]) == EXIT_OK
    capsys.readouterr()
    argv = ["sample", "--instance", str(path), "--t", "1", "--eps", "0.1", "--samples", "2"]
    assert main(argv) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(
        r"error: constituent \(\d+,13\) is a 2\^13 x 2\^13 matrix of 1073741824 bytes, "
        r"above the engine cap of 268435456 bytes\n",
        captured.err,
    )


def test_w_refuses_an_oversized_factor_before_drawing_it():
    # Drawing the width-13 factors took a 10 GiB index array; the refusal
    # comes first, in well under a second and 100 MiB.
    inst = build_random_instance(InstanceParams(32, 0.5), seed=1, max_body=6)
    req = SimulationRequest.certified(inst, 1.0, 0.1)
    assert req.radii == TruncationRadii(9, 13)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(FeasibilityError, match=r"constituent \(\d+,13\) .* engine cap"):
            sample(req, 2, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 100 * 2**20
