"""Tests for site blocks, expectation engines, and chain-rule sampling."""

import itertools
import math

import numpy as np
import pytest

from reference import naive_network_value

from liomsim.errors import DomainError
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
    assert obs.pivot_site == 3
    assert obs.projectors == ((1, 0), (2, 1))
    assert obs.pivot_kind == "proj0"
    assert obs.is_projector
    assert obs.support() == (1, 2, 3)
    with pytest.raises(DomainError):
        ObservableProduct(0)
    with pytest.raises(DomainError):
        ObservableProduct(2, pivot_kind="proj2")
    with pytest.raises(DomainError):
        ObservableProduct(2, projectors=((2, 0),))
    with pytest.raises(DomainError):
        ObservableProduct(2, projectors=((1, 3),))
    with pytest.raises(DomainError):
        ObservableProduct(2, rotations=((1, np.eye(3)),))
    with pytest.raises(DomainError):
        ObservableProduct.prefix_projector("")


def test_request_validation_and_cache():
    req = _random_request(3, seed=1)
    assert req.trunc is req.trunc
    assert req.n_sites == 3
    with pytest.raises(DomainError):
        SimulationRequest(req.instance, t=-1.0, epsilon=0.5, radii=req.radii)
    with pytest.raises(DomainError):
        SimulationRequest(req.instance, t=1.0, epsilon=0.0, radii=req.radii)


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
        for s in block.window():
            shape[s - 1] = 2
        acc = acc * block.phases.reshape(shape)
    diag = sigma_diagonal(req.trunc.instance, req.radii.r_j)
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
    assert blocks[1].trivial


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
        p1 = expectation(req, ObservableProduct(1, pivot_kind="proj1"))
        assert p1 == pytest.approx(math.sin(t) ** 2, abs=1e-12)
        z = expectation(req, ObservableProduct(1))
        assert z == pytest.approx(math.cos(2 * t), abs=1e-12)
        for engine in ("plan", "dense"):
            assert expectation(
                req, ObservableProduct(1, pivot_kind="proj1"), engine=engine
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
    ObservableProduct(3, pivot_kind="proj0"),
    ObservableProduct.prefix_projector("010"),
    ObservableProduct(2, projectors=((1, 1),), pivot_kind="proj1"),
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
    obs = ObservableProduct(1, pivot_kind="proj0")
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
