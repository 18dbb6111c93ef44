"""Tests for the MPS of W|0> and the plan-route conditionals read off it."""

import functools

import numpy as np
import pytest

from liomsim import mps as mps_module
from liomsim.errors import FeasibilityError, StructuralError
from liomsim.model import InstanceParams, apply_to_state, build_random_instance
from liomsim.mps import build_mps, commuting_runs, prefix_pair
from liomsim.simulate import (
    MPS_MIN_PREFIX,
    ObservableProduct,
    SimulationRequest,
    _evolved_tensor,
    _light_cone_pair,
    _w_nodes,
    _w_runs,
    conditional_chain,
    conditional_probability,
    expectation,
    sample,
)
from liomsim.tensor import PlacedTensor
from liomsim.truncation import TruncationRadii


def _amplitudes(state):
    """The dense (2,)*N amplitudes of an MPS."""
    out = state.tensors[0]
    for a in state.tensors[1:]:
        out = np.tensordot(out, a, axes=1)
    return out.reshape((2,) * len(state.tensors))


def _unitary(rng, dim):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize(
    "n, seed, radii, build_kwargs",
    [
        (8, 3, TruncationRadii(3, 3), {"periodic": False}),
        (10, 5, TruncationRadii(4, 3), {"max_width": 2, "periodic": False}),
        (6, 7, TruncationRadii(6, 6), {"periodic": False}),
    ],
)
def test_mps_of_w_matches_the_dense_walk(n, seed, radii, build_kwargs):
    inst = build_random_instance(InstanceParams(n, 0.5), seed=seed, max_body=3, **build_kwargs)
    req = SimulationRequest(instance=inst, t=1.3, epsilon=0.5, radii=radii)
    state = build_mps(n, _w_nodes(req), _w_runs(req))
    np.testing.assert_allclose(_amplitudes(state), _evolved_tensor(req), rtol=0, atol=1e-13)
    # Right-canonical from site 2 on, normalised on site 1.
    for a in state.tensors[1:]:
        m = a.reshape(a.shape[0], -1)
        np.testing.assert_allclose(m @ m.conj().T, np.eye(a.shape[0]), rtol=0, atol=1e-13)
    assert np.linalg.norm(state.tensors[0]) == pytest.approx(1.0, abs=1e-14)
    assert len(state.bonds) == n - 1 and max(state.bonds) <= 2 ** (n // 2)


def test_factors_on_contiguous_sites_out_of_order_are_permuted():
    rng = np.random.default_rng(0)
    n = 5
    nodes = [
        PlacedTensor("a", "gate", (2, 1), _unitary(rng, 4)),
        PlacedTensor("b", "gate", (4, 2, 3), _unitary(rng, 8)),
        PlacedTensor("v", "diag", (5, 3, 4), np.exp(1j * rng.normal(size=8))),
        PlacedTensor("c", "gate", (5, 4), _unitary(rng, 4)),
        PlacedTensor("d", "gate", (1,), _unitary(rng, 2)),
    ]
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for node in nodes:
        if node.kind == "gate":
            psi = apply_to_state(node.data, node.sites, psi, n)
        else:
            # Diagonal entry (z5, z3, z4) on the state's axes 3, 4, 5.
            psi = psi * node.data.reshape(2, 2, 2).transpose(1, 2, 0).reshape(1, 1, 2, 2, 2)
    state = build_mps(n, nodes, commuting_runs(nodes))
    np.testing.assert_allclose(_amplitudes(state), psi, rtol=0, atol=1e-13)
    for bits in ([], [1], [0, 1, 1], [1, 0, 0, 1]):
        sub = np.abs(psi[tuple(bits)]) ** 2
        want = (sub[0].sum(), sub[1].sum())
        np.testing.assert_allclose(prefix_pair(state, bits), want, atol=1e-14)


def test_build_refuses_wrapped_factors_and_oversized_blocks(monkeypatch):
    wrapped = PlacedTensor("w", "gate", (4, 1), np.eye(4, dtype=complex))
    with pytest.raises(StructuralError, match=r"\(4, 1\), which are not contiguous"):
        build_mps(4, [wrapped], [range(1)])
    wide = PlacedTensor("g", "gate", (1, 2, 3), np.eye(8, dtype=complex))
    monkeypatch.setattr(mps_module, "MAX_EXEC_AXES", 2)
    with pytest.raises(FeasibilityError, match=r"sites 1..3 has 1 \* 2\^3 \* 1 entries"):
        build_mps(3, [wide], [range(1)])


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


def _cross_check(req, bits, sites):
    """Each plan-route conditional of a prefix of bits against the
    qubit-wise light cone, and its route against the prefix weight:
    the MPS well above MPS_MIN_PREFIX, the light cone well below it.
    Returns the routes taken and the prefix weights."""
    routes, weights = [], []
    for site in sites:
        prefix = bits[: site - 1]
        got = conditional_probability(req, prefix, site, engine="plan")
        route = req._cache["conditional_route"]
        v0, v1 = (v.real for v in _light_cone_pair(req, prefix, site))
        assert got == pytest.approx(v0 / (v0 + v1), abs=1e-12), (site, route)
        if v0 + v1 > 2 * MPS_MIN_PREFIX:
            assert route == "mps", site
        elif v0 + v1 < MPS_MIN_PREFIX / 2:
            assert route.startswith("P(prefix) = ") and "below 1.000e-08" in route, site
        routes.append(route)
        weights.append(v0 + v1)
    return routes, weights


@pytest.mark.parametrize("n", [32, 64])
def test_mps_conditionals_match_the_light_cone_on_the_criterion_6_family(n):
    req = _criterion_6_request(n)
    rng = np.random.default_rng(n)
    routes = []
    for one in (0.1, 0.5):
        bits = (rng.random(n) < one).astype(int).tolist()
        routes += _cross_check(req, bits, range(1, n + 1, 1 if n == 32 else 3))[0]
    assert routes.count("mps") >= len(routes) // 3


def test_mps_conditionals_match_the_light_cone_on_the_expect_plan_family():
    # Typical prefixes (bits 1 with probability 0.1, as the benchmark draws
    # them) are read off the MPS; uniform prefixes of weight below 1e-20
    # lie far below MPS_MIN_PREFIX and take the light cone.
    rng = np.random.default_rng(7)
    for seed in (11, 12):
        req = _family_request(seed)
        for _ in range(2):
            bits = (rng.random(32) < 0.1).astype(int).tolist()
            routes, _ = _cross_check(req, bits, range(2, 33, 2))
            assert routes.count("mps") >= 12
        tiny = 0
        while tiny < 3:
            _, weights = _cross_check(req, rng.integers(0, 2, 32).tolist(), [28, 32])
            tiny += sum(w < 1e-20 for w in weights)
    # P(prefix) = 3.5e-17: read off the MPS, this conditional was 1.1e-10
    # from the light cone's, which two other contractions matched to 2e-16.
    routes, weights = _cross_check(_family_request(11), [int(b) for b in "0111110111111"], [14])
    assert routes[0] != "mps" and weights[0] < 1e-16


def test_wrapped_periodic_instance_takes_the_light_cone():
    # The request of test_wrapped_periodic_instance_runs_on_the_plan_route:
    # a constituent wraps past site N, so the MPS is refused and every
    # plan-route conditional takes the light cone.
    inst = build_random_instance(InstanceParams(4, 0.5), seed=3, max_body=3)
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(1, 2))
    for bits in ("000", "101", "110"):
        for site in range(1, 5):
            plan = conditional_probability(req, bits[: site - 1], site, engine="plan")
            dense = conditional_probability(req, bits[: site - 1], site, engine="dense")
            assert plan == pytest.approx(dense, abs=1e-12)
            assert req._cache["mps"] is None
            assert "not contiguous (it wraps past site N)" in req._cache["conditional_route"]


def test_an_oversized_block_takes_the_light_cone(monkeypatch):
    req = _family_request(11)
    fresh = SimulationRequest(req.instance, req.t, req.epsilon, req.radii)
    monkeypatch.setattr(mps_module, "MAX_EXEC_AXES", 6)
    bits = [0] * 20
    got = conditional_probability(fresh, bits, 21, engine="plan")
    assert fresh._cache["mps"] is None
    assert "above the 2^6 engine cap" in fresh._cache["conditional_route"]
    v0, v1 = (v.real for v in _light_cone_pair(fresh, bits, 21))
    assert got == pytest.approx(v0 / (v0 + v1), abs=1e-15)


def test_only_plan_route_conditionals_build_the_mps():
    inst = build_random_instance(
        InstanceParams(12, 0.5), seed=12, max_body=2, max_width=2, periodic=False
    )
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(3, 3))
    for engine in ("plan", "dense"):
        expectation(req, ObservableProduct(5), engine=engine)
        expectation(req, ObservableProduct.prefix_projector("0110"), engine=engine)
        conditional_chain(req, seed=1, engine=engine)
        sample(req, 3, seed=2, engine=engine)
        conditional_probability(req, "01", 3, engine="dense")
    assert "mps" not in req._cache and "conditional_route" not in req._cache
    conditional_probability(req, "01", 3, engine="plan")
    assert req._cache["conditional_route"] == "mps"
    assert len(req._cache["mps"].tensors) == 12


def test_mps_reports_its_bonds_and_dropped_weight():
    # Criterion-6 family at N=32: the dropped weight was 5.1e-29 to
    # 5.7e-29 where measured, and the bond dimension 42.
    req = _criterion_6_request(32)
    conditional_probability(req, [0] * 15, 16, engine="plan")
    state = req._cache["mps"]
    assert 0 < state.delta < 1e-26
    assert max(state.bonds) <= 64 and len(state.bonds) == 31
    assert req._cache["conditional_route"] == "mps"
    # Another request's MPS takes its place; the figures stay readable.
    conditional_probability(_criterion_6_request(64), [0] * 15, 16, engine="plan")
    assert "mps" not in req._cache
    assert req._cache["mps_bonds"] == state.bonds
    assert req._cache["mps_delta"] == state.delta


def test_the_process_holds_one_mps_and_rebuilds_it_bit_for_bit():
    first, second = _family_request(11), _family_request(12)
    bits = [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0]
    values = [conditional_probability(first, bits[: k - 1], k, engine="plan") for k in (4, 16)]
    state = first._cache["mps"]
    assert conditional_probability(second, bits, 16, engine="plan") > 0
    assert "mps" not in first._cache and second._cache["mps"] is not None
    again = [conditional_probability(first, bits[: k - 1], k, engine="plan") for k in (4, 16)]
    assert [v.hex() for v in again] == [v.hex() for v in values]
    rebuilt = first._cache["mps"]
    assert rebuilt is not state and rebuilt.delta == state.delta
    assert all(np.array_equal(a, b) for a, b in zip(rebuilt.tensors, state.tensors))
    assert "mps" not in second._cache
