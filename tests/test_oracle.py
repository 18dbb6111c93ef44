import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from liomsim import model, oracle
from liomsim.errors import FeasibilityError, NumericalIntegrityError
from liomsim.hardness import HardnessSpec, build_iqp_instance
from liomsim.model import (
    InstanceParams,
    build_explicit_instance,
    build_random_instance,
    dense_hamiltonian,
)
from liomsim.oracle import (
    OutcomeDistribution,
    evolve_factored,
    evolve_state,
    exact_distribution,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)


def test_evolve_t0_is_initial_state():
    params = InstanceParams(3, 0.5)
    inst = build_random_instance(params, seed=0, max_body=2)
    state = evolve_state(inst, 0.0)
    expect = np.zeros(8)
    expect[0] = 1.0
    np.testing.assert_allclose(state, expect, atol=1e-12)


def test_evolution_matches_expm():
    params = InstanceParams(4, 0.5)
    inst = build_random_instance(params, seed=8, max_body=3)
    h = dense_hamiltonian(inst)
    for t in (0.3, 2.0, 17.0):
        psi0 = np.zeros(16, dtype=complex)
        psi0[0] = 1.0
        ref = expm(-1j * t * h) @ psi0
        got = evolve_state(inst, t)
        np.testing.assert_allclose(got, ref, atol=1e-10)


def test_evolution_norm_preserved():
    params = InstanceParams(5, 0.4)
    inst = build_random_instance(params, seed=4, max_body=3)
    for t in (0.1, 1.0, 100.0, 1e5):
        state = evolve_state(inst, t)
        assert abs(np.linalg.norm(state) - 1.0) < 1e-10


def test_identity_u_point_mass():
    params = InstanceParams(3, 0.5)
    inst = build_explicit_instance(params, {(1,): 0.2, (1, 2): -0.05}, {})
    dist = exact_distribution(inst, 5.0)
    assert dist.probability("000") == pytest.approx(1.0, abs=1e-12)


def test_n1_hadamard_sine_squared():
    # tau^z = H sigma^z H = sigma^x, so P(1) = sin^2(J t)
    params = InstanceParams(1, 0.5, q_const=4.0)
    inst = build_explicit_instance(params, {(1,): 1.0}, {(1, 1): HADAMARD})
    for t in (0.3, 1.2, 4.0):
        dist = exact_distribution(inst, t)
        assert dist.probability("1") == pytest.approx(np.sin(t) ** 2, abs=1e-10)


def test_distribution_tvd_and_total_mass():
    params = InstanceParams(4, 0.5)
    inst = build_random_instance(params, seed=2, max_body=2)
    d1 = exact_distribution(inst, 1.0)
    d2 = exact_distribution(inst, 1.0, r_j=2, r_u=2)
    assert d1.probabilities.sum() == pytest.approx(1.0, abs=1e-9)
    assert d1.tvd(d1) == 0.0
    assert 0.0 <= d1.tvd(d2) <= 1.0


def test_oversized_n_refused(monkeypatch):
    monkeypatch.setenv("LIOMSIM_MAX_DENSE_N", "3")
    params = InstanceParams(4, 0.5)
    inst = build_random_instance(params, seed=0, max_body=2)
    with pytest.raises(FeasibilityError):
        evolve_state(inst, 1.0)
    with pytest.raises(FeasibilityError):
        exact_distribution(inst, 1.0)


def test_oracle_refuses_above_its_cap_before_building(monkeypatch):
    # N=13 is within the dense cap of 14, but one 2^13 x 2^13 complex
    # Hamiltonian takes 1 GiB and eigh holds several.
    inst = build_random_instance(InstanceParams(13, 0.5), seed=0, max_body=2)

    def refused(*args, **kwargs):
        raise AssertionError("the Hamiltonian was built before the cap was checked")

    monkeypatch.setattr(oracle, "dense_hamiltonian", refused)
    message = r"1073741824 bytes per matrix; N=13 exceeds the oracle cap of 12 sites"
    with pytest.raises(FeasibilityError, match=message):
        evolve_state(inst, 1.0)
    with pytest.raises(FeasibilityError, match=message):
        exact_distribution(inst, 1.0)


def test_outcome_distribution_lookup():
    probs = np.array([0.5, 0.25, 0.125, 0.125])
    dist = OutcomeDistribution(2, probs)
    assert dist.probability("00") == 0.5
    assert dist.probability("11") == 0.125
    other = OutcomeDistribution(2, probs[::-1].copy())
    # 0.5 * (|0.5-0.125| + |0.25-0.125| + |0.125-0.25| + |0.125-0.5|) = 0.5
    assert other.tvd(dist) == pytest.approx(0.5)
    assert dist.tvd(dist) == 0.0


# The two oracles share no evolution code: evolve_state diagonalises the
# dense Hamiltonian, evolve_factored applies U e^{-iDt} U^dag to a state.
CROSS_CHECK_RADII = (None, (2, 2), (3, 2))


@pytest.mark.parametrize(
    "n, periodic, max_body", [(6, True, 2), (7, False, 3), (8, True, 3)]
)
def test_factored_oracle_matches_eigh(n, periodic, max_body):
    inst = build_random_instance(
        InstanceParams(n, 0.5), seed=n, max_body=max_body, periodic=periodic
    )
    if periodic:
        assert any(
            cons.sites[-1] < cons.sites[0] for cons in model.nonidentity_constituents(inst, 2)
        )
    for radii in CROSS_CHECK_RADII:
        r_j, r_u = radii or (None, None)
        for t in (0.0, 0.7, 10.0):
            np.testing.assert_allclose(
                evolve_factored(inst, t, r_j=r_j, r_u=r_u),
                evolve_state(inst, t, r_j=r_j, r_u=r_u),
                rtol=0,
                atol=1e-12,
            )


def test_factored_oracle_matches_eigh_at_n10():
    inst = build_random_instance(InstanceParams(10, 0.5), seed=10, max_body=2, periodic=False)
    np.testing.assert_allclose(
        evolve_factored(inst, 10.0, r_j=3, r_u=2),
        evolve_state(inst, 10.0, r_j=3, r_u=2),
        rtol=0,
        atol=1e-12,
    )


def test_factored_oracle_matches_eigh_on_the_hardness_instance():
    hard = build_iqp_instance(HardnessSpec(rows=3, cols=3, xi=1.0, field_seed=2))
    support = hard.instance.coupling_support
    table = dict(zip(support, hard.instance.coupling_values(support).tolist()))
    table[(4,)] *= 1.01
    perturbed = dataclasses.replace(
        hard.instance,
        couplings=lambda indices: np.array([table.get(sites, 0.0) for sites in indices]),
    )
    for inst in (hard.instance, perturbed):
        np.testing.assert_allclose(
            evolve_factored(inst, hard.time),
            evolve_state(inst, hard.time),
            rtol=0,
            atol=1e-12,
        )


def test_factored_oracle_refuses_a_non_unitary_result():
    params = InstanceParams(3, 0.5)
    inst = build_explicit_instance(
        params, {(1,): 0.3}, {(2, 1): 1.5 * np.eye(2)}, validate=False
    )
    with pytest.raises(NumericalIntegrityError, match="factored evolution lost unitarity"):
        evolve_factored(inst, 1.0)


def _refuse_state_work(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a state was built before the cap was checked")

    monkeypatch.setattr(oracle, "apply_to_state", refused)
    monkeypatch.setattr(oracle, "sigma_diagonal", refused)


def test_factored_oracle_refuses_above_the_state_cap_before_building(monkeypatch):
    _refuse_state_work(monkeypatch)
    inst = build_random_instance(InstanceParams(23, 0.5), seed=0, max_body=2)
    message = r"134217728 bytes; N=23 exceeds the state cap of 22 sites \(67108864 bytes\)"
    with pytest.raises(FeasibilityError, match=message):
        evolve_factored(inst, 1.0)
    with pytest.raises(FeasibilityError, match="state cap of 22 sites"):
        model.sigma_diagonal(inst)


def test_factored_oracle_refuses_wide_constituents_and_supports_before_building(monkeypatch):
    # A 2^8-entry state cap: a width-4 constituent (2^4 x 2^4 = 2^8
    # entries) is applied, a width-5 one is refused by its placement.
    monkeypatch.setattr(model, "MAX_STATE_N", 8)
    params = InstanceParams(6, 0.5, q_const=4.0)
    phases = {w: np.diag(np.exp(1j * np.linspace(0.0, 0.1, 2**w))) for w in (4, 5)}
    fits = build_explicit_instance(params, {(1,): 0.3}, {(2, 4): phases[4]}, validate=False)
    np.testing.assert_allclose(evolve_factored(fits, 1.0), evolve_state(fits, 1.0), atol=1e-12)
    wide = build_explicit_instance(params, {(1,): 0.3}, {(2, 5): phases[5]}, validate=False)
    _refuse_state_work(monkeypatch)
    with pytest.raises(FeasibilityError, match=r"constituent \(2,5\) is a 2\^5 x 2\^5 matrix"):
        evolve_factored(wide, 1.0)
    # Six sites, max_body 2: 21 coupling indices x 2^6 entries > 2^8.
    dense_support = build_random_instance(params, seed=0, max_body=2)
    with pytest.raises(FeasibilityError, match=r"21 coupling indices x 2\^6 = 1344 entries"):
        evolve_factored(dense_support, 1.0)
