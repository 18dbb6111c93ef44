"""Tests for the 2D-grid hard-instance family and its mapping check."""

import json
import math

import numpy as np
import pytest

from liomsim import hardness, model, oracle
from liomsim.errors import DomainError
from liomsim.hardness import (
    HADAMARD,
    HardnessSpec,
    build_iqp_instance,
    grid_edges,
    hardness_time,
    two_d_state,
    verify_2d_mapping,
)
from liomsim.model import (
    CouplingIndex,
    dense_unitary,
    instance_from_json,
    instance_to_json,
    validate_instance,
)
from liomsim.oracle import exact_distribution
from liomsim.simulate import ObservableProduct, SimulationRequest, expectation
from liomsim.truncation import TruncationRadii


def test_spec_validation():
    spec = HardnessSpec(rows=2, cols=3, xi=1.0)
    assert spec.n_sites == 6
    with pytest.raises(DomainError):
        HardnessSpec(rows=0, cols=3, xi=1.0)
    with pytest.raises(DomainError):
        HardnessSpec(rows=2, cols=2, xi=1.5)
    square = HardnessSpec.square(9, xi=1.0)
    assert (square.rows, square.cols) == (3, 3)
    with pytest.raises(DomainError):
        HardnessSpec.square(8, xi=1.0)


def test_grid_edges_small_cases():
    assert grid_edges(2, 2) == ((1, 2), (1, 3), (2, 4), (3, 4))
    assert grid_edges(2, 3) == (
        (1, 2),
        (1, 4),
        (2, 3),
        (2, 5),
        (3, 6),
        (4, 5),
        (5, 6),
    )
    assert grid_edges(1, 4) == ((1, 2), (2, 3), (3, 4))


def test_grid_edges_5x5_counts():
    edges = grid_edges(5, 5)
    horizontal = [e for e in edges if e[1] - e[0] == 1]
    vertical = [e for e in edges if e[1] - e[0] == 5]
    assert len(horizontal) == 20
    assert len(vertical) == 20
    assert len(edges) == 40
    # No edge crosses a row boundary.
    assert all((i - 1) // 5 == (j - 1) // 5 for i, j in horizontal)


def test_grid_position():
    hard = build_iqp_instance(HardnessSpec(rows=3, cols=3, xi=1.0))
    assert hard.grid_position(1) == (1, 1)
    assert hard.grid_position(5) == (2, 2)
    assert hard.grid_position(9) == (3, 3)
    with pytest.raises(DomainError):
        hard.grid_position(10)


def test_instance_couplings_and_fields():
    spec = HardnessSpec(rows=3, cols=3, xi=1.0, field_seed=4)
    hard = build_iqp_instance(spec)
    inst = hard.instance
    magnitude = math.exp(-3.0)
    for i, j in hard.edges:
        assert inst.coupling(CouplingIndex((i, j))) == -magnitude
    scale = math.exp(3.0)
    reps = {round(scale * h, 12) for h in hard.h_fields}
    assert reps <= {1.0, 1.5}
    for i in range(1, 10):
        assert inst.coupling(CouplingIndex((i,))) == hard.h_fields[i - 1]
    # Nothing outside the grid tables.
    assert inst.coupling(CouplingIndex((1, 9))) == 0.0
    assert inst.coupling(CouplingIndex((1, 2, 3))) == 0.0
    assert validate_instance(inst) == []


def test_field_values_are_deterministic_and_varied():
    spec = HardnessSpec(rows=3, cols=3, xi=1.0, field_seed=4)
    again = build_iqp_instance(spec)
    assert build_iqp_instance(spec).h_fields == again.h_fields
    other = build_iqp_instance(HardnessSpec(rows=3, cols=3, xi=1.0, field_seed=5))
    assert other.h_fields != again.h_fields
    # Across seeds both representatives occur.
    seen = set()
    scale = math.exp(3.0)
    for seed in range(8):
        hard = build_iqp_instance(HardnessSpec(rows=3, cols=3, xi=1.0, field_seed=seed))
        seen.update(round(scale * h, 12) for h in hard.h_fields)
    assert seen == {1.0, 1.5}


def test_constituents_are_hadamard_layer():
    hard = build_iqp_instance(HardnessSpec(rows=2, cols=2, xi=1.0))
    inst = hard.instance
    for site in range(1, 5):
        np.testing.assert_array_equal(inst.constituent(site, 1).matrix, HADAMARD)
    # The Hadamards are U's only factors; no other position is read.
    assert inst.constituent_support == ((1, 1), (2, 1), (3, 1), (4, 1))
    for start in (1, 3):
        with pytest.raises(DomainError, match=rf"\({start},2\) is not a factor of U"):
            inst.constituent(start, 2)
    u = dense_unitary(inst)
    layer = HADAMARD
    for _ in range(3):
        layer = np.kron(layer, HADAMARD)
    np.testing.assert_allclose(u, layer, atol=1e-12)


def test_lioms_are_sigma_x():
    hard = build_iqp_instance(HardnessSpec(rows=2, cols=2, xi=1.0))
    u = dense_unitary(hard.instance)
    n = 4
    z1 = np.diag([1.0 - 2.0 * ((z >> (n - 1)) & 1) for z in range(2**n)])
    tau = u @ z1 @ u.conj().T
    x1 = np.kron(np.array([[0, 1], [1, 0]]), np.eye(8))
    np.testing.assert_allclose(tau, x1, atol=1e-12)


def test_hardness_time_values():
    assert hardness_time(4, 1.0) == pytest.approx(5.803351089340847, rel=1e-12)
    assert hardness_time(25, 1.0) == pytest.approx(116.56342258317694, rel=1e-12)
    assert hardness_time(4, 1.0) == pytest.approx(math.pi * math.e**2 / 4, rel=1e-12)
    hard = build_iqp_instance(HardnessSpec.square(4, xi=1.0))
    assert hard.time == pytest.approx(hardness_time(4, 1.0), rel=1e-15)
    with pytest.raises(DomainError):
        hardness_time(0, 1.0)
    with pytest.raises(DomainError):
        hardness_time(4, 0.0)


def test_two_d_state_is_flat_iqp():
    spec = HardnessSpec(rows=2, cols=2, xi=1.0)
    hard = build_iqp_instance(spec)
    state = two_d_state(spec, hard.h_fields)
    assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(np.abs(state), 0.25, atol=1e-12)


def test_mapping_passes_at_desk_scale():
    for n in (4, 9):
        report = verify_2d_mapping(HardnessSpec.square(n, xi=1.0))
        assert report.passed
        assert report.fidelity >= 1 - 1e-9
        assert report.n_sites == n
        assert report.leading_1d == () and report.leading_2d == ()


def test_mapping_negative_control():
    report = verify_2d_mapping(HardnessSpec.square(9, xi=1.0), perturb_site=1)
    assert not report.passed
    assert report.fidelity < 1 - 1e-6
    assert len(report.leading_1d) == 5
    assert len(report.leading_2d) == 5
    payload = report.to_jsonable()
    json.dumps(payload)
    assert payload["passed"] is False
    assert len(payload["leading_1d"]) == 5


def test_mapping_guards(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a state was built before the cap was checked")

    monkeypatch.setattr(hardness, "apply_to_state", refused)
    monkeypatch.setattr(oracle, "apply_to_state", refused)
    with pytest.raises(DomainError, match="N=25 exceeds the state cap of 22 sites"):
        verify_2d_mapping(HardnessSpec.square(25, xi=1.0))
    with pytest.raises(DomainError, match="N=25 exceeds the state cap"):
        two_d_state(HardnessSpec.square(25, xi=1.0), (0.0,) * 25)
    with pytest.raises(DomainError):
        verify_2d_mapping(HardnessSpec.square(4, xi=1.0), perturb_site=5)


def test_mapping_walks_only_the_hadamards(monkeypatch):
    # The family lists its factors, the N Hadamards, so the 1D evolution
    # fetches those alone, in the order of the placement walk.
    spec = HardnessSpec.square(9, xi=1.0)
    inst = build_iqp_instance(spec).instance
    assert [(c.start_site, c.width) for c in model.nonidentity_constituents(inst)] == [
        (site, 1) for site in range(1, 10)
    ]
    lookups = []
    constituents_at = model.MblInstance.constituents_at

    def counted(self, positions):
        positions = list(positions)
        lookups.extend(positions)
        return constituents_at(self, positions)

    monkeypatch.setattr(model.MblInstance, "constituents_at", counted)
    for perturb_site in (None, 4):
        lookups.clear()
        verify_2d_mapping(spec, perturb_site=perturb_site)
        assert lookups == [(site, 1) for site in range(1, 10)]


def test_mapping_passes_on_a_4x4_grid():
    # Sixteen sites: the factored 1D evolution holds 2^16-entry states and
    # no 2^16 x 2^16 matrix.
    report = verify_2d_mapping(HardnessSpec.square(16, xi=1.0))
    assert report.passed and report.n_sites == 16
    assert report.fidelity >= 1 - 1e-9
    control = verify_2d_mapping(HardnessSpec.square(16, xi=1.0), perturb_site=6)
    assert not control.passed
    assert control.fidelity < 1 - 1e-6


def test_iqp_instance_json_roundtrip():
    spec = HardnessSpec(rows=2, cols=3, xi=1.0, field_seed=2)
    hard = build_iqp_instance(spec)
    text = instance_to_json(hard.instance)
    rebuilt = instance_from_json(text)
    assert instance_to_json(rebuilt) == text
    assert set(rebuilt.coupling_support) == set(hard.instance.coupling_support)
    for sites in hard.instance.coupling_support:
        assert rebuilt.coupling(CouplingIndex(sites)) == hard.instance.coupling(
            CouplingIndex(sites)
        )
    np.testing.assert_array_equal(
        rebuilt.constituent(2, 1).matrix, hard.instance.constituent(2, 1).matrix
    )


def test_sampling_matches_oracle_on_hard_instance():
    hard = build_iqp_instance(HardnessSpec.square(4, xi=1.0, field_seed=1))
    n = 4
    req = SimulationRequest(
        instance=hard.instance,
        t=hard.time,
        epsilon=0.5,
        radii=TruncationRadii(n, n),
    )
    dist = exact_distribution(hard.instance, hard.time)
    for z in range(2**n):
        bits = format(z, f"0{n}b")
        obs = ObservableProduct.prefix_projector(bits)
        for engine in ("dense", "plan"):
            assert expectation(req, obs, engine=engine) == pytest.approx(
                dist.probability(bits), abs=1e-10
            )
