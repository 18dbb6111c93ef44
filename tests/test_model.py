import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import block_trivial

from liomsim import model
from liomsim.errors import DomainError, FeasibilityError, NumericalIntegrityError
from liomsim.model import (
    CouplingIndex,
    InstanceParams,
    apply_to_state,
    build_explicit_instance,
    build_random_instance,
    constituent_positions,
    dense_hamiltonian,
    dense_liom,
    dense_unitary,
    instance_from_json,
    instance_to_json,
    nonidentity_constituents,
    placement_sites,
    sigma_diagonal,
    validate_instance,
)
from liomsim.complexity import ComplexityQuery
from liomsim.hardness import HardnessSpec
from liomsim.simulate import ObservableProduct, SimulationRequest, expectation, site_blocks
from liomsim.truncation import TruncationRadii, truncate


# Each public integer input, as a call taking its value.
_INTEGER_INPUTS = {
    "r_J": lambda v: TruncationRadii(v, 3),
    "r_U": lambda v: TruncationRadii(3, v),
    "rows": lambda v: HardnessSpec(v, 2, 0.5),
    "cols": lambda v: HardnessSpec(2, v, 0.5),
    "field_seed": lambda v: HardnessSpec(2, 2, 0.5, field_seed=v),
    "n_sites": lambda v: ComplexityQuery(v, 1.0, 0.2, 0.1),
    "max_body": lambda v: build_random_instance(InstanceParams(4, 0.5), seed=1, max_body=v),
    "max_width": lambda v: build_random_instance(
        InstanceParams(4, 0.5), seed=1, max_body=2, max_width=v
    ),
}


@pytest.mark.parametrize("what", list(_INTEGER_INPUTS))
def test_integer_inputs_take_numpy_integers_and_refuse_the_rest(what):
    # These inputs used to take True as 1, truncate 2.5 to 2 or keep it,
    # and (the radii) refuse numpy integers.
    make = _INTEGER_INPUTS[what]
    make(np.int64(2))
    for bad in (True, 2.5, 2.0, "2"):
        with pytest.raises(DomainError, match=re.escape(f"{what} must be an integer, got {bad!r}")):
            make(bad)


def test_constituents_compare_by_identity():
    # Equal-valued constituents of two instances of one seed used to raise
    # on ==, which compared their matrices, and on hash().
    params = InstanceParams(4, 0.5)
    a, b = (build_random_instance(params, seed=3, max_body=2).constituent(1, 2) for _ in range(2))
    np.testing.assert_array_equal(a.matrix, b.matrix)
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_params_validation():
    InstanceParams(4, 0.5)
    with pytest.raises(DomainError):
        InstanceParams(0, 0.5)
    with pytest.raises(DomainError):
        InstanceParams(4, 1.5)  # above 1/ln 2
    with pytest.raises(DomainError):
        InstanceParams(4, -0.1)
    with pytest.raises(DomainError):
        InstanceParams(4, 0.5, q_const=0.5)


def test_coupling_index():
    idx = CouplingIndex((2, 5, 7))
    assert idx.order == 3
    assert idx.range == 5
    assert idx.min_site == 2
    with pytest.raises(DomainError):
        CouplingIndex((3, 3))
    with pytest.raises(DomainError):
        CouplingIndex((5, 2))
    with pytest.raises(DomainError):
        CouplingIndex(())


def test_placement_enumeration_order_n4():
    # width-major enumeration: all n=1 blocks, then n=2 offset 1, offset 2, ...
    got = [(width, start) for start, width in constituent_positions(4)]
    assert got == [
        (1, 1), (1, 2), (1, 3), (1, 4),
        (2, 1), (2, 3), (2, 2), (2, 4),
        (3, 1), (3, 2), (3, 3),
        (4, 1), (4, 2), (4, 3), (4, 4),
    ]


def test_nonidentity_walk_over_listed_positions_keeps_product_order():
    # An explicit instance's factors are the positions it lists, wrapped
    # ones among them ((3, 4) and (4, 4) on N=5), walked in product order;
    # any other position is refused.
    rng = np.random.default_rng(6)
    positions = [(1, 1), (4, 1), (1, 2), (2, 2), (3, 2), (4, 2), (3, 3), (2, 4), (3, 4), (4, 4)]
    tables = {}
    for start, width in positions:
        dim = 2**width
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        tables[(start, width)] = q
    inst = build_explicit_instance(InstanceParams(5, 0.5), {}, tables, validate=False)
    assert inst.constituent_support == tuple(sorted(positions))
    for top in (None, 1, 2, 3, 4):
        want = [
            inst.constituent(k, w) for k, w in constituent_positions(5, top) if (k, w) in tables
        ]
        got = nonidentity_constituents(inst, top)
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
    assert [c.sites for c in nonidentity_constituents(inst, 4)[-2:]] == [(3, 4, 5, 1), (4, 5, 1, 2)]
    for start, width in ((2, 1), (1, 3), (5, 2)):
        with pytest.raises(DomainError, match=rf"\({start},{width}\) is not a factor of U"):
            inst.constituent(start, width)


def test_placement_wrap_sites():
    # a block hanging over the chain end continues from site 1
    assert placement_sites(6, 5, 3) == (5, 6, 1)
    assert placement_sites(6, 2, 3) == (2, 3, 4)


def test_random_instance_deterministic():
    params = InstanceParams(5, 0.5)
    a = build_random_instance(params, seed=3, max_body=3)
    b = build_random_instance(params, seed=3, max_body=3)
    for sites in [(1,), (2, 4), (1, 3, 5)]:
        assert a.coupling(sites) == b.coupling(sites)
    for start, width in [(1, 1), (2, 2), (3, 3)]:
        np.testing.assert_array_equal(
            a.constituent(start, width).matrix, b.constituent(start, width).matrix
        )
    c = build_random_instance(params, seed=4, max_body=3)
    assert any(a.coupling(s) != c.coupling(s) for s in [(1,), (2,), (1, 5)])


def test_constituent_closeness_exact():
    # ||1 - U||^2 must equal (q/2) e^{-(n-1)/xi} exactly by construction
    params = InstanceParams(6, 0.4, q_const=1.0)
    inst = build_random_instance(params, seed=11, max_body=2)
    for start, width in [(1, 1), (3, 2), (2, 3), (3, 4)]:
        cons = inst.constituent(start, width)
        mat = cons.matrix
        dist = np.linalg.norm(np.eye(2**width) - mat, 2)
        target = 0.5 * np.exp(-(width - 1) / 0.4)
        assert dist**2 == pytest.approx(target, rel=1e-10)
        assert np.linalg.norm(mat.conj().T @ mat - np.eye(2**width)) < 1e-10


def test_random_instance_refuses_q_above_8_at_build_time():
    # Width-1 constituents sit at ||1 - U||^2 = q/2, and no unitary is
    # further than 2 from the identity: q = 8 is the largest q with one.
    params = InstanceParams(5, 0.5, q_const=9.0)
    with pytest.raises(DomainError, match=r"q=9\.0 exceeds 8"):
        build_random_instance(params, seed=0, max_body=2)
    with pytest.raises(DomainError, match=r"q=9\.0 exceeds 8"):
        model.instance_from_json(
            json.dumps({"kind": "random", "n_sites": 5, "xi": 0.5, "q": 9.0, "seed": 0, "max_body": 2})
        )
    inst = build_random_instance(InstanceParams(5, 0.5, q_const=8.0), seed=0, max_body=2)
    u = inst.constituent(2, 1).matrix
    assert np.linalg.norm(np.eye(2) - u, 2) ** 2 == pytest.approx(4.0, rel=1e-12)
    assert validate_instance(inst) == []


def test_n1_instance_closeness():
    params = InstanceParams(1, 0.5, q_const=1.0)
    inst = build_random_instance(params, seed=0, max_body=1)
    assert abs(inst.coupling((1,))) <= 1.0
    u = inst.constituent(1, 1).matrix
    assert np.linalg.norm(np.eye(2) - u, 2) ** 2 == pytest.approx(0.5, rel=1e-12)


def test_wrapped_constituent_is_tensor_product():
    # the wrap splits into a factor on (k..N) and a factor on (1..k+n-1-N)
    params = InstanceParams(6, 0.5)
    inst = build_random_instance(params, seed=2, max_body=2)
    cons = inst.constituent(6, 3)  # sites (6, 1, 2)
    assert cons.sites == (6, 1, 2)
    mat = cons.matrix
    d = mat.reshape(2, 4, 2, 4)
    # a pure tensor product A (x) B has rank-1 flattening over the split
    flat = d.transpose(0, 2, 1, 3).reshape(4, 16)
    s = np.linalg.svd(flat, compute_uv=False)
    assert s[1] < 1e-10
    dist = np.linalg.norm(np.eye(8) - mat, 2)
    assert dist**2 == pytest.approx(0.5 * np.exp(-2 / 0.5), rel=1e-9)


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    sites=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_coupling_decay_property(seed, sites):
    params = InstanceParams(8, 0.5)
    inst = build_random_instance(params, seed=seed, max_body=4)
    idx = tuple(sorted(sites))
    value = inst.coupling(idx)
    assert abs(value) <= np.exp(-(idx[-1] - idx[0]) / 0.5) + 1e-15


def test_max_width_and_open_boundary():
    params = InstanceParams(6, 0.5)
    inst = build_random_instance(params, seed=1, max_body=2, max_width=2, periodic=False)
    assert max(w for _, w in inst.constituent_support) == 2
    assert inst.constituent(1, 2).sites == (1, 2)
    # the wrapped width-2 placement is no factor under open boundary
    assert (6, 2) not in inst.constituent_support
    for start, width in ((1, 3), (6, 2)):
        with pytest.raises(DomainError, match=rf"\({start},{width}\) is not a factor of U"):
            inst.constituent(start, width)
    per = build_random_instance(params, seed=1, max_body=2, max_width=2)
    assert per.constituent(6, 2).sites == (6, 1)


def test_dense_unitary_is_unitary():
    params = InstanceParams(4, 0.5)
    inst = build_random_instance(params, seed=9, max_body=3)
    u = dense_unitary(inst)
    assert np.linalg.norm(u.conj().T @ u - np.eye(16)) < 1e-10


def test_identity_constituents_give_identity_unitary():
    params = InstanceParams(3, 0.5)
    inst = build_explicit_instance(params, {(1,): 0.3}, {})
    np.testing.assert_allclose(dense_unitary(inst), np.eye(8), atol=1e-14)


def test_a_replaced_instance_builds_its_own_constituents():
    # The constituent cache is the instance's own: an instance made by
    # dataclasses.replace starts with none, so a position the original had
    # already built comes from the replacement's oracle too.
    n = 4
    inst = build_random_instance(InstanceParams(n, 0.5), seed=2, max_body=2, max_width=2)
    assert not _is_identity(inst.constituent(1, 1))
    bare = dataclasses.replace(inst, constituents=_identities(n))
    assert all(map(_is_identity, nonidentity_constituents(bare)))
    assert not _is_identity(inst.constituent(1, 1))


def _identities(n):
    def read_constituents(positions):
        return [
            model.Constituent(k, w, placement_sites(n, k, w), np.eye(2**w, dtype=complex))
            for k, w in positions
        ]

    return read_constituents


def _is_identity(cons):
    return np.array_equal(cons.matrix, np.eye(2**cons.width))


def test_a_replaced_instance_reads_the_replacements_oracles():
    # Every read of an oracle goes through the one callable, so an instance
    # made by dataclasses.replace gives the replacement's values on every
    # route, its original's caches warmed or not.
    n = 6
    inst = build_random_instance(InstanceParams(n, 0.5), seed=3, max_body=2)
    radii = TruncationRadii(3, 3)
    sigma_z_2 = ObservableProduct(2)
    indices = [(1,), (2, 3), (4,)]
    assert inst.coupling_values(indices).all()
    assert expectation(SimulationRequest(inst, 1.0, 0.5, radii), sigma_z_2, engine="dense") < 0.95

    def zero(indices):
        return np.zeros(len(indices))

    flat = dataclasses.replace(inst, couplings=zero)
    assert not flat.coupling_values(indices).any()
    assert flat.coupling((1,)) == 0.0
    assert all(block_trivial(b) for b in site_blocks(truncate(flat, radii), 1.0))
    # H = 0: the state never moves.
    req = SimulationRequest(flat, 1.0, 0.5, radii)
    assert expectation(req, sigma_z_2, engine="dense") == pytest.approx(1.0, abs=1e-12)

    bare = dataclasses.replace(inst, constituents=_identities(n))
    assert bare.coupling_values(indices).tobytes() == inst.coupling_values(indices).tobytes()
    assert all(map(_is_identity, bare.constituents_at(constituent_positions(n))))
    # U = 1: H is diagonal in z, so |0...0> only gains a phase.
    req = SimulationRequest(bare, 1.0, 0.5, radii)
    assert expectation(req, sigma_z_2, engine="dense") == pytest.approx(1.0, abs=1e-12)


def test_dense_hamiltonian_single_z():
    params = InstanceParams(3, 0.5)
    inst = build_explicit_instance(params, {(1,): 1.0}, {})
    h = dense_hamiltonian(inst)
    z1 = np.kron(np.diag([1.0, -1.0]), np.eye(4))
    np.testing.assert_allclose(h, z1, atol=1e-14)


def test_hamiltonian_commutes_with_lioms():
    params = InstanceParams(5, 0.4)
    inst = build_random_instance(params, seed=6, max_body=3)
    h = dense_hamiltonian(inst)
    for site in range(1, 6):
        tau = dense_liom(inst, site)
        comm = h @ tau - tau @ h
        assert np.linalg.norm(comm, 2) < 1e-9


def test_spectrum_matches_diagonal_pattern():
    # H = U H_sigma U^dag, so eigenvalues are the sigma-diagonal values
    params = InstanceParams(5, 0.5)
    inst = build_random_instance(params, seed=13, max_body=3)
    h = dense_hamiltonian(inst)
    eigs = np.sort(np.linalg.eigvalsh(h))
    diag = np.sort(sigma_diagonal(inst))
    np.testing.assert_allclose(eigs, diag, atol=1e-9)


def _spectral_norm_calls(monkeypatch):
    calls = []
    norm = np.linalg.norm

    def spy(x, ord=None):
        calls.append(ord)
        return norm(x, ord)

    monkeypatch.setattr(model.np.linalg, "norm", spy)
    return calls


def test_hermiticity_check_keeps_the_spectral_threshold(monkeypatch):
    calls = _spectral_norm_calls(monkeypatch)
    # ||H||_2 = 1 and a spectral asymmetry of 2e-12: refused.
    ham = np.eye(4, dtype=complex)
    ham[0, 1] = 2e-12
    with pytest.raises(NumericalIntegrityError, match="Hermiticity check: asymmetry 2.000e-12"):
        model._check_hermitian(ham)
    # 5e-13 passes on the Frobenius norm alone.
    ham[0, 1] = 5e-13
    calls.clear()
    model._check_hermitian(ham)
    assert 2 not in calls
    # Frobenius asymmetry 0.9e-12 * sqrt(16) but spectral 0.9e-12 <= 1e-12:
    # passes, through the exact spectral norms.
    ham = np.eye(16) + 0.45e-12j * np.eye(16)
    assert np.linalg.norm(ham - ham.conj().T) > 1e-12
    calls.clear()
    model._check_hermitian(ham)
    assert calls.count(2) == 2


def test_truncated_hamiltonian_eigenvalue_shift():
    from liomsim.truncation import TruncationRadii, delta_h_bound

    params = InstanceParams(5, 0.4)
    inst = build_random_instance(params, seed=21, max_body=3)
    full = np.sort(np.linalg.eigvalsh(dense_hamiltonian(inst)))
    radii = TruncationRadii(3, 3)
    trunc = np.sort(np.linalg.eigvalsh(dense_hamiltonian(inst, r_j=3, r_u=3)))
    bound = delta_h_bound(params, radii)
    assert np.max(np.abs(full - trunc)) <= bound


def test_apply_to_state_matches_kron():
    rng = np.random.default_rng(0)
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    state = rng.normal(size=(2,) * 3) + 1j * rng.normal(size=(2,) * 3)
    out = apply_to_state(mat, (1, 3), state, 3)
    big = np.kron(mat.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4), np.eye(1))
    # explicit embedding: act on sites (1,3) of 3, leaving site 2 alone
    full = np.einsum("acbd,bed->aec", mat.reshape(2, 2, 2, 2), state)
    np.testing.assert_allclose(out, full, atol=1e-12)


def test_validate_instance_clean_and_dirty():
    params = InstanceParams(4, 0.5)
    inst = build_random_instance(params, seed=5, max_body=2)
    assert validate_instance(inst) == []
    # a constituent too far from identity must be flagged
    theta = 1.2
    bad_mat = np.array(
        [[np.cos(theta), -1j * np.sin(theta)], [-1j * np.sin(theta), np.cos(theta)]]
    )
    bad = build_explicit_instance(params, {}, {(1, 1): bad_mat}, validate=False)
    problems = validate_instance(bad)
    assert problems and any("close" in p or "distance" in p for p in problems)


def test_validate_instance_checks_exactly_the_factors():
    # A random N=8 instance: every factor of U is built and checked, and no
    # position outside the layered product (such as (8, 5)) is drawn.
    inst = build_random_instance(InstanceParams(8, 0.5), seed=5, max_body=2)
    assert validate_instance(inst, coupling_samples=10) == []
    assert sorted(inst._constituent_cache) == sorted(constituent_positions(8))
    # A violation at a listed position is still reported, by name.
    theta = 1.2
    bad = np.array([[np.cos(theta), -1j * np.sin(theta)], [-1j * np.sin(theta), np.cos(theta)]])
    good = np.eye(4, dtype=complex)
    dirty = build_explicit_instance(
        InstanceParams(4, 0.5), {}, {(3, 2): good, (4, 1): bad}, validate=False
    )
    problems = validate_instance(dirty, coupling_samples=10)
    assert len(problems) == 1 and "constituent (4,1) violates the closeness bound" in problems[0]
    assert validate_instance(dirty, max_width=2, coupling_samples=10) == problems


def test_explicit_instance_rejects_nonunitary():
    params = InstanceParams(3, 0.5)
    with pytest.raises(DomainError):
        build_explicit_instance(params, {}, {(1, 1): np.array([[1.0, 0.0], [0.0, 2.0]])})


def test_explicit_constituents_only_at_factors_of_u():
    # (5, 2) on N=5 would sit on sites 5, 1, but no block of the width-2
    # layer starts at site 5, so the layered product never applies it.
    u = np.eye(4, dtype=complex)
    params = InstanceParams(5, 0.5, q_const=8)
    assert constituent_positions(5, None, ((5, 2),)) == ()
    message = r"constituent position \(5,2\) is not a factor of U on N=5"
    with pytest.raises(DomainError, match=message):
        build_explicit_instance(params, {(1,): 0.5}, {(5, 2): u}, validate=False)
    record = {"k": 5, "n": 2, "re": u.real.ravel().tolist(), "im": u.imag.ravel().tolist()}
    text = json.dumps({"kind": "explicit", "n_sites": 5, "xi": 0.5, "constituents": [record]})
    with pytest.raises(DomainError, match=message):
        instance_from_json(text)
    with pytest.raises(DomainError, match=r"\(6,1\) out of range for N=5"):
        build_explicit_instance(params, {}, {(6, 1): np.eye(2)})
    # A factor position is accepted, wrapped ones included.
    inst = build_explicit_instance(params, {}, {(4, 2): u, (2, 4): np.eye(16)}, validate=False)
    assert nonidentity_constituents(inst)[-1].sites == (2, 3, 4, 5)
    wrapped = build_explicit_instance(InstanceParams(4, 0.5), {}, {(3, 3): np.eye(8)})
    assert wrapped.constituent(3, 3).sites == (3, 4, 1)


def test_model_reads_refuse_sites_that_are_not_integers():
    inst = build_random_instance(InstanceParams(5, 0.5), seed=3, max_body=2)
    assert inst.coupling((1, 3)) == inst.coupling((np.int64(1), 3))
    with pytest.raises(DomainError, match="coupling site must be an integer, got 1.9"):
        inst.coupling((1.9, 3))
    with pytest.raises(DomainError, match="coupling site must be an integer, got True"):
        inst.coupling((True, 3))
    with pytest.raises(DomainError, match="coupling site must be an integer, got 2.0"):
        inst.coupling_values([(1,), (2.0, 3)])
    with pytest.raises(DomainError, match="coupling site must be an integer"):
        CouplingIndex(("1", 2))
    with pytest.raises(DomainError, match="constituent start must be an integer, got 1.5"):
        inst.constituent(1.5, 2)
    with pytest.raises(DomainError, match="constituent width must be an integer, got True"):
        inst.constituents_at([(1, True)])
    assert inst.constituent(np.int64(1), 2) is inst.constituent(1, 2)
    for bad in (True, 2.0, "4"):
        with pytest.raises(DomainError, match="n_sites must be an integer"):
            InstanceParams(bad, 0.5)


def test_json_roundtrip_random():
    params = InstanceParams(5, 0.3, q_const=1.0)
    inst = build_random_instance(params, seed=77, max_body=3, max_width=2, periodic=False)
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert back.n_sites == 5
    assert back.params.xi == 0.3
    for sites in [(1,), (2, 4), (1, 5)]:
        assert back.coupling(sites) == inst.coupling(sites)
    np.testing.assert_array_equal(
        back.constituent(2, 2).matrix, inst.constituent(2, 2).matrix
    )
    assert back.constituent_support == inst.constituent_support
    # byte-identical re-serialization (exact decimal round-trip)
    assert instance_to_json(back) == text


def test_json_roundtrip_explicit():
    params = InstanceParams(2, 0.5)
    mat = np.array([[0.99875026, 0.04993754j], [0.04993754j, 0.99875026]], dtype=complex)
    u, _, vh = np.linalg.svd(mat)
    mat = u @ vh  # exactly unitary version
    inst = build_explicit_instance(params, {(1, 2): -0.125, (1,): 0.5}, {(1, 1): mat})
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert back.coupling((1, 2)) == -0.125
    assert back.coupling((2,)) == 0.0
    np.testing.assert_allclose(back.constituent(1, 1).matrix, mat, atol=0)
    assert instance_to_json(back) == text


def test_json_rejects_garbage():
    with pytest.raises(DomainError):
        instance_from_json("not json at all")
    with pytest.raises(DomainError):
        instance_from_json(json.dumps({"n_sites": 4}))


def test_dense_feasibility_guard(monkeypatch):
    params = InstanceParams(4, 0.5)
    inst = build_random_instance(params, seed=1, max_body=2)
    monkeypatch.setenv("LIOMSIM_MAX_DENSE_N", "3")
    with pytest.raises(FeasibilityError):
        dense_hamiltonian(inst)
    monkeypatch.setenv("LIOMSIM_MAX_DENSE_N", "4")
    dense_hamiltonian(inst)


def test_sigma_diagonal_matches_the_z_strings_basis_state_by_state():
    inst = build_random_instance(InstanceParams(5, 0.5), seed=3, max_body=3)
    for r_j in (None, 2):
        expect = np.zeros(32)
        for z in range(32):
            bits = format(z, "05b")
            for sites, value in inst.iter_indices(r_j):
                expect[z] += value * (-1) ** sum(bits[s - 1] == "1" for s in sites)
        np.testing.assert_allclose(sigma_diagonal(inst, r_j), expect, rtol=0, atol=1e-14)


def test_sigma_diagonal_runs_above_the_dense_cap(monkeypatch):
    # sigma_diagonal holds one 2^N vector, so only the state cap bounds it.
    monkeypatch.setenv("LIOMSIM_MAX_DENSE_N", "3")
    inst = build_explicit_instance(InstanceParams(4, 0.5), {(2,): 0.5, (1, 3): -0.01}, {})

    def bit(z, site):
        return (z >> (4 - site)) & 1

    expect = [
        0.5 * (-1) ** bit(z, 2) - 0.01 * (-1) ** (bit(z, 1) ^ bit(z, 3)) for z in range(16)
    ]
    np.testing.assert_allclose(sigma_diagonal(inst), expect, rtol=0, atol=1e-15)
    with pytest.raises(FeasibilityError):
        dense_hamiltonian(inst)
