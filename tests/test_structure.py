"""Tests for W's structure, derived once per family, and its data, built
once per request: W's factors and mirrors byte-equal to the reference
builder's, the folds byte-equal to folding one pair at a time, the
constituent support of banded random instances, and the bounded,
seed-free structure caches."""

import dataclasses
import functools
import gc
import weakref

import numpy as np
import pytest
from reference import reference_fold_gates, reference_w_nodes

from liomsim import model, simulate, streams
from liomsim import w as w_module
from liomsim.hardness import HardnessSpec, build_iqp_instance
from liomsim.model import (
    InstanceParams,
    build_explicit_instance,
    build_random_instance,
    constituent_positions,
    nonidentity_constituents,
    validate_instance,
)
from liomsim.oracle import evolve_factored
from liomsim.simulate import (
    ObservableProduct,
    SimulationRequest,
    _w,
    conditional_probability,
    expectation,
)
from liomsim.tensor import PlacedTensor
from liomsim.truncation import TruncationRadii
from liomsim.w import _fold_program, _run_folds


def _random_request(n, xi, seed, max_body, radii, t=1.0, **build):
    inst = build_random_instance(InstanceParams(n, xi), seed=seed, max_body=max_body, **build)
    return SimulationRequest(instance=inst, t=t, epsilon=0.5, radii=radii)


def _explicit_request():
    # Constituents of widths 1-3, one wrapped past site N, and a listed
    # identity; couplings of orders 1-3.
    rng = np.random.default_rng(4)

    def unitary(dim):
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        return q

    inst = build_explicit_instance(
        InstanceParams(6, 0.5, 8.0),
        {(1,): 0.3, (2, 3): -0.2, (3, 4, 5): 0.01, (6,): 0.7},
        {(2, 1): unitary(2), (1, 2): unitary(4), (4, 3): unitary(8), (6, 2): unitary(4),
         (3, 2): np.eye(4)},
        validate=False,
    )
    return SimulationRequest(instance=inst, t=0.9, epsilon=0.5, radii=TruncationRadii(3, 3))


def _hardness_request():
    hard = build_iqp_instance(HardnessSpec(3, 3, 1.0, field_seed=2))
    return SimulationRequest(
        instance=hard.instance, t=hard.time, epsilon=0.5, radii=TruncationRadii(4, 2)
    )


_W_REQUESTS = {
    "criterion-6-32": lambda: _random_request(
        32, 0.5, 32, 2, TruncationRadii(6, 6), max_width=2, periodic=False
    ),
    "criterion-6-64": lambda: _random_request(
        64, 0.5, 64, 2, TruncationRadii(6, 6), max_width=2, periodic=False
    ),
    "expect_plan": lambda: SimulationRequest.certified(
        build_random_instance(
            InstanceParams(32, 0.3), seed=11, max_width=2, max_body=3, periodic=False
        ),
        1.0,
        0.05,
    ),
    "wrapped-periodic": lambda: _random_request(10, 0.5, 3, 3, TruncationRadii(4, 3), t=1.3),
    "wrapped-banded": lambda: _random_request(
        7, 0.5, 2**40, 3, TruncationRadii(4, 3), max_width=3
    ),
    "explicit": _explicit_request,
    "hardness": _hardness_request,
}


def _assert_same_nodes(got, want):
    """Equal names, kinds, sites and data bytes, and data in the same
    memory order, which the contractions' matrix products read."""
    assert [(a.name, a.kind, a.sites) for a in got] == [(b.name, b.kind, b.sites) for b in want]
    for a, b in zip(got, want):
        assert a.data.dtype == b.data.dtype and a.data.shape == b.data.shape
        assert a.data.tobytes() == b.data.tobytes(), a.name
        for order in ("C_CONTIGUOUS", "F_CONTIGUOUS"):
            assert a.data.flags[order] == b.data.flags[order], (a.name, order)


@pytest.mark.parametrize("name", list(_W_REQUESTS))
def test_w_factors_and_mirrors_are_byte_equal_to_the_reference(name):
    req = _W_REQUESTS[name]()
    nodes, mirrors = reference_w_nodes(req)
    _assert_same_nodes(_w(req).nodes, nodes)
    _assert_same_nodes(_w(req).mirrors, mirrors)
    if name != "hardness":
        assert any("*" in node.name for node in nodes)


def _fold(nodes):
    program = _fold_program([PlacedTensor(n.name, n.kind, n.sites, None) for n in nodes])
    data = _run_folds(program, [node.data for node in nodes])
    return [PlacedTensor(n.name, n.kind, n.sites, d) for n, d in zip(program.nodes, data)]


@pytest.mark.parametrize("seed", range(6))
def test_folds_are_byte_equal_to_folding_one_pair_at_a_time(seed):
    # Random lists of gates of widths 1-3 on shuffled sites and diagonals
    # of widths 1-2 on 5 wires: folds of every direction and local order,
    # in chains several levels deep.
    rng = np.random.default_rng(seed)
    nodes = []
    for i in range(40):
        width = int(rng.integers(1, 4))
        sites = tuple(int(s) for s in rng.permutation(5)[:width] + 1)
        if rng.random() < 0.15:
            sites = sites[:2]
            data = np.exp(1j * rng.normal(size=2 ** len(sites)))
            nodes.append(PlacedTensor(f"d{i}", "diag", sites, data))
            continue
        dim = 2**width
        data = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if rng.random() < 0.5:
            data = data.conj().T
        nodes.append(PlacedTensor(f"g{i}", "gate", sites, data))
    folded = _fold(nodes)
    assert len(folded) < len(nodes)
    _assert_same_nodes(folded, reference_fold_gates(nodes))


@pytest.mark.parametrize("periodic", [False, True], ids=["open", "periodic"])
@pytest.mark.parametrize("max_width", [1, 2, 3])
def test_banded_support_is_the_drawn_placements(max_width, periodic):
    # A banded instance lists the placements it draws, its factors: those
    # within the band, less the wrapped ones on an open chain.  Each is the
    # unbanded periodic instance's constituent there, byte for byte, so the
    # support alone decides which factors an instance of one seed has.
    for n in range(3, 13):
        inst = build_random_instance(
            InstanceParams(n, 0.5), seed=n, max_body=2, max_width=max_width, periodic=periodic
        )
        every = build_random_instance(InstanceParams(n, 0.5), seed=n, max_body=2)
        assert every.constituent_support is None
        drawn = [
            (k, w)
            for k, w in constituent_positions(n)
            if w <= max_width and (periodic or k + w - 1 <= n)
        ]
        assert inst.constituent_support == tuple(drawn)
        for r_u in (None, 1, 2, 3):
            got = nonidentity_constituents(inst, r_u)
            want = every.constituents_at([pos for pos in drawn if r_u is None or pos[1] <= r_u])
            assert [(c.start_site, c.width, c.sites) for c in got] == [
                (c.start_site, c.width, c.sites) for c in want
            ]
            assert all(a.matrix.tobytes() == b.matrix.tobytes() for a, b in zip(got, want))
        restricted = dataclasses.replace(every, constituent_support=inst.constituent_support)
        np.testing.assert_array_equal(
            evolve_factored(inst, 1.1, r_j=3), evolve_factored(restricted, 1.1, r_j=3)
        )
        assert validate_instance(inst, coupling_samples=20) == []


def test_unbanded_random_instances_list_their_support_when_open():
    # Periodic: every position is a factor.  Open: every one but the
    # wrapped ones, which the instance lists.
    periodic = build_random_instance(InstanceParams(6, 0.5), seed=1, max_body=2)
    assert periodic.constituent_support is None
    inst = build_random_instance(InstanceParams(6, 0.5), seed=1, max_body=2, periodic=False)
    assert inst.constituent_support == tuple(
        (k, w) for k, w in constituent_positions(6) if k + w - 1 <= 6
    )
    assert len(inst.constituent_support) < len(constituent_positions(6))


_CACHES = [
    model.constituent_positions,
    model._drawn_placements,
    model._coupling_streams,
    model._constituent_layout,
    w_module._windows,
    w_module._w_structure,
    streams._seeded_tail,
]


def test_structure_caches_are_bounded():
    for cache in _CACHES:
        assert cache.cache_info().maxsize == 64
    # More W structures than the bound: N, r_U and r_J of small chains.
    for n in range(3, 12):
        for r_u in (1, 2, 3):
            for r_j in (1, 2, 3):
                _w(_random_request(n, 0.5, 5, 2, TruncationRadii(r_j, r_u)))
    for cache in _CACHES:
        assert cache.cache_info().currsize <= 64
    assert w_module._w_structure.cache_info().currsize == 64


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_constituent_layout_holds_no_array():
    # A cached layout outlives the requests of its family, so it holds
    # nested tuples of ints alone: no index array the size of the draws.
    lay = model._constituent_layout(16, model.constituent_positions(16, 8))
    fields = tuple(getattr(lay, field.name) for field in dataclasses.fields(lay))
    leaves = list(_leaves(fields))
    assert not any(isinstance(leaf, np.ndarray) for leaf in leaves)
    assert all(type(leaf) is int for leaf in leaves)


_BASE = dict(n=8, r_u=3, r_j=3, max_body=2, max_width=2, periodic=False)


@pytest.mark.parametrize(
    "change",
    [{"n": 9}, {"r_u": 2}, {"r_j": 4}, {"max_body": 3}, {"max_width": 3}, {"periodic": True}],
    ids=lambda change: next(iter(change)),
)
def test_families_differing_in_one_structural_input_share_no_structure(change):
    def w_structure(n, r_u, r_j, max_body, max_width, periodic, seed=7):
        req = _random_request(
            n, 0.5, seed, max_body, TruncationRadii(r_j, r_u), max_width=max_width,
            periodic=periodic,
        )
        return _w(req).structure

    w_module._w_structure.cache_clear()
    base = w_structure(**_BASE)
    other = w_structure(**{**_BASE, **change})
    info = w_module._w_structure.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)
    assert other is not base
    # The same family under another seed shares its entry.
    assert w_structure(**_BASE, seed=8) is base


def test_a_dropped_request_leaves_nothing_reachable():
    req = _random_request(10, 0.5, 9, 3, TruncationRadii(3, 2), max_width=2, periodic=False)
    expectation(req, ObservableProduct(4), engine="plan")
    expectation(req, ObservableProduct(2), engine="dense")
    conditional_probability(req, [0, 1], 3, engine="plan")
    assert req._state.conditional_route == "mps"
    held = [
        req,
        req.instance,
        req.trunc,
        *(node.data for node in _w(req).nodes),
        *(node.data for node in _w(req).mirrors),
        *(cons.matrix for cons in nonidentity_constituents(req.instance, 2)),
        *(block.phases for block in simulate.site_blocks(req.trunc, req.t)),
    ]
    refs = [weakref.ref(obj) for obj in held]
    del req, held
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


@functools.cache
def _family(seed):
    return SimulationRequest.certified(
        build_random_instance(
            InstanceParams(32, 0.3), seed=seed, max_width=2, max_body=3, periodic=False
        ),
        1.0,
        0.05,
    )


def test_requests_of_one_family_share_the_structure_not_the_data():
    first, second = _family(21), _family(22)
    a, b = _w(first).nodes, _w(second).nodes
    assert _w(first).structure is _w(second).structure
    assert [(n.name, n.sites) for n in a] == [(n.name, n.sites) for n in b]
    assert all(x.data.tobytes() != y.data.tobytes() for x, y in zip(a, b))
