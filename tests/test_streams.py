"""Tests for the batched seeding of keyed streams and the batch reads of
couplings and constituents built on it: every seeded state and double
bit-equal to numpy's own, every coupling equal to its own stream's draw,
every constituent and site block byte-equal to the per-position and
per-index builders', and no request's W seeding a stream of its own."""

import itertools
import random

import numpy as np
import pytest
from reference import (
    block_trivial,
    reference_coupling_key,
    reference_random_constituent,
    reference_random_coupling,
    reference_site_blocks,
)

from liomsim.errors import DomainError
from liomsim.model import (
    InstanceParams,
    build_explicit_instance,
    build_random_instance,
    constituent_positions,
    instance_from_json,
    instance_to_json,
    nonidentity_constituents,
    random_constituents,
    validate_instance,
)
from liomsim.simulate import SimulationRequest, _w, site_blocks
from liomsim.streams import first_doubles, generators, pcg64_states
from liomsim.truncation import TruncationRadii


def _assert_bit_equal(keys):
    got = first_doubles(keys)
    expect = np.array([np.random.default_rng(key).random() for key in keys])
    assert got.dtype == np.float64 and got.shape == (len(keys),)
    assert got.tobytes() == expect.tobytes()
    seeded = [np.random.PCG64(np.random.SeedSequence(key)).state["state"] for key in keys]
    assert pcg64_states(keys) == [(s["state"], s["inc"]) for s in seeded]


@pytest.mark.parametrize(
    "seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**32), -(2**63)]
)
def test_coupling_keys_match_numpy_at_edge_seeds(seed):
    # A negative seed enters the key masked, mod 2^64.
    sites = [(1,), (3, 4), (2, 5, 9), (1, 2, 3, 4, 5)]
    _assert_bit_equal([reference_coupling_key(seed, s) for s in sites])


@pytest.mark.parametrize("seed", [7, 2**40])
def test_entropy_lengths_4_to_9_in_one_batch(seed):
    # A key [seed, 1, p, *sites] is 2 + p entropy words, plus one for a seed
    # below 2^32 and two for 2^40: 4-8 and 5-9 words for p = 1..5.  One
    # batch holds every length, so the masking of the words a key lacks is
    # checked against keys that have them.
    keys = [reference_coupling_key(seed, tuple(range(1, p + 1))) for p in range(1, 6)]
    _assert_bit_equal(keys)
    for key in keys:
        _assert_bit_equal([key])


def test_short_keys_batch_of_one_and_empty_batch():
    _assert_bit_equal([[5]])
    _assert_bit_equal([[0]])
    _assert_bit_equal([[], [0, 0], [1, 2, 3], [2**64 - 1]])
    assert first_doubles([]).shape == (0,)


def test_several_thousand_random_keys():
    rng = np.random.default_rng(2024)
    keys = []
    for _ in range(3000):
        key = []
        for _ in range(int(rng.integers(0, 10))):
            kind = int(rng.integers(0, 4))
            if kind == 0:
                key.append(0)
            elif kind == 1:
                key.append(int(rng.integers(1, 64)))
            elif kind == 2:
                key.append(int(rng.integers(0, 2**32)))
            else:
                key.append(int(rng.integers(0, 2**63)) * 2 + 1)
        keys.append(key)
    _assert_bit_equal(keys)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**32), -(2**63)])
def test_a_seed_and_its_tails_give_the_full_keys_streams(seed):
    # A seed below 2^32 is one entropy word and one from 2^32 on two, so
    # the tails' words sit one or two places in; tails of 0-6 words, long
    # integers included, reach past the pool of four in both cases.
    tails = (
        (), (0,), (2, 5, 1), (1, 3, 2, 7, 9), (1, 2, 4, 5), (2**40, 3), (7, 2**64 - 1, 0),
    )
    full = [[seed & (2**64 - 1), *tail] for tail in tails]
    assert pcg64_states(tails, seed) == pcg64_states(full)
    assert first_doubles(tails, seed).tobytes() == first_doubles(full).tobytes()
    _assert_bit_equal(full)
    for tail, key, gen in zip(tails, full, generators(tails, seed)):
        assert gen.standard_normal(3).tobytes() == np.random.default_rng(key).standard_normal(3).tobytes()
    # The seeded batch of tails repeats its cached words under a new seed.
    assert pcg64_states(tails, seed + 1) == pcg64_states([[(seed + 1) & (2**64 - 1), *t] for t in tails])
    assert pcg64_states((), seed) == [] and first_doubles((), seed).shape == (0,)


def test_negative_key_integer_is_refused():
    with pytest.raises(DomainError):
        first_doubles([[1, 2], [3, -1]])
    with pytest.raises(DomainError):
        pcg64_states([[3, -1]])


def test_generators_draw_numpys_streams():
    # One Generator re-seeded per key: each key's draws, taken in several
    # calls, are default_rng(key)'s.
    keys = [[0], [5, 2, 3, 1], [2**64 - 1, 2, 1, 2], [], [2**40, 1, 2, 3, 4, 5]]
    for key, gen in zip(keys, generators(keys)):
        ref = np.random.default_rng(key)
        for shape in ((4, 4), (3,), ()):
            assert np.asarray(gen.standard_normal(shape)).tobytes() == np.asarray(
                ref.standard_normal(shape)
            ).tobytes()


def _every_index(n, max_order):
    return [
        sites
        for p in range(1, max_order + 1)
        for sites in itertools.combinations(range(1, n + 1), p)
    ]


@pytest.mark.parametrize("radii", [None, TruncationRadii(4, 2)], ids=["plain", "truncated"])
def test_coupling_values_equal_single_reads(radii):
    inst = build_random_instance(InstanceParams(12, 0.5), seed=31, max_body=3)
    # Order 4 is above max_body, so those couplings read 0 both ways.
    indices = _every_index(12, 4)
    single = np.array([reference_random_coupling(31, 0.5, 3, sites) for sites in indices])
    assert single.tobytes() == inst.coupling_values(indices).tobytes()
    assert np.count_nonzero(single) >= 70
    for sites, value in zip(indices[::97], single[::97]):
        assert inst.coupling(sites) == value
    # A truncation reads the instance with the cutoff: iter_indices(r_J)
    # yields the nonzero couplings of range < r_J, in the same order.
    r_j = 12 if radii is None else radii.r_j
    kept = [
        (sites, value)
        for sites, value in zip(indices, single.tolist())
        if value != 0.0 and sites[-1] - sites[0] < r_j
    ]
    assert list(inst.iter_indices(None if radii is None else r_j)) == kept


@pytest.mark.parametrize("sites", [(13,), (3, 3), (5, 2), (0, 1), ()])
def test_coupling_values_refuse_what_coupling_refuses(sites):
    inst = build_random_instance(InstanceParams(12, 0.5), seed=31, max_body=3)
    with pytest.raises(DomainError):
        inst.coupling(sites)
    with pytest.raises(DomainError):
        inst.coupling_values([(1, 2), sites])


def _explicit_instance():
    return build_explicit_instance(
        InstanceParams(8, 0.5),
        {(1,): 0.4, (2, 3): -0.1, (3, 5, 6): 0.002, (4,): 0.0, (6, 8): 0.015},
        {},
    )


@pytest.mark.parametrize(
    "inst",
    [
        build_random_instance(InstanceParams(9, 0.5), seed=4, max_body=3),
        _explicit_instance(),
    ],
    ids=["random", "explicit"],
)
@pytest.mark.parametrize("r_j", [None, 3])
def test_iter_indices_keeps_its_order_and_values(inst, r_j):
    # The walk over the support in order, each coupling drawn from its own
    # stream (or read off the explicit table).
    d = inst.descriptor
    if d["kind"] == "random":
        support = _every_index(inst.n_sites, inst.max_body)

        def coupling(sites):
            return reference_random_coupling(d["seed"], d["xi"], d["max_body"], sites)
    else:
        support = inst.coupling_support
        table = {tuple(row["sites"]): row["value"] for row in d["couplings"]}
        coupling = table.__getitem__
    expect = []
    for sites in support:
        if r_j is not None and sites[-1] - sites[0] >= r_j:
            continue
        value = coupling(sites)
        if value != 0.0:
            expect.append((sites, value))
    assert list(inst.iter_indices(r_j)) == expect


def test_validate_instance_flags_a_coupling_over_its_bound():
    params = InstanceParams(4, 0.5)
    assert validate_instance(build_random_instance(params, seed=5, max_body=3)) == []
    bad = build_explicit_instance(params, {(1, 4): 0.5}, {}, validate=False)
    problems = validate_instance(bad)
    # Only (1, 4), of range 3, is over its bound.
    assert problems and all("= 0.5 violates the decay bound exp(-3/xi)" in p for p in problems)


def _random_request(n, xi, seed, max_body, radii, periodic=False, max_width=2):
    inst = build_random_instance(
        InstanceParams(n, xi), seed=seed, max_body=max_body, max_width=max_width,
        periodic=periodic,
    )
    return SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=radii)


def _site_block_requests():
    six = TruncationRadii(6, 6)
    out = {
        f"criterion-6-{n}": _random_request(n, 0.5, n, 2, six) for n in (32, 64)
    }
    for seed in (11, 12):
        inst = build_random_instance(
            InstanceParams(32, 0.3), seed=seed, max_width=2, max_body=3, periodic=False
        )
        out[f"expect_plan-{seed}"] = SimulationRequest.certified(inst, 1.0, 0.05)
    out["periodic"] = _random_request(
        10, 0.5, 3, 3, TruncationRadii(4, 3), periodic=True, max_width=None
    )
    for max_body in (1, 2, 3):
        out[f"max_body-{max_body}"] = _random_request(12, 0.5, 8, max_body, TruncationRadii(5, 2))
    # One-site windows only, and windows all cut short by the chain's end.
    out["r_j-1"] = _random_request(9, 0.5, 6, 3, TruncationRadii(1, 2))
    out["r_j-over-n"] = _random_request(6, 0.5, 6, 3, TruncationRadii(9, 2))
    out["explicit"] = SimulationRequest(
        instance=_explicit_instance(), t=0.7, epsilon=0.5, radii=TruncationRadii(3, 1)
    )
    return out


_SITE_BLOCK_REQUESTS = _site_block_requests()


@pytest.mark.parametrize("name", list(_SITE_BLOCK_REQUESTS))
def test_site_block_phases_are_byte_equal_to_the_reference(name):
    req = _SITE_BLOCK_REQUESTS[name]
    got = site_blocks(req.trunc, req.t)
    expect = reference_site_blocks(req.trunc, req.t)
    assert [(b.site, b.width) for b in got] == [(b.site, b.width) for b in expect]
    for block, ref in zip(got, expect):
        assert block.phases.dtype == ref.phases.dtype
        assert block.phases.tobytes() == ref.phases.tobytes()
    assert any(not block_trivial(b) for b in got)


def _assert_reference_constituents(params, seed, constituents):
    for cons in constituents:
        ref = reference_random_constituent(params, seed, cons.start_site, cons.width)
        assert cons.sites == ref.sites
        assert cons.matrix.dtype == ref.matrix.dtype
        assert cons.matrix.tobytes() == ref.matrix.tobytes()


@pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1, -1, -(2**63)])
@pytest.mark.parametrize("periodic", [False, True], ids=["open", "periodic"])
def test_constituents_are_byte_equal_to_the_reference(seed, periodic):
    # Widths 1-4 at every start of N=7: on the periodic chain the starts
    # past N-w+1 wrap, some into pieces of unequal width.
    # The instance's factors are the positions of widths 1-4 it draws: all
    # of them on the periodic chain, the unwrapped ones on the open chain.
    params = InstanceParams(7, 0.5, 2.0)
    positions = [(k, w) for w in range(1, 5) for k in range(1, 8)]
    batch = random_constituents(params, seed, positions)
    assert sum(len(c.sites) != c.sites[-1] - c.sites[0] + 1 for c in batch) == 6
    _assert_reference_constituents(params, seed, batch)
    inst = build_random_instance(params, seed=seed, max_body=2, periodic=periodic)
    factors = nonidentity_constituents(inst, 4)
    assert [(c.start_site, c.width) for c in factors] == [
        (k, w) for k, w in constituent_positions(7, 4) if periodic or k + w - 1 <= 7
    ]
    assert sum(len(c.sites) != c.sites[-1] - c.sites[0] + 1 for c in factors) == periodic
    _assert_reference_constituents(params, seed, factors)


def test_dense_route_constituents_are_byte_equal_to_the_reference():
    # The dense route's family: periodic N=10 at r_U = 3, wrapped blocks
    # included.
    params = InstanceParams(10, 0.5)
    req = SimulationRequest(
        instance=build_random_instance(params, seed=77, max_body=3),
        t=1.0, epsilon=0.5, radii=TruncationRadii(3, 3),
    )
    got = nonidentity_constituents(req.instance, req.radii.r_u)
    assert len(got) == 10 + 2 * 5 + 3 * 3
    _assert_reference_constituents(params, 77, got)


def test_constituent_batches_do_not_depend_on_order_or_size():
    params = InstanceParams(9, 0.4, 3.0)
    positions = [(k, w) for w in range(1, 5) for k in range(1, 10)]
    whole = {(c.start_site, c.width): c.matrix.tobytes() for c in random_constituents(params, 5, positions)}
    shuffled = list(positions)
    random.Random(3).shuffle(shuffled)
    for batch in (shuffled, shuffled[:7], shuffled[7:8]):
        for cons in random_constituents(params, 5, batch):
            assert cons.matrix.tobytes() == whole[cons.start_site, cons.width]
    assert random_constituents(params, 5, []) == []


def test_single_lookup_equals_its_batch_entry():
    params = InstanceParams(8, 0.5)
    positions = constituent_positions(8, 3)
    batch = build_random_instance(params, seed=21, max_body=2).constituents_at(positions)
    single = build_random_instance(params, seed=21, max_body=2)
    for (k, w), cons in zip(positions, batch):
        one = single.constituent(k, w)
        assert one.matrix.tobytes() == cons.matrix.tobytes()
        # Cached: a later batch hands back the same object.
        assert single.constituents_at([(k, w)])[0] is one


def test_w_reads_the_base_factors_within_r_u():
    # A truncation builds no instance of its own: W reads the base's
    # factors of width <= r_U through the base's cache, and nothing else.
    inst = build_random_instance(InstanceParams(8, 0.5), seed=4, max_body=2)
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(3, 2))
    assert _w(req).nodes and req.trunc.base is inst
    assert list(inst._constituent_cache) == list(constituent_positions(8, 2))
    with pytest.raises(DomainError, match=r"\(9,1\) out of range for N=8"):
        inst.constituents_at([(1, 1), (9, 1)])


def test_json_round_trip_keeps_constituent_bytes():
    inst = build_random_instance(
        InstanceParams(6, 0.5, 1.5), seed=2**64 - 1, max_body=2, max_width=3
    )
    back = instance_from_json(instance_to_json(inst))
    assert back.constituent_support == inst.constituent_support
    assert max(w for _, w in inst.constituent_support) == 3
    for a, b in zip(nonidentity_constituents(inst), nonidentity_constituents(back)):
        assert (a.start_site, a.width) == (b.start_site, b.width)
        assert a.matrix.tobytes() == b.matrix.tobytes()


@pytest.mark.parametrize("family", ["criterion-6-32", "expect_plan-11"])
def test_w_seeds_no_stream_of_its_own(monkeypatch, family):
    # A request's W draws its couplings and constituents through
    # liomsim.streams, which hashes no SeedSequence: default_rng, a
    # SeedSequence, or a PCG64 handed anything but a seed sequence (which
    # builds a SeedSequence inside) would each count here.
    req = _site_block_requests()[family]
    counts = {"default_rng": 0, "SeedSequence": 0, "PCG64": 0}
    default_rng, seed_sequence, pcg64 = (
        np.random.default_rng, np.random.SeedSequence, np.random.PCG64
    )

    def counted(name, fn, seeded=lambda *args: True):
        def wrapper(*args, **kwargs):
            counts[name] += seeded(*args)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.random, "default_rng", counted("default_rng", default_rng))
    monkeypatch.setattr(np.random, "SeedSequence", counted("SeedSequence", seed_sequence))
    monkeypatch.setattr(
        np.random,
        "PCG64",
        counted(
            "PCG64",
            pcg64,
            lambda seed=None: not isinstance(seed, np.random.bit_generator.ISeedSequence),
        ),
    )
    assert _w(req).nodes
    assert counts == {"default_rng": 0, "SeedSequence": 0, "PCG64": 0}
    # The counters do count.
    np.random.default_rng([1, 2])
    np.random.PCG64(np.random.SeedSequence(3))
    np.random.PCG64(3)
    assert counts == {"default_rng": 1, "SeedSequence": 1, "PCG64": 1}
