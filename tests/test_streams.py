"""Tests for the batched draw of keyed streams and the batch reads of
couplings built on it: every double bit-equal to numpy's own default_rng,
every coupling equal to its single read, and every site block's phases
byte-equal to the per-index builder's."""

import itertools

import numpy as np
import pytest
from reference import reference_site_blocks

from liomsim.errors import DomainError
from liomsim.model import (
    InstanceParams,
    _index_seed_key,
    build_explicit_instance,
    build_random_instance,
    validate_instance,
)
from liomsim.simulate import SimulationRequest, site_blocks
from liomsim.streams import first_doubles
from liomsim.truncation import TruncationRadii, truncate


def _assert_bit_equal(keys):
    got = first_doubles(keys)
    expect = np.array([np.random.default_rng(key).random() for key in keys])
    assert got.dtype == np.float64 and got.shape == (len(keys),)
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize(
    "seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**32), -(2**63)]
)
def test_coupling_keys_match_numpy_at_edge_seeds(seed):
    # A negative seed enters the key as _index_seed_key masks it, mod 2^64.
    sites = [(1,), (3, 4), (2, 5, 9), (1, 2, 3, 4, 5)]
    _assert_bit_equal([_index_seed_key(seed, s) for s in sites])


@pytest.mark.parametrize("seed", [7, 2**40])
def test_entropy_lengths_4_to_9_in_one_batch(seed):
    # A key [seed, 1, p, *sites] is 2 + p entropy words, plus one for a seed
    # below 2^32 and two for 2^40: 4-8 and 5-9 words for p = 1..5.  One
    # batch holds every length, so the masking of the words a key lacks is
    # checked against keys that have them.
    keys = [_index_seed_key(seed, tuple(range(1, p + 1))) for p in range(1, 6)]
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


def test_negative_key_integer_is_refused():
    with pytest.raises(DomainError):
        first_doubles([[1, 2], [3, -1]])


def _every_index(n, max_order):
    return [
        sites
        for p in range(1, max_order + 1)
        for sites in itertools.combinations(range(1, n + 1), p)
    ]


@pytest.mark.parametrize("radii", [None, TruncationRadii(4, 2)], ids=["plain", "truncated"])
def test_coupling_values_equal_single_reads(radii):
    inst = build_random_instance(InstanceParams(12, 0.5), seed=31, max_body=3)
    if radii is not None:
        inst = truncate(inst, radii).instance
    # Order 4 is above max_body, so those couplings read 0 both ways.
    indices = _every_index(12, 4)
    single = np.array([inst.coupling(sites) for sites in indices])
    assert single.tobytes() == inst.coupling_values(indices).tobytes()
    assert np.count_nonzero(single) >= 70


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
    # The walk one coupling call per index made before the batch read.
    if inst.coupling_support is not None:
        support = inst.coupling_support
    else:
        support = _every_index(inst.n_sites, inst.max_body)
    expect = []
    for sites in support:
        if r_j is not None and sites[-1] - sites[0] >= r_j:
            continue
        value = inst.coupling(sites)
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
    assert any(not b.trivial for b in got)
