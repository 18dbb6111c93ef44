"""Tests for the batched dense chain-rule walk behind sample(), its checks
and the packed sample records."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import reference_dense_chain, reference_sample

from liomsim import simulate
from liomsim.errors import NumericalIntegrityError
from liomsim.model import InstanceParams, build_explicit_instance, build_random_instance
from liomsim.simulate import (
    SampleRecord,
    SampleRecords,
    SimulationRequest,
    conditional_chain,
    sample,
)
from liomsim.truncation import TruncationRadii


def _request(n, inst_seed, t=1.0, xi=0.5):
    inst = build_random_instance(InstanceParams(n, xi), seed=inst_seed, max_body=min(n, 3))
    r = min(n, 3)
    return SimulationRequest(instance=inst, t=t, epsilon=0.5, radii=TruncationRadii(r, r))


def _identity_request(n):
    # W = 1 leaves |0...0>: every prefix holding a 1 is impossible.
    inst = build_explicit_instance(InstanceParams(n, 0.5), {}, {})
    return SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(2, 2))


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    n=st.integers(1, 10),
    n_samples=st.integers(1, 300),
    inst_seed=st.integers(0, 2**16),
    seed=st.integers(0, 2**70),
    t=st.sampled_from([0.3, 1.0, 4.0]),
    xi=st.sampled_from([0.3, 0.8]),
)
def test_batched_sample_matches_reference_sample(n, n_samples, inst_seed, seed, t, xi):
    req = _request(n, inst_seed, t, xi)
    got = sample(req, n_samples, seed, engine="dense")
    assert [r.bits for r in got] == reference_sample(req, n_samples, seed)


def test_sample_chunks_keep_the_bytes(monkeypatch):
    # Chunks of 7 samples: every sample keeps its own index and stream.
    req = _request(6, 5)
    monkeypatch.setattr(simulate, "_CHUNK", 7)
    got = sample(req, 30, seed=41)
    assert [r.bits for r in got] == reference_sample(req, 30, seed=41)
    assert [r.index for r in got] == list(range(30))


def test_dense_chains_match_reference_as_hex_floats():
    cases = [(_identity_request(5), [format(i, "05b") for i in range(32)])]
    rng = np.random.default_rng(3)
    for n, inst_seed in ((6, 2), (9, 7)):
        bits = ["".join(map(str, rng.integers(0, 2, n))) for _ in range(8)]
        cases.append((_request(n, inst_seed), bits + ["1" * n, "0" * n]))
    for req, branches in cases:
        for bits in branches:
            got = conditional_chain(req, bits=bits, engine="dense")
            ref = reference_dense_chain(req, bits=[int(b) for b in bits])
            assert got.bits == ref.bits == bits
            assert [p.hex() for p in got.probs] == [p.hex() for p in ref.probs]
        for seed in (0, 1, 2**64 + 5):
            got = conditional_chain(req, seed=seed, engine="dense")
            ref = reference_dense_chain(
                req, rng=np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0])
            )
            assert got.bits == ref.bits
            assert [p.hex() for p in got.probs] == [p.hex() for p in ref.probs]
    # Impossible prefixes: p0 = 1 from the first impossible site on.
    req = _identity_request(5)
    assert conditional_chain(req, bits="00100").probs == (1.0,) * 5
    assert conditional_chain(req, bits="00000").probs == (1.0,) * 5


def _reached(req, n_samples, seed, site):
    """The prefix (as a tree index) that sample 7 holds before `site`, and
    the first sample index holding it there."""
    bits = [r.bits for r in sample(req, n_samples, seed)]
    prefix = bits[7][: site - 1]
    first = min(i for i, b in enumerate(bits) if b[: site - 1] == prefix)
    return int(prefix, 2), first


def _patched_tree(monkeypatch, req, edit):
    tree = [level.copy() for level in simulate._prefix_tree(req)]
    edit(tree)
    monkeypatch.setattr(simulate, "_prefix_tree", lambda _req: tree)


def test_batched_walk_refuses_marginals_off_by_1e_6(monkeypatch):
    req = _request(6, 11)
    site = 4
    prefix, first = _reached(req, 40, 9, site)

    def edit(tree):
        # The smaller conditional of the reached prefix gains 1e-6, so the
        # pair stays within [0, 1] but sums to 1 + 1e-6.
        pair = tree[site][2 * prefix : 2 * prefix + 2]
        pair[np.argmin(pair)] += 1e-6 * tree[site - 1][prefix]

    _patched_tree(monkeypatch, req, edit)
    with pytest.raises(
        NumericalIntegrityError, match=rf"site {site} marginals of sample {first} sum to 1\.00000"
    ):
        sample(req, 40, 9)


def test_batched_walk_refuses_a_marginal_above_one(monkeypatch):
    req = _request(6, 11)
    site = 3
    prefix, first = _reached(req, 40, 9, site)

    def edit(tree):
        # 1 + 1e-6 is above 1 + IMAG_TOL.
        tree[site][2 * prefix + 1] = tree[site - 1][prefix] * (1.0 + 1e-6)

    _patched_tree(monkeypatch, req, edit)
    with pytest.raises(
        NumericalIntegrityError,
        match=rf"site {site} marginal P\(prefix, 1\) of sample {first} 1\.000001\d* outside",
    ):
        sample(req, 40, 9)


def test_batched_walk_clamps_marginals_within_tolerance(monkeypatch):
    req = _request(4, 3)

    def edit(tree):
        # At the last site, v0 = -5e-10 and v1 = 1 + 5e-10 are within
        # IMAG_TOL of [0, 1]: clamped, p0 is 0, not negative.
        tree[4][0] = tree[3][0] * -5e-10
        tree[4][1] = tree[3][0] * (1.0 + 5e-10)

    _patched_tree(monkeypatch, req, edit)
    assert conditional_chain(req, bits="0001", engine="dense").probs[3] == 0.0


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17])
def test_sample_records_round_trip_packed_bits(n):
    rows = np.random.default_rng(n).integers(0, 2, size=(5, n)).astype(bool)
    rows[0], rows[1] = False, True
    strings = ["".join("01"[b] for b in row) for row in rows.tolist()]
    records = SampleRecords(seed=9, n_sites=n, packed=np.packbits(rows, axis=1).tobytes())
    assert len(records.packed) == 5 * -(-n // 8)
    assert not hasattr(records, "__dict__")
    assert len(records) == 5
    assert [r.bits for r in records] == strings
    assert records[-1] == records[4] == SampleRecord(strings[4], 9, 4)
    assert records[-5] == SampleRecord(strings[0], 9, 0)
    assert [r.bits for r in records[1:4]] == strings[1:4]
    assert [r.index for r in records[::-2]] == [4, 2, 0]
    assert records[7:] == []
    for bad in (5, -6):
        with pytest.raises(IndexError):
            records[bad]


def test_sample_keeps_ceil_n_over_8_bytes_per_sample():
    req = _request(9, 4)
    records = sample(req, 50, seed=2)
    assert isinstance(records.packed, bytes) and len(records.packed) == 50 * 2
    assert [r.bits for r in records] == reference_sample(req, 50, 2)
