"""Reference implementations kept for tests only.

naive_network_value evaluates a closed expectation network by expanding
every node into a DenseTensor with explicit legs and folding the network
left to right with pairwise tensordot contractions.  It shares only the
wire bookkeeping and node arrays with the qubit-wise plan, so the tests
check liomsim.tensor.execute against it.

reference_chain_walk is the plan-route chain walk that liomsim used before
light-cone finishes: at every site it forks the runner of the unpruned
chain network and finishes the whole remaining contraction.  It is slow
(about N times one plan pass per chain) but independent of the light-cone
construction, so the tests compare the library's walk against it.

reference_schedule is the qubit-wise scheduler as it was before the plan
recorded when each index closes: it replays the absorption order once per
leg convention with per-index counters.  It applies the pinning rules on
its own: an index a cap without data carries is never counted open, and
such caps are no steps; of the other indices, one that a basis projector
sits on is pinned by the first such projector in application order, which
is no step either.  The library's scheduler must give the same plans.

reference_double_walk is the plan-route chain walk liomsim ran before it
contracted the ket half: one runner on the double network
<0|W^dag (marks) W|0> of all N sites, each decided mark overridden with
|b><b| over its conditional, paused at every mark and forked onto the
full plan of the site's light cone (reference_cone_move), whose ids it
maps through the nodes both plans absorb in the same order.  The
library's walk must give the same bits, the same p0 to rounding and, at
every site, the same moved accumulator.

reference_light_cone is the light cone liomsim used before it walked W's
commuting runs: one factor at a time from last applied to first, growing
the support after every kept factor.  Its cones are larger but plainly
exact, and on a prefix support 1..k the library must keep the same
factors.

reference_mps_sigma_z reads every <sigma^z_p> off an MPS of the whole of
W|0>, one left-to-right transfer sweep: an unpruned value for each site
at any N the MPS reaches.

reference_random_coupling is the coupling of a random instance drawn as
its contract states, one default_rng per index:
default_rng([seed mod 2^64, 1, |I|, *I]).uniform(-b, b) with
b = exp(-range(I)/xi), and 0 above max_body.  The library's batch reads
must give the same doubles.

reference_site_blocks is the site-block builder liomsim used before it
built a family's windows once: every site walks its window's subsets one
index at a time and adds each nonzero term on its own.  The couplings
are read in one batch up front.  The library's blocks must have the same
phase bytes.
block_window and block_trivial read a SiteBlock's window sites and
whether every one of its phases is 1, which only the tests ask.

reference_random_constituent is the constituent builder liomsim used
before a random instance built its constituents in batches: one
default_rng, one pair of Gaussian draws and one eigh per Hermitian piece.
The library's constituents must have the same matrix bytes.

reference_w_nodes is the W factor list liomsim built before a family's
structure was derived once: every request walks all constituent
positions up to r_U (identities included), builds its blocks one
index at a time (reference_site_blocks), daggers each gate on
its own and folds with one embedding product per fold
(reference_fold_gates).  The library's factors must have the same names,
kinds, sites, bytes and memory order.

reference_build_mps is the MPS build liomsim used before it chose where
its orthogonality centre starts: from site 1, with a closing sweep that
splits the last block and moves the centre back to site 1 by QR.  The
library's build must give the same bonds.

reference_sample is the dense-route sampler liomsim used before its walk
was batched: one Python walk per sample over the prefix-marginal tree,
with its own scalar checks and one random() call per site from the
sample's own generator.  The batched walk must give the same bytes.

reference_z_string_diagonal is the z-string diagonal liomsim built before
its Walsh-Hadamard transform: each term adds c_I times the broadcast
product of its sites' [1, -1] signs onto the 2^N sum, one pass per term.
The transform must agree with it to rounding.

dense_liom is the dense dressed spin tau_site^z = U sigma_site^z U^dag
(U truncated to width r_u), which only tests read.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from liomsim.errors import DomainError, NumericalIntegrityError, StructuralError
from liomsim.model import (
    Constituent,
    InstanceParams,
    MblInstance,
    _constituent_tail,
    _theta_for_distance,
    check_dense_feasible,
    constituent_positions,
    dense_unitary,
    placement_sites,
)
from liomsim.mps import MatrixProductState, _ascending, _block, _Centre
from liomsim.simulate import (
    IMAG_TOL,
    NORM_TOL,
    ChainResult,
    _checked,
    _cone,
    _outcome_pair,
    _prefix_tree,
    _uniforms,
)
from liomsim.tensor import (
    ExpectationNetwork,
    ForkTarget,
    PlacedTensor,
    PlanRunner,
    _wire_sequences,
)
from liomsim.truncation import TruncatedInstance
from liomsim.w import SiteBlock

# The frozen walk's own rule: a prefix probability at or below this counts
# as impossible.
DEGENERATE_PREFIX = 1e-30

_PROJ = (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex))
# The vector of a cap without data: |0> or <0|.
_ZERO = _PROJ[0]


def reference_chain_walk(
    req, bits: Sequence[int] | None = None, seed: int | None = None
) -> ChainResult:
    """Chain rule on the plan route by full forks: the marginal of outcome
    0 at site w is a fork of the shared left contraction, finished over
    every remaining node; the prefix probability is carried by subtraction.
    With a seed, the branch is drawn from the stream conditional_chain
    uses."""
    rng = None if bits is not None else np.random.default_rng([int(seed), 0])
    network, plan, mark_nodes = _cone(req, req.n_sites)
    runner = PlanRunner(plan, network)
    out_bits: list[int] = []
    probs: list[float] = []
    den = 1.0
    for site in range(1, req.n_sites + 1):
        runner.run_to(runner.plan.step_of[mark_nodes[site]])
        fork = runner.fork()
        fork.set_override(mark_nodes[site], _PROJ[0])
        raw = fork.finish()
        if abs(raw.imag) > IMAG_TOL or not -IMAG_TOL <= raw.real <= 1 + IMAG_TOL:
            raise NumericalIntegrityError(f"marginal {raw} out of range")
        val0 = min(max(raw.real, 0.0), 1.0)
        if den <= DEGENERATE_PREFIX:
            p0 = 1.0 if 2 * val0 >= den else 0.0
        else:
            p0 = val0 / den
            if not -IMAG_TOL <= p0 <= 1 + IMAG_TOL:
                raise NumericalIntegrityError(f"conditional probability {p0} outside [0,1]")
            p0 = min(max(p0, 0.0), 1.0)
        bit = int(bits[site - 1]) if bits is not None else (0 if rng.random() < p0 else 1)
        probs.append(p0)
        out_bits.append(bit)
        runner.set_override(mark_nodes[site], _PROJ[bit])
        den = val0 if bit == 0 else max(den - val0, 0.0)
    return ChainResult(bits="".join(map(str, out_bits)), probs=tuple(probs))


def reference_cone_move(req, runner: PlanRunner, site: int) -> tuple[ForkTarget, int]:
    """The target of the double-network runner, paused at its mark
    `site`, on the full plan of _cone(req, site) from the cone's own mark
    on, and the mark's node position in the cone.  Up to the mark both
    plans absorb the same nodes in the same order; removing a W...W^dag
    segment merges the ids on either side of it."""
    chain, chain_plan = runner.net, runner.plan
    network, plan, marks = _cone(req, site)
    cut = runner.position
    head = list(zip(chain_plan.steps[: cut + 1], plan.steps[: cut + 1]))
    if len(head) != cut + 1 or any(
        chain.nodes[a.node_index] is not network.nodes[b.node_index] for a, b in head
    ):
        raise AssertionError(f"light cone of sites 1..{site} misses an absorbed node")
    ids: dict[int, int] = {}
    for a, b in head[:cut]:
        ids.update(zip(chain_plan.node_indices[a.node_index], plan.node_indices[b.node_index]))
    target = ForkTarget(network, plan, cut, {i: ids[i] for i in runner.open_ids})
    return target, marks[site]


def reference_double_walk(
    req,
    bits: Sequence[int] | str | None = None,
    seed: int | None = None,
    moves: list | None = None,
    targets: dict | None = None,
) -> ChainResult:
    """One branch of the chain rule on the double network, by the rules of
    the library's walk: the coins of conditional_chain, p0 = v0 / (v0 + v1)
    with the sum checked against 1, and p0 = 1 after a chosen conditional
    of exactly 0.  Each moved accumulator is appended to `moves` when
    given; `targets` caches each site's target across calls on one
    request."""
    n = req.n_sites
    if bits is None:
        coins = _uniforms(seed, 0, 1, n)[0]
    else:
        coins = np.where(np.array([int(b) for b in bits], dtype=bool), np.inf, -np.inf)
    network, plan, marks = _cone(req, n)
    runner = PlanRunner(plan, network)
    targets = {} if targets is None else targets
    probs = [1.0] * n
    for site in range(1, n + 1):
        runner.run_to(plan.step_of[marks[site]])
        if site not in targets:
            targets[site] = reference_cone_move(req, runner, site)
        target, mark = targets[site]
        cone = runner.fork(target)
        if moves is not None:
            moves.append(cone._acc)
        v0, v1 = (_checked(v, f"site {site} marginal") for v in _outcome_pair(cone, mark))
        if abs(v0 + v1 - 1.0) > NORM_TOL:
            raise NumericalIntegrityError(f"site {site} marginals sum to {v0 + v1!r}")
        probs[site - 1] = v0 / (v0 + v1)
        bit = int(coins[site - 1] >= probs[site - 1])
        value = (v0, v1)[bit]
        if value == 0.0:
            break
        runner.set_override(marks[site], _PROJ[bit] / value)
    out = "".join("01"[int(c >= p)] for c, p in zip(coins, probs))
    return ChainResult(out, tuple(probs))


def reference_light_cone(w_list: Sequence[PlacedTensor], support) -> list[bool]:
    """Keep flags of W's factors: walking them from last applied to first,
    keep each one that meets the support, and grow the support by its
    sites."""
    supp = set(support)
    keep = [False] * len(w_list)
    for i in range(len(w_list) - 1, -1, -1):
        if not supp.isdisjoint(w_list[i].sites):
            keep[i] = True
            supp.update(w_list[i].sites)
    return keep


def reference_mps_sigma_z(state: MatrixProductState) -> np.ndarray:
    """<sigma^z_p> for p = 1..N on a right-canonical, normalised MPS: the
    left environment L of sites 1..p-1 closes on A_p sigma^z A_p^dag, as
    the tensors right of p contract to the identity."""
    env = np.ones((1, 1), dtype=complex)
    out = []
    for a in state.tensors:
        l, _, r = a.shape
        # ket[j, b, k]: the environment's bra index j, then site p's ket.
        ket = (env.T @ a.reshape(l, -1)).reshape(l, 2, r)
        weights = np.einsum("jbk,jbk->b", ket, a.conj()).real
        out.append(weights[0] - weights[1])
        env = ket.reshape(2 * l, r).T @ a.conj().reshape(2 * l, r)
    return np.array(out)


def _reference_checked(raw: float, what: str) -> float:
    """Scalar range check and clamp of one marginal to [0, 1]."""
    if abs(raw.imag) > IMAG_TOL:
        raise NumericalIntegrityError(f"{what} has imaginary residue {raw.imag:.3e}")
    value = float(raw.real)
    if value < -IMAG_TOL or value > 1.0 + IMAG_TOL:
        raise NumericalIntegrityError(f"{what} {value} outside [0, 1] beyond tolerance")
    return min(max(value, 0.0), 1.0)


def reference_dense_chain(
    req, bits: Sequence[int] | None = None, rng: np.random.Generator | None = None
) -> ChainResult:
    """One dense-route branch of the chain rule, walked with Python floats:
    v_b = P(prefix, b) / P(prefix) off the prefix-marginal tree, the
    normalisation check, p0 = v0 / (v0 + v1), and bit = (u >= p0) with one
    rng.random() per site unless the bits are fixed.  A chosen conditional
    of exactly zero makes the prefix impossible, and every later site gets
    p0 = 1."""
    tree = _prefix_tree(req)
    prefix = 0
    out_bits: list[int] = []
    probs: list[float] = []
    possible = True
    for site in range(1, req.n_sites + 1):
        p0 = 1.0
        if possible:
            total = tree[site - 1][prefix]
            values = [
                _reference_checked(tree[site][2 * prefix + b] / total, f"site {site} marginal")
                for b in (0, 1)
            ]
            norm = values[0] + values[1]
            if abs(norm - 1.0) > NORM_TOL:
                raise NumericalIntegrityError(f"site {site} marginals sum to {norm!r}")
            p0 = values[0] / norm
        bit = int(bits[site - 1]) if rng is None else int(rng.random() >= p0)
        probs.append(p0)
        out_bits.append(bit)
        possible = possible and values[bit] != 0.0
        if possible:
            prefix = 2 * prefix + bit
    return ChainResult(bits="".join(map(str, out_bits)), probs=tuple(probs))


def block_window(block: SiteBlock) -> tuple[int, ...]:
    """The sites of a block's window, ascending."""
    return tuple(range(block.site, block.site + block.width))


def block_trivial(block: SiteBlock) -> bool:
    """Whether every phase of a block is 1, so that W drops it."""
    return bool(np.all(block.phases == 1.0))


def reference_coupling_key(seed: int, sites: Sequence[int]) -> list[int]:
    """The stream key of coupling `sites` of a random instance."""
    return [seed & 0xFFFFFFFFFFFFFFFF, 1, len(sites), *sites]


def reference_random_coupling(seed: int, xi: float, max_body: int, sites: Sequence[int]) -> float:
    """Coupling `sites` of build_random_instance(params, seed, max_body)
    with params.xi = xi, drawn from its own stream."""
    if len(sites) > max_body:
        return 0.0
    bound = math.exp(-(sites[-1] - sites[0]) / xi)
    return float(np.random.default_rng(reference_coupling_key(seed, sites)).uniform(-bound, bound))


def reference_site_blocks(trunc: TruncatedInstance, t: float) -> list[SiteBlock]:
    """One diagonal block per site, aggregating every coupling with leftmost
    site i and range below r_J (at most 2^{r_J - 1} terms each), read
    off the untruncated instance."""
    inst = trunc.base
    n = inst.n_sites
    r_j = trunc.radii.r_j
    max_extra = inst.max_body - 1

    def subsets(i: int, width: int):
        for extra in range(0, min(max_extra, width - 1) + 1):
            yield from itertools.combinations(range(i + 1, i + width), extra)

    widths = {i: min(r_j, n - i + 1) for i in range(1, n + 1)}
    indices = [(i, *subset) for i, width in widths.items() for subset in subsets(i, width)]
    coupling = dict(zip(indices, inst.coupling_values(indices).tolist()))
    blocks: list[SiteBlock] = []
    for i, width in widths.items():
        angle = np.zeros(2**width)
        z = np.arange(2**width)
        # Window bit b (0-based from the left) is site i + b.
        sign = {
            s: 1.0 - 2.0 * ((z >> (width - 1 - (s - i))) & 1) for s in range(i, i + width)
        }
        for subset in subsets(i, width):
            value = coupling[(i, *subset)]
            if value == 0.0:
                continue
            term = sign[i].copy()
            for s in subset:
                term *= sign[s]
            angle += value * term
        phases = np.exp(-1j * t * angle) if np.any(angle != 0.0) else np.ones(2**width, dtype=complex)
        blocks.append(SiteBlock(site=i, width=width, phases=phases))
    return blocks


def _random_hermitian_unit_norm(rng: np.random.Generator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Random Hermitian with unit operator norm, as (eigenvalues, eigenvectors)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    herm = (g + g.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    scale = np.max(np.abs(vals))
    if scale == 0.0:
        vals = np.zeros(dim)
        vals[-1] = 1.0
        return vals, np.eye(dim, dtype=complex)
    return vals / scale, vecs


def reference_random_constituent(
    params: InstanceParams, seed: int, start: int, width: int
) -> Constituent:
    """The random constituent at (start, width), built alone."""
    sites = placement_sites(params.n_sites, start, width)
    target_sq = (params.q_const / 2) * math.exp(-(width - 1) / params.xi)
    theta = _theta_for_distance(target_sq)
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, *_constituent_tail(start, width)])
    wrapped = sites[-1] != start + width - 1
    if not wrapped:
        vals, vecs = _random_hermitian_unit_norm(rng, 2**width)
        mat = (vecs * np.exp(1j * theta * vals)) @ vecs.conj().T
    else:
        w1 = params.n_sites - start + 1
        w2 = width - w1
        vals1, vecs1 = _random_hermitian_unit_norm(rng, 2**w1)
        vals2, vecs2 = _random_hermitian_unit_norm(rng, 2**w2)
        c = max(vals1.max() + vals2.max(), -(vals1.min() + vals2.min()))
        piece1 = (vecs1 * np.exp(1j * (theta / c) * vals1)) @ vecs1.conj().T
        piece2 = (vecs2 * np.exp(1j * (theta / c) * vals2)) @ vecs2.conj().T
        mat = np.kron(piece1, piece2)
    return Constituent(start, width, sites, mat)


def reference_sample(req, n_samples: int, seed: int) -> list[str]:
    """Bitstrings of samples 0..n_samples-1, one reference_dense_chain each,
    sample i drawing from default_rng([seed mod 2^64, i])."""
    key = int(seed) & 0xFFFFFFFFFFFFFFFF
    return [
        reference_dense_chain(req, rng=np.random.default_rng([key, index])).bits
        for index in range(n_samples)
    ]


_SIDES = ("in", "out")


@dataclass(frozen=True)
class Leg:
    """One open tensor index: wire (site), time-slice id, and direction."""

    site: int
    slice: int
    side: str

    def __post_init__(self) -> None:
        if self.side not in _SIDES:
            raise StructuralError(f"leg side must be 'in' or 'out', got {self.side!r}")


@dataclass(frozen=True)
class DenseTensor:
    """Complex tensor with named legs; data is flat, row-major in leg order,
    every leg of extent 2."""

    legs: tuple[Leg, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        legs = tuple(self.legs)
        object.__setattr__(self, "legs", legs)
        if len(set(legs)) != len(legs):
            raise StructuralError(f"duplicate legs in tensor: {legs}")
        data = np.asarray(self.data, dtype=complex).ravel()
        if data.size != 2 ** len(legs):
            raise StructuralError(
                f"tensor with {len(legs)} legs needs {2 ** len(legs)} entries, got {data.size}"
            )
        if not np.all(np.isfinite(data)):
            raise StructuralError("tensor data contains non-finite entries")
        object.__setattr__(self, "data", data)

    @property
    def ndim(self) -> int:
        return len(self.legs)

    def as_array(self) -> np.ndarray:
        return self.data.reshape((2,) * self.ndim)


def contract(
    a: DenseTensor, b: DenseTensor, pairs: Sequence[tuple[Leg, Leg]]
) -> DenseTensor:
    """Contract two tensors over the given (leg of a, leg of b) pairs.

    Remaining legs keep their order, a's first then b's.  Paired axes are
    processed in ascending position within a so repeated runs sum in the
    same order bit for bit.
    """
    axes_a: list[int] = []
    axes_b: list[int] = []
    seen_a: set[int] = set()
    seen_b: set[int] = set()
    for leg_a, leg_b in pairs:
        try:
            ia = a.legs.index(leg_a)
        except ValueError:
            raise StructuralError(f"first tensor has no leg {leg_a}") from None
        try:
            ib = b.legs.index(leg_b)
        except ValueError:
            raise StructuralError(f"second tensor has no leg {leg_b}") from None
        if ia in seen_a or ib in seen_b:
            raise StructuralError(f"leg paired twice in contraction: {leg_a} / {leg_b}")
        seen_a.add(ia)
        seen_b.add(ib)
        axes_a.append(ia)
        axes_b.append(ib)
    order = np.argsort(axes_a, kind="stable") if axes_a else []
    axes_a = [axes_a[i] for i in order]
    axes_b = [axes_b[i] for i in order]
    out = np.tensordot(a.as_array(), b.as_array(), axes=(axes_a, axes_b))
    legs = tuple(l for i, l in enumerate(a.legs) if i not in seen_a) + tuple(
        l for i, l in enumerate(b.legs) if i not in seen_b
    )
    return DenseTensor(legs, out.ravel())


def naive_network_value(net: ExpectationNetwork) -> complex:
    """Reference evaluation: expand every node (diagonals included) to a
    DenseTensor with explicit legs and fold the network left to right with
    pairwise contract() calls.  Exponential in network size.
    """
    wires = _wire_sequences(net)
    # Assign dense-convention bond labels: bond p on wire w pairs the "out"
    # leg of its left node with the "in" leg of its right node.
    leg_of_node: list[list[tuple[Leg, str]]] = [[] for _ in net.nodes]
    for w, seq in wires.items():
        for p, (left, right) in enumerate(zip(seq, seq[1:])):
            leg = Leg(site=w, slice=p, side="out")
            pair = Leg(site=w, slice=p, side="in")
            leg_of_node[left].append((leg, "out"))
            leg_of_node[right].append((pair, "in"))

    def to_dense(pos: int) -> DenseTensor:
        node = net.nodes[pos]
        arr = _ZERO if node.data is None else node.legs
        if node.kind in ("diag", "proj"):
            w = node.width
            full = np.zeros((2,) * (2 * w), dtype=complex)
            flat = arr.ravel()
            eye = full.reshape(2**w, 2**w)
            np.fill_diagonal(eye, flat)
            arr = full
        outs = [leg for leg, side in leg_of_node[pos] if side == "out"]
        ins = [leg for leg, side in leg_of_node[pos] if side == "in"]
        # Row-major gate layout: out axes over node.sites order, then in axes.
        outs_sorted = sorted(outs, key=lambda l: node.sites.index(l.site))
        ins_sorted = sorted(ins, key=lambda l: node.sites.index(l.site))
        if node.kind == "cap_ket":
            return DenseTensor(tuple(outs_sorted), arr)
        if node.kind == "cap_bra":
            return DenseTensor(tuple(ins_sorted), arr)
        return DenseTensor(tuple(outs_sorted) + tuple(ins_sorted), arr)

    acc = DenseTensor((), np.ones(1, dtype=complex))
    for pos in range(len(net.nodes)):
        t = to_dense(pos)
        # The "out" half of a bond always sits on the earlier node, so when
        # folding in network order only acc-out/t-in pairs can match.
        shared = [
            (leg_a, Leg(leg_a.site, leg_a.slice, "in"))
            for leg_a in acc.legs
            if leg_a.side == "out" and Leg(leg_a.site, leg_a.slice, "in") in t.legs
        ]
        acc = contract(acc, t, shared)
    if acc.legs:
        raise StructuralError(f"network did not close; legs left: {acc.legs}")
    return complex(acc.data[0])


def reference_schedule(net: ExpectationNetwork) -> dict:
    """The qubit-wise plan of net by per-index counters: node_indices,
    index_endpoints (0 for a pinned index), steps as (node index, name,
    memory axes after), step_of, pinned_by (per index a projector pins,
    that projector), peak_open_legs and peak_mem_axes.  A cap without data pins the index it carries and
    is no step, and so does the first projector on an index no such cap
    carries; the dense count still walks every node."""
    wires = _wire_sequences(net)
    n_nodes = len(net.nodes)

    # Walking each wire, a fresh index opens after every non-diagonal node;
    # diagonal nodes share the index they sit on instead of cutting it.
    node_in: list[dict[int, int]] = [dict() for _ in range(n_nodes)]
    node_out: list[dict[int, int]] = [dict() for _ in range(n_nodes)]
    node_diag: list[dict[int, int]] = [dict() for _ in range(n_nodes)]
    index_endpoints: list[int] = []
    # Dense-convention bonds: consecutive nodes on a wire share one bond.
    bonds: list[tuple[int, int]] = []

    def new_index() -> int:
        index_endpoints.append(0)
        return len(index_endpoints) - 1

    for w, seq in wires.items():
        current = new_index()
        node_out[seq[0]][w] = current
        index_endpoints[current] += 1
        for pos in seq[1:]:
            node = net.nodes[pos]
            if node.kind in ("diag", "proj"):
                node_diag[pos][w] = current
                index_endpoints[current] += 1
            else:
                node_in[pos][w] = current
                index_endpoints[current] += 1
                if node.kind != "cap_bra":
                    current = new_index()
                    node_out[pos][w] = current
                    index_endpoints[current] += 1
        for left, right in zip(seq, seq[1:]):
            bonds.append((left, right))

    def node_index_ids(pos: int) -> tuple[int, ...]:
        node = net.nodes[pos]
        if node.kind in ("diag", "proj"):
            return tuple(node_diag[pos][w] for w in node.sites)
        if node.kind == "cap_ket":
            return (node_out[pos][node.sites[0]],)
        if node.kind == "cap_bra":
            return (node_in[pos][node.sites[0]],)
        return tuple(node_out[pos][w] for w in node.sites) + tuple(
            node_in[pos][w] for w in node.sites
        )

    node_indices = [node_index_ids(pos) for pos in range(n_nodes)]
    order = sorted(range(n_nodes), key=lambda pos: (net.nodes[pos].min_site, pos))

    def dataless_cap(pos: int) -> bool:
        node = net.nodes[pos]
        return node.kind in ("cap_ket", "cap_bra") and node.data is None

    pinned = {node_indices[pos][0] for pos in range(n_nodes) if dataless_cap(pos)}
    pinned_by: dict[int, int] = {}
    for pos, node in enumerate(net.nodes):
        idx = node_indices[pos][0]
        if node.kind == "proj" and idx not in pinned:
            pinned.add(idx)
            pinned_by[idx] = pos
    pinning = set(pinned_by.values())
    for idx in pinned:
        index_endpoints[idx] = 0

    # Replay the absorption to count both conventions.
    absorbed_count = [0] * len(index_endpoints)
    step_of = [0] * n_nodes
    open_mem = 0
    bond_by_node: list[list[int]] = [[] for _ in range(n_nodes)]
    for b, (left, right) in enumerate(bonds):
        bond_by_node[left].append(b)
        bond_by_node[right].append(b)
    bond_state = [0] * len(bonds)
    open_dense = 0
    steps = []
    peak_dense = 0
    peak_mem = 0
    for pos in order:
        for b in bond_by_node[pos]:
            bond_state[b] += 1
            if bond_state[b] == 1:
                open_dense += 1
            else:
                open_dense -= 1
        peak_dense = max(peak_dense, open_dense)
        step_of[pos] = len(steps)
        if dataless_cap(pos) or pos in pinning:
            continue
        for idx in node_indices[pos]:
            if idx in pinned:
                continue
            if absorbed_count[idx] == 0:
                open_mem += 1
            absorbed_count[idx] += 1
            if absorbed_count[idx] == index_endpoints[idx]:
                open_mem -= 1
        peak_mem = max(peak_mem, open_mem)
        steps.append((pos, net.nodes[pos].name, open_mem))
    if open_mem != 0 or open_dense != 0:
        raise StructuralError(
            f"network is not closed: {open_mem} indices / {open_dense} bonds left open"
        )
    return {
        "node_indices": node_indices,
        "index_endpoints": index_endpoints,
        "steps": steps,
        "step_of": step_of,
        "pinned_by": pinned_by,
        "peak_open_legs": peak_dense,
        "peak_mem_axes": peak_mem,
    }


def _reference_dagger(node: PlacedTensor) -> PlacedTensor:
    if node.kind == "gate":
        return PlacedTensor(node.name + "'", "gate", node.sites, node.data.conj().T)
    if node.kind == "diag":
        return PlacedTensor(node.name + "'", "diag", node.sites, node.data.conj())
    return node


def _reference_apply_on(
    matrix: np.ndarray, sites: Sequence[int], into: Sequence[int], host: np.ndarray
) -> np.ndarray:
    """E(matrix) @ host, where E embeds a matrix on `sites` into the larger
    matrix space of `into` (identity on the other sites, row-major over the
    bits of `into` in that order): the host's row bits on `sites` are
    moved to the front, multiplied, and moved back."""
    k = len(into)
    local = [into.index(s) for s in sites]
    perm = local + [a for a in range(k) if a not in local] + [k]
    rows = host.reshape((2,) * k + (-1,)).transpose(perm).reshape(len(matrix), -1)
    out = (matrix @ rows).reshape((2,) * k + (-1,))
    return out.transpose([perm.index(a) for a in range(k + 1)]).reshape(host.shape)


def reference_fold_gates(nodes: Sequence[PlacedTensor]) -> list[PlacedTensor]:
    """Fold each gate into the gate next to it on its wires when that gate
    covers all of them, in one pass over the application-ordered list that
    tracks the last node on each wire.  A gate x whose wires all end in one
    gate h becomes part of h: h <- x h.  Otherwise every earlier gate g on
    a subset of x's sites that still ends all of its wires becomes part of
    x: x <- x g, after which the nodes g followed end those wires again and
    are tried in turn.  Diagonals never fold."""
    out: list[PlacedTensor | None] = []
    # Per position in out: for each of its wires, the node it followed.
    before: list[dict[int, int | None]] = []
    last: dict[int, int | None] = {}
    for x in nodes:
        if x.kind == "gate":
            ends = [last.get(s) for s in x.sites]
            if None not in ends and len(set(ends)) == 1 and out[ends[0]].kind == "gate":
                host = out[ends[0]]
                data = _reference_apply_on(x.data, x.sites, host.sites, host.data)
                out[ends[0]] = PlacedTensor(f"{x.name}*{host.name}", "gate", host.sites, data)
                continue
            pending = sorted(set(ends) - {None})
            while pending:
                g = pending.pop()
                low = out[g]
                if (
                    low is None
                    or low.kind != "gate"
                    or not set(low.sites) <= set(x.sites)
                    or any(last[s] != g for s in low.sites)
                ):
                    continue
                # x E(g) = (E(g^T) x^T)^T
                data = _reference_apply_on(low.data.T, low.sites, x.sites, x.data.T).T
                x = PlacedTensor(f"{x.name}*{low.name}", "gate", x.sites, data)
                out[g] = None
                last.update(before[g])
                pending.extend(i for i in before[g].values() if i is not None)
        before.append({s: last.get(s) for s in x.sites})
        for s in x.sites:
            last[s] = len(out)
        out.append(x)
    return [node for node in out if node is not None]


def reference_w_nodes(req) -> tuple[list[PlacedTensor], list[PlacedTensor]]:
    """W's factors in application order and their mirrors, built from
    scratch: U~^dag's factors (each gate daggered on its own), the
    nontrivial diagonal blocks, then U~'s factors in reversed product
    order, folded by reference_fold_gates.  U~'s factors are the
    instance's listed factors of width <= r_U."""
    inst = req.instance
    positions = constituent_positions(req.n_sites, req.radii.r_u, inst.constituent_support)
    gates = [
        PlacedTensor(f"U[{cons.start_site},{cons.width}]", "gate", cons.sites, cons.matrix)
        for cons in inst.constituents_at(positions)
    ]
    blocks = [
        PlacedTensor(f"V[{b.site}]", "diag", block_window(b), b.phases)
        for b in reference_site_blocks(req.trunc, req.t)
        if not block_trivial(b)
    ]
    nodes = reference_fold_gates(
        [_reference_dagger(g) for g in gates] + blocks + list(reversed(gates))
    )
    return nodes, [_reference_dagger(node) for node in nodes]


def reference_build_mps(
    n_sites: int, nodes: Sequence[PlacedTensor], runs: Sequence[range]
) -> MatrixProductState:
    """build_mps with its centre starting on site 1 and a closing sweep
    back to site 1 from wherever the last run left it."""
    centre = _Centre(n_sites, 0)
    for run in runs:
        run = sorted((nodes[i] for i in run), key=lambda node: min(node.sites))
        first, last = min(run[0].sites) - 1, max(max(node.sites) for node in run) - 1
        if abs(centre.b - last) < abs(centre.a - first):
            run.reverse()
        for node in run:
            lo, hi = (s - 1 for s in _block(node))
            centre.span(lo, hi, node.name)
            if node.kind == "gate":
                centre.block = np.matmul(_ascending(node), centre.block)
            else:
                centre.block = centre.block * _ascending(node)[:, None]
    while centre.b > centre.a:
        centre.split_right()
    while centre.a > 0:
        centre.step_left()
    tensors = centre.tensors
    tensors[0] = centre.block / np.linalg.norm(centre.block)
    return MatrixProductState(tuple(np.ascontiguousarray(a) for a in tensors), centre.delta)


def reference_z_string_diagonal(
    n_sites: int, terms: Sequence[tuple[tuple[int, ...], float]]
) -> np.ndarray:
    n = n_sites
    signs = [None] + [
        np.array([1.0, -1.0]).reshape((1,) * (s - 1) + (2,) + (1,) * (n - s))
        for s in range(1, n + 1)
    ]
    diag = np.zeros((2,) * n)
    for sites, value in terms:
        term = value * signs[sites[0]]
        for s in sites[1:]:
            term = term * signs[s]
        diag += term
    return diag.ravel()


def dense_liom(instance: MblInstance, site: int, r_u: int | None = None) -> np.ndarray:
    n = instance.n_sites
    check_dense_feasible(n, "dense_liom")
    if not (1 <= site <= n):
        raise DomainError(f"site {site} out of range for N={n}")
    u = dense_unitary(instance, max_width=r_u)
    z = np.arange(2**n)
    diag = 1.0 - 2.0 * ((z >> (n - site)) & 1)
    return (u * diag) @ u.conj().T
