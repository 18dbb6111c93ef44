"""W = U~ V U~^dagger, the truncated evolution's factor list.

V is the diagonal product of per-site blocks V~_i = exp(-i t H~_i)
collecting the Hamiltonian terms whose leftmost site is i (site_blocks),
and U~ the product of the instance's quasilocal constituents up to width
r_U.  Both read the untruncated instance with the cutoffs: _windows hold
only couplings of range < r_J, and constituent_positions(N, r_U, support)
only factors of width <= r_U.  Every route of the simulate module reads
one list of W's factors: the dense walk, the qubit-wise light cone and the
MPS.

In that list every gate is folded into the gate next to it on its wires
whenever that gate covers all of them (on a chain of width-1 and width-2
constituents, each single-site factor joins a width-2 one).  Folding
leaves W unchanged and keeps the light-cone pruning below exact, so it
changes values only by rounding, while each plan pass runs fewer steps.

W's structure is built once per family and its data once per request.
Which factors W has, their names and sites, the block windows with their
coupling indices and sign rows, the folds, the commuting runs and the
plan-cache token depend only on N, the radii, max_body, the constituent
support and which blocks are trivial; _w_structure and _windows derive
them in bounded caches that hold no seed, value or request.  build_w then
draws a request's data in batches and runs the daggers and folds as
stacked products, one per matrix shape and fold level, each the 2-D
product of folding one pair, so every factor keeps its bytes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import _STRUCTURES, constituent_positions, placement_sites
from .mps import commuting_runs
from .tensor import PlacedTensor
from .truncation import TruncatedInstance, TruncationRadii


@dataclass(frozen=True)
class SiteBlock:
    """Diagonal block V~_i = exp(-i t H~_i) over the window starting at its
    site; phases has 2^width unit-modulus entries (window's leftmost site is
    the most significant bit)."""

    site: int
    width: int
    phases: np.ndarray


@dataclass(frozen=True)
class _Windows:
    """The windows of a family's diagonal blocks, grouped by width in order
    of first use: per width, its windows' first sites, the subsets of
    window bits after bit 0 in the order of the index enumeration, and
    each subset's product of sign rows; and the coupling indices of all
    windows, width by width, window by window, subset by subset."""

    groups: tuple[tuple[int, tuple[int, ...], np.ndarray], ...]
    indices: tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=_STRUCTURES)
def _windows(n_sites: int, r_j: int, max_body: int) -> _Windows:
    by_width: dict[int, list[int]] = {}
    for i in range(1, n_sites + 1):
        by_width.setdefault(min(r_j, n_sites - i + 1), []).append(i)
    groups, indices = [], []
    for width, starts in by_width.items():
        # Site i + b is window bit b.
        subsets = [
            subset
            for extra in range(0, min(max_body - 1, width - 1) + 1)
            for subset in itertools.combinations(range(1, width), extra)
        ]
        z = np.arange(2**width)
        sign = [1.0 - 2.0 * ((z >> (width - 1 - b)) & 1) for b in range(width)]
        terms = np.empty((len(subsets), 2**width))
        for row, subset in zip(terms, subsets):
            row[:] = sign[0]
            for b in subset:
                row *= sign[b]
        terms.flags.writeable = False
        groups.append((width, tuple(starts), terms))
        indices += [(i, *(i + b for b in subset)) for i in starts for subset in subsets]
    return _Windows(tuple(groups), tuple(indices))


def site_blocks(trunc: TruncatedInstance, t: float) -> list[SiteBlock]:
    """One diagonal block per site, aggregating every coupling with leftmost
    site i and range below r_J (at most 2^{r_J - 1} terms each).  The
    couplings of the family's windows (_windows) are read in one batch.
    The windows of one width are built as one stack: subset by subset, in
    the order of the index enumeration, every window's angle adds J times
    the sign product.  A window whose J is 0 adds +-0.0, which leaves every
    angle as it was (an angle starts at +0.0, and no sum with a nonzero
    term is -0.0), so each block's phases are those of adding its nonzero
    terms alone."""
    inst = trunc.base
    n = inst.n_sites
    r_j = trunc.radii.r_j
    windows = _windows(n, r_j, inst.max_body)
    # The windows' indices are valid on this chain by construction.
    values = inst.couplings(windows.indices)
    phases: dict[int, np.ndarray] = {}
    done = 0
    for width, starts, terms in windows.groups:
        count = len(starts) * len(terms)
        group = values[done : done + count].reshape(len(starts), -1)
        done += count
        angle = np.zeros((len(starts), 2**width))
        for column, term in zip(group.T, terms):
            angle += column[:, None] * term
        moved = np.any(angle != 0.0, axis=1)
        block = np.ones(angle.shape, dtype=complex)
        block[moved] = np.exp(-1j * t * angle[moved])
        phases.update(zip(starts, block))
    return [SiteBlock(site=i, width=min(r_j, n - i + 1), phases=phases[i]) for i in range(1, n + 1)]


@dataclass(frozen=True)
class _Fold:
    """Folds that run as one stack: each target slot's matrix T becomes
    E(M) T, M the operand slot's matrix embedded at the local positions
    of the target's wires (left), or T E(M), computed as
    (E(M^T) T^T)^T (right)."""

    right: bool
    local: tuple[int, ...]
    targets: tuple[int, ...]
    operands: tuple[int, ...]


@dataclass(frozen=True)
class _FoldProgram:
    """The folds of a list of W's factors, derived from their names, kinds
    and sites alone (_fold_program): the folds, in levels of independent
    ones, and the folded list as skeleton factors (no data) with, for
    each, the input slot whose data it carries."""

    folds: tuple[_Fold, ...]
    nodes: tuple[PlacedTensor, ...]
    slots: tuple[int, ...]


def _fold_program(skeleton: Sequence[PlacedTensor]) -> _FoldProgram:
    """Fold each gate into the gate next to it on its wires when that gate
    covers all of them, in one pass over the application-ordered list that
    tracks the last node on each wire.  A gate x whose wires all end in one
    gate h (which then acts on a superset of x's sites) becomes part of h:
    h <- x h.  Otherwise every earlier gate g on a subset of x's sites that
    still ends all of its wires becomes part of x: x <- x g, after which
    the nodes g followed end those wires again and are tried in turn.
    Diagonals never fold.

    Neither fold changes W, so neither changes a value beyond rounding:
    the light cone is exact for any list of W's factors.  A slot is a
    factor's position in the input; a fold's level is one past the levels
    of the folds that last wrote its two slots, so the folds of one level
    read nothing another of them writes."""
    out: list[tuple[PlacedTensor, int] | None] = []
    # Per position in out: for each of its wires, the node it followed.
    before: list[dict[int, int | None]] = []
    last: dict[int, int | None] = {}
    level = [0] * len(skeleton)
    folds: dict[tuple, tuple[list[int], list[int]]] = {}

    def fold(right: bool, small: PlacedTensor, big: PlacedTensor, target: int, operand: int):
        level[target] = max(level[target], level[operand]) + 1
        local = tuple(big.sites.index(s) for s in small.sites)
        group = folds.setdefault((level[target], right, big.width, local), ([], []))
        group[0].append(target)
        group[1].append(operand)

    for slot, x in enumerate(skeleton):
        if x.kind == "gate":
            ends = [last.get(s) for s in x.sites]
            if None not in ends and len(set(ends)) == 1 and out[ends[0]][0].kind == "gate":
                host, at = out[ends[0]]
                fold(False, x, host, at, slot)
                out[ends[0]] = (PlacedTensor(f"{x.name}*{host.name}", "gate", host.sites, None), at)
                continue
            pending = sorted(set(ends) - {None})
            while pending:
                g = pending.pop()
                low = out[g]
                if (
                    low is None
                    or low[0].kind != "gate"
                    or not set(low[0].sites) <= set(x.sites)
                    or any(last[s] != g for s in low[0].sites)
                ):
                    continue
                fold(True, low[0], x, slot, low[1])
                x = PlacedTensor(f"{x.name}*{low[0].name}", "gate", x.sites, None)
                out[g] = None
                last.update(before[g])
                pending.extend(i for i in before[g].values() if i is not None)
        before.append({s: last.get(s) for s in x.sites})
        for s in x.sites:
            last[s] = len(out)
        out.append((x, slot))
    kept = [entry for entry in out if entry is not None]
    return _FoldProgram(
        folds=tuple(
            _Fold(right, local, tuple(targets), tuple(operands))
            for (_, right, _, local), (targets, operands) in sorted(
                folds.items(), key=lambda item: item[0][0]
            )
        ),
        nodes=tuple(node for node, _ in kept),
        slots=tuple(slot for _, slot in kept),
    )


def _run_folds(program: _FoldProgram, data: list[np.ndarray]) -> list[np.ndarray]:
    """The folded factors' data: the program's folds applied to the input
    slots' data (a list it overwrites), one stacked product per fold
    group.  Each product is the 2-D one of a single fold, stacked, so
    every result has the bytes of folding one pair at a time."""
    for fold in program.folds:
        hosts = np.stack([data[t].T if fold.right else data[t] for t in fold.targets])
        mats = np.stack([data[o].T if fold.right else data[o] for o in fold.operands])
        k = hosts.shape[1].bit_length() - 1
        local = list(fold.local)
        perm = [0] + [a + 1 for a in local + [a for a in range(k) if a not in local] + [k]]
        rows = hosts.reshape((len(hosts),) + (2,) * k + (-1,)).transpose(perm)
        out = (mats @ rows.reshape(len(hosts), mats.shape[1], -1)).reshape(rows.shape)
        out = out.transpose(np.argsort(perm)).reshape(hosts.shape)
        for t, matrix in zip(fold.targets, out):
            data[t] = matrix.T if fold.right else matrix
    return [data[slot] for slot in program.slots]


def _daggers(data: Sequence[np.ndarray], kinds: Sequence[str]) -> list[np.ndarray]:
    """The adjoints of gate matrices and the conjugates of diagonals, as
    views of one conjugated stack per kind, shape and memory order.  Each
    has the values and the memory order of data.conj().T (a gate's) or
    data.conj() (a diagonal's): an adjoint is C-ordered where its gate is
    Fortran-ordered and Fortran-ordered otherwise."""
    out: list[np.ndarray | None] = [None] * len(data)
    groups: dict[tuple, list[int]] = {}
    for i, (array, kind) in enumerate(zip(data, kinds)):
        fortran = kind == "gate" and array.flags.f_contiguous and not array.flags.c_contiguous
        groups.setdefault((kind, array.shape, fortran), []).append(i)
    for (kind, _, fortran), members in groups.items():
        if fortran:
            stack = np.stack([data[i].T for i in members]).conj()
        else:
            stack = np.stack([data[i] for i in members]).conj()
            if kind == "gate":
                stack = stack.swapaxes(1, 2)
        for i, array in zip(members, stack):
            out[i] = array
    return out


@dataclass(frozen=True)
class _WStructure:
    """What of W does not depend on a drawn value: the fold program of its
    factor list, the folded list's commuting runs, the positions of its
    factors off ascending contiguous sites (those that wrap past site N),
    and the plan-cache token."""

    program: _FoldProgram
    runs: tuple[range, ...]
    wrapped: frozenset[int]
    token: str


@functools.lru_cache(maxsize=_STRUCTURES)
def _w_structure(
    n_sites: int,
    r_u: int,
    r_j: int,
    max_body: int,
    support: tuple[tuple[int, int], ...] | None,
    trivial: tuple[bool, ...],
) -> _WStructure:
    """W's structure for a family, from its structural inputs alone."""
    gates = [
        PlacedTensor(f"U[{k},{w}]", "gate", placement_sites(n_sites, k, w), None)
        for k, w in constituent_positions(n_sites, r_u, support)
    ]
    widths = {i: width for width, starts, _ in _windows(n_sites, r_j, max_body).groups for i in starts}
    blocks = [
        PlacedTensor(f"V[{i}]", "diag", tuple(range(i, i + widths[i])), None)
        for i, skip in enumerate(trivial, 1)
        if not skip
    ]
    # W applied to a ket: the U~^dag factors act first (in product-enumeration
    # order, daggered), then the diagonal blocks, then the U~ factors in
    # reversed enumeration order.
    program = _fold_program(
        [PlacedTensor(g.name + "'", "gate", g.sites, None) for g in gates]
        + blocks
        + list(reversed(gates))
    )
    structure = [(node.name, node.kind, node.sites) for node in program.nodes]
    return _WStructure(
        program=program,
        runs=tuple(commuting_runs(program.nodes)),
        wrapped=frozenset(
            i
            for i, node in enumerate(program.nodes)
            if node.sites != tuple(range(node.sites[0], node.sites[0] + node.width))
        ),
        token=repr((n_sites, TruncationRadii(r_j, r_u), structure)),
    )


@dataclass(frozen=True)
class W:
    """One request's W: its family's structure and its folded factors in
    application order, trivial blocks dropped.
    The mirrors (for W^dag: a gate's adjoint, a diagonal's conjugate) are
    built on first use, so the dense route never builds them."""

    structure: _WStructure
    nodes: list[PlacedTensor]

    @functools.cached_property
    def mirrors(self) -> list[PlacedTensor]:
        data = _daggers([node.data for node in self.nodes], [node.kind for node in self.nodes])
        return [
            PlacedTensor(node.name + "'", node.kind, node.sites, array)
            for node, array in zip(self.nodes, data)
        ]


def build_w(trunc: TruncatedInstance, blocks: Sequence[SiteBlock]) -> W:
    """The W of a truncated instance whose site blocks site_blocks gave:
    the family's structure from _w_structure, and the data of its
    factors of width <= r_U drawn in one batch, daggered and folded in
    stacks."""
    inst = trunc.base
    n, r_u, r_j = inst.n_sites, trunc.radii.r_u, trunc.radii.r_j
    support = inst.constituent_support
    gates = [cons.matrix for cons in inst.constituents_at(constituent_positions(n, r_u, support))]
    phases = [block.phases for block in blocks]
    # Whether each block's phases are all 1, in one pass.
    starts = np.cumsum([0] + [len(p) for p in phases[:-1]])
    trivial = np.logical_and.reduceat(np.concatenate(phases) == 1.0, starts).tolist()
    structure = _w_structure(n, r_u, r_j, inst.max_body, support, tuple(trivial))
    data = (
        _daggers(gates, ["gate"] * len(gates))
        + [p for p, skip in zip(phases, trivial) if not skip]
        + gates[::-1]
    )
    program = structure.program
    nodes = [
        PlacedTensor(node.name, node.kind, node.sites, array)
        for node, array in zip(program.nodes, _run_folds(program, data))
    ]
    return W(structure, nodes)
