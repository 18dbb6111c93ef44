"""Strong simulation of a truncated instance and chain-rule sampling.

The truncated evolution factorizes as W = U~ V U~^dagger, where V is the
diagonal product of per-site blocks V~_i = exp(-i t H~_i) collecting the
Hamiltonian terms whose leftmost site is i.  Expectation values of diagonal
observable products are closed tensor networks <0|W^dag O W|0>.

Two exact routes evaluate them from the same placed tensors: the qubit-wise
contraction plan of the tensor module (any N, feasible when the structural
leg profile stays small, e.g. for narrow-constituent instances), and the
dense state vector W|0> (N up to the dense cap).  The route never changes
the value; "auto" takes the dense route whenever N allows it, because it
is faster there.

Both routes read one list of W's factors, in which every gate is folded
into the gate next to it on its wires whenever that gate covers all of
them (on a chain of width-1 and width-2 constituents, each single-site
factor joins a width-2 one).  Folding leaves W unchanged and keeps the
light-cone pruning below exact, so it changes values only by rounding,
while each plan pass runs fewer steps.

W's structure is built once per family and its data once per request.
Which factors W has, their names and sites, the windows of the diagonal
blocks with their coupling indices and sign rows, which gate folds into
which, the commuting runs and the plan-cache token depend only on N, the
radii, max_body, the instance's constituent support and which
constituents are the identity and which blocks trivial; _w_structure and
_windows derive them from those inputs alone and keep them in bounded
caches that hold no seed, value or request.  A request then draws its
constituents and couplings in batches and runs the daggers and the folds
as stacked products, one per matrix shape and fold level, each the 2-D
product of folding one pair, so every factor keeps its bytes.

Sampling walks the chain rule: at each site w a marginal source gives the
two conditionals P(z_w = b | z_1..z_{w-1}) and the walk flips one biased
coin, for a batch of branches at once.  No probability is derived by
subtraction or cut at an absolute threshold.  The dense source reads the
conditionals off a tree of prefix marginals of |W|0>|^2, for every sample
of a sample() call at once.  The plan source walks one branch; it rests
on quasilocality: an observable only sees the backward light cone of its
sites in W, and every W factor outside it cancels against its mirror.
_light_cone walks W's commuting runs (the layers of U~ and V) from last
to first, and a run grows the cone only by its factors that meet the
sites the run was handed.  So the cone of a single site spans a window
of W's layers, O(r_U + r_J) sites wide whatever the site and N, while
the cone of sites 1..w holds every site up to w and beyond.  One
builder, _cone, makes the light-cone network of sites 1..w with an
identity mark per site; the cone of all N sites is the chain network,
which the walk contracts once per chain, forking at each site w onto the
cone of sites 1..w to finish it once per outcome.

A one-shot conditional_probability has three marginal sources.  The dense
route reads the prefix-marginal tree.  The plan route reads an exact
matrix product state of W|0> (the mps module), built from the same
folded factors, with one sweep over the prefix.  An MPS takes ~250 KB
at N=32, twice the request's W factors and their mirrors, so the process
holds one, that of the request whose plan-route conditional came last: a
request's conditionals share one build while no other request's come
between them.  It falls back to the qubit-wise
light cone of sites 1..w, with its prefix projectors on sites 1..w-1 and
an identity mark on w, forked at the mark once per outcome, when a factor
of W wraps past site N, when a merged MPS block would exceed the engine
cap, and for a prefix too unlikely for the MPS to resolve (the rule is in
conditional_probability's docstring).  expectation, the chain walk and
sample never build the MPS.

A plan depends on a network's structure alone, never on its data, and
the one-shot networks of one instance family repeat their structure
across queries and requests (the pruned sigma^z network of a site keeps
the same factors whatever the instance's values, and its plan has the
same length at every site of the bulk and at every N).  So expectation
and the one-shot conditional take their plans from one process-wide
least-recently-used cache.  Its key must fix everything the scheduler
reads: N, the network's radii and, per node, its name, kind, sites and
whether it has data (a cap without data pins its id, see the tensor
module).  Every one-shot network is W's light cone of its middle nodes
between caps, built by _one_shot_network, so that builder gives the
key: a token for N, the radii and W's per-factor structure, made once
per family with W's structure, plus the keep flags of the cone and the middle nodes,
which fix the rest.  A
basis projector pins its id too; its kind marks it and its name leaves
out its bit, which the runner reads, so plans carry no bits and every
prefix of a site shares one.  The key holds no arrays, so the cache
keeps no request alive.  It is bounded by the plan steps it holds,
PLAN_CACHE_STEPS (~400 bytes each), and a plan longer than that is not
stored.  Only prefix cones grow with their site: those of a one-shot
conditional's fallback share the cache, while those of the chain walk
stay cached on their request, for chains only, since sharing them would
keep O(N^2) plan data in the process.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, FeasibilityError, NumericalIntegrityError, StructuralError
from .model import (
    _STRUCTURES,
    UNITARITY_TOL,
    MblInstance,
    _dense_cap,
    apply_to_state,
    check_dense_feasible,
    constituent_positions,
    placement_sites,
)
from .mps import MatrixProductState, build_mps, commuting_runs, prefix_pair
from .tensor import (
    ContractionPlan,
    ExpectationNetwork,
    ForkTarget,
    PlacedTensor,
    PlanRunner,
    qubitwise_schedule,
)
from .truncation import TruncatedInstance, TruncationRadii, select_radii, truncate

IMAG_TOL = 1e-9
# The two marginals of a chain site are conditionals of the current prefix;
# their sum may miss one by this much before the walk refuses.
NORM_TOL = 1e-9

_PIVOT_KINDS = ("sigma_z", "proj0", "proj1")

# Plan steps the shared one-shot plan cache holds at most: ~6 MiB.
PLAN_CACHE_STEPS = 1 << 14

# A plan-route conditional is read off the MPS of W|0> only when P(prefix)
# is at least MPS_MIN_PREFIX (see conditional_probability).
MPS_MIN_PREFIX = 1e-8


@dataclass(frozen=True)
class ObservableProduct:
    """Product of single-site projectors below a pivot site and one pivot
    factor on it: either sigma^z (expectation in [-1,1]) or a projector
    (all-projector variant, expectation in [0,1]).  Optional per-site 2x2
    basis rotations R_j turn a factor F_j into R_j^dag F_j R_j."""

    pivot_site: int
    projectors: tuple[tuple[int, int], ...] = ()
    pivot_kind: str = "sigma_z"
    rotations: tuple[tuple[int, np.ndarray], ...] = ()

    def __post_init__(self) -> None:
        if _integer(self.pivot_site, "pivot site") < 1:
            raise DomainError(f"pivot site must be >= 1, got {self.pivot_site}")
        if self.pivot_kind not in _PIVOT_KINDS:
            raise DomainError(f"pivot kind must be one of {_PIVOT_KINDS}, got {self.pivot_kind!r}")
        sites = [_integer(s, "projector site") for s, _ in self.projectors]
        bits = _binary_digits([b for _, b in self.projectors], len(sites), "projector outcomes")
        proj = tuple(sorted(zip(sites, bits)))
        object.__setattr__(self, "projectors", proj)
        for s, _ in proj:
            if not (1 <= s < self.pivot_site):
                raise DomainError(
                    f"projector site {s} must lie strictly below the pivot {self.pivot_site}"
                )
        rot = [(_integer(s, "rotation site"), np.asarray(r, dtype=complex)) for s, r in self.rotations]
        rot = tuple(sorted(rot, key=lambda x: x[0]))
        object.__setattr__(self, "rotations", rot)
        for s, r in rot:
            if s < 1:
                raise DomainError(f"rotation site must be >= 1, got {s}")
            if r.shape != (2, 2):
                raise DomainError(f"rotation on site {s} must be a 2x2 matrix")
            dev = np.linalg.norm(r.conj().T @ r - np.eye(2), 2)
            if dev > UNITARITY_TOL:
                raise DomainError(
                    f"rotation on site {s} is not unitary: "
                    f"||R^dag R - 1|| = {dev:.3e} > {UNITARITY_TOL}"
                )
        for what, entries in (("projector", proj), ("rotation", rot)):
            sites = [s for s, _ in entries]
            for s, t in zip(sites, sites[1:]):
                if s == t:
                    raise DomainError(f"{what} site {s} is given more than once")

    @classmethod
    def prefix_projector(cls, bits: Sequence[int] | str) -> "ObservableProduct":
        """All-projector observable fixing z_1..z_m to the given bits."""
        bits = _binary_digits(bits, len(bits), "prefix projector bits")
        if not bits:
            raise DomainError("prefix projector needs at least one bit")
        return cls(
            pivot_site=len(bits),
            projectors=tuple((i + 1, b) for i, b in enumerate(bits[:-1])),
            pivot_kind=f"proj{bits[-1]}",
        )

    @property
    def is_projector(self) -> bool:
        return self.pivot_kind != "sigma_z"

    def support(self) -> tuple[int, ...]:
        sites = {self.pivot_site}
        sites.update(s for s, _ in self.projectors)
        sites.update(s for s, _ in self.rotations)
        return tuple(sorted(sites))


def _check_sites(obs: ObservableProduct, n_sites: int) -> None:
    """Refuse an observable acting on a site above N."""
    top = obs.support()[-1]
    if top > n_sites:
        raise DomainError(f"observable site {top} out of range for N={n_sites}")


@dataclass(frozen=True)
class SiteBlock:
    """Diagonal block V~_i = exp(-i t H~_i) over the window starting at its
    site; phases has 2^width unit-modulus entries (window's leftmost site is
    the most significant bit)."""

    site: int
    width: int
    phases: np.ndarray

    @property
    def trivial(self) -> bool:
        return bool(np.all(self.phases == 1.0))

    def window(self) -> tuple[int, ...]:
        return tuple(range(self.site, self.site + self.width))


@dataclass(frozen=True)
class SampleRecord:
    bits: str
    seed: int
    index: int


@dataclass(frozen=True, slots=True)
class SampleRecords(Sequence[SampleRecord]):
    """The records of one sample() call, in index order.  Each sample is
    kept as ceil(N/8) bytes, its bits packed by np.packbits with site 1 in
    the most significant bit of the first byte and zero padding after site
    N, and each record is made on access, so a caller holding 10^5
    samples pays ceil(N/8) bytes for each rather than ~160 bytes of Python
    objects."""

    seed: int
    n_sites: int
    packed: bytes

    @property
    def _width(self) -> int:
        return -(-self.n_sites // 8)

    def __len__(self) -> int:
        return len(self.packed) // self._width

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        # Indexing a range wraps negative indices and raises IndexError.
        i = range(len(self))[index]
        w, n = self._width, self.n_sites
        row = int.from_bytes(self.packed[i * w : (i + 1) * w], "big") >> (8 * w - n)
        return SampleRecord(bits=format(row, f"0{n}b"), seed=self.seed, index=i)


@dataclass(frozen=True)
class SimulationRequest:
    """One simulation setting: instance, evolution time, TVD budget, and the
    truncation radii (certified by select_radii unless overridden)."""

    instance: MblInstance
    t: float
    epsilon: float
    radii: TruncationRadii
    _cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not (0 < self.epsilon < 1):
            raise DomainError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.t < 0:
            raise DomainError(f"t must be nonnegative, got {self.t}")

    @classmethod
    def certified(cls, instance: MblInstance, t: float, epsilon: float) -> "SimulationRequest":
        radii = select_radii(instance.params, epsilon, t)
        return cls(instance=instance, t=t, epsilon=epsilon, radii=radii)

    @property
    def n_sites(self) -> int:
        return self.instance.n_sites

    @property
    def trunc(self) -> TruncatedInstance:
        hit = self._cache.get("trunc")
        if hit is None:
            hit = truncate(self.instance, self.radii)
            self._cache["trunc"] = hit
        return hit


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
    windows, their coupling indices and sign rows depend on N, r_J and
    max_body alone, so they are derived once per family (_windows); the
    couplings of all windows are read in one batch.  The windows of one
    width are built as one stack: subset by subset, in the order of the
    index enumeration, every window's angle adds J times the sign
    product.  A window whose J is 0 adds +-0.0, which leaves every angle
    as it was (an angle starts at +0.0, and no sum with a nonzero term is
    -0.0), so each block's phases are those of adding its nonzero terms
    alone."""
    inst = trunc.instance
    n = inst.n_sites
    r_j = trunc.radii.r_j
    windows = _windows(n, r_j, inst.max_body)
    # The windows' indices are valid on this chain by construction.
    values = inst._read_couplings(windows.indices)
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


# ---------------------------------------------------------------------------
# W's factors: structure once per family, data once per request


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
    """Everything about W = U~ V U~^dag that does not depend on a drawn
    value: the fold program of its factor list, the commuting runs of the
    folded list, and the plan-cache token of its structure."""

    program: _FoldProgram
    runs: tuple[range, ...]
    token: str


@functools.lru_cache(maxsize=_STRUCTURES)
def _w_structure(
    n_sites: int,
    r_u: int,
    r_j: int,
    max_body: int,
    support: tuple[tuple[int, int], ...] | None,
    identity: tuple[bool, ...],
    trivial: tuple[bool, ...],
) -> _WStructure:
    """W's structure for a family: from N, the radii, max_body and the
    instance's constituent support (which fix the constituent positions
    and the block windows), and which constituents are the identity and
    which blocks trivial."""
    positions = constituent_positions(n_sites, r_u, support)
    gates = [
        PlacedTensor(f"U[{k},{w}]", "gate", placement_sites(n_sites, k, w), None)
        for (k, w), skip in zip(positions, identity)
        if not skip
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
        token=repr((n_sites, TruncationRadii(r_j, r_u), structure)),
    )


def _structure(req: SimulationRequest) -> _WStructure:
    """The request's W structure, once _w_nodes has read its data."""
    _w_nodes(req)
    return req._cache["w_structure"]


def _w_nodes(req: SimulationRequest) -> list[PlacedTensor]:
    """Application-ordered placed tensors of W = U~ V U~^dag (no caps, no
    observable); identity constituents and trivial blocks are dropped, and
    each gate is folded into a neighbouring gate that covers its wires
    (_fold_program), so every consumer, the dense walk included, reads
    fewer and wider factors of the same W.

    The structure (which factors, their names and sites, the folds, the
    commuting runs) is the family's, cached by _w_structure; per request
    only the data is built: the batched constituents and blocks, the
    daggers as one conjugated stack per shape, and the folds as one
    stacked product per level and shape."""
    hit = req._cache.get("w_nodes")
    if hit is not None:
        return hit
    inst = req.trunc.instance
    n, r_u, r_j = req.n_sites, req.radii.r_u, req.radii.r_j
    support = inst.constituent_support
    constituents = inst.constituents_at(constituent_positions(n, r_u, support))
    blocks = site_blocks(req.trunc, req.t)
    phases = [block.phases for block in blocks]
    # Each block's SiteBlock.trivial, in one pass.
    starts = np.cumsum([0] + [len(p) for p in phases[:-1]])
    trivial = np.logical_and.reduceat(np.concatenate(phases) == 1.0, starts).tolist()
    structure = _w_structure(
        n,
        r_u,
        r_j,
        inst.max_body,
        support,
        tuple(cons.is_identity for cons in constituents),
        tuple(trivial),
    )
    gates = [cons.matrix for cons in constituents if not cons.is_identity]
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
    req._cache["w_structure"] = structure
    req._cache["w_nodes"] = nodes
    return nodes


def _mirrors(req: SimulationRequest) -> list[PlacedTensor]:
    """The mirror image of each of W's factors, for W^dag: a gate's
    adjoint, a diagonal's conjugate; cached on the request."""
    hit = req._cache.get("mirrors")
    if hit is None:
        w_list = _w_nodes(req)
        data = _daggers([node.data for node in w_list], [node.kind for node in w_list])
        hit = req._cache["mirrors"] = [
            PlacedTensor(node.name + "'", node.kind, node.sites, array)
            for node, array in zip(w_list, data)
        ]
    return hit


# Diagonals of the single-site observable factors.
_DIAGS = {
    "proj0": np.array([1.0, 0.0], dtype=complex),
    "proj1": np.array([0.0, 1.0], dtype=complex),
    "sigma_z": np.array([1.0, -1.0], dtype=complex),
}


def _observable_nodes(obs: ObservableProduct) -> list[PlacedTensor]:
    """The observable's nodes: rotations, then its projectors (the pivot
    too when it is one), or a sigma^z pivot, then the rotations' mirrors.
    A projector's name leaves out its bit, so that the products of one
    support share a plan."""
    nodes: list[PlacedTensor] = []
    for site, r in obs.rotations:
        nodes.append(PlacedTensor(f"R[{site}]", "gate", (site,), r))
    for site, bit in obs.projectors:
        nodes.append(_wire_node(f"proj{bit}", site))
    if obs.is_projector:
        nodes.append(_wire_node(obs.pivot_kind, obs.pivot_site))
    else:
        sigma_z = _DIAGS[obs.pivot_kind]
        nodes.append(PlacedTensor(f"O[{obs.pivot_site}]", "diag", (obs.pivot_site,), sigma_z))
    for site, r in reversed(obs.rotations):
        nodes.append(PlacedTensor(f"R[{site}]'", "gate", (site,), r.conj().T))
    return nodes


def _w_runs(req: SimulationRequest) -> tuple[range, ...]:
    """The commuting runs of _w_nodes(req) (mps.commuting_runs), from the
    family's W structure: the light cone walks them, and the MPS applies
    them."""
    return _structure(req).runs


def _light_cone(req: SimulationRequest, support: Iterable[int]) -> list[bool]:
    """Backward light cone of a set of sites in W: walking W's commuting
    runs from last applied to first, keep each factor of a run that meets
    the support the run was handed, then grow the support by the kept
    factors' sites.  Returns the keep flags.  A dropped factor commutes
    with every factor of its run and with the operator conjugated so far,
    so it cancels against its mirror image in W^dag (.) W.

    The cone of a site p spans a window of W's layers around p, whose
    width depends on neither p nor N.  A prefix support 1..m keeps every
    factor that meets it, as the chain walk's forks need.  When no factor
    wraps past site N, it gets the flags of a walk that grows the support
    after every factor: a run's gates share no site with its other
    factors, and walking back over V's ascending windows, every window
    that 1..m misses comes before the first one it meets."""
    w_list = _w_nodes(req)
    supp = set(support)
    keep = [False] * len(w_list)
    for run in reversed(_w_runs(req)):
        met = [i for i in run if not supp.isdisjoint(w_list[i].sites)]
        for i in met:
            keep[i] = True
            supp.update(w_list[i].sites)
    return keep


@functools.cache
def _wire_node(kind: str, w: int) -> PlacedTensor:
    """The ket cap, bra cap, identity mark ("diag") or basis projector
    ("proj0", "proj1") of wire w.  Every network holds the same object, as
    it holds the same W factors and mirrors, so _cone_target can match
    nodes by identity.  Both projectors of a wire are named P[w]: a plan
    never depends on their bit (see the tensor module)."""
    if kind == "diag":
        return PlacedTensor(f"I[{w}]", "diag", (w,), np.ones(2, dtype=complex))
    if kind.startswith("proj"):
        return PlacedTensor(f"P[{w}]", "proj", (w,), _DIAGS[kind])
    return PlacedTensor(f"{kind[4:]}[{w}]", kind, (w,), None)


def _closed_network(
    req: SimulationRequest, keep: Sequence[bool], middle: Sequence[PlacedTensor]
) -> ExpectationNetwork:
    """<0|W^dag (middle) W|0> over the W factors flagged in keep, laid out
    as ket caps, the factors, the middle nodes, the factors' mirrors (from
    one mirror cache per request), bra caps.  Only the wires these nodes
    touch are capped: a bare wire contributes <0|0> = 1.

    The network carries the request's radii, so that its plan is checked
    against the analytic open-leg bound, only when every factor sits on
    ascending contiguous sites: the bound does not cover a constituent
    that wraps past site N on a periodic chain."""
    w_list = _w_nodes(req)
    mirrors = _mirrors(req)
    kept = [i for i, k in enumerate(keep) if k]
    w_kept = [w_list[i] for i in kept]
    wires = sorted({s for node in w_kept + list(middle) for s in node.sites})
    nodes = (
        [_wire_node("cap_ket", w) for w in wires]
        + w_kept
        + list(middle)
        + [mirrors[i] for i in reversed(kept)]
        + [_wire_node("cap_bra", w) for w in wires]
    )
    unwrapped = all(node.sites[-1] - node.sites[0] == node.width - 1 for node in w_kept)
    return ExpectationNetwork(
        n_sites=req.n_sites,
        nodes=tuple(nodes),
        r_u=req.radii.r_u if unwrapped else None,
        r_j=req.radii.r_j if unwrapped else None,
    )


def _one_shot_network(
    req: SimulationRequest, middle: Sequence[PlacedTensor]
) -> tuple[ExpectationNetwork, tuple]:
    """The one-shot network of the middle nodes, <0|W^dag (middle) W|0>
    over the light cone of the sites they touch (_closed_network), and its
    key in the shared plan cache.  The key is a token for N, the radii and
    W's per-factor name, kind and sites, made once per family, plus the
    keep flags and, per middle node, its name, kind, sites and whether it
    has data: together they fix the network's structure, its caps, mirrors
    and radii included."""
    keep = _light_cone(req, {s for node in middle for s in node.sites})
    token = _structure(req).token
    middle_key = tuple((node.name, node.kind, node.sites, node.data is None) for node in middle)
    return _closed_network(req, keep, middle), (token, bytes(keep), middle_key)


def build_expectation_network(
    req: SimulationRequest, obs: ObservableProduct, prune: bool = True
) -> ExpectationNetwork:
    """Closed network for <0|W^dag O W|0>.  With prune=True, only the W
    factors in the light cone of O's sites are kept (_light_cone); every
    other factor is dropped together with its mirror image, as the pair
    cancels exactly, so the value is unchanged up to rounding.  The
    pruned network is the one expectation contracts."""
    _check_sites(obs, req.n_sites)
    middle = _observable_nodes(obs)
    if prune:
        return _one_shot_network(req, middle)[0]
    return _closed_network(req, [True] * len(_w_nodes(req)), middle)


def _cone(req: SimulationRequest, site: int):
    """Light-cone network of sites 1..site with an identity diagonal (mark)
    on each of them, its qubit-wise plan, and the node position of each
    mark by site; cached on the request, for the chain walk only.

    Overriding marks 1..site with projectors turns the network into the
    marginal P(z_1..z_site).  Every W factor meets some site, so
    _cone(req, N) is the unpruned chain network: the chain walk runs its
    plan once from the left, overriding each mark once its outcome is
    chosen, and forks onto _cone_target's smaller cones for the
    marginals."""
    cones = req._cache.setdefault("cones", {})
    hit = cones.get(site)
    if hit is None:
        diags = [_wire_node("diag", w) for w in range(1, site + 1)]
        network = _closed_network(req, _light_cone(req, range(1, site + 1)), diags)
        where = {id(node): pos for pos, node in enumerate(network.nodes)}
        marks = {w: where[id(node)] for w, node in enumerate(diags, 1)}
        hit = cones[site] = (network, qubitwise_schedule(network), marks)
    return hit


def _cone_target(req: SimulationRequest, runner: PlanRunner, site: int) -> ForkTarget:
    """Where the chain runner, paused just before mark `site`, continues to
    get the marginals of sites 1..site: the plan of _cone(req, site) from
    its own mark `site` on; cached on the request.

    Every node the runner has absorbed lies in that light cone, so up to
    the mark both plans absorb the same nodes in the same order; they
    differ only in that removing a W...W^dag segment merges the indices on
    either side of it.  The runner gives the chain network and plan, and
    the order of its open ids, which the chain plan fixes."""
    targets = req._cache.setdefault("cone_targets", {})
    hit = targets.get(site)
    if hit is not None:
        return hit
    chain, chain_plan = runner.net, runner.plan
    network, plan, _ = _cone(req, site)
    cut = runner.position
    head = list(zip(chain_plan.steps[: cut + 1], plan.steps[: cut + 1]))
    if len(head) != cut + 1 or any(
        chain.nodes[a.node_index] is not network.nodes[b.node_index] for a, b in head
    ):
        raise AssertionError(f"light cone of sites 1..{site} misses an absorbed node")
    ids: dict[int, int] = {}
    for a, b in head[:cut]:
        ids.update(zip(chain_plan.node_indices[a.node_index], plan.node_indices[b.node_index]))
    hit = ForkTarget(network, plan, cut, {i: ids[i] for i in runner.open_ids})
    targets[site] = hit
    return hit


# ---------------------------------------------------------------------------
# Evaluation routes


def _route(req: SimulationRequest, engine: str) -> str:
    """The route an engine choice takes for this request: "plan" or
    "dense" as given, and for "auto" the dense route whenever N is within
    the dense cap."""
    if engine not in ("auto", "plan", "dense"):
        raise DomainError(f"unknown engine {engine!r}")
    if engine != "auto":
        return engine
    return "dense" if req.n_sites <= _dense_cap() else "plan"


class _PlanCache:
    """Plans of one-shot networks, least recently used first, keyed by
    structure and bounded by PLAN_CACHE_STEPS.  A miss schedules through
    this module's qubitwise_schedule.  Like the caches on a request, it
    is read and written by one thread at a time."""

    def __init__(self) -> None:
        self.plans: OrderedDict[tuple, ContractionPlan] = OrderedDict()
        self.steps = 0

    def plan(self, network: ExpectationNetwork, key: tuple) -> ContractionPlan:
        """The network's plan, filed under the key _one_shot_network gave
        with it."""
        hit = self.plans.get(key)
        if hit is not None:
            self.plans.move_to_end(key)
            return hit
        plan = qubitwise_schedule(network)
        if len(plan.steps) <= PLAN_CACHE_STEPS:
            self.plans[key] = plan
            self.steps += len(plan.steps)
            while self.steps > PLAN_CACHE_STEPS:
                _, old = self.plans.popitem(last=False)
                self.steps -= len(old.steps)
        return plan


_PLANS = _PlanCache()


def _runner(req: SimulationRequest, plan: ContractionPlan, network) -> PlanRunner:
    """PlanRunner for a plan-route contraction.  Its size refusals gain the
    route advice the tensor layer cannot give."""
    try:
        return PlanRunner(plan, network)
    except FeasibilityError as exc:
        n, cap = req.n_sites, _dense_cap()
        advice = (
            f"N={n} is within the dense cap of {cap} sites, use engine='dense'"
            if n <= cap
            else f"N={n} is above the dense cap of {cap} sites, so no exact route "
            "is feasible for this instance"
        )
        raise FeasibilityError(f"{exc}; {advice}") from None


def _checked(raw, what: str | Callable[[int], str], lo: float = 0.0, hi: float = 1.0):
    """Real part of a computed probability or expectation, or of an array
    of them, clamped to [lo, hi]; an imaginary residue, an excursion beyond
    IMAG_TOL or a NaN is refused.  what names the value, or for an array,
    what(k) names entry k.  A scalar comes back as a float."""
    raw = np.asarray(raw)
    value = raw.real
    small = np.abs(raw.imag) <= IMAG_TOL
    inside = small & (value >= lo) & (value <= hi)
    # Almost always every value is inside [lo, hi]: nothing to refuse or clamp.
    if np.count_nonzero(inside) < inside.size:
        ok = small & (value >= lo - IMAG_TOL) & (value <= hi + IMAG_TOL)
        if np.count_nonzero(ok) < ok.size:
            k = int(np.flatnonzero(~ok)[0])
            name = what if raw.ndim == 0 else what(k)
            imag, real = raw.imag.flat[k], value.flat[k]
            if not abs(imag) <= IMAG_TOL:
                raise NumericalIntegrityError(
                    f"{name} has imaginary residue {imag:.3e} above {IMAG_TOL}"
                )
            raise NumericalIntegrityError(
                f"{name} {real} outside [{lo}, {hi}] beyond tolerance"
            )
        # The clamps of min(max(value, lo), hi), signed zeros included.
        value = np.where(lo > value, lo, np.where(hi < value, hi, value))
    return float(value) if raw.ndim == 0 else value


def _evolved_tensor(req: SimulationRequest) -> np.ndarray:
    """Dense W|0...0> as a (2,)*N tensor, by walking the same placed tensors
    the network route contracts.  Cached on the request."""
    hit = req._cache.get("psi")
    if hit is not None:
        return hit
    n = req.n_sites
    check_dense_feasible(n, "dense expectation walk")
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for node in _w_nodes(req):
        if node.kind == "gate":
            psi = apply_to_state(node.data, node.sites, psi, n)
        else:
            shape = [1] * n
            for s in node.sites:
                shape[s - 1] = 2
            # Diagonal windows are ascending contiguous sites, so the phase
            # array reshapes directly onto the state axes.
            psi = psi * node.data.reshape(shape)
    req._cache["psi"] = psi
    return psi


def _prefix_tree(req: SimulationRequest) -> list[np.ndarray]:
    """Prefix marginals of |W|0...0>|^2: level k holds P(z_1..z_k) for all
    2^k prefixes, indexed by the prefix read as a binary number (site 1
    most significant); level 0 holds the total weight.  Every entry is the
    floating-point sum of its two children, so the two conditionals of a
    prefix sum to one within rounding.  Cached on the request."""
    hit = req._cache.get("prefix_tree")
    if hit is None:
        level = np.abs(_evolved_tensor(req).ravel()) ** 2
        hit = [level]
        while len(level) > 1:
            level = level.reshape(-1, 2).sum(axis=1)
            hit.append(level)
        hit.reverse()
        req._cache["prefix_tree"] = hit
    return hit


def _dense_expectation(req: SimulationRequest, obs: ObservableProduct) -> complex:
    n = req.n_sites
    phi = _evolved_tensor(req)
    for site, r in obs.rotations:
        phi = apply_to_state(r, (site,), phi, n)
    weights = np.abs(phi.ravel()) ** 2
    z = np.arange(2**n)
    factors = [(s, f"proj{b}") for s, b in obs.projectors] + [(obs.pivot_site, obs.pivot_kind)]
    for site, kind in factors:
        # Each factor is 0 or +-1, so the product is exact in any order.
        weights = weights * _DIAGS[kind].real[(z >> (n - site)) & 1]
    return complex(weights.sum())


def expectation(
    req: SimulationRequest, obs: ObservableProduct, engine: str = "auto"
) -> float:
    """Expectation of the observable product in the truncated evolved state.

    engine: "plan" forces the qubit-wise contraction, "dense" forces the
    state-vector walk, "auto" takes the dense walk when N allows it and the
    contraction plan otherwise.  The imaginary residue is checked against
    1e-9 and discarded.

    The plan route contracts the pruned network with a plan from the
    shared cache of one-shot plans (see the module docstring): a network
    whose structure an earlier query of any request had is not scheduled
    again, and its value does not change, because the plan is the one a
    fresh schedule would give.
    """
    route = _route(req, engine)
    _check_sites(obs, req.n_sites)
    if route == "dense":
        value = _dense_expectation(req, obs)
    else:
        network, key = _one_shot_network(req, _observable_nodes(obs))
        value = _runner(req, _PLANS.plan(network, key), network).finish()
    lo = 0.0 if obs.is_projector else -1.0
    return _checked(value, "expectation", lo, 1.0)


def _integer(value, what: str) -> int:
    """value as an int; anything but an integer, a bool included, is
    refused rather than truncated, parsed from text or taken as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _binary_digits(bits: Sequence[int] | str, length: int, what: str) -> list[int]:
    """The digits of a string of "0"/"1" characters, or of a sequence of
    integers 0/1 (as _integer reads them), refused unless there are
    exactly `length`."""
    if isinstance(bits, str):
        digits = [{"0": 0, "1": 1}.get(c) for c in bits]
    else:
        digits = [
            b if isinstance(b, numbers.Integral) and not isinstance(b, bool) and b in (0, 1)
            else None
            for b in bits
        ]
    if len(digits) != length or None in digits:
        raise DomainError(f"{what} must be {length} binary digits, got {bits!r}")
    return [int(b) for b in digits]


def conditional_probability(
    req: SimulationRequest,
    prefix: Sequence[int] | str,
    site: int,
    engine: str = "auto",
) -> float:
    """P(z_site = 0 | z_1..z_{site-1} = prefix) as v0 / (v0 + v1) with
    v_b = P(prefix, b), the rule of the chain walk.  As in the chain walk,
    only a prefix of probability exactly zero is impossible, and it gets 1.

    The pair comes from one of three marginal sources.  The dense route
    reads it off the prefix-marginal tree.  The plan route reads it off
    an exact MPS of W|0> (the mps module; built when the request has none,
    see _mps): one sweep v <- v A_w[:, b_w, :] over the prefix gives
    v_b = |v A_site[:, b, :]|^2.  It falls back to the qubit-wise light
    cone of sites 1..site (_light_cone_pair) when the MPS cannot be built,
    because a factor of W wraps past site N or a merged block would exceed
    the engine cap, and for a prefix whose weight P(prefix) = v0 + v1 on
    the MPS is below MPS_MIN_PREFIX = 1e-8.  Why: the rounding of the
    MPS's orthonormal factors is absolute rather than relative to each
    amplitude as in the light-cone contraction, so a conditional read off
    the MPS is off by roughly a fixed amplitude error over sqrt(P(prefix)):
    against the light cone on the criterion-6 (N=32, 64) and expect_plan
    (N=32) families, by at most 1.3e-13 for P(prefix) >= 1e-8 but by up to
    3.4e-11 near P(prefix) = 1e-18.  The weight delta the build dropped
    moves P(prefix, b) by at most 2 sqrt(delta P(prefix)) + delta, but it
    cannot reach the floor: each dropped singular value is below 1e-15
    times a largest one of at most 1, so adds under 1e-30 to delta, and
    delta stays near 1e-28 where measured.  An exactly impossible prefix
    takes the light cone too, which keeps exact zeros exact.  The request
    records the route of its last plan-route conditional as
    "conditional_route": "mps", or why it took the light cone.

    Known cost: the process holds one MPS, so a request's first plan-route
    conditional, or its first after another request's, pays one MPS build
    before it answers: ~20 ms on the expect_plan family, 73 ms on
    criterion-6 N=32 and 173 ms at N=64 (one BLAS thread).  A light-cone
    conditional at the last site takes 7.4, 22 and 47 ms there, so a
    caller asking one conditional per request, or alternating between two
    requests, runs about 3-15x slower than on the light cone.
    """
    if not 1 <= _integer(site, "site") <= req.n_sites:
        raise DomainError(f"site {site} out of range for N={req.n_sites}")
    bits = _binary_digits(prefix, site - 1, f"the prefix of site {site}")
    if _route(req, engine) == "dense":
        index = int("".join(map(str, bits)) or "0", 2)
        level = _prefix_tree(req)[site]
        v0, v1 = level[2 * index], level[2 * index + 1]
    else:
        v0, v1 = _plan_pair(req, bits, site)
        v0, v1 = _checked(v0, "P(prefix, 0)"), _checked(v1, "P(prefix, 1)")
    total = v0 + v1
    if total == 0.0:
        return 1.0
    return _checked(v0 / total, "conditional probability")


# The request holding the process's one MPS (see _mps), weakly.
_mps_holder: Callable[[], SimulationRequest | None] = lambda: None


def _mps(req: SimulationRequest) -> MatrixProductState | None:
    """The request's MPS of W|0>, cached as "mps"; None when its build is
    refused, whose reason then stays the request's "conditional_route".
    The process holds one MPS: building one drops the previous holder's,
    which that request builds again on its next plan-route conditional,
    bit for bit.  A request keeps its MPS's bond dimensions and dropped
    weight as "mps_bonds" and "mps_delta"."""
    global _mps_holder
    if "mps" not in req._cache:
        holder = _mps_holder()
        if holder is not None:
            holder._cache.pop("mps", None)
        try:
            state = build_mps(req.n_sites, _w_nodes(req), _w_runs(req))
        except (StructuralError, FeasibilityError) as exc:
            req._cache["mps"] = None
            req._cache["conditional_route"] = str(exc)
        else:
            req._cache.update(mps=state, mps_bonds=state.bonds, mps_delta=state.delta)
            _mps_holder = weakref.ref(req)
    return req._cache["mps"]


def _plan_pair(req: SimulationRequest, bits: list[int], site: int) -> tuple:
    """(P(prefix, 0), P(prefix, 1)) on the plan route: off the MPS, or off
    the light cone when conditional_probability's rule sends it there."""
    mps = _mps(req)
    if mps is not None:
        v0, v1 = prefix_pair(mps, bits)
        if v0 + v1 >= MPS_MIN_PREFIX:
            req._cache["conditional_route"] = "mps"
            return v0, v1
        req._cache["conditional_route"] = (
            f"P(prefix) = {v0 + v1:.3e} on the MPS is below {MPS_MIN_PREFIX:.3e}"
        )
    return _light_cone_pair(req, bits, site)


def _light_cone_pair(
    req: SimulationRequest, bits: Sequence[int], site: int
) -> tuple[complex, complex]:
    """The qubit-wise one-shot conditional: (v0, v1) from the light-cone
    network of sites 1..site with the prefix projectors on sites 1..site-1
    and an identity mark on the site, forked at the mark by _outcome_pair
    as the chain walk does.  Its plan comes from the shared cache of
    one-shot plans and holds no bits, so every prefix of a site shares it;
    the request keeps no light cone for it."""
    mark = _wire_node("diag", site)
    middle = [_wire_node(f"proj{bit}", w) for w, bit in enumerate(bits, 1)] + [mark]
    network, key = _one_shot_network(req, middle)
    runner = _runner(req, _PLANS.plan(network, key), network)
    # The mark is the last middle node; mirrors and bra caps follow it.
    nodes = network.nodes
    at = next(pos for pos in range(len(nodes) - 1, -1, -1) if nodes[pos] is mark)
    return _outcome_pair(runner, at)


@dataclass(frozen=True)
class ChainResult:
    """One branch of the chain rule: the visited bitstring and, per site,
    the conditional probability of outcome 0 given that branch's prefix."""

    bits: str
    probs: tuple[float, ...]


def _outcome_pair(runner: PlanRunner, mark: int) -> tuple[complex, complex]:
    """(v0, v1): the runner's network finished with the diagonal at node
    `mark` set to proj0 and to proj1.  The runner runs to the mark once;
    a fork finishes the proj0 branch, the runner itself the proj1 one."""
    runner.run_to(runner.plan.step_of[mark])
    twin = runner.fork()
    twin.set_override(mark, _DIAGS["proj0"])
    runner.set_override(mark, _DIAGS["proj1"])
    return twin.finish(), runner.finish()


class _PlanMarginals:
    """Plan-route marginal source for exactly one branch.  The runner holds
    the left part of the chain network with marks 1..w-1 set to the chosen
    projectors, each divided by its own conditional, so site w's two
    marginals are the conditionals v_b = P(z_w = b | prefix), from the
    outcome pair of a fork onto the light-cone target."""

    def __init__(self, req: SimulationRequest) -> None:
        network, plan, self.marks = _cone(req, req.n_sites)
        self.req = req
        self.runner = _runner(req, plan, network)

    def conditionals(self, site: int, live: np.ndarray) -> np.ndarray:
        runner = self.runner
        runner.run_to(runner.plan.step_of[self.marks[site]])
        cone = runner.fork(_cone_target(self.req, runner, site))
        v0, v1 = _outcome_pair(cone, _cone(self.req, site)[2][site])
        return np.array([[v0], [v1]])

    def fix(self, site: int, live: np.ndarray, bits: np.ndarray, values: np.ndarray) -> None:
        self.runner.set_override(self.marks[site], _DIAGS[f"proj{int(bits[0])}"] / values[0])


class _DenseMarginals:
    """Dense-route marginal source for any number of branches: each holds
    its prefix as an index into the prefix-marginal tree, and
    v_b = P(prefix, b) / P(prefix)."""

    def __init__(self, req: SimulationRequest, branches: int) -> None:
        self.tree = _prefix_tree(req)
        self.index = np.zeros(branches, dtype=np.int64)

    def conditionals(self, site: int, live: np.ndarray) -> np.ndarray:
        index = self.index[live]
        return self.tree[site][np.add.outer((0, 1), 2 * index)] / self.tree[site - 1][index]

    def fix(self, site: int, live: np.ndarray, bits: np.ndarray, values: np.ndarray) -> None:
        self.index[live] = 2 * self.index[live] + bits


def _chain_walk(
    req: SimulationRequest, engine: str, coins: np.ndarray, first: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Walk the chain rule once per row of coins, all rows at once; row r
    is sample first + r, and coins[r, w-1] is its uniform draw at site w.
    At each site the marginal source gives the two conditionals v0, v1 of
    every branch whose prefix is still possible; v0 + v1 = 1 is checked,
    p0 = v0 / (v0 + v1), and the bit is coin >= p0.  A chosen conditional
    of exactly zero makes the prefix impossible, and every later site of
    that branch gets p0 = 1.  The plan source walks one branch only.
    Errors name the site, the sample and the value.  Returns the
    (branches, N) bits and conditionals p0."""
    n = req.n_sites
    branches = len(coins)
    if _route(req, engine) == "dense":
        source = _DenseMarginals(req, branches)
    else:
        source = _PlanMarginals(req)
    live, live_coins = np.arange(branches), coins
    columns = []
    for site in range(1, n + 1):
        def name(k: int) -> str:
            bit, row = divmod(k, live.size)
            return f"site {site} marginal P(prefix, {bit}) of sample {first + live[row]}"

        v = _checked(source.conditionals(site, live), name)
        v0, v1 = v[0], v[1]
        total = v0 + v1
        ok = np.abs(total - 1.0) <= NORM_TOL
        if np.count_nonzero(ok) < ok.size:
            k = np.flatnonzero(~ok)[0]
            raise NumericalIntegrityError(
                f"site {site} marginals of sample {first + live[k]} sum to "
                f"{float(total[k])!r}, not 1 within {NORM_TOL}"
            )
        p0 = v0 / total
        columns.append((live, p0))
        chosen = live_coins[:, site - 1] >= p0
        values = np.where(chosen, v1, v0)
        keep = values != 0.0
        if np.count_nonzero(keep) < keep.size:
            live, live_coins = live[keep], live_coins[keep]
            chosen, values = chosen[keep], values[keep]
            if not live.size:
                break
        source.fix(site, live, chosen, values)
    probs = np.ones((branches, n))
    for w, (rows, p0) in enumerate(columns):
        probs[rows, w] = p0
    # Every bit, impossible branches' included, is its coin against its p0.
    return coins >= probs, probs


def conditional_chain(
    req: SimulationRequest,
    bits: Sequence[int] | str | None = None,
    seed: int | None = None,
    engine: str = "auto",
) -> ChainResult:
    """All N conditional probabilities P(z_k = 0 | z_1..z_{k-1}) along one
    branch of the chain rule.  bits fixes the branch; otherwise the branch
    is sampled from the given seed (matching sample() at index 0)."""
    if bits is None:
        if seed is None:
            raise DomainError("conditional_chain needs fixed bits or a seed")
        coins = _uniforms(_integer(seed, "seed"), 0, 1, req.n_sites)
    else:
        fixed = _binary_digits(bits, req.n_sites, "bits")
        # A coin of +inf lands on 1 and one of -inf on 0, whatever p0 is.
        coins = np.where(np.array([fixed], dtype=bool), np.inf, -np.inf)
    out, probs = _chain_walk(req, engine, coins)
    return ChainResult("".join("01"[b] for b in out[0].tolist()), tuple(probs[0].tolist()))


# Samples whose uniforms the dense walk holds at once: 8·N bytes each.
_CHUNK = 1 << 14


def _uniforms(seed: int, start: int, stop: int, n_sites: int) -> np.ndarray:
    """The uniforms of samples start..stop-1, one row of N per sample: the
    row of sample i is default_rng([seed mod 2^64, i]).random(N)."""
    key = int(seed) & 0xFFFFFFFFFFFFFFFF
    out = np.empty((stop - start, n_sites))
    for row, index in enumerate(range(start, stop)):
        np.random.default_rng([key, index]).random(out=out[row])
    return out


def sample(
    req: SimulationRequest, n_samples: int, seed: int, engine: str = "auto"
) -> SampleRecords:
    """Chain-rule sampling: one biased coin per site, conditioned on the
    already-fixed prefix.  The sampled distribution is exactly the truncated
    D~; sample i flips its coins with the uniforms of
    default_rng([seed, i]), so order and output are deterministic in the
    seed and a shorter run is a prefix of a longer one.  The dense route
    walks up to _CHUNK samples at once; the plan route walks each sample
    alone.  n_samples must be a positive integer and seed an integer
    (bool refused for both)."""
    if _integer(n_samples, "n_samples") < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    seed = _integer(seed, "seed")
    route = _route(req, engine)
    step = _CHUNK if route == "dense" else 1
    packed = []
    for start in range(0, n_samples, step):
        stop = min(start + step, n_samples)
        coins = _uniforms(seed, start, stop, req.n_sites)
        bits, _ = _chain_walk(req, route, coins, first=start)
        packed.append(np.packbits(bits, axis=1).tobytes())
    return SampleRecords(seed=seed, n_sites=req.n_sites, packed=b"".join(packed))
