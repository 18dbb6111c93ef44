"""Strong simulation of a truncated instance and chain-rule sampling.

Expectation values of diagonal observable products are closed tensor
networks <0|W^dag O W|0> over the truncated evolution W = U~ V U~^dagger,
whose folded factor list the w module builds once per request.  Two exact
routes evaluate them from the same placed tensors: the qubit-wise
contraction plan of the tensor module (any N, feasible when the structural
leg profile stays small, e.g. for narrow-constituent instances), and the
dense state vector W|0> (N up to the dense cap).  The route never changes
the value; "auto" takes the dense route whenever N allows it, because it
is faster there.

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
the cone of sites 1..w holds every site up to w and beyond.  The walk
contracts only the ket half <1...1| D W|0> of the chain network
(_ket), once per chain, with a mark D_w per site, in light-cone order:
each factor of W at its reach, the first site w whose cone of sites
1..w holds it (_reaches), and mark w with its cap of ones at site w.
Once the ket half has absorbed the cone of sites 1..w, every factor it
has not absorbed acts only on sites above w, after the absorbed ones,
so it cancels in |psi|^2: with the marks of sites 1..w-1 set to the
chosen outcomes over the square roots of their conditionals, the
conditional P(z_w = b | prefix) is the squared norm of the
accumulator's slice b on mark w's id.  This is the normalised
sequential sampling of Ferris & Vidal (PRB 85, 165146, 2012), run by
the qubit-wise runner itself: one schedule per request and one norm read
per site.

A one-shot conditional_probability has three marginal sources.  The dense
route reads the prefix-marginal tree.  The plan route reads an exact
matrix product state of W|0> (the mps module), built from the same
folded factors, with one sweep over the prefix.  An MPS takes ~250 KB
at N=32, twice the request's W factors and their mirrors, so the process
holds one, that of the request whose plan-route conditional came last: a
request's conditionals share one build while no other request's come
between them.  It falls back to the qubit-wise light cone of sites 1..w,
with its prefix projectors on sites 1..w-1 and an identity mark on w,
forked at the mark once per outcome, when conditional_probability's rule
says so.  expectation, the chain walk and sample never build the MPS.

A one-shot expectation contracts in the frame of W's last layers.  In
the LIOM form W = U~ V U~^dagger, the runs of W applied last are U~'s
outer gate layers, and <0|W^dag O W|0> = <0|W'^dag (F^dag O F) W'|0> for
W = F W'.  So when O has no projector factor, _one_shot_network may fold
the factors of W's trailing all-gate runs that its light cone keeps into
O, O <- F^dag O F, leaving one gate node on the folded support S in the
middle of a smaller network.  The walk stops at the first run that keeps
a diagonal (V's windows) or a wrapped factor, or that would leave S
non-contiguous, and the depth, zero included, is the one whose network
writes the fewest entries: the plan's sum of 2^mem_axes_after plus the
fold's own products.  On the banded N=32 families a bulk sigma^z then
folds two runs onto four sites, and its plan writes about a third of the
entries it did.  Projector factors never fold: they keep pinning their
ids, so conditionals, their exact zeros, chains and samples are the
networks they were, and build_expectation_network(prune=False) is the
full network, unfolded.

A plan depends on a network's structure alone, never on its data, and
the one-shot networks of one instance family repeat their structure
across queries and requests (the pruned sigma^z network of a site keeps
the same factors whatever the instance's values, and its plan has the
same length at every site of the bulk and at every N).  So expectation
and the one-shot conditional take their light cone, fold and plan from
one process-wide least-recently-used cache, keyed by the query's
structure: a token for N, the radii and W's per-factor name, kind and
sites, made once per family, whether the query may fold, and per middle
node its name, kind, sites and whether it has data (a cap without data
pins its id, as does a basis projector, whose name leaves out the bit
the runner reads, so every prefix of a site shares one plan; see the
tensor module).  That fixes everything the scheduler reads, and a hit
skips the light-cone walk.  The key and the entry hold no arrays, so
the cache keeps no request alive.  It is bounded by the plan steps it
holds, PLAN_CACHE_STEPS (~400 bytes each), and a plan longer than that
is not stored.  Only prefix cones grow with their site: those of a
one-shot conditional's fallback share the cache, while the chain walk
keeps in its request's state only its ket half, whose plan grows as
O(N).
"""

from __future__ import annotations

import functools
import math
import numbers
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, FeasibilityError, NumericalIntegrityError, StructuralError
from .model import (
    UNITARITY_TOL,
    MblInstance,
    _dense_cap,
    _integer,
    apply_to_state,
    check_dense_feasible,
)
from .mps import MatrixProductState, build_mps, prefix_pair
from .tensor import (
    ContractionPlan,
    ExpectationNetwork,
    PlacedTensor,
    PlanRunner,
    open_leg_bound,
    qubitwise_schedule,
)
from .truncation import TruncatedInstance, TruncationRadii, select_radii, truncate
from .w import W, build_w, site_blocks

IMAG_TOL = 1e-9
# The two marginals of a chain site are conditionals of the current prefix;
# their sum may miss one by this much before the walk refuses.
NORM_TOL = 1e-9

# Plan steps the shared one-shot plan cache holds at most: ~6 MiB.
PLAN_CACHE_STEPS = 1 << 14

# A plan-route conditional is read off the MPS of W|0> only when P(prefix)
# is at least MPS_MIN_PREFIX (see conditional_probability).
MPS_MIN_PREFIX = 1e-8


@dataclass(frozen=True, init=False)
class ObservableProduct:
    """Product of single-site factors: sigma^z on each site of sigma_z and
    |b><b| on each (site, b) of projectors, at most one factor per site
    and at least one in all.  Its expectation lies in [-1, 1], in [0, 1]
    when every factor is a projector.  Optional per-site 2x2 basis
    rotations R_j turn the factor F_j on site j into R_j^dag F_j R_j.
    Each rotation is kept as its rows of Python complex numbers, so
    products compare and hash by value.

    ObservableProduct(3) is sigma^z_3, ObservableProduct(2, 7) is
    sigma^z_2 sigma^z_7, and ObservableProduct(4, projectors=((1, 0),))
    is |0><0|_1 sigma^z_4."""

    sigma_z: tuple[int, ...]
    projectors: tuple[tuple[int, int], ...]
    rotations: tuple[tuple[int, tuple[tuple[complex, complex], tuple[complex, complex]]], ...]

    def __init__(self, *sigma_z: int, projectors=(), rotations=()) -> None:
        z = sorted(_integer(s, "sigma^z site") for s in sigma_z)
        sites = [_integer(s, "projector site") for s, _ in projectors]
        bits = _binary_digits([b for _, b in projectors], len(sites), "projector outcomes")
        proj = sorted(zip(sites, bits))
        rot = [(_integer(s, "rotation site"), np.asarray(r, dtype=complex)) for s, r in rotations]
        rot.sort(key=lambda x: x[0])
        if not z and not proj:
            raise DomainError("an observable product needs at least one factor")
        for what, listed in (("factor", sorted(z + sites)), ("rotation", [s for s, _ in rot])):
            if listed and listed[0] < 1:
                raise DomainError(f"{what} site must be >= 1, got {listed[0]}")
            for s, t in zip(listed, listed[1:]):
                if s == t:
                    raise DomainError(f"{what} site {s} is given more than once")
        for s, r in rot:
            if r.shape != (2, 2):
                raise DomainError(f"rotation on site {s} must be a 2x2 matrix")
            dev = np.linalg.norm(r.conj().T @ r - np.eye(2), 2)
            if dev > UNITARITY_TOL:
                raise DomainError(
                    f"rotation on site {s} is not unitary: "
                    f"||R^dag R - 1|| = {dev:.3e} > {UNITARITY_TOL}"
                )
        object.__setattr__(self, "sigma_z", tuple(z))
        object.__setattr__(self, "projectors", tuple(proj))
        object.__setattr__(self, "rotations", tuple((s, tuple(map(tuple, r.tolist()))) for s, r in rot))

    @classmethod
    def prefix_projector(cls, bits: Sequence[int] | str) -> "ObservableProduct":
        """All-projector observable fixing z_1..z_m to the given bits."""
        bits = _binary_digits(bits, len(bits), "prefix projector bits")
        return cls(projectors=tuple(enumerate(bits, 1)))

    def support(self) -> tuple[int, ...]:
        sites = set(self.sigma_z)
        sites.update(s for s, _ in self.projectors)
        sites.update(s for s, _ in self.rotations)
        return tuple(sorted(sites))


def _check_sites(obs: ObservableProduct, n_sites: int) -> None:
    """Refuse an observable acting on a site above N."""
    top = obs.support()[-1]
    if top > n_sites:
        raise DomainError(f"observable site {top} out of range for N={n_sites}")


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
class _Refused:
    """A request's MPS whose build was refused, and why."""

    reason: str


@dataclass
class _RequestState:
    """What a request derives, each part built on first use.  mps is None
    while the request has no MPS (never built, or dropped for another
    request's, see _mps), a _Refused when its build was refused, and the
    MPS when built; mps_bonds and mps_delta are those of its last built
    MPS; conditional_probability says what conditional_route records."""

    trunc: TruncatedInstance | None = None
    w: W | None = None
    psi: np.ndarray | None = None
    prefix_tree: list[np.ndarray] | None = None
    ket: tuple | None = None
    mps: MatrixProductState | _Refused | None = None
    mps_bonds: tuple[int, ...] | None = None
    mps_delta: float | None = None
    conditional_route: str | None = None


@dataclass(frozen=True)
class SimulationRequest:
    """One simulation setting: instance, evolution time, TVD budget, and the
    truncation radii (certified by select_radii unless overridden)."""

    instance: MblInstance
    t: float
    epsilon: float
    radii: TruncationRadii
    _state: _RequestState = field(init=False, default_factory=_RequestState, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (0 < self.epsilon < 1):
            raise DomainError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not math.isfinite(self.t):
            raise DomainError(f"t must be finite, got {self.t}")
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
        state = self._state
        if state.trunc is None:
            state.trunc = truncate(self.instance, self.radii)
        return state.trunc


def _w(req: SimulationRequest) -> W:
    """The request's W, from the site blocks of this module's site_blocks."""
    state = req._state
    if state.w is None:
        state.w = build_w(req.trunc, site_blocks(req.trunc, req.t))
    return state.w


# Diagonals of the single-site observable factors.
_DIAGS = {
    "proj0": np.array([1.0, 0.0], dtype=complex),
    "proj1": np.array([0.0, 1.0], dtype=complex),
    "sigma_z": np.array([1.0, -1.0], dtype=complex),
}


def _observable_nodes(obs: ObservableProduct) -> list[PlacedTensor]:
    """The observable's nodes: rotations, then its projectors, then one
    sigma^z diagonal per sigma^z site, then the rotations' mirrors.  A
    projector's name leaves out its bit, so that the products of one
    support share a plan."""
    rotations = [(site, np.array(r, dtype=complex)) for site, r in obs.rotations]
    return (
        [PlacedTensor(f"R[{site}]", "gate", (site,), r) for site, r in rotations]
        + [_wire_node(f"proj{bit}", site) for site, bit in obs.projectors]
        + [PlacedTensor(f"O[{site}]", "diag", (site,), _DIAGS["sigma_z"]) for site in obs.sigma_z]
        + [PlacedTensor(f"R[{site}]'", "gate", (site,), r.conj().T) for site, r in reversed(rotations)]
    )


def _light_cone(req: SimulationRequest, support: Iterable[int]) -> list[bool]:
    """Backward light cone of a set of sites in W: walking W's commuting
    runs from last applied to first, keep each factor of a run that meets
    the support the run was handed, then grow the support by the kept
    factors' sites.  Returns the keep flags.  A dropped factor commutes
    with every factor of its run and with the operator conjugated so far,
    so it cancels against its mirror image in W^dag (.) W.

    The cone of a site p spans a window of W's layers around p, whose
    width depends on neither p nor N.  A prefix support 1..m keeps every
    factor that meets it.  When no factor wraps past site N, it gets the
    flags of a walk that grows the support after every factor: a run's
    gates share no site with its other factors, and walking back over V's
    ascending windows, every window that 1..m misses comes before the
    first one it meets."""
    w = _w(req)
    w_list = w.nodes
    supp = set(support)
    keep = [False] * len(w_list)
    for run in reversed(w.structure.runs):
        met = [i for i in run if not supp.isdisjoint(w_list[i].sites)]
        for i in met:
            keep[i] = True
            supp.update(w_list[i].sites)
    return keep


def _reaches(req: SimulationRequest) -> list[int]:
    """Per W factor, its reach: the first site w whose prefix cone,
    _light_cone(req, range(1, w + 1)), keeps it.  One backward pass over
    W's runs, as _light_cone's: before a run, m[s] is the first w whose
    cone has reached site s, and a factor of the run reaches the least m
    over its sites."""
    w = _w(req)
    m = list(range(req.n_sites + 1))
    reach = [0] * len(w.nodes)
    for run in reversed(w.structure.runs):
        for i in run:
            reach[i] = min(m[s] for s in w.nodes[i].sites)
        for i in run:
            for s in w.nodes[i].sites:
                m[s] = min(m[s], reach[i])
    return reach


@functools.cache
def _wire_node(kind: str, w: int) -> PlacedTensor:
    """The ket cap, bra cap, identity mark ("diag"), basis projector
    ("proj0", "proj1") or cap of ones ("ones", the bra cap <0| + <1| that
    sums the ket half's wire) of wire w.  Every network holds the same
    object, as it holds the same W factors and mirrors.  Both projectors
    of a wire are named P[w]: a plan never depends on their bit (see the
    tensor module)."""
    if kind == "diag":
        return PlacedTensor(f"I[{w}]", "diag", (w,), np.ones(2, dtype=complex))
    if kind == "ones":
        return PlacedTensor(f"1[{w}]", "cap_bra", (w,), np.ones(2, dtype=complex))
    if kind.startswith("proj"):
        return PlacedTensor(f"P[{w}]", "proj", (w,), _DIAGS[kind])
    return PlacedTensor(f"{kind[4:]}[{w}]", kind, (w,), None)


def _kept(keep: Sequence[bool]) -> tuple[int, ...]:
    """The positions of the factors that keep flags."""
    return tuple(i for i, k in enumerate(keep) if k)


def _closed_network(
    req: SimulationRequest, kept: Sequence[int], middle: Sequence[PlacedTensor]
) -> ExpectationNetwork:
    """<0|W^dag (middle) W|0> over the W factors at the ascending
    positions kept, laid out as ket caps, the factors, the middle nodes,
    the factors' mirrors, bra caps.  Only the wires these nodes touch are
    capped: a bare wire contributes <0|0> = 1.

    The network carries the request's radii, so that its plan is checked
    against the analytic open-leg bound, only when every factor sits on
    ascending contiguous sites: the bound does not cover a constituent
    that wraps past site N on a periodic chain."""
    w = _w(req)
    w_kept = [w.nodes[i] for i in kept]
    wires = sorted({s for node in w_kept + list(middle) for s in node.sites})
    nodes = (
        [_wire_node("cap_ket", wire) for wire in wires]
        + w_kept
        + list(middle)
        + [w.mirrors[i] for i in reversed(kept)]
        + [_wire_node("cap_bra", wire) for wire in wires]
    )
    unwrapped = w.structure.wrapped.isdisjoint(kept)
    return ExpectationNetwork(
        n_sites=req.n_sites,
        nodes=tuple(nodes),
        r_u=req.radii.r_u if unwrapped else None,
        r_j=req.radii.r_j if unwrapped else None,
    )


@dataclass(frozen=True)
class _OneShot:
    """What the structure of a one-shot query fixes on one W family: the
    positions of the W factors its network keeps (the light cone less the
    folded factors), the folded factors, last applied first, each with
    its offset in the folded support, each middle node's offset there,
    the folded support (empty when nothing folds), the network's plan and
    the entries its contraction writes, the fold's products included."""

    kept: tuple[int, ...]
    folded: tuple[tuple[int, int], ...]
    offsets: tuple[int, ...]
    support: tuple[int, ...]
    plan: ContractionPlan
    cost: int


def _contiguous(sites: set[int]) -> bool:
    """Whether the sites form one run of consecutive sites."""
    return max(sites) - min(sites) + 1 == len(sites)


def _fold_candidates(
    req: SimulationRequest, keep: Sequence[bool], support: set[int]
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The ways to fold W's last runs into a middle on the support: per
    depth from one run on, the kept factors of the runs walked so far,
    last applied first, and the grown support.  The walk stops at the
    first run that keeps a diagonal (V's windows) or a factor that wraps
    past site N, or after which the support is not contiguous; a run
    that keeps nothing adds no depth."""
    w = _w(req)
    out = []
    folded: list[int] = []
    grown = set(support)
    for run in reversed(w.structure.runs):
        met = [i for i in run if keep[i]]
        if any(w.nodes[i].kind != "gate" or i in w.structure.wrapped for i in met):
            break
        grown.update(s for i in met for s in w.nodes[i].sites)
        if not _contiguous(grown):
            break
        if met:
            folded += met
            out.append((tuple(folded), tuple(sorted(grown))))
    return out


def _folded_name(support: tuple[int, ...]) -> str:
    return f"O[{support[0]}..{support[-1]}]"


def _schedule_one_shot(
    req: SimulationRequest, middle: Sequence[PlacedTensor], fold: bool
) -> _OneShot:
    """The _OneShot of a query whose structure the plan cache has not
    seen.  Its light cone keeps the W factors that meet the middle's
    sites (_light_cone).  With fold, each depth _fold_candidates gives
    is scheduled with the middle and the folded factors as one gate on
    the folded support S, and the depth, zero included, whose contraction
    writes the fewest entries wins: the plan's sum of 2^mem_axes_after,
    plus 2^(2|S|) for each product _folded_middle runs.  A depth is not
    taken when its gate would hold more entries than the unfolded plan's
    largest accumulator, or its plan more axes, so a fold never raises
    the peak or makes a feasible query infeasible; nor when its plan
    breaks the analytic open-leg bound.  The peak holds for operands
    too: a step batches over the ids the gate keeps open, so its
    operand is the gate's own entries."""
    support = {s for node in middle for s in node.sites}
    keep = _light_cone(req, support)

    def shot(kept, folded=(), sites=(), stub=None, products=0) -> _OneShot:
        plan = qubitwise_schedule(_closed_network(req, kept, [stub] if stub else middle))
        cost = sum(1 << step.mem_axes_after for step in plan.steps) + (products << 2 * len(sites))
        nodes = _w(req).nodes
        return _OneShot(
            kept,
            tuple((i, nodes[i].sites[0] - sites[0]) for i in folded),
            tuple(node.sites[0] - sites[0] for node in middle) if sites else (),
            sites,
            plan,
            cost,
        )

    best = flat = shot(_kept(keep))
    for folded, sites in _fold_candidates(req, keep, support) if fold else ():
        if 2 * len(sites) > flat.plan.peak_mem_axes:
            break
        stub = PlacedTensor(_folded_name(sites), "gate", sites, None)
        kept = tuple(i for i in flat.kept if i not in folded)
        candidate = shot(kept, folded, sites, stub, len(folded) + len(middle) + 1)
        plan = candidate.plan
        if plan.peak_mem_axes > flat.plan.peak_mem_axes or (
            plan.r_u is not None and plan.peak_open_legs > open_leg_bound(plan.r_u, plan.r_j)
        ):
            continue
        if candidate.cost < best.cost:
            best = candidate
    return best


def _folded_middle(
    req: SimulationRequest, shot: _OneShot, middle: Sequence[PlacedTensor]
) -> PlacedTensor:
    """The middle and the folded W factors as one gate on the folded
    support S: F^dag O F, with O the product of the middle nodes in
    application order and F the folded factors' product, last applied
    leftmost.  Each factor and middle node enters as one product on the
    rows of its contiguous sites, and one more takes F^dag: each writes
    2^(2|S|) entries."""
    dim = 1 << len(shot.support)

    def times(node: PlacedTensor, offset: int, a: np.ndarray) -> np.ndarray:
        """node a, node embedded at the offset."""
        rows = a.reshape(1 << offset, 1 << node.width, -1)
        if node.kind == "diag":
            return (node.data[:, None] * rows).reshape(dim, dim)
        return (node.data @ rows).reshape(dim, dim)

    nodes = _w(req).nodes
    f = np.eye(dim, dtype=complex)
    for i, offset in reversed(shot.folded):
        f = times(nodes[i], offset, f)
    o = f
    for node, offset in zip(middle, shot.offsets):
        o = times(node, offset, o)
    return PlacedTensor(_folded_name(shot.support), "gate", shot.support, f.conj().T @ o)


def _one_shot_network(
    req: SimulationRequest, middle: Sequence[PlacedTensor], fold: bool = False
) -> tuple[ExpectationNetwork, _OneShot]:
    """The one-shot network of the middle nodes, <0|W^dag (middle) W|0>
    over the light cone of the sites they touch (_closed_network), with
    its structure's _OneShot from the shared plan cache.  With fold, the
    cache may have chosen to fold W's last runs and the middle into one
    gate (_schedule_one_shot); only middles of observable factors without
    a projector fold, so a projector keeps pinning its id, and a mark
    stays a diagonal the runner can override.  The cache key is a token
    for N, the radii and W's per-factor name, kind and sites, made once
    per family, plus fold and, per middle node, its name, kind, sites and
    whether it has data: together they fix the light cone and so the
    network's structure, its caps, mirrors and radii included."""
    key = (
        _w(req).structure.token,
        fold,
        tuple((node.name, node.kind, node.sites, node.data is None) for node in middle),
    )
    shot = _PLANS.get(key, lambda: _schedule_one_shot(req, middle, fold))
    if shot.support:
        middle = [_folded_middle(req, shot, middle)]
    return _closed_network(req, shot.kept, middle), shot


def _observable_network(
    req: SimulationRequest, obs: ObservableProduct
) -> tuple[ExpectationNetwork, _OneShot]:
    """The one-shot network expectation contracts for the product: folded
    when it has no projector factor (see _one_shot_network)."""
    return _one_shot_network(req, _observable_nodes(obs), fold=not obs.projectors)


def build_expectation_network(
    req: SimulationRequest, obs: ObservableProduct, prune: bool = True
) -> ExpectationNetwork:
    """Closed network for <0|W^dag O W|0>.  With prune=True, only the W
    factors in the light cone of O's sites are kept (_light_cone); every
    other factor is dropped together with its mirror image, as the pair
    cancels exactly, so the value is unchanged up to rounding.  The
    pruned network is the one expectation contracts: when O has no
    projector factor, the outer runs of W's light cone may be folded into
    O (_one_shot_network).  prune=False gives the full network, unfolded."""
    _check_sites(obs, req.n_sites)
    if prune:
        return _observable_network(req, obs)[0]
    return _closed_network(req, range(len(_w(req).nodes)), _observable_nodes(obs))


def _ket(req: SimulationRequest):
    """The ket half <1...1| D W|0> the chain walk contracts: a ket cap
    per wire, W's factors, a mark D_w per site (an identity diagonal) and
    a cap of ones per wire; its plan in light-cone order, each factor
    absorbed at its reach (_reaches) and mark w and its cap of ones at
    site w, and the node position of each mark by site.  Kept in the
    request's state.

    At mark w the runner has absorbed exactly the factors that the light
    cone of sites 1..w keeps, and the caps of ones close the wires of
    sites 1..w-1 after their marks.  The network carries no radii: the
    open-leg bound is that of the double network."""
    state = req._state
    if state.ket is None:
        n, w = req.n_sites, _w(req)
        wires = list(range(1, n + 1))
        nodes = (
            [_wire_node("cap_ket", s) for s in wires]
            + w.nodes
            + [_wire_node("diag", s) for s in wires]
            + [_wire_node("ones", s) for s in wires]
        )
        network = ExpectationNetwork(n_sites=n, nodes=tuple(nodes))
        plan = qubitwise_schedule(network, wires + _reaches(req) + 2 * wires)
        marks = {s: n + len(w.nodes) + s - 1 for s in wires}
        state.ket = (network, plan, marks)
    return state.ket


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
    """The _OneShot of each one-shot query structure, with its plan, least
    recently used first, keyed by structure and bounded by the plan steps
    it holds, PLAN_CACHE_STEPS.  A miss schedules through this module's
    qubitwise_schedule.  Like a request's state, it is read and written by
    one thread at a time."""

    def __init__(self) -> None:
        self.entries: OrderedDict[tuple, _OneShot] = OrderedDict()
        self.steps = 0

    def get(self, key: tuple, build: Callable[[], _OneShot]) -> _OneShot:
        """The entry filed under the key _one_shot_network gives, built
        by build on a miss."""
        hit = self.entries.get(key)
        if hit is not None:
            self.entries.move_to_end(key)
            return hit
        shot = build()
        if len(shot.plan.steps) <= PLAN_CACHE_STEPS:
            self.entries[key] = shot
            self.steps += len(shot.plan.steps)
            while self.steps > PLAN_CACHE_STEPS:
                _, old = self.entries.popitem(last=False)
                self.steps -= len(old.plan.steps)
        return shot


_PLANS = _PlanCache()


def _runner(req: SimulationRequest, plan: ContractionPlan, network) -> PlanRunner:
    """PlanRunner for a plan-route contraction, whose size refusals gain
    the route advice the tensor layer cannot give."""
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
    the network route contracts.  Kept in the request's state."""
    state = req._state
    if state.psi is not None:
        return state.psi
    n = req.n_sites
    check_dense_feasible(n, "dense expectation walk")
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    for node in _w(req).nodes:
        if node.kind == "gate":
            psi = apply_to_state(node.data, node.sites, psi, n)
        else:
            shape = [1] * n
            for s in node.sites:
                shape[s - 1] = 2
            # Diagonal windows are ascending contiguous sites, so the phase
            # array reshapes directly onto the state axes.
            psi = psi * node.data.reshape(shape)
    state.psi = psi
    return psi


def _prefix_tree(req: SimulationRequest) -> list[np.ndarray]:
    """Prefix marginals of |W|0...0>|^2: level k holds P(z_1..z_k) for all
    2^k prefixes, indexed by the prefix read as a binary number (site 1
    most significant); level 0 holds the total weight.  Every entry is the
    floating-point sum of its two children, so the two conditionals of a
    prefix sum to one within rounding.  Kept in the request's state."""
    state = req._state
    if state.prefix_tree is None:
        level = np.abs(_evolved_tensor(req).ravel()) ** 2
        tree = [level]
        while len(level) > 1:
            level = level.reshape(-1, 2).sum(axis=1)
            tree.append(level)
        tree.reverse()
        state.prefix_tree = tree
    return state.prefix_tree


def _dense_expectation(req: SimulationRequest, obs: ObservableProduct) -> complex:
    n = req.n_sites
    phi = _evolved_tensor(req)
    for site, r in obs.rotations:
        phi = apply_to_state(np.array(r, dtype=complex), (site,), phi, n)
    weights = np.abs(phi.ravel()) ** 2
    z = np.arange(2**n)
    factors = [(s, f"proj{b}") for s, b in obs.projectors] + [(s, "sigma_z") for s in obs.sigma_z]
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
    fresh schedule would give.  When the product has no projector factor,
    the network may fold W's last gate runs into the observable, as one
    gate F^dag O F on a few sites, where that writes fewer entries; this
    changes the value by rounding only.
    """
    route = _route(req, engine)
    _check_sites(obs, req.n_sites)
    if route == "dense":
        value = _dense_expectation(req, obs)
    else:
        network, shot = _observable_network(req, obs)
        value = _runner(req, shot.plan, network).finish()
    lo = -1.0 if obs.sigma_z else 0.0
    return _checked(value, "expectation", lo, 1.0)


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
    records the route of its last plan-route conditional in its state's
    conditional_route field: "mps", or why it took the light cone.

    Known cost: the process holds one MPS, so a request's first plan-route
    conditional, or its first after another request's, pays one MPS build
    before it answers: ~20 ms on the expect_plan family, 73 ms on
    criterion-6 N=32 and 173 ms at N=64 (one BLAS thread).  A light-cone
    conditional at the last site takes 7.4, 22 and 47 ms there, so a
    caller asking one conditional per request, or alternating between two
    requests, runs about 3-15x slower than on the light cone.

    Known fault of the dense route: its tree sums |amplitude|^2 of a state
    whose entries carry an absolute rounding error near 1e-16, so a pair's
    relative error grows as ~1e-16 / sqrt(P(prefix)).  With a Hadamard on
    each of 6 sites, J_i = 1e-3 on sites 1-5, J_6 = 1, t = 1 and radii
    (2, 2), site 6 after prefix 11111 (P = 9.5e-31) reads 0.332042 against
    cos^2(1) = 0.291927 on the plan route.  It awaits a floor rule (ROADMAP
    item 3).
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


def _mps(req: SimulationRequest) -> MatrixProductState | _Refused:
    """The request's MPS of W|0>, built when its state has none, or why
    its build was refused.  The process holds one MPS: building one drops
    the previous holder's, which that request builds again on its next
    plan-route conditional, bit for bit."""
    global _mps_holder
    state = req._state
    if state.mps is None:
        holder = _mps_holder()
        if holder is not None:
            holder._state.mps = None
        w = _w(req)
        try:
            built = build_mps(req.n_sites, w.nodes, w.structure.runs)
        except (StructuralError, FeasibilityError) as exc:
            state.mps = _Refused(str(exc))
        else:
            state.mps, state.mps_bonds, state.mps_delta = built, built.bonds, built.delta
            _mps_holder = weakref.ref(req)
    return state.mps


def _plan_pair(req: SimulationRequest, bits: list[int], site: int) -> tuple:
    """(P(prefix, 0), P(prefix, 1)) on the plan route: off the MPS, or off
    the light cone when conditional_probability's rule sends it there."""
    state = req._state
    mps = _mps(req)
    if isinstance(mps, _Refused):
        state.conditional_route = mps.reason
    else:
        v0, v1 = prefix_pair(mps, bits)
        if v0 + v1 >= MPS_MIN_PREFIX:
            state.conditional_route = "mps"
            return v0, v1
        state.conditional_route = (
            f"P(prefix) = {v0 + v1:.3e} on the MPS is below {MPS_MIN_PREFIX:.3e}"
        )
    return _light_cone_pair(req, bits, site)


def _light_cone_pair(
    req: SimulationRequest, bits: Sequence[int], site: int
) -> tuple[complex, complex]:
    """The qubit-wise one-shot conditional: (v0, v1) from the light-cone
    network of sites 1..site with the prefix projectors on sites 1..site-1
    and an identity mark on the site.  The runner runs to the mark once; a
    fork finishes it set to proj0, the runner itself set to proj1.  Its
    plan comes from the shared cache of one-shot plans and holds no bits,
    so every prefix of a site shares it; the request keeps no light cone
    for it."""
    mark = _wire_node("diag", site)
    middle = [_wire_node(f"proj{bit}", w) for w, bit in enumerate(bits, 1)] + [mark]
    network, shot = _one_shot_network(req, middle)
    runner = _runner(req, shot.plan, network)
    # The mark is the last middle node; mirrors and bra caps follow it.
    nodes = network.nodes
    at = next(pos for pos in range(len(nodes) - 1, -1, -1) if nodes[pos] is mark)
    runner.run_to(runner.plan.step_of[at])
    twin = runner.fork()
    twin.set_override(at, _DIAGS["proj0"])
    runner.set_override(at, _DIAGS["proj1"])
    return twin.finish(), runner.finish()


@dataclass(frozen=True, slots=True, init=False, eq=False)
class ChainResult:
    """One branch of the chain rule: the visited bitstring and, per site,
    the conditional probability of outcome 0 given that branch's prefix.
    The probabilities are kept packed, 8 bytes each, and probs is made on
    access, bit for bit the floats given; results compare and hash by bits
    and probs.  The dataclass fields are bits and the packed _p0, so
    dataclasses.fields and asdict show _p0 in place of probs, and
    dataclasses.replace refuses (it cannot pass probs); build a new
    ChainResult(bits, probs) instead."""

    bits: str
    _p0: bytes = field(init=False)

    def __init__(self, bits: str, probs: Sequence[float]) -> None:
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "_p0", np.asarray(probs, dtype=float).tobytes())

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(np.frombuffer(self._p0).tolist())

    def __repr__(self) -> str:
        return f"ChainResult(bits={self.bits!r}, probs={self.probs!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChainResult):
            return NotImplemented
        return (self.bits, self.probs) == (other.bits, other.probs)

    def __hash__(self) -> int:
        return hash((self.bits, self.probs))


class _PlanMarginals:
    """Plan-route marginal source for exactly one branch.  The runner
    contracts the ket half (_ket) with marks 1..w-1 set to the chosen
    outcomes e_b, each over the square root of its own conditional; at
    mark w it has absorbed the light cone of sites 1..w, so site w's
    conditionals v_b = P(z_w = b | prefix) are the weights of its
    accumulator's two slices on the mark's id (PlanRunner.weights)."""

    def __init__(self, req: SimulationRequest) -> None:
        network, plan, self.marks = _ket(req)
        self.runner = _runner(req, plan, network)

    def conditionals(self, site: int, live: np.ndarray) -> np.ndarray:
        mark = self.marks[site]
        self.runner.run_to(self.runner.plan.step_of[mark])
        return np.array(self.runner.weights(mark))[:, None]

    def fix(self, site: int, live: np.ndarray, bits: np.ndarray, values: np.ndarray) -> None:
        mark = _DIAGS[f"proj{int(bits[0])}"] / math.sqrt(values[0])
        self.runner.set_override(self.marks[site], mark)


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
    is sampled from the given seed (matching sample() at index 0).  Exactly
    one of the two is given.  The dense route shares conditional_probability's
    fault on unlikely prefixes: on its example with J_i = 1e-7, bits
    111110 read P(z_4 = 0 | 111) = 0.429 against 1 - 1e-14."""
    if (bits is None) == (seed is None):
        raise DomainError(
            f"conditional_chain takes either fixed bits or a seed, got bits={bits!r}, seed={seed!r}"
        )
    if bits is None:
        coins = _uniforms(_integer(seed, "seed"), 0, 1, req.n_sites)
    else:
        fixed = _binary_digits(bits, req.n_sites, "bits")
        # A coin of +inf lands on 1 and one of -inf on 0, whatever p0 is.
        coins = np.where(np.array([fixed], dtype=bool), np.inf, -np.inf)
    out, probs = _chain_walk(req, engine, coins)
    return ChainResult("".join("01"[b] for b in out[0].tolist()), probs[0])


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
