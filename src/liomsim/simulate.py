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

Sampling walks the chain rule: at each site w a marginal source gives the
two conditionals P(z_w = b | z_1..z_{w-1}) and the walk flips one biased
coin.  No probability is derived by subtraction or cut at an absolute
threshold.  The dense source reads the conditionals off a tree of prefix
marginals of |W|0>|^2.  The plan source rests on quasilocality: W is built
from gates of width at most r_U, so an observable on sites 1..w only sees
the backward light cone of those sites, and every W factor outside it
cancels against its mirror.  It contracts one unpruned chain network from
the left once per chain and at each site finishes only the light-cone
network of sites 1..w, once per outcome of site w.  One-shot queries
contract the pruned network directly; a one-shot conditional takes both
outcome weights of its site from one such network, forked at the pivot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, FeasibilityError, NumericalIntegrityError
from .model import (
    MblInstance,
    _dense_cap,
    apply_to_state,
    check_dense_feasible,
    constituent_placements,
)
from .tensor import (
    ACC_NODE,
    ContractionPlan,
    ExpectationNetwork,
    ForkTarget,
    PlacedTensor,
    PlanRunner,
    PlanStep,
    qubitwise_schedule,
)
from .truncation import TruncatedInstance, TruncationRadii, select_radii, truncate

IMAG_TOL = 1e-9
# The two marginals of a chain site are conditionals of the current prefix;
# their sum may miss one by this much before the walk refuses.
NORM_TOL = 1e-9

_PIVOT_KINDS = ("sigma_z", "proj0", "proj1")


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
        if self.pivot_site < 1:
            raise DomainError(f"pivot site must be >= 1, got {self.pivot_site}")
        if self.pivot_kind not in _PIVOT_KINDS:
            raise DomainError(f"pivot kind must be one of {_PIVOT_KINDS}, got {self.pivot_kind!r}")
        proj = tuple(sorted((int(s), int(b)) for s, b in dict(self.projectors).items()))
        object.__setattr__(self, "projectors", proj)
        for s, b in proj:
            if not (1 <= s < self.pivot_site):
                raise DomainError(
                    f"projector site {s} must lie strictly below the pivot {self.pivot_site}"
                )
            if b not in (0, 1):
                raise DomainError(f"projector outcome must be 0 or 1, got {b}")
        rot = tuple(sorted(((int(s), np.asarray(r, dtype=complex)) for s, r in dict(self.rotations).items()), key=lambda x: x[0]))
        object.__setattr__(self, "rotations", rot)
        for s, r in rot:
            if r.shape != (2, 2):
                raise DomainError(f"rotation on site {s} must be a 2x2 matrix")

    @classmethod
    def prefix_projector(cls, bits: Sequence[int] | str) -> "ObservableProduct":
        """All-projector observable fixing z_1..z_m to the given bits."""
        bits = [int(b) for b in bits]
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


@dataclass(frozen=True)
class SampleRecords(Sequence[SampleRecord]):
    """The records of one sample() call, in index order.  The bitstrings
    are kept as one string of N characters per sample and each record is
    made on access, so a caller holding 10^5 samples pays N bytes for each
    rather than ~160 bytes of Python objects."""

    seed: int
    n_sites: int
    packed: str

    def __len__(self) -> int:
        return len(self.packed) // self.n_sites

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        # Indexing a range wraps negative indices and raises IndexError.
        i = range(len(self))[index]
        n = self.n_sites
        return SampleRecord(bits=self.packed[i * n : (i + 1) * n], seed=self.seed, index=i)


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


def site_blocks(trunc: TruncatedInstance, t: float) -> list[SiteBlock]:
    """One diagonal block per site, aggregating every coupling with leftmost
    site i and range below r_J (at most 2^{r_J - 1} terms each)."""
    inst = trunc.instance
    n = inst.n_sites
    r_j = trunc.radii.r_j
    max_extra = inst.max_body - 1
    blocks: list[SiteBlock] = []
    for i in range(1, n + 1):
        width = min(r_j, n - i + 1)
        angle = np.zeros(2**width)
        window_rest = range(i + 1, i + width)
        z = np.arange(2**width)
        # Window bit b (0-based from the left) is site i + b.
        sign = {
            s: 1.0 - 2.0 * ((z >> (width - 1 - (s - i))) & 1) for s in range(i, i + width)
        }
        for extra in range(0, min(max_extra, width - 1) + 1):
            for subset in itertools.combinations(window_rest, extra):
                sites = (i, *subset)
                value = inst.coupling(sites)
                if value == 0.0:
                    continue
                term = sign[i].copy()
                for s in subset:
                    term *= sign[s]
                angle += value * term
        phases = np.exp(-1j * t * angle) if np.any(angle != 0.0) else np.ones(2**width, dtype=complex)
        blocks.append(SiteBlock(site=i, width=width, phases=phases))
    return blocks


# ---------------------------------------------------------------------------
# Network assembly


def _dagger(node: PlacedTensor) -> PlacedTensor:
    if node.kind == "gate":
        return PlacedTensor(node.name + "'", "gate", node.sites, node.data.conj().T)
    if node.kind == "diag":
        return PlacedTensor(node.name + "'", "diag", node.sites, node.data.conj())
    return node


def _w_nodes(req: SimulationRequest) -> list[PlacedTensor]:
    """Application-ordered placed tensors of W = U~ V U~^dag (no caps, no
    observable); identity constituents and trivial blocks are dropped."""
    hit = req._cache.get("w_nodes")
    if hit is not None:
        return hit
    inst = req.trunc.instance
    n = inst.n_sites
    placements = constituent_placements(n, max_width=req.radii.r_u)
    gates: list[PlacedTensor] = []
    for place in placements:
        cons = inst.constituent(place.start, place.width)
        if cons.is_identity:
            continue
        gates.append(
            PlacedTensor(f"U[{place.start},{place.width}]", "gate", cons.sites, cons.dense_matrix())
        )
    blocks = [
        PlacedTensor(f"V[{b.site}]", "diag", b.window(), b.phases)
        for b in site_blocks(req.trunc, req.t)
        if not b.trivial
    ]
    # W applied to a ket: the U~^dag factors act first (in product-enumeration
    # order, daggered), then the diagonal blocks, then the U~ factors in
    # reversed enumeration order.
    nodes = [_dagger(g) for g in gates] + blocks + list(reversed(gates))
    req._cache["w_nodes"] = nodes
    return nodes


# Diagonals of the single-site observable factors.
_DIAGS = {
    "proj0": np.array([1.0, 0.0], dtype=complex),
    "proj1": np.array([0.0, 1.0], dtype=complex),
    "sigma_z": np.array([1.0, -1.0], dtype=complex),
}


def _observable_nodes(obs: ObservableProduct) -> list[PlacedTensor]:
    nodes: list[PlacedTensor] = []
    for site, r in obs.rotations:
        nodes.append(PlacedTensor(f"R[{site}]", "gate", (site,), r))
    for site, bit in obs.projectors:
        nodes.append(PlacedTensor(f"P{bit}[{site}]", "diag", (site,), _DIAGS[f"proj{bit}"]))
    pivot_diag = _DIAGS[obs.pivot_kind]
    nodes.append(PlacedTensor(f"O[{obs.pivot_site}]", "diag", (obs.pivot_site,), pivot_diag))
    for site, r in reversed(obs.rotations):
        nodes.append(PlacedTensor(f"R[{site}]'", "gate", (site,), r.conj().T))
    return nodes


def _light_cone(
    w_list: Sequence[PlacedTensor], support: Iterable[int]
) -> tuple[list[bool], set[int]]:
    """Backward light cone of a set of sites in W: walking the factors from
    last applied to first, keep each one that meets the support and grow
    the support by its sites.  Returns the keep flags and the grown
    support.  A dropped factor acts after every kept factor on its wires,
    so it cancels against its mirror image in W^dag (.) W."""
    supp = set(support)
    keep = [False] * len(w_list)
    for i in range(len(w_list) - 1, -1, -1):
        sites = w_list[i].sites
        if not supp.isdisjoint(sites):
            keep[i] = True
            supp.update(sites)
    return keep, supp


def _closed_network(
    req: SimulationRequest, w_kept: Sequence[PlacedTensor], middle: Sequence[PlacedTensor]
) -> ExpectationNetwork:
    """<0|W^dag (middle) W|0> over the given W factors, laid out as ket
    caps, the factors, the middle nodes, the factors' mirrors, bra caps.

    The network carries the request's radii, so that its plan is checked
    against the analytic open-leg bound, only when every factor sits on
    ascending contiguous sites: the bound does not cover a constituent
    that wraps past site N on a periodic chain."""
    n = req.n_sites
    mirror = [_dagger(node) for node in reversed(w_kept)]
    nodes = (
        [PlacedTensor(f"ket[{w}]", "cap_ket", (w,), None) for w in range(1, n + 1)]
        + list(w_kept)
        + list(middle)
        + mirror
        + [PlacedTensor(f"bra[{w}]", "cap_bra", (w,), None) for w in range(1, n + 1)]
    )
    unwrapped = all(node.sites[-1] - node.sites[0] == node.width - 1 for node in w_kept)
    return ExpectationNetwork(
        n_sites=n,
        nodes=tuple(nodes),
        r_u=req.radii.r_u if unwrapped else None,
        r_j=req.radii.r_j if unwrapped else None,
    )


def build_expectation_network(
    req: SimulationRequest, obs: ObservableProduct, prune: bool = True
) -> ExpectationNetwork:
    """Closed network for <0|W^dag O W|0>.  With prune=True, W factors whose
    support never meets the (grown) support of O are dropped together with
    their mirror images; the pair cancels exactly, so the value is
    unchanged."""
    n = req.n_sites
    if obs.pivot_site > n:
        raise DomainError(f"pivot site {obs.pivot_site} out of range for N={n}")
    w_list = _w_nodes(req)
    if prune:
        keep, _ = _light_cone(w_list, obs.support())
        w_list = [node for node, kept in zip(w_list, keep) if kept]
    return _closed_network(req, w_list, _observable_nodes(obs))


def _chain_plan(req: SimulationRequest):
    """Unpruned <0|W^dag (.) W|0> network with a placeholder identity
    diagonal (mark) on every wire between W and its mirror, plus its
    qubit-wise plan and the node index of each mark; cached on the request.

    Overriding marks 1..w with projectors turns the closed network into the
    marginal P(z_1..z_w).  The chain walk runs this plan once from the
    left, overriding each mark once its outcome is chosen; the marginals
    themselves come from _cone_target's smaller plans."""
    hit = req._cache.get("chain_plan")
    if hit is not None:
        return hit
    n = req.n_sites
    w_list = _w_nodes(req)
    ones = np.ones(2, dtype=complex)
    marks = [PlacedTensor(f"I[{w}]", "diag", (w,), ones) for w in range(1, n + 1)]
    network = _closed_network(req, w_list, marks)
    plan = qubitwise_schedule(network)
    mark_nodes = {w: n + len(w_list) + (w - 1) for w in range(1, n + 1)}
    hit = (network, plan, mark_nodes)
    req._cache["chain_plan"] = hit
    return hit


def _cone_target(req: SimulationRequest, runner: PlanRunner, site: int) -> ForkTarget:
    """Where the chain runner, paused just before mark `site`, continues to
    get the marginals of sites 1..site; cached on the request.

    The light-cone network keeps the chain network's caps on the cone's
    wires, the W factors in the backward light cone of sites 1..site, marks
    1..site and the kept factors' mirrors.  Every node the runner has
    absorbed lies in that cone, so up to the mark both plans absorb the
    same nodes in the same order; they differ only in that removing a
    W...W^dag segment merges the indices on either side of it.  The target
    keeps the cone plan's steps from the mark on, plus the map from the
    runner's open ids to cone ids.  The runner is needed only for the
    order of its open ids, which the chain plan fixes."""
    targets = req._cache.setdefault("cone_targets", {})
    hit = targets.get(site)
    if hit is not None:
        return hit
    network, plan, mark_nodes = _chain_plan(req)
    n = req.n_sites
    w_list = _w_nodes(req)
    n_w = len(w_list)
    keep, wires = _light_cone(w_list, range(1, site + 1))
    # Chain network layout: ket caps, W factors, marks, mirror, bra caps.
    kept = [i for i in range(n_w) if keep[i]]
    positions = (
        [w - 1 for w in sorted(wires)]
        + [n + i for i in kept]
        + [mark_nodes[w] for w in range(1, site + 1)]
        + [2 * n + 2 * n_w - 1 - i for i in reversed(kept)]
        + [2 * n + 2 * n_w + w - 1 for w in sorted(wires)]
    )
    cone = ExpectationNetwork(
        n_sites=n, nodes=tuple(network.nodes[p] for p in positions)
    )
    cone_plan = qubitwise_schedule(cone)
    cut = runner.position
    head = [positions[step.node_index] for step in cone_plan.steps[:cut]]
    if head != [step.node_index for step in plan.steps[:cut]] or (
        positions[cone_plan.steps[cut].node_index] != mark_nodes[site]
    ):
        raise AssertionError(f"light cone of sites 1..{site} misses an absorbed node")
    ids: dict[int, int] = {}
    for step in cone_plan.steps[:cut]:
        chain_ids = plan.node_indices[positions[step.node_index]]
        ids.update(zip(chain_ids, cone_plan.node_indices[step.node_index]))
    ids = {i: ids[i] for i in runner.open_ids}
    node_indices = {ACC_NODE: tuple(ids[i] for i in runner.open_ids)}
    steps = [
        PlanStep(
            ACC_NODE,
            f"acc[{site}]",
            cone_plan.steps[cut - 1].open_legs_after,
            cone_plan.steps[cut - 1].mem_axes_after,
        )
    ]
    for step in cone_plan.steps[cut:]:
        pos = positions[step.node_index]
        node_indices[pos] = cone_plan.node_indices[step.node_index]
        steps.append(
            PlanStep(pos, step.name, step.open_legs_after, step.mem_axes_after)
        )
    endpoints = [0] * len(cone_plan.index_endpoints)
    for node_ids in node_indices.values():
        for idx in node_ids:
            endpoints[idx] += 1
    # No radii: the analytic bound was checked on the chain plan.
    tail = ContractionPlan(
        n_sites=n,
        steps=steps,
        node_indices=node_indices,
        index_endpoints=endpoints,
        peak_open_legs=max(step.open_legs_after for step in steps),
        peak_mem_axes=max(step.mem_axes_after for step in steps),
        r_u=None,
        r_j=None,
    )
    hit = ForkTarget(plan=tail, ids=ids)
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


def _checked(raw: complex, what: str, lo: float = 0.0, hi: float = 1.0) -> float:
    """Real part of a computed probability or expectation, clamped to
    [lo, hi]; an imaginary residue or an excursion beyond IMAG_TOL is
    refused."""
    if abs(raw.imag) > IMAG_TOL:
        raise NumericalIntegrityError(
            f"{what} has imaginary residue {raw.imag:.3e} above {IMAG_TOL}"
        )
    value = float(raw.real)
    if value < lo - IMAG_TOL or value > hi + IMAG_TOL:
        raise NumericalIntegrityError(f"{what} {value} outside [{lo}, {hi}] beyond tolerance")
    return min(max(value, lo), hi)


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
    """
    route = _route(req, engine)
    if obs.pivot_site > req.n_sites:
        raise DomainError(f"pivot site {obs.pivot_site} out of range for N={req.n_sites}")
    if route == "dense":
        value = _dense_expectation(req, obs)
    else:
        network = build_expectation_network(req, obs)
        value = _runner(req, qubitwise_schedule(network), network).finish()
    lo = 0.0 if obs.is_projector else -1.0
    return _checked(value, "expectation", lo, 1.0)


def conditional_probability(
    req: SimulationRequest,
    prefix: Sequence[int] | str,
    site: int,
    engine: str = "auto",
) -> float:
    """P(z_site = 0 | z_1..z_{site-1} = prefix) as v0 / (v0 + v1) with
    v_b = P(prefix, b), the rule of the chain walk.  The dense route reads
    the pair off the prefix-marginal tree.  The plan route contracts one
    pruned network of P(prefix, 0) up to its pivot diagonal, forks, and
    finishes the twin with the pivot set to the other projector.  As in
    the chain walk, only a prefix of probability exactly zero is
    impossible, and it gets 1."""
    bits = [int(b) for b in prefix]
    if len(bits) != site - 1 or not set(bits) <= {0, 1}:
        raise DomainError(
            f"site {site} needs a prefix of exactly {site - 1} binary digits, got {prefix!r}"
        )
    if site > req.n_sites:
        raise DomainError(f"site {site} out of range for N={req.n_sites}")
    if _route(req, engine) == "dense":
        index = int("".join(map(str, bits)) or "0", 2)
        level = _prefix_tree(req)[site]
        v0, v1 = level[2 * index], level[2 * index + 1]
    else:
        network = build_expectation_network(
            req, ObservableProduct.prefix_projector(bits + [0])
        )
        # Layout: N ket caps, the kept W factors, site - 1 projectors, the
        # pivot, the factors' mirrors, N bra caps.
        n = req.n_sites
        n_kept = (len(network.nodes) - 2 * n - site) // 2
        pivot = n + n_kept + site - 1
        runner = _runner(req, qubitwise_schedule(network), network)
        runner.run_to(runner.step_of(pivot))
        twin = runner.fork()
        twin.set_override(pivot, _DIAGS["proj1"])
        v0 = _checked(runner.finish(), "P(prefix, 0)")
        v1 = _checked(twin.finish(), "P(prefix, 1)")
    total = v0 + v1
    if total == 0.0:
        return 1.0
    return _checked(v0 / total, "conditional probability")


@dataclass(frozen=True)
class ChainResult:
    """One branch of the chain rule: the visited bitstring and, per site,
    the conditional probability of outcome 0 given that branch's prefix."""

    bits: str
    probs: tuple[float, ...]


class _PlanMarginals:
    """Plan-route marginal source.  The runner holds the left part of the
    chain network with marks 1..w-1 set to the chosen projectors, each
    divided by its own conditional, so site w's two marginals are the
    conditionals v_b = P(z_w = b | prefix), from two finishes of the
    light-cone target."""

    def __init__(self, req: SimulationRequest) -> None:
        network, plan, self.marks = _chain_plan(req)
        self.req = req
        self.runner = _runner(req, plan, network)

    def conditionals(self, site: int) -> tuple[complex, complex]:
        mark, runner = self.marks[site], self.runner
        runner.run_to(runner.step_of(mark))
        cone = runner.fork(_cone_target(self.req, runner, site))
        cone.step()
        branch = cone.fork()
        branch.set_override(mark, _DIAGS["proj0"])
        cone.set_override(mark, _DIAGS["proj1"])
        return branch.finish(), cone.finish()

    def fix(self, site: int, bit: int, value: float) -> None:
        self.runner.set_override(self.marks[site], _DIAGS[f"proj{bit}"] / value)


class _DenseMarginals:
    """Dense-route marginal source: v_b = P(prefix, b) / P(prefix), read
    off the prefix-marginal tree."""

    def __init__(self, req: SimulationRequest) -> None:
        self.tree = _prefix_tree(req)
        self.prefix = 0

    def conditionals(self, site: int) -> tuple[float, float]:
        level, total = self.tree[site], self.tree[site - 1][self.prefix]
        return level[2 * self.prefix] / total, level[2 * self.prefix + 1] / total

    def fix(self, site: int, bit: int, value: float) -> None:
        self.prefix = 2 * self.prefix + bit


def _chain_walk(
    req: SimulationRequest,
    fixed_bits: Sequence[int] | None,
    rng: np.random.Generator | None,
    engine: str,
) -> ChainResult:
    """Walk the chain rule once.  At each site the marginal source gives
    the two conditionals v0, v1 of the current prefix; v0 + v1 = 1 is
    checked, p0 = v0 / (v0 + v1) decides the coin, and the source fixes
    the chosen bit.  A chosen conditional of exactly zero makes the prefix
    impossible, and every later site gets p0 = 1."""
    source = (_DenseMarginals if _route(req, engine) == "dense" else _PlanMarginals)(req)
    bits: list[int] = []
    probs: list[float] = []
    possible = True
    for site in range(1, req.n_sites + 1):
        p0 = 1.0
        if possible:
            values = [_checked(v, f"site {site} marginal") for v in source.conditionals(site)]
            total = values[0] + values[1]
            if abs(total - 1.0) > NORM_TOL:
                raise NumericalIntegrityError(
                    f"site {site} marginals sum to {total!r}, not 1 within {NORM_TOL}"
                )
            p0 = values[0] / total
        bit = fixed_bits[site - 1] if rng is None else int(rng.random() >= p0)
        probs.append(p0)
        bits.append(bit)
        possible = possible and values[bit] != 0.0
        if possible:
            source.fix(site, bit, values[bit])
    return ChainResult(bits="".join(map(str, bits)), probs=tuple(probs))


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
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, 0])
        return _chain_walk(req, None, rng, engine)
    fixed = [int(b) for b in bits]
    if len(fixed) != req.n_sites or any(b not in (0, 1) for b in fixed):
        raise DomainError(
            f"bits must be {req.n_sites} binary digits, got {bits!r}"
        )
    return _chain_walk(req, fixed, None, engine)


def sample(
    req: SimulationRequest, n_samples: int, seed: int, engine: str = "auto"
) -> SampleRecords:
    """Chain-rule sampling: one biased coin per site, conditioned on the
    already-fixed prefix.  The sampled distribution is exactly the truncated
    D~; each record's stream derives from (seed, index) so order and output
    are deterministic in the seed."""
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    bits = []
    for index in range(n_samples):
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, index])
        bits.append(_chain_walk(req, None, rng, engine).bits)
    return SampleRecords(seed=int(seed), n_sites=req.n_sites, packed="".join(bits))
