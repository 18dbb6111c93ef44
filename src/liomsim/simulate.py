"""Strong simulation of a truncated instance and chain-rule sampling.

The truncated evolution factorizes as W = U~ V U~^dagger, where V is the
diagonal product of per-site blocks V~_i = exp(-i t H~_i) collecting the
Hamiltonian terms whose leftmost site is i.  Expectation values of diagonal
observable products are closed tensor networks <0|W^dag O W|0>, contracted
qubit-wise by the tensor module.  Conditional probabilities are ratios of
two projector-product expectations, and sampling walks the chain site by
site flipping one biased coin per qubit.

Two exact evaluation routes exist for an expectation network: the qubit-wise
contraction plan (any N, feasible when the structural leg profile stays
small, e.g. for narrow-constituent instances), and a dense walk applying the
very same placed tensors to a full state vector (N up to the dense cap).
Route choice never changes the value; "auto" prefers the dense walk at
small N because it is faster there.

Both routes rest on quasilocality: W is built from gates of width at most
r_U, so an observable on sites 1..w only sees the backward light cone of
those sites, and every W factor outside it cancels against its mirror.
One-shot queries contract the pruned network directly.  The plan-route
chain walk contracts one unpruned chain network from the left once per
chain; at each site it moves that shared accumulator onto the light-cone
network of sites 1..w and finishes only the cone's remaining nodes, once
per outcome of site w.  It then rescales by the chosen outcome's marginal,
so each site's two marginals are conditionals summing to one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, FeasibilityError, NumericalIntegrityError
from .model import (
    MblInstance,
    apply_to_state,
    check_dense_feasible,
    constituent_placements,
)
from .oracle import evolve_state
from .tensor import (
    ACC_NODE,
    MAX_EXEC_AXES,
    ContractionPlan,
    ExpectationNetwork,
    ForkTarget,
    PlacedTensor,
    PlanRunner,
    PlanStep,
    execute,
    qubitwise_schedule,
)
from .truncation import TruncatedInstance, TruncationRadii, select_radii, truncate

IMAG_TOL = 1e-9
# The two marginals of a plan-route chain site are conditionals of the
# rescaled prefix; their sum may miss one by this much before the walk
# refuses.
NORM_TOL = 1e-9
# Dense route and one-shot conditionals only: a prefix probability at or
# below this counts as impossible.
DEGENERATE_PREFIX = 1e-30

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


def _request_blocks(req: SimulationRequest) -> list[SiteBlock]:
    hit = req._cache.get("blocks")
    if hit is None:
        hit = site_blocks(req.trunc, req.t)
        req._cache["blocks"] = hit
    return hit


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
        for b in _request_blocks(req)
        if not b.trivial
    ]
    # W applied to a ket: the U~^dag factors act first (in product-enumeration
    # order, daggered), then the diagonal blocks, then the U~ factors in
    # reversed enumeration order.
    nodes = [_dagger(g) for g in gates] + blocks + list(reversed(gates))
    req._cache["w_nodes"] = nodes
    return nodes


def _observable_nodes(obs: ObservableProduct) -> list[PlacedTensor]:
    proj0 = np.array([1.0, 0.0], dtype=complex)
    proj1 = np.array([0.0, 1.0], dtype=complex)
    sigma_z = np.array([1.0, -1.0], dtype=complex)
    nodes: list[PlacedTensor] = []
    for site, r in obs.rotations:
        nodes.append(PlacedTensor(f"R[{site}]", "gate", (site,), r))
    for site, bit in obs.projectors:
        nodes.append(PlacedTensor(f"P{bit}[{site}]", "diag", (site,), proj1 if bit else proj0))
    pivot_diag = {"sigma_z": sigma_z, "proj0": proj0, "proj1": proj1}[obs.pivot_kind]
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
        w_kept = [node for node, kept in zip(w_list, keep) if kept]
    else:
        w_kept = list(w_list)
    mirror = [_dagger(node) for node in reversed(w_kept)]
    nodes = (
        [PlacedTensor(f"ket[{w}]", "cap_ket", (w,), None) for w in range(1, n + 1)]
        + w_kept
        + _observable_nodes(obs)
        + mirror
        + [PlacedTensor(f"bra[{w}]", "cap_bra", (w,), None) for w in range(1, n + 1)]
    )
    return ExpectationNetwork(
        n_sites=n, nodes=tuple(nodes), r_u=req.radii.r_u, r_j=req.radii.r_j
    )


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
    mirror = [_dagger(node) for node in reversed(w_list)]
    ones = np.ones(2, dtype=complex)
    marks = [PlacedTensor(f"I[{w}]", "diag", (w,), ones) for w in range(1, n + 1)]
    nodes = (
        [PlacedTensor(f"ket[{w}]", "cap_ket", (w,), None) for w in range(1, n + 1)]
        + w_list
        + marks
        + mirror
        + [PlacedTensor(f"bra[{w}]", "cap_bra", (w,), None) for w in range(1, n + 1)]
    )
    network = ExpectationNetwork(
        n_sites=n, nodes=tuple(nodes), r_u=req.radii.r_u, r_j=req.radii.r_j
    )
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
            (),
            cone_plan.steps[cut - 1].open_legs_after,
            cone_plan.steps[cut - 1].mem_axes_after,
        )
    ]
    for step in cone_plan.steps[cut:]:
        pos = positions[step.node_index]
        node_indices[pos] = cone_plan.node_indices[step.node_index]
        steps.append(
            PlanStep(pos, step.name, step.closed_indices, step.open_legs_after, step.mem_axes_after)
        )
    endpoints = [0] * len(cone_plan.index_endpoints)
    for node_ids in node_indices.values():
        for idx in node_ids:
            endpoints[idx] += 1
    # No radii: the analytic bound was checked on the chain plan.
    tail = ContractionPlan(
        n_sites=n,
        order=[step.node_index for step in steps],
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


def _dense_expectation(req: SimulationRequest, obs: ObservableProduct) -> complex:
    n = req.n_sites
    phi = _evolved_tensor(req)
    for site, r in obs.rotations:
        phi = apply_to_state(r, (site,), phi, n)
    weights = np.abs(phi.ravel()) ** 2
    z = np.arange(2**n)
    factors = {
        "proj0": lambda bit: 1.0 - bit,
        "proj1": lambda bit: bit,
        "sigma_z": lambda bit: 1.0 - 2.0 * bit,
    }
    total = np.ones(2**n)
    for site, bit in obs.projectors:
        site_bit = (z >> (n - site)) & 1
        total = total * (site_bit if bit else 1.0 - site_bit)
    pivot_bit = (z >> (n - obs.pivot_site)) & 1
    total = total * factors[obs.pivot_kind](pivot_bit)
    return complex((weights * total).sum())


def expectation(
    req: SimulationRequest, obs: ObservableProduct, engine: str = "auto"
) -> float:
    """Expectation of the observable product in the truncated evolved state.

    engine: "plan" forces the qubit-wise contraction, "dense" forces the
    state-vector walk, "auto" takes the dense walk when N allows it and the
    contraction plan otherwise.  The imaginary residue is checked against
    1e-9 and discarded.
    """
    if engine not in ("auto", "plan", "dense"):
        raise DomainError(f"unknown engine {engine!r}")
    if obs.pivot_site > req.n_sites:
        raise DomainError(f"pivot site {obs.pivot_site} out of range for N={req.n_sites}")
    if engine == "dense":
        value = _dense_expectation(req, obs)
    elif engine == "plan":
        network = build_expectation_network(req, obs)
        plan = qubitwise_schedule(network)
        value = execute(plan, network)
    else:
        try:
            check_dense_feasible(req.n_sites, "dense expectation walk")
            dense_ok = True
        except FeasibilityError:
            dense_ok = False
        if dense_ok:
            value = _dense_expectation(req, obs)
        else:
            network = build_expectation_network(req, obs)
            plan = qubitwise_schedule(network)
            if plan.peak_mem_axes > MAX_EXEC_AXES:
                raise FeasibilityError(
                    f"N={req.n_sites} is above the dense cap and the contraction plan "
                    f"needs 2^{plan.peak_mem_axes} entries (cap 2^{MAX_EXEC_AXES}); "
                    "no exact route is feasible for this instance"
                )
            value = execute(plan, network)
    if abs(value.imag) > IMAG_TOL:
        raise NumericalIntegrityError(
            f"expectation has imaginary residue {value.imag:.3e} above {IMAG_TOL}"
        )
    result = float(value.real)
    lo, hi = (0.0, 1.0) if obs.is_projector else (-1.0, 1.0)
    if result < lo - IMAG_TOL or result > hi + IMAG_TOL:
        raise NumericalIntegrityError(
            f"expectation {result} outside [{lo}, {hi}] beyond tolerance"
        )
    return min(max(result, lo), hi)


def conditional_probability(
    req: SimulationRequest,
    prefix: Sequence[int] | str,
    site: int,
    engine: str = "auto",
) -> float:
    """P(z_site = 0 | z_1..z_{site-1} = prefix), as a ratio of two
    projector-product expectations.  A vanishing prefix probability (below
    1e-30) makes the conditional ill-defined; the surviving branch is then
    assigned deterministically."""
    bits = [int(b) for b in prefix]
    if len(bits) != site - 1:
        raise DomainError(
            f"prefix has {len(bits)} bits but site {site} needs exactly {site - 1}"
        )
    if site > req.n_sites:
        raise DomainError(f"site {site} out of range for N={req.n_sites}")
    numerator = expectation(
        req, ObservableProduct.prefix_projector(bits + [0]), engine=engine
    )
    if site == 1:
        denominator = 1.0
    else:
        denominator = expectation(
            req, ObservableProduct.prefix_projector(bits), engine=engine
        )
    if denominator <= DEGENERATE_PREFIX:
        return 1.0 if 2 * numerator >= denominator else 0.0
    p = numerator / denominator
    if p < -IMAG_TOL or p > 1 + IMAG_TOL:
        raise NumericalIntegrityError(f"conditional probability {p} outside [0,1]")
    return min(max(p, 0.0), 1.0)


@dataclass(frozen=True)
class ChainResult:
    """One branch of the chain rule: the visited bitstring and, per site,
    the conditional probability of outcome 0 given that branch's prefix."""

    bits: str
    probs: tuple[float, ...]


_PROJ_DIAGS = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
)


def _checked_marginal(raw: complex) -> float:
    if abs(raw.imag) > IMAG_TOL:
        raise NumericalIntegrityError(
            f"marginal has imaginary residue {raw.imag:.3e} above {IMAG_TOL}"
        )
    if raw.real < -IMAG_TOL or raw.real > 1 + IMAG_TOL:
        raise NumericalIntegrityError(f"marginal {raw.real} outside [0,1] beyond tolerance")
    return min(max(raw.real, 0.0), 1.0)


def _plan_chain(req: SimulationRequest, choose) -> tuple[list[int], list[float]]:
    """Plan-route chain.  The runner holds the left part of the chain
    network with marks 1..w-1 set to the chosen projectors, each divided by
    its own marginal.  Site w's two marginals are then the conditionals
    v_b = P(z_w = b | prefix), from two finishes of the light-cone target;
    v0 + v1 = 1 is checked.  A fixed bit whose marginal is exactly zero
    makes the prefix impossible, and every later site gets p0 = 1."""
    network, plan, mark_nodes = _chain_plan(req)
    runner = PlanRunner(plan, network)
    bits: list[int] = []
    probs: list[float] = []
    possible = True
    for site in range(1, req.n_sites + 1):
        if not possible:
            probs.append(1.0)
            bits.append(choose(site, 1.0))
            continue
        mark = mark_nodes[site]
        runner.run_to(runner.step_of(mark))
        cone = runner.fork(_cone_target(req, runner, site))
        cone.step()
        branch = cone.fork()
        branch.set_override(mark, _PROJ_DIAGS[0])
        cone.set_override(mark, _PROJ_DIAGS[1])
        values = (_checked_marginal(branch.finish()), _checked_marginal(cone.finish()))
        total = values[0] + values[1]
        if abs(total - 1.0) > NORM_TOL:
            raise NumericalIntegrityError(
                f"site {site} marginals sum to {total!r}, not 1 within {NORM_TOL}"
            )
        p0 = values[0] / total
        bit = choose(site, p0)
        probs.append(p0)
        bits.append(bit)
        if values[bit] == 0.0:
            possible = False
        else:
            runner.set_override(mark, _PROJ_DIAGS[bit] / values[bit])
    return bits, probs


def _dense_chain(req: SimulationRequest, choose) -> tuple[list[int], list[float]]:
    """Dense-route chain.  The prefix probability equals the previous
    site's surviving marginal, so each site costs one projector
    expectation."""
    bits: list[int] = []
    probs: list[float] = []
    den = 1.0
    for site in range(1, req.n_sites + 1):
        val0 = expectation(
            req, ObservableProduct.prefix_projector(bits + [0]), engine="dense"
        )
        if den <= DEGENERATE_PREFIX:
            p0 = 1.0 if 2 * val0 >= den else 0.0
        else:
            p0 = val0 / den
            if p0 < -IMAG_TOL or p0 > 1 + IMAG_TOL:
                raise NumericalIntegrityError(
                    f"conditional probability {p0} outside [0,1]"
                )
            p0 = min(max(p0, 0.0), 1.0)
        bit = choose(site, p0)
        probs.append(p0)
        bits.append(bit)
        den = val0 if bit == 0 else max(den - val0, 0.0)
    return bits, probs


def _chain_walk(
    req: SimulationRequest,
    fixed_bits: Sequence[int] | None,
    rng: np.random.Generator | None,
    engine: str,
) -> ChainResult:
    """Walk the chain rule once, on the plan or the dense route."""
    if engine not in ("auto", "plan", "dense"):
        raise DomainError(f"unknown engine {engine!r}")
    if engine == "auto":
        try:
            check_dense_feasible(req.n_sites, "dense expectation walk")
            engine = "dense"
        except FeasibilityError:
            engine = "plan"

    def choose(site: int, p0: float) -> int:
        if fixed_bits is not None:
            return fixed_bits[site - 1]
        return 0 if rng.random() < p0 else 1

    walk = _plan_chain if engine == "plan" else _dense_chain
    bits, probs = walk(req, choose)
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
) -> list[SampleRecord]:
    """Chain-rule sampling: one biased coin per site, conditioned on the
    already-fixed prefix.  The sampled distribution is exactly the truncated
    D~; each record's stream derives from (seed, index) so order and output
    are deterministic in the seed."""
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    records: list[SampleRecord] = []
    for index in range(n_samples):
        rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, index])
        chain = _chain_walk(req, None, rng, engine)
        records.append(SampleRecord(bits=chain.bits, seed=int(seed), index=index))
    return records


def exact_state(
    instance: MblInstance, t: float, radii: TruncationRadii | None = None
) -> np.ndarray:
    """Brute-force exp(-iHt)|0...0> through the dense oracle, optionally on
    the truncated Hamiltonian."""
    if radii is None:
        return evolve_state(instance, t)
    return evolve_state(instance, t, r_j=radii.r_j, r_u=radii.r_u)
