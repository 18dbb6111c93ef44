"""Qubit-wise contraction scheduler and the runner that executes its plans.

A closed expectation network is an ordered list of placed tensors in
application order along the chain's wires: ket caps, then the gate and
diagonal layers of the evolution sandwich, then bra caps.  The scheduler
absorbs every tensor whose leftmost wire is qubit 1, then qubit 2, and so
on, which keeps the open boundary of the partial contraction confined to a
window of wires and bounds the intermediate tensor rank.

Caps without data (|0> and <0|) are rank-1 and are removed before
contracting rather than absorbed: every index such a cap carries is
pinned to 0.  A pinned id never becomes an axis of the accumulator; every
other node that carries it takes entry 0 on that axis of its operand
before the kernel, and the cap itself is no plan step.  So the first gate
on a wire enters as a column of its matrix, and the last one as a row.
Caps with data stay ordinary steps.

A basis projector |b><b| (kind "proj") is rank-1 as well, and pins the id
it sits on in the same way, except that its carriers take entry b.  Its
kind marks it, so the scheduler still reads no data: the plan records
which axes take a projector's entry, and the runner reads b from the
projector's data.  One plan thus serves every outcome b.  A projector on
an id a dataless cap (or an earlier projector) already pins stays an
ordinary step: its entry there is the scalar 1 or 0.

Two leg counts are tracked per step.  The "dense" count treats every node
(including diagonal ones, projectors and every cap) as a full tensor with
in/out legs on each wire; this is the convention of the analytic open-leg
bound and is what gets checked against it, and pinning does not change
it.  The "memory" count is the number of axes the runner actually holds,
which is smaller because diagonal nodes share a single index with their
neighbours (a diagonal phase layer never needs separate in/out axes) and
pinned ids are never held.  Under either convention an index is open from
the step that absorbs its first carrier to the step that absorbs its
last; the scheduler works both counts out from those spans once, and
the layout below records the accumulator's axis order after every step, so
a runner, or a fork of it, needs no count of its own to know which axes to
keep.  The runner materializes arrays only when the peak memory count is
affordable; the scheduler itself is pure structure and runs at any size.

The scheduler also plans the accumulator's axis order, from structure
alone, so that the runner's kernel does no id bookkeeping.  A step's
touched ids are the accumulator ids its node carries; each step takes
one of two forms:

- a broadcast multiply, for a node that closes no id (a diagonal, a ket
  cap with data, a gate whose accumulator ids all stay open); its new
  axes lead;
- one matmul for everything else: the touched ids form the leading
  block, the ids the node keeps open first, then those it closes, and
  the node is a (2^kept, 2^new, 2^closing) operand.  The matmul is
  batched over the kept ids (2-D when none is kept): an id both operands
  and the result carry is a batch index (Gray & Kourtis, Quantum 5, 410,
  2021), not padding, so every multiply-add is one of the contraction's.
  The kept ids lead after the step, then the new ones.

New axes go in order of next use, soonest first.  Only a matmul step
whose touched block is not so laid out in front transposes first: the
block moves there and the other axes follow in order of their next use.
Leading blocks keep multiplies' inner loops long.  A network of caps
alone is an empty plan of value 1.

A caller may give each node the wire to absorb it at in place of its
leftmost one (qubitwise_schedule's sites): the chain walk absorbs each
factor of W at the first site whose light cone holds it.  Nodes of one
site keep their application order under either rule.
"""

from __future__ import annotations

import copy
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .errors import FeasibilityError, StructuralError

# 2^24 complex entries is ~256 MiB; beyond that the runner refuses.
MAX_EXEC_AXES = 24
# The accumulator's shape, per number of axes.
_SHAPES = tuple((2,) * k for k in range(MAX_EXEC_AXES + 1))


@dataclass(frozen=True)
class PlacedTensor:
    """A node of the expectation network.

    kind "cap_ket"/"cap_bra": length-2 vector on one wire (|0> or <0|).
    kind "gate": 2^w x 2^w matrix, rows = outgoing bits over `sites` order.
    kind "diag": length-2^w diagonal of an operator diagonal in the z basis.
    kind "proj": the diagonal of a basis projector |b><b| on one wire, the
        basis vector with its 1 at entry b.
    """

    name: str
    kind: str
    sites: tuple[int, ...]
    data: np.ndarray | None

    def __post_init__(self) -> None:
        if self.kind not in ("cap_ket", "cap_bra", "gate", "diag", "proj"):
            raise StructuralError(f"unknown placed-tensor kind {self.kind!r}")
        if self.kind.startswith("cap") and len(self.sites) != 1:
            raise StructuralError("caps act on exactly one wire")
        if self.kind == "proj":
            # A pin keeps one entry of the projector and drops the other.
            values = None if self.data is None else np.asarray(self.data).ravel().tolist()
            if len(self.sites) != 1 or values not in ([1, 0], [0, 1]):
                raise StructuralError(
                    f"projector {self.name} must be |0><0| or |1><1| on one wire, "
                    f"got data {values} on wires {self.sites}"
                )
        if len(set(self.sites)) != len(self.sites):
            raise StructuralError(f"placed tensor {self.name} repeats a wire: {self.sites}")

    @property
    def min_site(self) -> int:
        return min(self.sites)

    @property
    def width(self) -> int:
        return len(self.sites)

    @cached_property
    def legs(self) -> np.ndarray:
        """The data with one axis per index id, in node_indices order, made
        at first use.  A cap without data has none: no step absorbs it."""
        legs = 2 * self.width if self.kind == "gate" else self.width
        return np.asarray(self.data, dtype=complex).reshape((2,) * legs)


@dataclass(frozen=True)
class ExpectationNetwork:
    """Closed network in application order with the truncation radii it was
    built for.  Radii are None where the analytic leg bound does not apply
    (ad-hoc networks, and networks with a factor wrapping past site N); the
    bound is then not checked."""

    n_sites: int
    nodes: tuple[PlacedTensor, ...]
    r_u: int | None = None
    r_j: int | None = None


def open_leg_bound(r_u: int, r_j: int) -> int:
    """Worst-case open-leg bound 4 [ sum_{n=2}^{r_U} n(n-1) + 2(r_J - 1) + 2 ]
    for qubit-wise contraction of an expectation network with width cutoff
    r_U and range cutoff r_J."""
    return 4 * (sum(n * (n - 1) for n in range(2, r_u + 1)) + 2 * (r_j - 1) + 2)


@dataclass(slots=True)
class PlanStep:
    """One absorption and the layout the runner executes it in (see the
    module docstring for the forms).

    pick: the index that takes entry 0 of the node's pinned axes (see
        _entry_0), or None when the node carries no pinned id.  Where a
        projector pins the id, the runner takes its entry b instead (see
        ContractionPlan.pins).
    perm: axis permutation of the accumulator before the step, or None.
    form: "mul" or "matmul" (on the leading block).
    node_axes: the axes of the node's operand, its pinned axes taken, in
        the order the kernel reads them.
    shape: mul: the node's broadcast shape, as bytes of 1s and 2s; matmul:
        the node operand (2^kept, 2^new, 2^closing), without its leading
        2^kept when the node keeps no id open.
    """

    node_index: int
    name: str
    mem_axes_after: int
    pick: tuple | None
    perm: tuple[int, ...] | None
    form: str
    node_axes: tuple[int, ...]
    shape: Sequence[int]


@dataclass
class ContractionPlan:
    """Structural schedule: the steps in absorption order with their
    predicted leg counts, and the index bookkeeping the runner reads.

    Caps without data and the projectors that pin are no steps, and the
    ids they carry are pinned: no accumulator ever holds them (see the
    module docstring).

    node_indices: per node, its index ids in axis order (gate: out ids then
        in ids; diag: one shared id per wire; projector and caps: one id),
        pinned ids included.
    index_endpoints: per index id, how many steps carry it as an open axis:
        the number of its carriers, or 0 for a pinned id.  Replaying the
        steps and counting each id's carriers, an id is live while fewer
        than index_endpoints[id] of them have been absorbed, so a pinned id
        never is.
    step_of: per node, the step that absorbs it; for a node no step
        absorbs, the step after it in the qubit-wise order (or the number
        of steps when none follows).
    pins: (projector node, step, axis) for every axis of a step's pick
        that takes an id a projector pins: the runner puts the projector's
        b there in place of 0.
    peak_open_legs: the dense-convention peak, every node counted, pinning
        ones included; the analytic open-leg bound is checked against it.
    peak_mem_axes: the most axes the accumulator holds after any step (0
        when the plan has no steps).
    axes: the accumulator's ids after every step, in axis order, one step
        after the other; step p's order ends at axes_end[p].
    """

    steps: list[PlanStep]
    node_indices: Sequence[tuple[int, ...]]
    index_endpoints: list[int]
    step_of: list[int]
    pins: tuple[tuple[int, int, int], ...]
    peak_open_legs: int
    peak_mem_axes: int
    r_u: int | None
    r_j: int | None
    axes: array
    axes_end: array


def _wire_sequences(net: ExpectationNetwork) -> dict[int, list[int]]:
    """Per wire, node positions touching it in application order; validates
    closure (one ket cap first, one bra cap last, none in between)."""
    wires: dict[int, list[int]] = {}
    for pos, node in enumerate(net.nodes):
        for s in node.sites:
            if not (1 <= s <= net.n_sites):
                raise StructuralError(f"node {node.name} touches wire {s} outside 1..{net.n_sites}")
            wires.setdefault(s, []).append(pos)
    for w, seq in wires.items():
        kinds = [net.nodes[p].kind for p in seq]
        if kinds[0] != "cap_ket" or kinds[-1] != "cap_bra":
            raise StructuralError(
                f"wire {w} is not closed: first/last nodes are {kinds[0]}/{kinds[-1]}"
            )
        if any(k.startswith("cap") for k in kinds[1:-1]):
            raise StructuralError(f"wire {w} has a cap in the interior")
    return wires


# Kinds that share the id they sit on rather than cutting it.
_DIAGONAL = ("diag", "proj")


def _open_after(spans: Iterable[tuple[int, int]], n_steps: int) -> list[int]:
    """How many of the spans are open after each step, where a span
    (first, last) opens at step first and closes at step last."""
    delta = [0] * (n_steps + 1)
    for first, last in spans:
        delta[first] += 1
        delta[last] -= 1
    return list(accumulate(delta[:n_steps]))


def _pins(node: PlacedTensor) -> bool:
    """Whether the node is a cap without data, |0> or <0|: it fixes the id
    it carries to entry 0 and is no plan step."""
    return node.data is None and node.kind.startswith("cap")


def _pinning_projectors(
    nodes: Sequence[PlacedTensor], wires: dict[int, list[int]]
) -> set[int]:
    """The projectors that pin their id: on each id, between two
    non-diagonal nodes of a wire, the first projector, unless a dataless
    cap carries that id."""
    out = set()
    for seq in wires.values():
        start = 0
        for i in range(1, len(seq)):
            if nodes[seq[i]].kind in _DIAGONAL:
                continue
            if not (_pins(nodes[seq[start]]) or _pins(nodes[seq[i]])):
                out.update([pos for pos in seq[start + 1 : i] if nodes[pos].kind == "proj"][:1])
            start = i
    return out


def _entry_0(pinned: Sequence[bool]) -> tuple | None:
    """The index that takes entry 0 of an array's pinned axes: an int for
    each pinned axis and a full slice for each other, then Ellipsis, so
    the result is an array view; None when no axis is pinned."""
    return (*(0 if pin else slice(None) for pin in pinned), ...) if any(pinned) else None


def _bit_picks(plan: ContractionPlan, net: ExpectationNetwork) -> dict[int, tuple]:
    """Per step whose pick takes entry 1 of some axis, that pick: the
    step's own, with the b of each projector that pins one of its axes
    (b = 1 where the projector's entry 1 is nonzero)."""
    picks: dict[int, list] = {}
    for pos, p, k in plan.pins:
        if net.nodes[pos].data[1] != 0:
            picks.setdefault(p, list(plan.steps[p].pick))[k] = 1
    return {p: tuple(pick) for p, pick in picks.items()}


def _step_operand(
    plan: ContractionPlan,
    net: ExpectationNetwork,
    pos: int,
    picks: dict[int, tuple],
    overrides: dict[int, np.ndarray],
) -> np.ndarray:
    """Step pos's node operand: the node's data, or its override, its
    pinned axes taken at their entry (0, or a pinning projector's b from
    picks, see _bit_picks), transposed to the step's node_axes and
    reshaped to its shape.  Views of the node where the reshape allows."""
    step = plan.steps[pos]
    arr = overrides.get(step.node_index)
    if arr is None:
        arr = net.nodes[step.node_index].legs
    pick = picks.get(pos, step.pick)
    if pick is not None:
        arr = arr[pick]
    return arr.transpose(step.node_axes).reshape(step.shape)


def qubitwise_schedule(
    net: ExpectationNetwork, sites: Sequence[int] | None = None
) -> ContractionPlan:
    """Build the qubit-wise plan: absorb all tensors whose leftmost wire is
    qubit 1 (in application order), then qubit 2, and so on, skipping the
    caps without data and the projectors that pin.  With sites, node pos
    is absorbed with the nodes of wire sites[pos] instead.  Pure
    structure; tensor data never enters."""
    if not net.nodes:
        raise StructuralError("empty network")
    nodes = net.nodes
    wires = _wire_sequences(net)
    pinning = _pinning_projectors(nodes, wires)
    if sites is None:
        sites = [node.min_site for node in nodes]
    order = sorted(range(len(nodes)), key=lambda pos: (sites[pos], pos))
    # The dense count walks every node in `order`; the steps skip the
    # pinning nodes, each of which takes the step number of the step after it.
    dense_at = [0] * len(nodes)
    step_of = [0] * len(nodes)
    steps: list[int] = []
    for at, pos in enumerate(order):
        dense_at[pos] = at
        step_of[pos] = len(steps)
        if not (_pins(nodes[pos]) or pos in pinning):
            steps.append(pos)

    # Walking each wire, a fresh memory id opens after every non-diagonal
    # node; diagonal nodes and projectors share the id they sit on instead
    # of cutting it.  In the dense convention every two consecutive nodes
    # share one bond.  An id or bond is open from the step of its first
    # carrier to the step of its last.  An id a dataless cap or a pinning
    # projector carries is pinned: it never opens and its index_endpoints
    # entry is 0.
    node_ids = [[0] * (2 * node.width if node.kind == "gate" else node.width) for node in nodes]
    index_endpoints: list[int] = []
    # Per id a projector pins, that projector.
    projector_of: dict[int, int] = {}
    spans: list[tuple[int, int]] = []
    bonds: list[tuple[int, int]] = []
    for w, seq in wires.items():
        for i, pos in enumerate(seq):
            node, step, at = nodes[pos], step_of[pos], dense_at[pos]
            k = node.sites.index(w)
            if i:
                bonds.append((prev, at) if prev < at else (at, prev))
                # On a diagonal the id sits on axis k, on a gate on in axis k.
                node_ids[pos][k + node.width if node.kind == "gate" else k] = current
                index_endpoints[current] += 1
                first, last = min(first, step), max(last, step)
                if pos in pinning:
                    projector_of[current] = pos
                elif node.kind not in _DIAGONAL:
                    if pinned or _pins(node) or current in projector_of:
                        index_endpoints[current] = 0
                    else:
                        spans.append((first, last))
            prev = at
            if node.kind == "cap_ket" or node.kind == "gate":
                current = len(index_endpoints)
                index_endpoints.append(1)
                node_ids[pos][k] = current
                first = last = step
                pinned = _pins(node)

    open_mem = _open_after(spans, len(steps))
    node_ids = [tuple(ids) for ids in node_ids]
    # Per step, the node's open ids and the index that takes entry 0 of its
    # pinned axes (one per pattern of pinned axes).
    free: list[tuple[int, ...]] = []
    picks: list[tuple | None] = []
    pick_of: dict[tuple[bool, ...], tuple | None] = {}
    pins: list[tuple[int, int, int]] = []
    for p, pos in enumerate(steps):
        ids = node_ids[pos]
        mask = tuple(index_endpoints[idx] == 0 for idx in ids)
        free.append(tuple(idx for idx, pin in zip(ids, mask) if not pin))
        if mask not in pick_of:
            pick_of[mask] = _entry_0(mask)
        picks.append(pick_of[mask])
        if projector_of:
            pins += [(projector_of[idx], p, k) for k, idx in enumerate(ids) if idx in projector_of]
    layout, axes = _layout(free, len(index_endpoints))
    return ContractionPlan(
        steps=[
            PlanStep(pos, nodes[pos].name, open_axes, pick, *form)
            for pos, open_axes, pick, form in zip(steps, open_mem, picks, layout)
        ],
        node_indices=node_ids,
        index_endpoints=index_endpoints,
        step_of=step_of,
        pins=tuple(pins),
        peak_open_legs=max(_open_after(bonds, len(order))),
        peak_mem_axes=max(open_mem, default=0),
        r_u=net.r_u,
        r_j=net.r_j,
        axes=axes,
        axes_end=array("I", accumulate(open_mem)),
    )


def _layout(free: Sequence[tuple[int, ...]], n_ids: int) -> tuple[list[tuple], array]:
    """Per step, the layout fields of its PlanStep (perm, form, node_axes,
    shape), and every step's axis order after it, one after the
    other; from each step's open node ids (free[p], in the axis order of
    the node's operand once its pinned axes are taken) alone."""
    n_steps = len(free)
    # following[p][k]: the next step after p that carries step p's k-th
    # id, or n_steps where none follows.
    following = [[n_steps] * len(ids) for ids in free]
    previous: list[list[int] | None] = [None] * n_ids
    prev_axis = [0] * n_ids
    for p, ids in enumerate(free):
        mine = following[p]
        for k, idx in enumerate(ids):
            if previous[idx] is not None:
                previous[idx][prev_axis[idx]] = p
            previous[idx], prev_axis[idx] = mine, k
    next_use = [0] * n_ids
    held = [False] * n_ids
    acc: list[int] = []
    out = []
    # Plans stay cached: a chain walk's ket half on its request, one-shot
    # plans in the simulate module's bounded cache, evicted least recently
    # used first.  So a plan shares its equal small fields and packs its
    # axis orders into one array rather than one tuple per step.
    flat = array("I")
    shared: dict = {}

    def share(value):
        return shared.setdefault(value, value)

    for ids, follow in zip(free, following):
        kept, closing, new = [], [], []
        for idx, later in zip(ids, follow):
            next_use[idx] = later
            if not held[idx]:
                new.append(idx)
                held[idx] = True
            elif later < n_steps:
                kept.append(idx)
            else:
                closing.append(idx)
                held[idx] = False
        new.sort(key=next_use.__getitem__)
        perm = None
        if not closing:
            # Broadcast the node over the accumulator, its new axes in front.
            form, axes = "mul", new + acc
            at = [axes.index(idx) for idx in ids]
            node_axes = tuple(sorted(range(len(ids)), key=at.__getitem__))
            shape = bytearray(b"\x01" * len(axes))
            for x in at:
                shape[x] = 2
            shape = share(bytes(shape))
        else:
            form, k, t = "matmul", len(kept), len(kept) + len(closing)
            if set(acc[:k]) != set(kept) or set(acc[k:t]) != set(closing):
                touched = set(kept + closing)
                moved = [idx for idx in acc if idx in kept] + [idx for idx in acc if idx in closing]
                moved += sorted((idx for idx in acc if idx not in touched), key=next_use.__getitem__)
                perm = share(tuple(acc.index(idx) for idx in moved))
                acc = moved
            kept, closing = acc[:k], acc[k:t]
            axes = kept + new + acc[t:]
            node_axes = tuple(ids.index(idx) for idx in kept + new + closing)
            shape = (1 << len(new), 1 << (t - k))
            shape = share((1 << k, *shape) if k else shape)
        out.append((perm, form, share(node_axes), shape))
        flat.extend(axes)
        acc = axes
    return out, flat


def _axes_before(plan: ContractionPlan, pos: int) -> tuple[int, ...]:
    """The accumulator's ids, in axis order, before step pos of the plan."""
    if not pos:
        return ()
    end = plan.axes_end[pos - 1]
    return tuple(plan.axes[end - plan.steps[pos - 1].mem_axes_after : end])


def _check_plan(plan: ContractionPlan, net: ExpectationNetwork) -> None:
    """Refuse a plan the runner cannot execute: one built for another
    network, or one whose peak exceeds MAX_EXEC_AXES (a step is a
    multiply or a matmul, which no label count bounds).  The plan's
    dense-leg peak is checked against the analytic bound when the network
    carries its radii; a failure there is an internal assertion error,
    not a user error."""
    if len(net.nodes) != len(plan.node_indices):
        raise StructuralError(
            "plan was produced for a different network (node count differs)"
        )
    peak = plan.peak_mem_axes
    if peak > MAX_EXEC_AXES:
        raise FeasibilityError(
            f"contraction needs 2^{peak} intermediate entries, above the "
            f"2^{MAX_EXEC_AXES} engine cap"
        )
    if plan.r_u is not None and plan.r_j is not None:
        bound = open_leg_bound(plan.r_u, plan.r_j)
        if plan.peak_open_legs > bound:
            raise AssertionError(
                f"scheduler bug: predicted open legs {plan.peak_open_legs} exceed the "
                f"analytic bound {bound} for (r_U={plan.r_u}, r_J={plan.r_j})"
            )


class PlanRunner:
    """Stepwise executor of a contraction plan: the plan, a position in it
    and an accumulator whose axes are the plan's axis order at that
    position.

    Plans that _check_plan refuses are refused up front, and the size of
    every step's result is checked against the plan's predicted axes (an
    internal assertion error).

    Each step runs its planned form (see the module docstring): an optional
    transpose, then a broadcast multiply or one matmul batched over the
    ids the node keeps open, with no id bookkeeping.  Accumulators are
    never written into, so forks share them; a step drops the runner's
    reference to the old one before computing the new one, so a step
    holds at most two accumulator-sized arrays.

    The runner reads the b of every projector that pins once, when it is
    built, and its steps take that entry where the plan's picks say 0.

    Beyond one-shot execution the runner can pause between steps, fork
    (duplicate the partial contraction), override the values of diagonal
    nodes not yet absorbed, and read the weights of the accumulator's two
    slices on the id a diagonal sits on (weights).  The chain-rule sampler
    leans on all of this: one runner contracts the ket half of the chain
    network once per chain and reads each site's conditionals off its
    accumulator at the site's mark (see the simulate module).
    """

    def __init__(self, plan: ContractionPlan, net: ExpectationNetwork) -> None:
        _check_plan(plan, net)
        self.plan = plan
        self.net = net
        self._pos = 0
        self._acc = np.ones((), dtype=complex)
        self._observed_peak = 0
        self._overrides: dict[int, np.ndarray] = {}
        self._picks = _bit_picks(plan, net)

    @property
    def position(self) -> int:
        return self._pos

    @property
    def observed_peak(self) -> int:
        """Most axes the accumulator has held so far in this run."""
        return self._observed_peak

    @property
    def open_ids(self) -> tuple[int, ...]:
        """Index ids of the accumulator's axes, in axis order."""
        return _axes_before(self.plan, self._pos)

    def fork(self) -> "PlanRunner":
        """Duplicate the partial contraction.  The twin shares this runner's
        accumulator rather than copying it: no step writes into an
        accumulator, and every accumulator is C-contiguous, so a copy would
        have the same layout and give the same bits.  The plan is shared
        too, so a fork copies no per-index state."""
        twin = copy.copy(self)
        twin._overrides = dict(self._overrides)
        return twin

    def weights(self, node_index: int) -> tuple[float, float]:
        """The squared norms of the accumulator's slices at entries 0 and 1
        of the id that the one-wire diagonal node_index, not yet absorbed,
        sits on: (squared norm, 0.0) where a cap without data pins that id
        to entry 0 (no projector may pin it)."""
        node = self.net.nodes[node_index]
        if node.kind != "diag" or node.width != 1:
            raise StructuralError(f"weights are read on a one-wire diagonal, {node.name} is not")
        if self.plan.step_of[node_index] < self._pos:
            raise StructuralError(f"node {node.name} was already absorbed")
        (idx,) = self.plan.node_indices[node_index]
        acc = self._acc
        if not self.plan.index_endpoints[idx]:
            return float(np.vdot(acc, acc).real), 0.0
        rows = np.moveaxis(acc, self.open_ids.index(idx), 0).reshape(2, -1)
        return float(np.vdot(rows[0], rows[0]).real), float(np.vdot(rows[1], rows[1]).real)

    def set_override(self, node_index: int, values: np.ndarray) -> None:
        """Replace the data of a not-yet-absorbed diagonal node for this
        runner only (forks made afterwards inherit the override)."""
        node = self.net.nodes[node_index]
        if node.kind != "diag":
            raise StructuralError(f"only diagonal nodes can be overridden, {node.name} is {node.kind}")
        if self.plan.step_of[node_index] < self._pos:
            raise StructuralError(f"node {node.name} was already absorbed")
        arr = np.asarray(values, dtype=complex).reshape((2,) * node.width)
        self._overrides[node_index] = arr

    def step(self) -> None:
        """Absorb the next node in its planned form.  The runner's
        reference to the old accumulator is dropped first.  A planned
        transpose is a view; reshaping it to the matmul's (kept, closing,
        rest) operand makes the one copy and drops the view, which frees
        the old accumulator before the product is computed, so a step
        holds at most two accumulator-sized arrays.  The node's pinned
        axes are taken at their entry (0, or a pinning projector's b)
        before its own transpose, both views of the node."""
        step = self.plan.steps[self._pos]
        acc, self._acc = self._acc, None
        if step.perm is not None:
            acc = acc.transpose(step.perm)
        arr = _step_operand(self.plan, self.net, self._pos, self._picks, self._overrides)
        if step.form == "mul":
            out = np.multiply(acc, arr, order="C")
        else:
            acc = acc.reshape(*arr.shape[:-2], arr.shape[-1], -1)
            out = arr @ acc
        del acc
        axes = step.mem_axes_after
        if out.size != 1 << axes:
            raise AssertionError(
                f"scheduler bug: step {step.name} left {out.size} entries, "
                f"plan predicted 2^{axes}"
            )
        self._acc = out.reshape(_SHAPES[axes])
        self._observed_peak = max(self._observed_peak, axes)
        self._pos += 1

    def run_to(self, stop: int) -> None:
        while self._pos < stop:
            self.step()

    def finish(self) -> complex:
        """Run to the plan's end and return the value it leaves."""
        self.run_to(len(self.plan.steps))
        if self._acc.ndim:
            raise AssertionError("scheduler bug: axes left open after the final step")
        return complex(self._acc)


def execute(plan: ContractionPlan, net: ExpectationNetwork) -> complex:
    """Run the plan on the network's data and return the scalar value."""
    return PlanRunner(plan, net).finish()
