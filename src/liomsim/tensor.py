"""Qubit-wise contraction scheduler and the runner that executes its plans.

A closed expectation network is an ordered list of placed tensors in
application order along the chain's wires: ket caps, then the gate and
diagonal layers of the evolution sandwich, then bra caps.  The scheduler
absorbs every tensor whose leftmost wire is qubit 1, then qubit 2, and so
on, which keeps the open boundary of the partial contraction confined to a
window of wires and bounds the intermediate tensor rank.

Two leg counts are tracked per step.  The "dense" count treats every node
(including diagonal ones) as a full tensor with in/out legs on each wire;
this is the convention of the analytic open-leg bound and is what gets
checked against it.  The "memory" count is the number of axes the runner
actually holds, which is smaller because diagonal nodes share a single
index with their neighbours (a diagonal phase layer never needs separate
in/out axes).  The runner materializes arrays only when the peak memory
count is affordable; the scheduler itself is pure structure and runs at
any size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import FeasibilityError, StructuralError

# 2^24 complex entries is ~256 MiB; beyond that the runner refuses.
MAX_EXEC_AXES = 24
# numpy's einsum accepts at most 52 distinct labels in one call.
MAX_EINSUM_LABELS = 52


@dataclass(frozen=True)
class PlacedTensor:
    """A node of the expectation network.

    kind "cap_ket"/"cap_bra": length-2 vector on one wire (|0> or <0|).
    kind "gate": 2^w x 2^w matrix, rows = outgoing bits over `sites` order.
    kind "diag": length-2^w diagonal of an operator diagonal in the z basis.
    """

    name: str
    kind: str
    sites: tuple[int, ...]
    data: np.ndarray | None

    def __post_init__(self) -> None:
        if self.kind not in ("cap_ket", "cap_bra", "gate", "diag"):
            raise StructuralError(f"unknown placed-tensor kind {self.kind!r}")
        if self.kind.startswith("cap") and len(self.sites) != 1:
            raise StructuralError("caps act on exactly one wire")
        if len(set(self.sites)) != len(self.sites):
            raise StructuralError(f"placed tensor {self.name} repeats a wire: {self.sites}")

    @property
    def min_site(self) -> int:
        return min(self.sites)

    @property
    def width(self) -> int:
        return len(self.sites)


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


@dataclass
class PlanStep:
    node_index: int
    name: str
    open_legs_after: int
    mem_axes_after: int


@dataclass
class ContractionPlan:
    """Structural schedule: the steps in absorption order with their
    predicted leg counts, and the index bookkeeping the runner replays.

    node_indices: per node, its index ids in axis order (gate: out ids then
        in ids; diag: one shared id per wire; caps: one id).  A list over
        the network's nodes, or for a ForkTarget's plan a mapping from the
        positions it absorbs.
    index_endpoints: per index id, how many nodes carry it.
    """

    n_sites: int
    steps: list[PlanStep]
    node_indices: Sequence[tuple[int, ...]] | Mapping[int, tuple[int, ...]]
    index_endpoints: list[int]
    peak_open_legs: int
    peak_mem_axes: int
    r_u: int | None
    r_j: int | None


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


def qubitwise_schedule(net: ExpectationNetwork) -> ContractionPlan:
    """Build the qubit-wise plan: absorb all tensors whose leftmost wire is
    qubit 1 (in application order), then qubit 2, and so on.  Pure
    structure; tensor data never enters."""
    if not net.nodes:
        raise StructuralError("empty network")
    wires = _wire_sequences(net)
    n_nodes = len(net.nodes)

    # Index (hyperedge) construction: walking each wire, a fresh index opens
    # after every non-diagonal node; diagonal nodes share the index they sit
    # on instead of cutting it.
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
            if node.kind == "diag":
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
        if node.kind == "diag":
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

    # Replay the absorption to predict both leg counts.
    absorbed_count = [0] * len(index_endpoints)
    open_mem = 0
    bond_by_node: list[list[int]] = [[] for _ in range(n_nodes)]
    for b, (left, right) in enumerate(bonds):
        bond_by_node[left].append(b)
        bond_by_node[right].append(b)
    bond_state = [0] * len(bonds)  # endpoints absorbed so far
    open_dense = 0
    steps: list[PlanStep] = []
    peak_dense = 0
    peak_mem = 0
    for pos in order:
        for idx in node_indices[pos]:
            if absorbed_count[idx] == 0:
                open_mem += 1
            absorbed_count[idx] += 1
            if absorbed_count[idx] == index_endpoints[idx]:
                open_mem -= 1
        for b in bond_by_node[pos]:
            bond_state[b] += 1
            if bond_state[b] == 1:
                open_dense += 1
            else:
                open_dense -= 1
        peak_dense = max(peak_dense, open_dense)
        peak_mem = max(peak_mem, open_mem)
        steps.append(
            PlanStep(
                node_index=pos,
                name=net.nodes[pos].name,
                open_legs_after=open_dense,
                mem_axes_after=open_mem,
            )
        )
    if open_mem != 0 or open_dense != 0:
        raise StructuralError(
            f"network is not closed: {open_mem} indices / {open_dense} bonds left open"
        )
    return ContractionPlan(
        n_sites=net.n_sites,
        steps=steps,
        node_indices=node_indices,
        index_endpoints=index_endpoints,
        peak_open_legs=peak_dense,
        peak_mem_axes=peak_mem,
        r_u=net.r_u,
        r_j=net.r_j,
    )


_KET = np.array([1.0, 0.0], dtype=complex)

# Node position of a fork target's first step, which absorbs the forking
# runner's accumulator rather than a node of the network.
ACC_NODE = -1


def _node_array(node: PlacedTensor) -> np.ndarray:
    if node.kind == "cap_ket" or node.kind == "cap_bra":
        if node.data is None:
            return _KET
        return np.asarray(node.data, dtype=complex).reshape(2)
    w = node.width
    if node.kind == "diag":
        return np.asarray(node.data, dtype=complex).reshape((2,) * w)
    return np.asarray(node.data, dtype=complex).reshape((2,) * (2 * w))


def _einsum(out: Sequence[int], *operands: tuple[np.ndarray, Sequence[int]]) -> np.ndarray:
    """np.einsum over (array, index ids) operands in integer-sublist form.
    The ids of one call are renumbered 0..k-1 in order of appearance,
    because numpy rejects labels of 52 and above."""
    local: dict[int, int] = {}
    args: list = []
    for arr, ids in operands:
        args += [arr, [local.setdefault(i, len(local)) for i in ids]]
    args.append([local[i] for i in out])
    return np.einsum(*args)


def _einsum_labels(plan: ContractionPlan) -> Iterable[tuple[PlanStep, int]]:
    """Per step, the number of distinct einsum labels it needs: the
    accumulator's axes before the step plus the ids it opens."""
    absorbed = [0] * len(plan.index_endpoints)
    live = 0
    for step in plan.steps:
        ids = plan.node_indices[step.node_index]
        yield step, live + sum(1 for idx in set(ids) if absorbed[idx] == 0)
        for idx in ids:
            absorbed[idx] += 1
        live = step.mem_axes_after


@dataclass(frozen=True)
class ForkTarget:
    """A smaller plan that a paused runner can continue on.

    The plan's first step (node ACC_NODE) absorbs the forking runner's
    accumulator: its ids are the runner's open ids mapped through `ids`.
    Where two open ids map to one, that step takes their diagonal (the id
    stays open) or their trace (it closes).  The remaining steps contract
    nodes of the runner's network, numbered by the target's index ids.
    """

    plan: ContractionPlan
    ids: dict[int, int]


class PlanRunner:
    """Stepwise executor of a contraction plan.

    Networks whose predicted peak exceeds MAX_EXEC_AXES, or with a step that
    needs more than 52 einsum labels, are refused up front.  The plan's
    dense-leg peak is checked against the analytic bound when the network
    carries its radii, and the observed number of live axes against the
    plan at every step; both failures are internal assertion errors, not
    user errors.

    Beyond one-shot execution the runner can pause between steps, fork
    (duplicate the partial contraction), and override the values of
    diagonal nodes not yet absorbed.  A fork may also move onto a
    ForkTarget, a plan over fewer nodes that finishes the same value.  The
    chain-rule sampler leans on all of this: the shared left part of the
    chain is contracted once, and each site's marginals come from forks
    that move onto the site's light-cone network and finish only its
    remaining nodes.
    """

    def __init__(self, plan: ContractionPlan, net: ExpectationNetwork) -> None:
        if len(net.nodes) != len(plan.node_indices):
            raise StructuralError(
                "plan was produced for a different network (node count differs)"
            )
        if plan.peak_mem_axes > MAX_EXEC_AXES:
            raise FeasibilityError(
                f"contraction needs 2^{plan.peak_mem_axes} intermediate entries, above the "
                f"2^{MAX_EXEC_AXES} engine cap"
            )
        widest = max((len(ids) for ids in plan.node_indices), default=0)
        if plan.peak_mem_axes + widest > MAX_EINSUM_LABELS:
            for step, labels in _einsum_labels(plan):
                if labels > MAX_EINSUM_LABELS:
                    raise FeasibilityError(
                        f"step {step.name} needs {labels} einsum labels, above the "
                        f"{MAX_EINSUM_LABELS} numpy accepts"
                    )
        if plan.r_u is not None and plan.r_j is not None:
            bound = open_leg_bound(plan.r_u, plan.r_j)
            if plan.peak_open_legs > bound:
                raise AssertionError(
                    f"scheduler bug: predicted open legs {plan.peak_open_legs} exceed the "
                    f"analytic bound {bound} for (r_U={plan.r_u}, r_J={plan.r_j})"
                )
        self.plan = plan
        self.net = net
        self._acc = np.ones((), dtype=complex)
        self._acc_ids: list[int] = []
        self._absorbed = [0] * len(plan.index_endpoints)
        self._pos = 0
        self._observed_peak = 0
        self._overrides: dict[int, np.ndarray] = {}
        self._step_of = {step.node_index: i for i, step in enumerate(plan.steps)}

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
        return tuple(self._acc_ids)

    def step_of(self, node_index: int) -> int:
        return self._step_of[node_index]

    def fork(self, target: ForkTarget | None = None) -> "PlanRunner":
        """Duplicate the partial contraction.  With a target, the twin runs
        target.plan instead: its first step moves this runner's accumulator
        (shared, not copied) onto the target's ids.

        Without a target the twin gets a C-ordered copy of the accumulator.
        No step writes into the accumulator, but einsum returns it with
        permuted strides and sums in an order that follows the layout, so
        sharing the array would move the chain walk's probabilities by a
        few ulp."""
        twin = object.__new__(PlanRunner)
        twin.net = self.net
        twin._overrides = dict(self._overrides)
        if target is None:
            twin.plan = self.plan
            twin._acc = self._acc.copy()
            twin._acc_ids = list(self._acc_ids)
            twin._absorbed = list(self._absorbed)
            twin._pos = self._pos
            twin._observed_peak = self._observed_peak
            twin._step_of = self._step_of
            return twin
        plan = target.plan
        entry = plan.steps[0]
        moved = tuple(target.ids.get(i) for i in self._acc_ids)
        if entry.node_index != ACC_NODE or moved != tuple(plan.node_indices[ACC_NODE]):
            raise StructuralError(
                "fork target was built for a different point of the contraction"
            )
        twin.plan = plan
        twin._acc = np.ones((), dtype=complex)
        twin._acc_ids = []
        twin._absorbed = [0] * len(plan.index_endpoints)
        twin._pos = 0
        twin._observed_peak = 0
        twin._overrides[ACC_NODE] = self._acc
        twin._step_of = {step.node_index: i for i, step in enumerate(plan.steps)}
        return twin

    def set_override(self, node_index: int, values: np.ndarray) -> None:
        """Replace the data of a not-yet-absorbed diagonal node for this
        runner only (forks made afterwards inherit the override)."""
        node = self.net.nodes[node_index]
        if node.kind != "diag":
            raise StructuralError(f"only diagonal nodes can be overridden, {node.name} is {node.kind}")
        if self._step_of[node_index] < self._pos:
            raise StructuralError(f"node {node.name} was already absorbed")
        arr = np.asarray(values, dtype=complex).reshape((2,) * node.width)
        self._overrides[node_index] = arr

    def step(self) -> None:
        plan = self.plan
        step = plan.steps[self._pos]
        ids = plan.node_indices[step.node_index]
        arr = self._overrides.get(step.node_index)
        if arr is None:
            arr = _node_array(self.net.nodes[step.node_index])
        absorbed = self._absorbed
        for idx in ids:
            absorbed[idx] += 1
        keep = [
            idx
            for idx in dict.fromkeys(list(self._acc_ids) + list(ids))
            if absorbed[idx] < plan.index_endpoints[idx]
        ]
        self._acc = _einsum(keep, (self._acc, self._acc_ids), (arr, ids))
        self._acc_ids = keep
        self._observed_peak = max(self._observed_peak, len(keep))
        if len(keep) != step.mem_axes_after:
            raise AssertionError(
                f"scheduler bug: step {step.name} left {len(keep)} axes open, "
                f"plan predicted {step.mem_axes_after}"
            )
        self._pos += 1

    def run_to(self, stop: int) -> None:
        while self._pos < stop:
            self.step()

    def finish(self) -> complex:
        self.run_to(len(self.plan.steps))
        if self._acc_ids:
            raise AssertionError("scheduler bug: axes left open after the final step")
        return complex(self._acc)


def execute(plan: ContractionPlan, net: ExpectationNetwork) -> complex:
    """Run the plan on the network's data and return the scalar value."""
    return PlanRunner(plan, net).finish()
