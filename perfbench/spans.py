"""In-memory span recorder that wraps liomsim's public functions from outside.

A wrapper is installed where each caller looks the name up (for example
``liomsim.simulate.qubitwise_schedule``, not ``liomsim.tensor``), so calls
made inside the package are recorded too.  Nothing under ``src/`` is edited:
``install`` swaps the attributes and ``uninstall`` puts the originals back.

A span is ``[name, start_ns, end_ns, parent, op, extra]``.  ``parent`` is the
index of the enclosing span (-1 at top level) and ``op`` the id of the
benchmark op running when the span opened (None during set-up).
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

NAME, START, END, PARENT, OP, EXTRA = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[tuple[str, object], int] = {}
        self.op = None
        self.plans: dict[int, object] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def span(self, name: str, fn, extra=None):
        """Wrap fn so that every call records one span; extra(args) is
        evaluated before the clock starts and stored with the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = extra(args) if extra is not None else None
            stack = self._stack
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, info]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()

        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so that every call bumps a per-op counter (no span)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, self.op)
            self.counts[key] = self.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _step_extra(self, args):
        runner = args[0]
        plan = runner.plan
        self.plans.setdefault(id(plan), plan)
        return (id(plan), runner.position)

    # -- patching -------------------------------------------------------

    def install(self, liomsim) -> None:
        """Patch every traced name of the liomsim package; uninstall()
        restores the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        hardness, model, oracle = liomsim.hardness, liomsim.model, liomsim.oracle
        simulate, tensor = liomsim.simulate, liomsim.tensor
        runner = tensor.PlanRunner
        spans = [
            (simulate, "qubitwise_schedule", "tensor.qubitwise_schedule"),
            (runner, "fork", "tensor.fork"),
            (runner, "finish", "tensor.finish"),
            (simulate, "expectation", "simulate.expectation"),
            (simulate, "conditional_probability", "simulate.conditional_probability"),
            (simulate, "conditional_chain", "simulate.conditional_chain"),
            (simulate, "sample", "simulate.sample"),
            (simulate, "build_expectation_network", "simulate.build_expectation_network"),
            (simulate, "site_blocks", "simulate.site_blocks"),
            (model.MblInstance, "constituent", "model.constituent"),
            (simulate, "apply_to_state", "model.apply_to_state"),
            (hardness, "apply_to_state", "model.apply_to_state"),
            (model, "apply_to_state", "model.apply_to_state"),
            (model, "dense_unitary", "model.dense_unitary"),
            (oracle, "dense_hamiltonian", "model.dense_hamiltonian"),
            (simulate, "select_radii", "truncation.select_radii"),
            (simulate, "truncate", "truncation.truncate"),
            (oracle, "evolve_state", "oracle.evolve_state"),
            (hardness, "evolve_state", "oracle.evolve_state"),
            (oracle, "exact_distribution", "oracle.exact_distribution"),
            (hardness, "verify_2d_mapping", "hardness.verify_2d_mapping"),
            (hardness, "two_d_state", "hardness.two_d_state"),
            (hardness, "build_iqp_instance", "hardness.build_iqp_instance"),
        ]
        for owner, attr, name in spans:
            self._patch(owner, attr, self.span(name, getattr(owner, attr)))
        self._patch(runner, "step", self.span("tensor.step", runner.step, self._step_extra))
        # Counted, not timed: a span here would move the dense walk's time
        # out of simulate.expectation's self time.
        self._patch(
            simulate,
            "_dense_expectation",
            self.counter("simulate.dense_marginal", simulate._dense_expectation),
        )

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output ---------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, extra) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "op": op}
                if extra is not None:
                    rec["plan_step"] = extra[1]
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[int]:
    """Per span, its duration minus the time covered by its direct
    children (ns).  Children of one parent never overlap: the program is
    single-threaded, so a child span ends before its sibling starts."""
    child = [0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += rec[END] - rec[START]
    return [rec[END] - rec[START] - c for rec, c in zip(spans, child)]


# ---------------------------------------------------------------------------
# Per-layer metrics

BUCKETS = (("axes_le12", 12), ("axes_13_15", 15), ("axes_16_17", 17), ("axes_18_19", 19), ("axes_ge20", None))

CALLS = (
    "tensor.step", "tensor.fork", "tensor.finish", "tensor.qubitwise_schedule",
    "simulate.expectation", "simulate.build_expectation_network",
    "model.constituent", "model.apply_to_state", "oracle.exact_distribution",
)
SELF = (
    "tensor.step", "tensor.fork", "tensor.qubitwise_schedule",
    "simulate.expectation", "simulate.build_expectation_network", "simulate.site_blocks",
    "model.constituent", "model.apply_to_state", "model.dense_unitary", "model.dense_hamiltonian",
    "truncation.select_radii", "truncation.truncate",
    "oracle.evolve_state",
    "hardness.verify_2d_mapping", "hardness.two_d_state", "hardness.build_iqp_instance",
)
# Set-up twins of the layers whose work the warm-up call front-loads.
SETUP = (
    "tensor.step.self_s", "tensor.qubitwise_schedule.self_s",
    "simulate.expectation.self_s", "simulate.build_expectation_network.self_s",
    "simulate.site_blocks.self_s",
    "model.constituent.calls", "model.constituent.self_s",
    "model.apply_to_state.calls", "model.apply_to_state.self_s",
    "truncation.select_radii.self_s", "truncation.truncate.self_s",
)


def bucket(axes: int) -> str:
    for label, top in BUCKETS:
        if top is None or axes <= top:
            return label
    raise AssertionError("unreachable")


def plan_step_costs(plan) -> list[tuple[int, int, int]]:
    """Per plan step: (live axes after it, computed kernel operations,
    computed bytes), from the plan's public node_indices, index_endpoints
    and steps.  Operations are 2^|acc ∪ node|, bytes 16*(2^|acc| + 2^|node|
    + 2^|out|) for complex128 operands and result."""
    absorbed = [0] * len(plan.index_endpoints)
    live: set[int] = set()
    out = []
    for step in plan.steps:
        ids = plan.node_indices[step.node_index]
        union = live.union(ids)
        n_acc = len(live)
        for idx in ids:
            absorbed[idx] += 1
        live = {i for i in union if absorbed[i] < plan.index_endpoints[i]}
        out.append((
            step.mem_axes_after,
            2 ** len(union),
            16 * (2**n_acc + 2 ** len(ids) + 2 ** len(live)),
        ))
    return out


def layer_metrics(tracer: Tracer, n_ops: int, op_seconds: list[float], open_leg_bound) -> dict:
    """Per-layer values of one traced run of n_ops ops.  op_seconds gives
    the wall time of each traced batch (indexed by the tracer's op id).

    Plain names are per op: totals over the timed ops divided by their
    count.  A ``setup.`` prefix gives the same quantity totalled over the
    one traced set-up."""
    own = self_times(tracer.spans)
    costs: dict = {}
    per_op: Counter = Counter()
    setup: Counter = Counter()
    attributed: Counter = Counter()
    passes: dict = {}
    op_steps = 0
    peak = 0
    for rec, ns in zip(tracer.spans, own):
        name, op = rec[NAME], rec[OP]
        if op is None:
            setup[name + ".calls"] += 1
            setup[name + ".self_s"] += ns * 1e-9
            continue
        attributed[op] += ns
        per_op[name + ".calls"] += 1 / n_ops
        per_op[name + ".self_s"] += ns * 1e-9 / n_ops
        if name != "tensor.step":
            continue
        pid, pos = rec[EXTRA]
        if pid not in costs:
            costs[pid] = plan_step_costs(tracer.plans[pid])
        axes, ops, nbytes = costs[pid][pos]
        label = bucket(axes)
        per_op["tensor.step.self_s." + label] += ns * 1e-9 / n_ops
        for key, value in (("tensor.kernel_ops_computed", ops), ("tensor.kernel_bytes_computed", nbytes)):
            per_op[key] += value / n_ops
            per_op[key + "." + label] += value / n_ops
        peak = max(peak, axes)
        op_steps += 1
        passes[(op, pid)] = len(tracer.plans[pid].steps)

    m = {f"{name}.calls": per_op[name + ".calls"] for name in CALLS}
    m.update({f"{name}.self_s": per_op[name + ".self_s"] for name in SELF})
    m.update({"setup." + key: setup[key] for key in SETUP})
    m.update({f"tensor.step.self_s.{label}": per_op["tensor.step.self_s." + label] for label, _ in BUCKETS})
    for key in ("tensor.kernel_ops_computed", "tensor.kernel_bytes_computed"):
        m[key] = per_op[key]
        m.update({f"{key}.{label}": per_op[f"{key}.{label}"] for label, _ in BUCKETS})
    m["tensor.steps_per_op"] = op_steps / n_ops
    m["tensor.steps_per_pass_ratio"] = op_steps / sum(passes.values()) if passes else 0.0
    m["tensor.peak_axes"] = peak
    plans = [tracer.plans[pid] for pid in costs]
    m["tensor.open_legs_over_bound"] = max(
        (p.peak_open_legs / open_leg_bound(p.r_u, p.r_j) for p in plans if p.r_u and p.r_j),
        default=0.0,
    )
    dense = sum(c for (_, op), c in tracer.counts.items() if op is not None)
    m["simulate.dense_marginals_per_op"] = dense / n_ops
    m["simulate.chain.self_s"] = (
        per_op["simulate.sample.self_s"] + per_op["simulate.conditional_chain.self_s"]
    )
    m["trace.attributed_share_min"] = min(
        attributed[i] * 1e-9 / s for i, s in enumerate(op_seconds)
    )
    return m
