"""Self-tests of the benchmark code.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from liomsim.simulate import ChainResult, ObservableProduct, build_expectation_network  # noqa: E402
from liomsim.tensor import qubitwise_schedule  # noqa: E402


def _run_small(wl, seed=3):
    """Set up and run exactly one group of ops."""
    state = wl.setup(seed)
    done, _ = run.timed_loop(wl.batches(state), seconds=0.0)
    return state, done


def _replace_result(done, i, result):
    done = list(done)
    done[i] = dataclasses.replace(done[i], result=result)
    return done


# -- spans ---------------------------------------------------------------


def test_self_times_on_nested_tree():
    # root [0,100] > a [10,40] > a1 [15,25]; root > b [50,90]; lone [200,230]
    tree = [
        ["root", 0, 100, -1, 0, None],
        ["a", 10, 40, 0, 0, None],
        ["a1", 15, 25, 1, 0, None],
        ["b", 50, 90, 0, 0, None],
        ["lone", 200, 230, -1, None, None],
    ]
    own = spans.self_times(tree)
    assert own == [30, 20, 10, 40, 30]
    assert sum(own[:4]) == 100


def test_layer_metrics_split_setup_and_ops():
    tracer = spans.Tracer()
    tracer.spans = [
        ["model.constituent", 0, 4_000, -1, None, None],
        ["simulate.expectation", 10_000, 20_000, -1, 0, None],
        ["model.constituent", 12_000, 14_000, 1, 0, None],
        ["simulate.expectation", 30_000, 36_000, -1, 1, None],
    ]
    m = spans.layer_metrics(tracer, 2, [10e-6, 8e-6], lambda r_u, r_j: 1)
    assert m["simulate.expectation.calls"] == 1.0
    assert m["simulate.expectation.self_s"] == pytest.approx((8_000 + 6_000) * 1e-9 / 2)
    assert m["model.constituent.calls"] == 0.5
    assert m["setup.model.constituent.calls"] == 1
    assert m["setup.model.constituent.self_s"] == pytest.approx(4e-6)
    assert m["trace.attributed_share_min"] == pytest.approx(0.75)


def test_plan_step_costs_replay_matches_plan():
    wl = workloads.ChainPlan()
    req = wl.setup(1).requests[0]
    plan = qubitwise_schedule(build_expectation_network(req, ObservableProduct(5)))
    costs = spans.plan_step_costs(plan)
    assert len(costs) == len(plan.steps)
    absorbed = [0] * len(plan.index_endpoints)
    live: set[int] = set()
    for step, (axes, ops, nbytes) in zip(plan.steps, costs):
        ids = plan.node_indices[step.node_index]
        assert ops == 2 ** len(live.union(ids))
        before = len(live)
        for idx in ids:
            absorbed[idx] += 1
        live = {i for i in live.union(ids) if absorbed[i] < plan.index_endpoints[i]}
        assert axes == len(live) == step.mem_axes_after
        assert nbytes == 16 * (2**before + 2 ** len(ids) + 2 ** len(live))


def test_tracer_uninstall_restores_library():
    import liomsim

    before = liomsim.simulate.expectation, liomsim.tensor.PlanRunner.step
    tracer = spans.Tracer()
    tracer.install(liomsim)
    assert liomsim.simulate.expectation is not before[0]
    tracer.uninstall()
    assert (liomsim.simulate.expectation, liomsim.tensor.PlanRunner.step) == before


# -- host clock ----------------------------------------------------------


def test_host_factor_is_the_window_median():
    clock = hostref.HostClock()
    nominal = hostref.NOMINAL_S
    clock.samples = [(0.0, nominal), (1.0, 2 * nominal), (2.0, 9 * nominal), (3.0, 3 * nominal)]
    assert clock.factor(0.5, 2.5) == pytest.approx(5.5)
    assert clock.factor(0.5, 3.5) == pytest.approx(3.0)
    assert clock.factor() == pytest.approx(2.5)
    # No sample in the stretch: fall back to every sample.
    assert clock.factor(5.0, 6.0) == pytest.approx(2.5)


def test_timed_loop_takes_handler_time_out_of_ops():
    clock = hostref.HostClock()

    def op():
        start = time.perf_counter()
        time.sleep(0.05)
        clock.pauses.append((start, start + 0.04))  # as if the handler had run for 40 ms

    clock.pauses.append((time.perf_counter() - 1.0, time.perf_counter() - 0.5))  # before the loop
    batches = iter([workloads.Batch(op), workloads.Batch(op)])
    done, _ = run.timed_loop(batches, count=2, clock=clock)
    assert all(0.0 < d.seconds < 0.03 for d in done)
    assert done[0].started < done[1].started


def test_timed_loop_stops_at_the_nearest_group_boundary():
    def batches(op_s):
        while True:
            yield workloads.Batch(lambda: time.sleep(op_s))

    # 0.12-s groups against 0.2 s: after one group the loop is 0.08 s short,
    # and a second group would end 0.04 s past, so it runs a second.
    done, _ = run.timed_loop(batches(0.12), seconds=0.2)
    assert len(done) == 2
    # 0.3-s groups against 0.4 s: stopping 0.1 s short beats ending 0.2 s past.
    done, _ = run.timed_loop(batches(0.3), seconds=0.4)
    assert len(done) == 1


def test_host_clock_samples_while_active_and_restores_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = hostref.HostClock(interval_s=0.01)
    with clock:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    assert len(clock.samples) >= 5
    assert clock.busy == pytest.approx(sum(end - start for start, end in clock.pauses))
    assert clock.busy >= sum(s for _, s in clock.samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- correctness checks fail on corrupted results ------------------------


class SmallChain(workloads.ChainPlan):
    n_sites = 8
    rerun_sites = 6


def test_chain_checks_catch_corruption():
    wl = SmallChain()
    state, done = _run_small(wl)
    assert wl.check(state, done)[0] == set()
    chain = done[0].result
    probs = list(chain.probs)
    probs[3] += 1e-6 if probs[3] < 0.5 else -1e-6
    shifted = _replace_result(done, 0, ChainResult(chain.bits, tuple(probs)))
    assert wl.check(state, shifted)[0] == {0}
    flipped_bits = chain.bits[:-1] + ("1" if chain.bits[-1] == "0" else "0")
    flipped = _replace_result(done, 0, ChainResult(flipped_bits, chain.probs))
    assert wl.check(state, flipped)[0] == {0}
    out_of_range = _replace_result(done, 0, ChainResult(chain.bits, (1.0 + 1e-6,) + chain.probs[1:]))
    assert 0 in wl.check(state, out_of_range)[0]


def test_chain_rerun_check_catches_nondeterminism(monkeypatch):
    wl = SmallChain()
    state, done = _run_small(wl)
    real = workloads.simulate.conditional_chain
    calls = []

    def drifting_chain(*args, **kwargs):
        chain = real(*args, **kwargs)
        calls.append(1)
        if len(calls) % 2:
            return chain
        flipped = chain.bits[:-1] + ("1" if chain.bits[-1] == "0" else "0")
        return ChainResult(flipped, chain.probs)

    monkeypatch.setattr(workloads.simulate, "conditional_chain", drifting_chain)
    failed, info = wl.check(state, done)
    assert info["rerun_same_bits"] is False and failed == {0}


class SmallSample(workloads.SampleDense):
    n_sites = 6
    samples_per_call = 400


def test_sample_checks_catch_corruption(monkeypatch):
    wl = SmallSample()
    state = wl.setup(3)
    done, _ = run.timed_loop(wl.batches(state), count=6)
    failed, info = wl.check(state, done)
    assert failed == set() and info["rerun_same_bits"]

    first = done[0].result
    flip = lambda rec: dataclasses.replace(rec, bits=("1" if rec.bits[0] == "0" else "0") + rec.bits[1:])
    one_flipped = _replace_result(done, 0, [flip(first[0])] + first[1:])
    assert wl.check(state, one_flipped)[0] == {0}
    all_flipped = [dataclasses.replace(d, result=[flip(r) for r in d.result]) for d in done]
    assert wl.check(state, all_flipped)[0] == set(range(len(done)))

    real_chain = workloads.simulate.conditional_chain

    def shifted_chain(*args, **kwargs):
        chain = real_chain(*args, **kwargs)
        return ChainResult(chain.bits, (chain.probs[0] + 1e-6,) + chain.probs[1:])

    monkeypatch.setattr(workloads.simulate, "conditional_chain", shifted_chain)
    assert wl.check(state, done)[0] == set(range(len(done)))


class SmallExpect(workloads.ExpectPlan):
    n_sites = 8
    pool = 1
    cond_sites = (2, 4, 6, 8)
    oracle_sites = 6


def test_expect_checks_catch_corruption(monkeypatch):
    wl = SmallExpect()
    state, done = _run_small(wl)
    failed, info = wl.check(state, done)
    assert failed == set() and info["prune_abs_err_max"] < 1e-12
    checked = wl.prune_checked(state, done)
    assert len(checked) == 2
    for i in checked:
        value = done[i].result
        shifted = value - 1e-6 if value > 0 else value + 1e-6
        assert i in wl.check(state, _replace_result(done, i, shifted))[0]
    assert 0 in wl.check(state, _replace_result(done, 0, 1.0 + 1e-6))[0]

    real = workloads.simulate.expectation
    monkeypatch.setattr(
        workloads.simulate, "expectation", lambda *a, **k: real(*a, **k) * (1 - 1e-6)
    )
    assert wl.check(state, done)[0] == set(range(len(done)))


class SmallVerify(workloads.DenseVerify):
    rows = cols = 2


def test_verify_checks_catch_corruption():
    wl = SmallVerify()
    state, done = _run_small(wl)
    assert len(done) == 2 and wl.check(state, done)[0] == set()
    plain = dataclasses.replace(done[0].result, fidelity=1 - 1e-8)
    assert wl.check(state, _replace_result(done, 0, plain))[0] == {0}
    control = dataclasses.replace(done[1].result, fidelity=1.0, passed=True)
    assert wl.check(state, _replace_result(done, 1, control))[0] == {1}


def test_chi_square_flags_a_wrong_distribution():
    probs = [0.5, 0.25, 0.125, 0.125]
    assert workloads.chi_square_p([500, 250, 125, 125], probs)[2] > 0.5
    assert workloads.chi_square_p([250, 500, 125, 125], probs)[2] < 1e-6


# -- the command, run as a separate process ------------------------------


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(trace, section):
    proc = _bench("--workload", "dense_verify", "--seed", "2", "--seconds", "0.1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sample_dense", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
