"""End-to-end acceptance suite.

Each test exercises one acceptance criterion for the package and prints a
single "criterion k: PASS/FAIL - ..." summary line, so the captured run log
doubles as a checklist.  Reference values come from independent dense
oracles or brute-force sums computed inside each test; no expected value is
taken from the library under test.
"""

import itertools
import json
import math
import time
import warnings
from functools import lru_cache

import numpy as np
import pytest
from scipy import integrate, stats

from liomsim.complexity import (
    ComplexityQuery,
    circuit_complexity_bound,
    sublinearity_exponents,
    sweep,
)
from liomsim.errors import InfeasibilityError
from liomsim.hardness import HardnessSpec, verify_2d_mapping
from liomsim.model import (
    InstanceParams,
    build_random_instance,
    dense_unitary,
    sigma_diagonal,
)
from liomsim.oracle import exact_distribution
from liomsim.simulate import (
    ObservableProduct,
    SimulationRequest,
    build_expectation_network,
    conditional_chain,
    conditional_probability,
    sample,
)
from liomsim.tensor import PlanRunner, open_leg_bound, qubitwise_schedule
from liomsim.truncation import (
    BoundConstants,
    TruncationRadii,
    delta_h_bound,
    gamma_upper_bound,
    liom_deviation_bound,
    select_radii,
    spn0_aggregate_bound,
    spn0_bound,
)

XI_GRID = (0.3, 0.5, 0.8, 1.2)


def _report(criterion: int, passed: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


@lru_cache(maxsize=1)
def _suite_instances():
    """20 shared random instances cycling through N in {4,6,8},
    xi in {0.3,0.5} and t in {0.1,1,10}."""
    combos = []
    for k in range(20):
        n = (4, 6, 8)[k % 3]
        xi = (0.3, 0.5)[k % 2]
        t = (0.1, 1.0, 10.0)[(k // 3) % 3]
        inst = build_random_instance(
            InstanceParams(n, xi), seed=1000 + k, max_body=min(n, 4)
        )
        combos.append((inst, t))
    return tuple(combos)


def test_criterion_1_conditionals_match_dense_oracle():
    # Every conditional probability the simulator can produce, on every
    # shared instance, against marginals of the dense distribution for the
    # same truncated Hamiltonian.
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    checks = skipped = 0
    for inst, t in _suite_instances():
        n = inst.n_sites
        radii = TruncationRadii(int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        req = SimulationRequest(instance=inst, t=t, epsilon=0.5, radii=radii)
        probs = exact_distribution(inst, t, r_j=radii.r_j, r_u=radii.r_u)
        grid = probs.probabilities.reshape((2,) * n)
        for k in range(n):
            for prefix in itertools.product((0, 1), repeat=k):
                branch = grid[prefix].reshape(2, -1).sum(axis=1)
                total = float(branch.sum())
                if total <= 1e-12:
                    # Conditioning on a prefix of vanishing probability is
                    # numerically ill-posed for the oracle as well.
                    skipped += 1
                    continue
                expected = float(branch[0]) / total
                got = conditional_probability(req, prefix, k + 1)
                worst = max(worst, abs(got - expected))
                checks += 1
    elapsed = time.perf_counter() - start
    passed = worst <= 1e-10 and elapsed < 300.0
    _report(
        1,
        passed,
        f"{checks} conditionals over 20 instances ({skipped} degenerate "
        f"prefixes skipped), worst |diff| {worst:.2e} (tol 1e-10), "
        f"{elapsed:.1f} s (< 300 s)",
    )


def test_criterion_2_truncation_bounds_hold_dense():
    # Dense spectral norms of H - H~ over all radii pairs in {2..6}^2 and of
    # tau_i - tau~_i for every site, against the analytic bounds.
    r_range = range(2, 7)
    violations = h_checks = tau_checks = 0
    worst_h = worst_tau = 0.0
    for inst, _t in _suite_instances():
        params = inst.params
        n = params.n_sites
        u_of = {None: dense_unitary(inst)}
        for r_u in r_range:
            u_of[r_u] = dense_unitary(inst, max_width=r_u)
        diag_of = {None: sigma_diagonal(inst)}
        for r_j in r_range:
            diag_of[r_j] = sigma_diagonal(inst, r_j)
        h_full = (u_of[None] * diag_of[None]) @ u_of[None].conj().T
        for r_j, r_u in itertools.product(r_range, repeat=2):
            h_trunc = (u_of[r_u] * diag_of[r_j]) @ u_of[r_u].conj().T
            norm = float(np.abs(np.linalg.eigvalsh(h_full - h_trunc)).max())
            bound = delta_h_bound(params, TruncationRadii(r_j, r_u))
            h_checks += 1
            worst_h = max(worst_h, norm / bound)
            if norm > bound:
                violations += 1
        basis = np.arange(2**n)
        for i in range(1, n + 1):
            signs = 1.0 - 2.0 * ((basis >> (n - i)) & 1)
            tau_full = (u_of[None] * signs) @ u_of[None].conj().T
            for r_u in r_range:
                tau_trunc = (u_of[r_u] * signs) @ u_of[r_u].conj().T
                norm = float(np.abs(np.linalg.eigvalsh(tau_full - tau_trunc)).max())
                bound = liom_deviation_bound(params, r_u)
                tau_checks += 1
                worst_tau = max(worst_tau, norm / bound)
                if norm > bound:
                    violations += 1
    _report(
        2,
        violations == 0,
        f"{h_checks} Hamiltonian and {tau_checks} integral-of-motion norms "
        f"within bounds, max norm/bound ratios {worst_h:.3f} and "
        f"{worst_tau:.3f}, zero violations",
    )


def test_criterion_3_selected_radii_certify_tvd():
    params = InstanceParams(6, 0.3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radii = select_radii(params, 0.05, 10.0)
    worst = 0.0
    trials = 6
    for seed in range(trials):
        inst = build_random_instance(params, seed=300 + seed, max_body=4)
        full = exact_distribution(inst, 10.0)
        trunc = exact_distribution(inst, 10.0, r_j=radii.r_j, r_u=radii.r_u)
        worst = max(worst, full.tvd(trunc))
    _report(
        3,
        worst <= 0.05,
        f"radii ({radii.r_j},{radii.r_u}) for eps=0.05, t=10 at N=6: worst "
        f"TVD {worst:.2e} over {trials} trials (cap 0.05)",
    )


def _brute_tail(p: int, n0: int, xi: float) -> float:
    """sum_{n>=n0} C(n,p) e^{-n/xi}: explicit terms to n = 400, remainder
    bounded by a geometric series with ratio (n+2)/(n+2-p) e^{-1/xi}."""
    n_max = 400
    total = sum(math.comb(n, p) * math.exp(-n / xi) for n in range(n0, n_max + 1))
    ratio = (n_max + 2) / (n_max + 2 - p) * math.exp(-1 / xi)
    total += math.comb(n_max + 1, p) * math.exp(-(n_max + 1) / xi) / (1 - ratio)
    return total


def test_criterion_4_series_and_gamma_bounds():
    points = failures = 0
    worst_ratio = 0.0
    for xi in XI_GRID:
        for p in range(0, 7):
            for n0 in range(p, 41):
                brute = _brute_tail(p, n0, xi)
                bound = spn0_bound(p, n0, xi)
                points += 1
                worst_ratio = max(worst_ratio, brute / bound)
                if brute > bound:
                    failures += 1
    agg_points = 0
    for xi in XI_GRID:
        for n0 in (5, 10, 20, 40):
            for x1 in (0, 1, 3):
                for x2 in (x1, x1 + 2, n0):
                    if x2 > n0:
                        continue
                    brute = sum(_brute_tail(p, n0, xi) for p in range(x1, x2 + 1))
                    bound = spn0_aggregate_bound(x1, x2, n0, xi)
                    agg_points += 1
                    if brute > bound:
                        failures += 1
    rng = np.random.default_rng(4)
    gamma_points = 30
    worst_gap = -np.inf
    for _ in range(gamma_points):
        a = float(rng.uniform(1.0, 6.0))
        z = a - 1 + float(rng.uniform(0.05, 8.0))
        value, err = integrate.quad(
            lambda x: x ** (a - 1) * math.exp(-x), z, np.inf
        )
        assert err < 1e-6
        gap = value - gamma_upper_bound(a, z)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-6:
            failures += 1
    _report(
        4,
        failures == 0,
        f"{points} single-p and {agg_points} aggregate tail points all under "
        f"bound (max brute/bound {worst_ratio:.3f}); Gamma bound holds on "
        f"{gamma_points} random points to 1e-6 (max value-bound gap "
        f"{worst_gap:.2e})",
    )


def test_criterion_5_contraction_frontier_respects_leg_bound():
    # Schedule the full-prefix projector network without pruning and compare
    # the instrumented frontier peak against the analytic open-leg bound.
    # These worst-case networks are schedule-only (their dense frontier
    # exceeds the execution cap), so the accounting is separately validated
    # by executing a narrow banded network below.
    ok = True
    rows = []
    worst_ratio = 0.0
    for n in (16, 32, 64):
        for r_u in (3, 4, 6):
            inst = build_random_instance(
                InstanceParams(n, 0.5),
                seed=50 + n + r_u,
                max_body=2,
                max_width=r_u,
                periodic=False,
            )
            for r_j in (3, 4, 6):
                req = SimulationRequest(
                    instance=inst,
                    t=1.0,
                    epsilon=0.5,
                    radii=TruncationRadii(r_j, r_u),
                )
                obs = ObservableProduct.prefix_projector([0] * n)
                network = build_expectation_network(req, obs, prune=False)
                plan = qubitwise_schedule(network)
                bound = open_leg_bound(r_u, r_j)
                observed = plan.peak_open_legs
                ratio = observed / bound
                worst_ratio = max(worst_ratio, ratio)
                if observed > bound:
                    ok = False
                rows.append(
                    f"  N={n:2d} r_U={r_u} r_J={r_j}: open legs {observed:3d} / "
                    f"bound {bound} = {ratio:.3f}"
                )
    print("observed/bound ratios per run:")
    for row in rows:
        print(row)
    banded = build_random_instance(
        InstanceParams(16, 0.5), seed=5, max_body=2, max_width=2, periodic=False
    )
    req = SimulationRequest(
        instance=banded, t=1.0, epsilon=0.5, radii=TruncationRadii(6, 6)
    )
    network = build_expectation_network(
        req, ObservableProduct.prefix_projector([0] * 16), prune=False
    )
    plan = qubitwise_schedule(network)
    runner = PlanRunner(plan, network)
    value = runner.finish()
    instrumented = (
        0 < runner.observed_peak <= plan.peak_mem_axes
        and plan.peak_open_legs <= open_leg_bound(6, 6)
        and -1e-9 <= value.real <= 1 + 1e-9
        and abs(value.imag) <= 1e-9
    )
    if not instrumented:
        ok = False
    _report(
        5,
        ok,
        f"frontier peak under the open-leg bound in all {len(rows)} scheduled "
        f"runs, max observed/bound {worst_ratio:.3f}; executed banded N=16 "
        f"run peaked at {runner.observed_peak} of {plan.peak_mem_axes} "
        f"planned axes",
    )


def test_criterion_6_chain_runtime_scales_polynomially():
    timings = {}
    for n in (32, 64):
        inst = build_random_instance(
            InstanceParams(n, 0.5),
            seed=n,
            max_body=2,
            max_width=2,
            periodic=False,
        )
        req = SimulationRequest(
            instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(6, 6)
        )
        start = time.perf_counter()
        chain = conditional_chain(req, seed=0, engine="plan")
        timings[n] = time.perf_counter() - start
        assert len(chain.probs) == n
        assert all(0.0 <= p <= 1.0 for p in chain.probs)
    ratio = timings[64] / timings[32]
    passed = timings[32] < 60.0 and ratio < 8.0
    _report(
        6,
        passed,
        f"full conditional chain at r_U=r_J=6: N=32 in {timings[32]:.1f} s "
        f"(< 60 s), N=64 in {timings[64]:.1f} s ({ratio:.2f}x, < 8x)",
    )


def test_criterion_7_hardness_mapping_fidelity():
    fidelities = {}
    ok = True
    for n in (4, 9):
        report = verify_2d_mapping(HardnessSpec.square(n, 1.0))
        fidelities[n] = report.fidelity
        if not (report.passed and report.fidelity >= 1 - 1e-9):
            ok = False
    control = verify_2d_mapping(HardnessSpec.square(9, 1.0), perturb_site=1)
    if not (control.fidelity < 1 - 1e-6 and not control.passed):
        ok = False
    _report(
        7,
        ok,
        f"1D-vs-2D fidelity 1-{1 - fidelities[4]:.1e} (N=4) and "
        f"1-{1 - fidelities[9]:.1e} (N=9), both >= 1-1e-9; perturbed-field "
        f"control drops to {control.fidelity:.6f} (< 1-1e-6)",
    )


def test_criterion_8_sampler_statistics():
    inst = build_random_instance(InstanceParams(4, 0.5), seed=77, max_body=3)
    req = SimulationRequest(
        instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(3, 3)
    )
    n_samples = 100_000
    records = sample(req, n_samples, seed=123)
    counts = np.zeros(16)
    for rec in records:
        counts[int(rec.bits, 2)] += 1
    target = exact_distribution(inst, 1.0, r_j=3, r_u=3).probabilities
    tvd = 0.5 * float(np.abs(counts / n_samples - target).sum())
    expected = target * n_samples
    # Pool bins with expected count below 5 so the chi-square statistic is
    # well behaved even if some outcome is rare.
    small = expected < 5.0
    if small.any():
        f_obs = np.append(counts[~small], counts[small].sum())
        f_exp = np.append(expected[~small], expected[small].sum())
    else:
        f_obs, f_exp = counts, expected
    chi = stats.chisquare(f_obs, f_exp)
    rerun = sample(req, n_samples, seed=123)

    def jsonl(recs):
        return "\n".join(
            json.dumps(
                {"bits": r.bits, "index": r.index, "seed": r.seed}, sort_keys=True
            )
            for r in recs
        ).encode()

    reproducible = jsonl(records) == jsonl(rerun)
    passed = tvd <= 0.02 and chi.pvalue > 1e-3 and reproducible
    _report(
        8,
        passed,
        f"{n_samples} samples at N=4: empirical TVD {tvd:.4f} (<= 0.02), "
        f"chi-square p={chi.pvalue:.3f} (> 1e-3) over {len(f_obs)} bins, "
        f"rerun with the same seed byte-identical: {reproducible}",
    )


def test_criterion_9_gate_count_bound_sublinear_in_t():
    ts = [float(t) for t in np.geomspace(1e2, 1e8, 13)]
    rows = sweep(16, 0.15, 0.1, ts)
    log_t = np.log([row[0] for row in rows])
    slope_total = float(np.polyfit(log_t, np.log([row[1] for row in rows]), 1)[0])
    slope_scaling = float(np.polyfit(log_t, np.log([row[2] for row in rows]), 1)[0])
    constants = BoundConstants.for_params(0.15, 1.0)
    exp_u, exp_h = sublinearity_exponents(0.15, constants.k_min)
    threshold = max(exp_u, exp_h) + 0.02
    with pytest.raises(InfeasibilityError):
        circuit_complexity_bound(ComplexityQuery(16, 1e4, 0.5, 0.1))
    passed = slope_scaling <= threshold and slope_scaling < 1.0
    _report(
        9,
        passed,
        f"xi=0.15 smooth t-scaling slope {slope_scaling:.4f} <= "
        f"{threshold:.4f} and < 1 (evaluated-bound slope {slope_total:.4f} "
        f"additionally reflects integer radius steps); xi=0.5 correctly "
        f"rejected as infeasible",
    )
