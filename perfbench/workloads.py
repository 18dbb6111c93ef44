"""The four benchmark workloads and their correctness checks.

Each workload is a closed loop with one caller: the next op is issued when
the previous one returns.  ``setup(seed)`` builds the instances and requests
and makes one public warm-up call; ``batches(state)`` yields the ops, all
derived from the workload seed; ``check(state, done)`` runs after the timed
region and returns the indices of ``done`` whose ops failed a check.

The library is always called through its module attributes
(``simulate.expectation(...)``), so the tracer's wrappers see these calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from liomsim import hardness, oracle, simulate, tensor
from liomsim.model import InstanceParams, build_random_instance
from liomsim.simulate import ObservableProduct, SimulationRequest
from liomsim.truncation import TruncationRadii

# Tolerances of the checks.  The one-shot product and the pruned/unpruned
# agreement are ~1e-15 relative at the parent commit; a probability shifted
# by 1e-6 must fail every check it enters.
CHAIN_PRODUCT_RTOL = 1e-9
ORACLE_ATOL = 1e-10
PRUNE_ATOL = 1e-10
CHI2_MIN_P = 1e-6
CHI2_MIN_EXPECTED = 5.0
FIDELITY_TOL = 1e-9
CONTROL_MAX_FIDELITY = 1 - 1e-6


@dataclass
class Batch:
    """One call into the library, counting `ops` ops.  The timed loop only
    stops after a batch with closes_group set."""

    fn: Callable[[], object]
    ops: int = 1
    closes_group: bool = True
    key: object = None


@dataclass
class Done:
    batch: Batch
    result: object
    error: str | None
    seconds: float
    started: float = 0.0


@dataclass
class State:
    requests: list = field(default_factory=list)
    data: dict = field(default_factory=dict)


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _seed_stream(seed: int, salt: int) -> Iterator[int]:
    rng = _rng(seed, salt)
    while True:
        yield int(rng.integers(0, 2**31))


def _warm_up(req: SimulationRequest, engine: str) -> None:
    simulate.expectation(req, ObservableProduct(1), engine=engine)


def _ok(done: list[Done]) -> Iterator[tuple[int, Done]]:
    return ((i, d) for i, d in enumerate(done) if d.error is None)


# ---------------------------------------------------------------------------
# Check primitives (pure; the self-tests feed them corrupted results)


def chain_in_range(chain, n_sites: int) -> bool:
    return (
        len(chain.probs) == n_sites
        and len(chain.bits) == n_sites
        and set(chain.bits) <= {"0", "1"}
        and all(0.0 <= p <= 1.0 for p in chain.probs)
    )


def branch_probability(chain) -> float:
    """Product of the chosen-branch conditionals along the chain."""
    prob = 1.0
    for bit, p0 in zip(chain.bits, chain.probs):
        prob *= p0 if bit == "0" else 1.0 - p0
    return prob


def chain_matches_one_shot(chain, one_shot: float, rtol: float = CHAIN_PRODUCT_RTOL) -> bool:
    return abs(branch_probability(chain) - one_shot) <= rtol * abs(one_shot)


def bits_follow_seed(chain, seed: int) -> bool:
    """The chain's bits are the coin flips its seed dictates: one uniform
    draw per site from the stream conditional_chain documents (the one
    sample() uses at index 0), bit 0 when the draw is below p0."""
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFFFFFFFFFF, 0])
    return chain.bits == "".join("0" if rng.random() < p0 else "1" for p0 in chain.probs)


def oracle_conditionals(probabilities: np.ndarray, bits: str) -> list[float]:
    """P(z_k = 0 | z_1..z_{k-1}) along `bits`, summed from the full
    distribution (site 1 is the most significant bit)."""
    n = len(bits)
    tree = np.asarray(probabilities, dtype=float).reshape((2,) * n)
    out = []
    for k in range(n):
        sub = tree[tuple(int(b) for b in bits[:k])]
        den = float(sub.sum())
        out.append(float(sub[0].sum()) / den)
    return out


def oracle_prefix_marginal(probabilities: np.ndarray, bits: str, n_sites: int) -> float:
    tree = np.asarray(probabilities, dtype=float).reshape((2,) * n_sites)
    return float(tree[tuple(int(b) for b in bits)].sum())


def oracle_sigma_z(probabilities: np.ndarray, site: int, n_sites: int) -> float:
    tree = np.asarray(probabilities, dtype=float).reshape((2,) * n_sites)
    marg = tree.sum(axis=tuple(a for a in range(n_sites) if a != site - 1))
    return float(marg[0] - marg[1])


def chi_square_p(counts: np.ndarray, probabilities: np.ndarray) -> tuple[float, int, float]:
    """Pearson chi-square of observed counts against a distribution.

    Outcomes with an expected count below CHI2_MIN_EXPECTED are pooled into
    one cell.  The upper tail uses the Wilson-Hilferty normal approximation,
    which is ample for a pass threshold of 1e-6.  Returns (statistic,
    degrees of freedom, p-value)."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(probabilities, dtype=float) * counts.sum()
    big = expected >= CHI2_MIN_EXPECTED
    obs = list(counts[big])
    exp = list(expected[big])
    if (~big).any():
        obs.append(counts[~big].sum())
        exp.append(expected[~big].sum())
    obs_a, exp_a = np.array(obs), np.array(exp)
    keep = exp_a > 0
    if (obs_a[~keep] > 0).any():
        return math.inf, len(obs), 0.0
    stat = float(((obs_a[keep] - exp_a[keep]) ** 2 / exp_a[keep]).sum())
    dof = max(int(keep.sum()) - 1, 1)
    z = ((stat / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))
    return stat, dof, 0.5 * math.erfc(z / math.sqrt(2))


def fidelity_ok(report, control: bool) -> bool:
    if control:
        return report.fidelity < CONTROL_MAX_FIDELITY and not report.passed
    return report.fidelity >= 1 - FIDELITY_TOL and report.passed


# ---------------------------------------------------------------------------
# Workloads


class ChainPlan:
    """Plan-route chains on the criterion-6 family (N=32, width-2 banded,
    radii (6,6)).  One op is one chain."""

    name = "chain_plan"
    n_sites = 32
    # The rerun check uses a smaller member of the family: an N=32 rerun
    # would double the length of every run.
    rerun_sites = 12

    def _request(self, seed: int, n: int) -> SimulationRequest:
        inst = build_random_instance(
            InstanceParams(n, 0.5), seed=next(_seed_stream(seed, 1)),
            max_body=2, max_width=2, periodic=False,
        )
        return SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(6, 6))

    def setup(self, seed: int) -> State:
        req = self._request(seed, self.n_sites)
        _warm_up(req, "plan")
        return State(requests=[req], data={"seed": seed})

    def batches(self, state: State) -> Iterator[Batch]:
        req = state.requests[0]
        for chain_seed in _seed_stream(state.data["seed"], 2):
            yield Batch(
                lambda s=chain_seed: simulate.conditional_chain(req, seed=s, engine="plan"),
                key=chain_seed,
            )

    def check(self, state: State, done: list[Done]) -> tuple[set[int], dict]:
        req = state.requests[0]
        ok = list(_ok(done))
        failed = {
            i for i, d in ok
            if not (chain_in_range(d.result, self.n_sites) and bits_follow_seed(d.result, d.batch.key))
        }
        worst = 0.0
        for i, d in ok[:2]:
            one_shot = simulate.expectation(
                req, ObservableProduct.prefix_projector(d.result.bits), engine="plan"
            )
            worst = max(worst, abs(branch_probability(d.result) - one_shot) / one_shot)
            if not chain_matches_one_shot(d.result, one_shot):
                failed.add(i)
        rerun_same = None
        if ok:
            small = self._request(state.data["seed"], self.rerun_sites)
            seed = ok[0][1].batch.key
            runs = [simulate.conditional_chain(small, seed=seed, engine="plan") for _ in range(2)]
            rerun_same = runs[0].bits == runs[1].bits
            if not rerun_same:
                failed |= {i for i, _ in ok}
        return failed, {"one_shot_rel_err_max": worst, "rerun_same_bits": rerun_same}


class SampleDense:
    """Dense-route sampling on random N=10 instances (max_body=3, radii
    (3,3)).  One op is one sample; one sample() call draws samples_per_call."""

    name = "sample_dense"
    n_sites = 10
    samples_per_call = 200
    fixed_bit_chains = 3

    def _instance(self, seed: int):
        return build_random_instance(
            InstanceParams(self.n_sites, 0.5), seed=next(_seed_stream(seed, 3)), max_body=3
        )

    def setup(self, seed: int) -> State:
        req = SimulationRequest(
            instance=self._instance(seed), t=1.0, epsilon=0.5, radii=TruncationRadii(3, 3)
        )
        _warm_up(req, "auto")
        return State(requests=[req], data={"seed": seed})

    def batches(self, state: State) -> Iterator[Batch]:
        req = state.requests[0]
        k = self.samples_per_call
        for s in _seed_stream(state.data["seed"], 4):
            yield Batch(lambda s=s: simulate.sample(req, k, s), ops=k, key=s)

    def check(self, state: State, done: list[Done]) -> tuple[set[int], dict]:
        req = state.requests[0]
        ok = list(_ok(done))
        counts = np.zeros(2**self.n_sites)
        for _, d in ok:
            for rec in d.result:
                counts[int(rec.bits, 2)] += 1
        probs = oracle.exact_distribution(
            req.instance, req.t, r_j=req.radii.r_j, r_u=req.radii.r_u
        ).probabilities
        stat, dof, p_value = chi_square_p(counts, probs)
        pooled_ok = p_value >= CHI2_MIN_P
        worst = 0.0
        for index in np.argsort(-counts, kind="stable")[: self.fixed_bit_chains]:
            bits = format(int(index), f"0{self.n_sites}b")
            chain = simulate.conditional_chain(req, bits=bits)
            ref = oracle_conditionals(probs, bits)
            worst = max(worst, max(abs(a - b) for a, b in zip(chain.probs, ref)))
        pooled_ok = pooled_ok and worst <= ORACLE_ATOL
        failed = set() if pooled_ok else {i for i, _ in ok}
        rerun_same = None
        if ok:
            i, d = ok[0]
            again = simulate.sample(req, len(d.result), d.batch.key)
            rerun_same = [r.bits for r in again] == [r.bits for r in d.result]
            if not rerun_same:
                failed.add(i)
        return failed, {
            "chi2": stat, "chi2_dof": dof, "chi2_p": p_value,
            "fixed_bits_abs_err_max": worst, "rerun_same_bits": rerun_same,
        }


class ExpectPlan:
    """Fresh certified requests on banded N=32 instances (xi=0.3, width 2,
    max_body 3), each answering a fixed query mix on the plan route.  One
    op is one query; the loop stops only after a whole mix."""

    name = "expect_plan"
    n_sites = 32
    pool = 8
    cond_sites = (4, 8, 12, 16, 20, 24, 28, 32)
    # Prefix bits are 1 with this probability: typical outcomes of this
    # strongly localised family, whose mean flip probability (1-<Z>)/2 is
    # ~0.1.  Uniform prefixes reach P(prefix) ~ 1e-29 at k=32, where the
    # parent's absolute 1e-30 degenerate-prefix rule is in play (ROADMAP
    # item 1); that numerics question is not what this workload measures.
    prefix_one_prob = 0.1
    oracle_sites = 10

    def _instance(self, n: int, inst_seed: int):
        return build_random_instance(
            InstanceParams(n, 0.3), seed=inst_seed, max_width=2, max_body=3, periodic=False
        )

    def setup(self, seed: int) -> State:
        seeds = _seed_stream(seed, 5)
        rng = _rng(seed, 6)
        requests, prefixes = [], []
        for _ in range(self.pool):
            req = SimulationRequest.certified(self._instance(self.n_sites, next(seeds)), 1.0, 0.05)
            _warm_up(req, "plan")
            requests.append(req)
            prefixes.append(
                {k: (rng.random(k - 1) < self.prefix_one_prob).astype(int).tolist()
                 for k in self.cond_sites}
            )
        return State(requests=requests, data={"seed": seed, "prefixes": prefixes})

    def queries(self, state: State, r: int) -> list[tuple]:
        out = [("sigma_z", p) for p in range(1, self.n_sites + 1)]
        out += [("cond", k, tuple(state.data["prefixes"][r][k])) for k in self.cond_sites]
        return out

    def _call(self, req, query):
        if query[0] == "sigma_z":
            return simulate.expectation(req, ObservableProduct(query[1]), engine="plan")
        _, k, prefix = query
        return simulate.conditional_probability(req, list(prefix), k, engine="plan")

    def batches(self, state: State) -> Iterator[Batch]:
        mix = 0
        while True:
            r = mix % self.pool
            req = state.requests[r]
            qs = self.queries(state, r)
            for j, q in enumerate(qs):
                yield Batch(
                    lambda req=req, q=q: self._call(req, q),
                    closes_group=j == len(qs) - 1, key=(r, q),
                )
            mix += 1

    def check(self, state: State, done: list[Done]) -> tuple[set[int], dict]:
        failed = set()
        for i, d in _ok(done):
            lo = -1.0 if d.batch.key[1][0] == "sigma_z" else 0.0
            if not (lo <= d.result <= 1.0):
                failed.add(i)
        worst_prune = 0.0
        for i in self.prune_checked(state, done):
            d = done[i]
            r, q = d.batch.key
            req = state.requests[r]
            if q[0] == "sigma_z":
                ref = unpruned_value(req, ObservableProduct(q[1]))
            else:
                bits = list(q[2])
                num = unpruned_value(req, ObservableProduct.prefix_projector(bits + [0]))
                ref = num / unpruned_value(req, ObservableProduct.prefix_projector(bits))
            err = abs(d.result - ref)
            worst_prune = max(worst_prune, err)
            if err > PRUNE_ATOL:
                failed.add(i)
        worst_oracle = self.oracle_error(state.data["seed"])
        if worst_oracle > ORACLE_ATOL:
            failed |= {i for i, _ in _ok(done)}
        return failed, {"prune_abs_err_max": worst_prune, "oracle_abs_err_max": worst_oracle}

    def prune_checked(self, state: State, done: list[Done]) -> list[int]:
        """Indices of the ops re-derived from unpruned networks: one seeded
        sigma^z query and one seeded conditional of the first mix."""
        rng = _rng(state.data["seed"], 7)
        picks = {("sigma_z", int(rng.integers(1, self.n_sites + 1))),
                 ("cond", int(self.cond_sites[rng.integers(len(self.cond_sites))]))}
        return [i for i, d in _ok(done) if d.batch.key[0] == 0 and d.batch.key[1][:2] in picks][:2]

    def oracle_error(self, seed: int) -> float:
        """Largest gap between plan-route marginals and the dense oracle on
        an N=10 member of the family: sigma^z at every site and every
        prefix of one seeded typical bitstring."""
        n = self.oracle_sites
        rng = _rng(seed, 8)
        req = SimulationRequest.certified(self._instance(n, int(rng.integers(0, 2**31))), 1.0, 0.05)
        probs = oracle.exact_distribution(
            req.instance, req.t, r_j=req.radii.r_j, r_u=req.radii.r_u
        ).probabilities
        bits = "".join(str(int(b)) for b in rng.random(n) < self.prefix_one_prob)
        worst = 0.0
        for site in range(1, n + 1):
            got = simulate.expectation(req, ObservableProduct(site), engine="plan")
            worst = max(worst, abs(got - oracle_sigma_z(probs, site, n)))
            got = simulate.expectation(
                req, ObservableProduct.prefix_projector(bits[:site]), engine="plan"
            )
            worst = max(worst, abs(got - oracle_prefix_marginal(probs, bits[:site], n)))
        return worst


def unpruned_value(req: SimulationRequest, obs: ObservableProduct) -> float:
    network = simulate.build_expectation_network(req, obs, prune=False)
    return tensor.execute(tensor.qubitwise_schedule(network), network).real


class DenseVerify:
    """hardness.verify_2d_mapping on seeded 3x3 grids, each followed by its
    perturbed-field control.  One op is one verification."""

    name = "dense_verify"
    rows = cols = 3
    xi = 1.0

    def setup(self, seed: int) -> State:
        spec = hardness.HardnessSpec(self.rows, self.cols, self.xi, field_seed=next(_seed_stream(seed, 9)))
        report = hardness.verify_2d_mapping(spec)
        return State(data={"seed": seed, "warm_up_passed": report.passed})

    def batches(self, state: State) -> Iterator[Batch]:
        rng = _rng(state.data["seed"], 10)
        n = self.rows * self.cols
        while True:
            spec = hardness.HardnessSpec(
                self.rows, self.cols, self.xi, field_seed=int(rng.integers(0, 2**31))
            )
            site = int(rng.integers(1, n + 1))
            yield Batch(lambda spec=spec: hardness.verify_2d_mapping(spec),
                        closes_group=False, key=False)
            yield Batch(lambda spec=spec, site=site: hardness.verify_2d_mapping(spec, perturb_site=site),
                        key=True)

    def check(self, state: State, done: list[Done]) -> tuple[set[int], dict]:
        failed = {i for i, d in _ok(done) if not fidelity_ok(d.result, d.batch.key)}
        plain = [d.result.fidelity for d in done if d.error is None and not d.batch.key]
        control = [d.result.fidelity for d in done if d.error is None and d.batch.key]
        return failed, {
            "min_fidelity": min(plain, default=None),
            "max_control_fidelity": max(control, default=None),
        }


WORKLOADS = {w.name: w for w in (ChainPlan, SampleDense, ExpectPlan, DenseVerify)}
