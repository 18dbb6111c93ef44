"""Command line front-end.

Subcommands: gen, bound, expect, sample, hard-gen, hard-verify, gatecount,
verify.  Outputs are written atomically (temp file + rename) or printed to
stdout; identical flags and seeds reproduce byte-identical files.  Exit
codes: 0 success, 1 domain/feasibility/numerical errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import complexity, hardness, model, oracle, simulate, truncation
from .errors import DomainError, NumericalIntegrityError

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    """Parsed invocation: the subcommand plus every flag it may use."""

    command: str
    options: dict = field(default_factory=dict)

    def __getattr__(self, name: str):
        try:
            return self.options[name]
        except KeyError:
            raise AttributeError(name) from None


def write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".liomsim-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        write_atomic(out, text)


def _load_instance(path: str) -> model.MblInstance:
    if not os.path.exists(path):
        raise DomainError(f"instance file does not exist: {path}")
    with open(path) as handle:
        return model.instance_from_json(handle.read())


def _radii_for(config: RunConfig, params: model.InstanceParams) -> truncation.TruncationRadii:
    """Radii from explicit --rj/--ru overrides, else from select_radii on
    (--eps, --t); mixing half an override with certification is rejected."""
    rj, ru = config.options.get("rj"), config.options.get("ru")
    if (rj is None) != (ru is None):
        raise DomainError("give both --rj and --ru, or neither (for certified radii)")
    if rj is not None:
        return truncation.TruncationRadii(rj, ru)
    if config.options.get("t") is None:
        raise DomainError("--t is required to derive radii")
    return truncation.select_radii(params, config.eps, config.t)


def _cmd_gen(config: RunConfig) -> int:
    params = model.InstanceParams(config.n, config.xi, config.q)
    instance = model.build_random_instance(
        params,
        seed=config.seed,
        max_body=config.max_body if config.max_body is not None else min(config.n, 6),
        max_width=config.options.get("max_width"),
        periodic=not config.options.get("open_boundary", False),
    )
    _emit(model.instance_to_json(instance), config.options.get("out"))
    return EXIT_OK


def _cmd_bound(config: RunConfig) -> int:
    if config.options.get("instance"):
        params = _load_instance(config.instance).params
    else:
        if config.options.get("n") is None or config.options.get("xi") is None:
            raise DomainError("bound needs --instance or both --n and --xi")
        params = model.InstanceParams(config.n, config.xi, config.q)
    radii = _radii_for(config, params)
    term_j, term_u = truncation.delta_h_terms(params, radii)
    eps_over_t = ""
    if config.options.get("t") is not None:
        eps_over_t = repr(config.eps / config.t)
    header = "N,xi,q,r_J,r_U,term_J,term_U,total,epsilon_over_t\n"
    row = (
        f"{params.n_sites},{params.xi!r},{params.q_const!r},{radii.r_j},{radii.r_u},"
        f"{term_j!r},{term_u!r},{term_j + term_u!r},{eps_over_t}\n"
    )
    _emit(header + row, config.options.get("out"))
    return EXIT_OK


def _request_for(config: RunConfig) -> simulate.SimulationRequest:
    instance = _load_instance(config.instance)
    if config.options.get("t") is None:
        raise DomainError("--t is required")
    radii = _radii_for(config, instance.params)
    return simulate.SimulationRequest(
        instance=instance, t=config.t, epsilon=config.eps, radii=radii
    )


def _cmd_expect(config: RunConfig) -> int:
    req = _request_for(config)
    prefix = config.options.get("prefix") or ""
    if any(c not in "01" for c in prefix):
        raise DomainError(f"--prefix must be a bitstring, got {prefix!r}")
    pivot = config.pivot
    projectors = tuple(enumerate(map(int, prefix), 1))
    if config.projector:
        kind, obs = "proj0", simulate.ObservableProduct(projectors=projectors + ((pivot, 0),))
    else:
        kind, obs = "sigma_z", simulate.ObservableProduct(pivot, projectors=projectors)
    value = simulate.expectation(req, obs, engine=config.engine)
    spec_str = f"pivot={pivot};kind={kind};prefix={prefix}"
    _emit(f"observable,value\n{spec_str},{value!r}\n", config.options.get("out"))
    return EXIT_OK


def _cmd_sample(config: RunConfig) -> int:
    req = _request_for(config)
    records = simulate.sample(req, config.samples, config.seed, engine=config.engine)
    lines = [
        json.dumps({"bits": r.bits, "seed": r.seed, "index": r.index}, sort_keys=True)
        for r in records
    ]
    _emit("\n".join(lines) + "\n", config.options.get("out"))
    return EXIT_OK


def _cmd_hard_gen(config: RunConfig) -> int:
    spec = hardness.HardnessSpec(
        rows=config.rows, cols=config.cols, xi=config.xi, field_seed=config.seed
    )
    hard = hardness.build_iqp_instance(spec)
    _emit(model.instance_to_json(hard.instance), config.options.get("out"))
    return EXIT_OK


def _cmd_hard_verify(config: RunConfig) -> int:
    spec = hardness.HardnessSpec(
        rows=config.rows, cols=config.cols, xi=config.xi, field_seed=config.seed
    )
    report = hardness.verify_2d_mapping(spec, tolerance=config.tolerance)
    _emit(
        json.dumps(report.to_jsonable(), sort_keys=True, indent=2) + "\n",
        config.options.get("out"),
    )
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _cmd_gatecount(config: RunConfig) -> int:
    from .errors import InfeasibilityError

    if config.sweep:
        t_values = list(
            np.geomspace(config.t_min, config.t_max, config.points)
        )
        rows = complexity.sweep(config.n, config.xi, config.eps, t_values)
        lines = ["t,total_bound,scaling_bound"]
        lines += [
            f"{float(t)!r},{float(total)!r},{float(scaling)!r}"
            for t, total, scaling in rows
        ]
        _emit("\n".join(lines) + "\n", config.options.get("out"))
        return EXIT_OK
    if config.options.get("t") is None:
        raise DomainError("--t is required unless --sweep is given")
    try:
        report = complexity.circuit_complexity_bound(
            complexity.ComplexityQuery(config.n, config.t, config.xi, config.eps)
        )
    except InfeasibilityError as exc:
        _emit(
            json.dumps({"feasible": False, "reason": str(exc)}, sort_keys=True, indent=2)
            + "\n",
            config.options.get("out"),
        )
        return EXIT_DOMAIN
    _emit(
        json.dumps(report.to_jsonable(), sort_keys=True, indent=2) + "\n",
        config.options.get("out"),
    )
    return EXIT_OK


def _cmd_verify(config: RunConfig) -> int:
    """Oracle-vs-tensor equivalence suite on random instances: conditionals
    of the plan route (read off the MPS of W|0>, or off the qubit-wise
    light cone) against exact_distribution, the factored state-vector
    oracle, so N runs to the state cap of 22 sites.  The instances are
    open chains of constituents at most two sites wide, whose plans stay
    within the engine cap at every N the oracle reaches."""
    n = config.n
    rng = np.random.default_rng(config.seed)
    worst = 0.0
    checks = 0
    for trial in range(config.trials):
        params = model.InstanceParams(n, xi=[0.3, 0.5][trial % 2])
        instance = model.build_random_instance(
            params, seed=int(rng.integers(2**63)), max_body=min(n, 4),
            max_width=2, periodic=False,
        )
        radii = truncation.TruncationRadii(
            int(rng.integers(2, 7)), int(rng.integers(2, 7))
        )
        t = [0.1, 1.0, 10.0][trial % 3]
        req = simulate.SimulationRequest(instance=instance, t=t, epsilon=0.5, radii=radii)
        dist = oracle.exact_distribution(instance, t, r_j=radii.r_j, r_u=radii.r_u)
        probs = dist.probabilities.reshape((2,) * n)
        prefix: list[int] = []
        for site in range(1, n + 1):
            p_sim = simulate.conditional_probability(req, prefix, site, engine="plan")
            marg = probs[tuple(prefix)].reshape(2, -1).sum(axis=1)
            total = marg.sum()
            if total == 0.0:
                break
            p_oracle = float(marg[0] / total)
            worst = max(worst, abs(p_sim - p_oracle))
            checks += 1
            prefix.append(0 if p_sim >= 0.5 else 1)
    passed = bool(worst <= 1e-10)
    payload = {
        "n_sites": n,
        "trials": config.trials,
        "conditionals_checked": checks,
        "max_discrepancy": worst,
        "tolerance": 1e-10,
        "passed": passed,
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", config.options.get("out"))
    return EXIT_OK if passed else EXIT_DOMAIN


_COMMANDS = {
    "gen": _cmd_gen,
    "bound": _cmd_bound,
    "expect": _cmd_expect,
    "sample": _cmd_sample,
    "hard-gen": _cmd_hard_gen,
    "hard-verify": _cmd_hard_verify,
    "gatecount": _cmd_gatecount,
    "verify": _cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liomsim",
        description="MBL spin-chain simulation: generation, bounds, sampling, "
        "hardness instances, and gate-count reports.",
    )
    parser.add_argument(
        "--config", help="JSON file of flag defaults; explicit flags override it"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kw) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kw)
        p.add_argument("--out", help="output path (atomic write); stdout when absent")
        return p

    # Optional value flags default to None here so a --config file can fill
    # them; the built-in fallbacks in _FALLBACKS apply last.
    p = add("gen", help="generate a random instance descriptor")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--q", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--max-body", type=int, dest="max_body")
    p.add_argument("--max-width", type=int, dest="max_width")
    p.add_argument("--open-boundary", action="store_true", default=None, dest="open_boundary")

    p = add("bound", help="evaluate the truncation bound as a CSV row")
    p.add_argument("--instance")
    p.add_argument("--n", type=int)
    p.add_argument("--xi", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--rj", type=int)
    p.add_argument("--ru", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--t", type=float)

    for name in ("expect", "sample"):
        p = add(name)
        p.add_argument("--instance", required=True)
        p.add_argument("--t", type=float, required=True)
        p.add_argument("--eps", type=float)
        p.add_argument("--rj", type=int)
        p.add_argument("--ru", type=int)
        p.add_argument("--engine", choices=["auto", "plan", "dense"])
        if name == "expect":
            p.add_argument("--pivot", type=int, required=True)
            p.add_argument("--prefix")
            p.add_argument("--projector", action="store_true", default=None)
        else:
            p.add_argument("--samples", type=int, required=True)
            p.add_argument("--seed", type=int)

    p = add("hard-gen", help="generate a hardness-family instance")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--seed", type=int)

    p = add("hard-verify", help="exact 1D-vs-2D mapping fidelity report")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance", type=float)

    p = add("gatecount", help="gate-count bound report or sweep CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--xi", type=float, required=True)
    p.add_argument("--eps", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--sweep", action="store_true", default=None)
    p.add_argument("--t-min", type=float, dest="t_min")
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--points", type=int)

    p = add(
        "verify",
        help="plan-route conditionals against the exact state-vector oracle (N up to 22)",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)

    return parser


_FALLBACKS: dict[str, dict] = {
    "gen": {"q": 1.0, "seed": 0, "open_boundary": False},
    "bound": {"q": 1.0, "eps": 0.05},
    "expect": {"eps": 0.05, "engine": "auto", "prefix": "", "projector": False},
    "sample": {"eps": 0.05, "engine": "auto", "seed": 0},
    "hard-gen": {"seed": 0},
    "hard-verify": {"seed": 0, "tolerance": 1e-9},
    "gatecount": {"eps": 0.1, "sweep": False, "t_min": 1e2, "t_max": 1e8, "points": 13},
    "verify": {"trials": 5, "seed": 0},
}


def parse_config(argv: list[str] | None = None) -> RunConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    options = vars(args).copy()
    config_path = options.pop("config", None)
    command = options.pop("command")
    if config_path:
        if not os.path.exists(config_path):
            raise DomainError(f"config file does not exist: {config_path}")
        with open(config_path) as handle:
            try:
                defaults = json.load(handle)
            except json.JSONDecodeError as exc:
                raise DomainError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(defaults, dict):
            raise DomainError("config file must hold a JSON object of flag defaults")
        for key, value in defaults.items():
            key = key.replace("-", "_")
            if options.get(key) is None and key in options:
                options[key] = value
    for key, value in _FALLBACKS.get(command, {}).items():
        if options.get(key) is None:
            options[key] = value
    return RunConfig(command=command, options=options)


def run(config: RunConfig) -> int:
    return _COMMANDS[config.command](config)


def main(argv: list[str] | None = None) -> int:
    try:
        config = parse_config(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    try:
        return run(config)
    except (DomainError, NumericalIntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
