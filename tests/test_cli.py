"""End-to-end tests of the command line front-end (via main(argv))."""

import json
import math
import os
import subprocess
import sys

import pytest

from liomsim import hardness, model, oracle, simulate, truncation
from liomsim.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main, write_atomic
from liomsim.errors import DomainError


def _no_temp_leftovers(directory):
    return not [p for p in os.listdir(directory) if p.startswith(".liomsim-")]


def _gen_instance(tmp_path, name="inst.json", extra=()):
    path = tmp_path / name
    code = main(
        ["gen", "--n", "4", "--xi", "0.5", "--seed", "3", "--out", str(path), *extra]
    )
    assert code == EXIT_OK
    return path


def test_write_atomic(tmp_path):
    target = tmp_path / "x.txt"
    write_atomic(str(target), "payload")
    assert target.read_text() == "payload"
    write_atomic(str(target), "replaced")
    assert target.read_text() == "replaced"
    assert _no_temp_leftovers(tmp_path)


def test_gen_roundtrip_and_determinism(tmp_path):
    a = _gen_instance(tmp_path, "a.json")
    b = _gen_instance(tmp_path, "b.json")
    assert a.read_bytes() == b.read_bytes()
    instance = model.instance_from_json(a.read_text())
    assert instance.n_sites == 4
    assert instance.params.xi == 0.5
    assert _no_temp_leftovers(tmp_path)


def test_gen_stdout(capsys):
    assert main(["gen", "--n", "3", "--xi", "0.4"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_sites"] == 3


def test_gen_rejects_bad_xi(capsys):
    assert main(["gen", "--n", "3", "--xi", "1.5"]) == EXIT_DOMAIN
    assert "error:" in capsys.readouterr().err


def test_gen_rejects_q_above_8(capsys):
    assert main(["gen", "--n", "4", "--xi", "0.5", "--q", "9"]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: q=9.0 exceeds 8")


def test_gen_open_boundary_flag(tmp_path):
    open_path = _gen_instance(
        tmp_path, "open.json", extra=("--max-width", "2", "--open-boundary")
    )
    # The wrapped block (4,2) on sites 4, 1 is a factor of the periodic
    # chain only; reading it off the open one is refused.
    instance = model.instance_from_json(open_path.read_text())
    assert (4, 2) not in instance.constituent_support
    with pytest.raises(DomainError, match=r"\(4,2\) is not a factor of U"):
        instance.constituent(4, 2)
    periodic_path = _gen_instance(tmp_path, "per.json", extra=("--max-width", "2"))
    wrapped = model.instance_from_json(periodic_path.read_text())
    assert (4, 2) in wrapped.constituent_support
    assert wrapped.constituent(4, 2).sites == (4, 1)


def test_bound_csv_explicit_radii(capsys):
    assert (
        main(["bound", "--n", "8", "--xi", "0.5", "--rj", "3", "--ru", "4"]) == EXIT_OK
    )
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "N,xi,q,r_J,r_U,term_J,term_U,total,epsilon_over_t"
    fields = out[1].split(",")
    assert fields[0] == "8" and fields[3] == "3" and fields[4] == "4"
    params = model.InstanceParams(8, 0.5)
    term_j, term_u = truncation.delta_h_terms(params, truncation.TruncationRadii(3, 4))
    assert float(fields[5]) == term_j
    assert float(fields[6]) == term_u
    assert float(fields[7]) == term_j + term_u
    assert fields[8] == ""


def test_bound_csv_certified(capsys):
    code = main(
        ["bound", "--n", "16", "--xi", "0.4", "--eps", "0.01", "--t", "100"]
    )
    assert code == EXIT_OK
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert (row[3], row[4]) == ("10", "14")
    assert float(row[8]) == pytest.approx(0.01 / 100)


def test_bound_flag_mixing_rejected(capsys):
    assert main(["bound", "--n", "8", "--xi", "0.5", "--rj", "3"]) == EXIT_DOMAIN
    assert main(["bound", "--n", "8", "--xi", "0.5"]) == EXIT_DOMAIN
    assert main(["bound", "--xi", "0.5", "--rj", "2", "--ru", "2"]) == EXIT_DOMAIN
    capsys.readouterr()


def test_bound_reads_instance_params(tmp_path, capsys):
    path = _gen_instance(tmp_path)
    code = main(["bound", "--instance", str(path), "--rj", "2", "--ru", "2"])
    assert code == EXIT_OK
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[0] == "4" and float(row[1]) == 0.5


def test_expect_matches_library(tmp_path, capsys):
    path = _gen_instance(tmp_path)
    code = main(
        [
            "expect",
            "--instance",
            str(path),
            "--t",
            "0.9",
            "--rj",
            "3",
            "--ru",
            "2",
            "--pivot",
            "2",
            "--prefix",
            "0",
            "--projector",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "observable,value"
    label, value = out[1].rsplit(",", 1)
    assert label == "pivot=2;kind=proj0;prefix=0"
    instance = model.instance_from_json(path.read_text())
    req = simulate.SimulationRequest(
        instance=instance,
        t=0.9,
        epsilon=0.05,
        radii=truncation.TruncationRadii(3, 2),
    )
    obs = simulate.ObservableProduct(projectors=((1, 0), (2, 0)))
    assert float(value) == simulate.expectation(req, obs)


def test_expect_rejects_bad_prefix(tmp_path, capsys):
    path = _gen_instance(tmp_path)
    code = main(
        [
            "expect",
            "--instance",
            str(path),
            "--t",
            "0.9",
            "--rj",
            "2",
            "--ru",
            "2",
            "--pivot",
            "2",
            "--prefix",
            "012",
        ]
    )
    assert code == EXIT_DOMAIN
    assert "bitstring" in capsys.readouterr().err


def test_expect_refuses_a_prefix_that_reaches_the_pivot(tmp_path, capsys):
    # The prefix puts a projector on every site 1..4, so site 3 would
    # carry both it and sigma^z.
    path = _gen_instance(tmp_path)
    code = main(
        ["expect", "--instance", str(path), "--t", "0.9", "--rj", "2", "--ru", "2",
         "--pivot", "3", "--prefix", "0101"]
    )
    assert code == EXIT_DOMAIN
    assert capsys.readouterr().err == "error: factor site 3 is given more than once\n"


def test_missing_instance_file(capsys):
    code = main(
        ["expect", "--instance", "/nonexistent.json", "--t", "1", "--pivot", "1",
         "--rj", "2", "--ru", "2"]
    )
    assert code == EXIT_DOMAIN
    assert "does not exist" in capsys.readouterr().err


@pytest.mark.parametrize(
    "descriptor, field",
    [
        ({"kind": "random", "n_sites": 4, "xi": 0.5, "max_body": 2}, "seed"),
        ({"kind": "explicit", "n_sites": 4, "xi": 0.5, "couplings": [{"sites": [1]}]}, "value"),
        ({"kind": "random", "n_sites": 4, "xi": 0.5, "seed": 3, "max_body": "x"}, "max_body"),
        # A string "false" once read as true: a periodic chain.
        ({"kind": "random", "n_sites": 4, "xi": 0.5, "seed": 3, "max_body": 2, "periodic": "false"},
         "periodic"),
    ],
    ids=["missing-seed", "missing-value", "malformed-max-body", "malformed-periodic"],
)
def test_expect_refuses_a_descriptor_with_a_bad_field(tmp_path, capsys, descriptor, field):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(descriptor))
    code = main(["expect", "--instance", str(path), "--t", "1", "--pivot", "2"])
    assert code == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("error: instance descriptor") and repr(field) in err


def test_sample_jsonl_reproducible(tmp_path):
    inst = _gen_instance(tmp_path)
    args = [
        "sample",
        "--instance",
        str(inst),
        "--t",
        "1.2",
        "--rj",
        "3",
        "--ru",
        "2",
        "--samples",
        "4",
        "--seed",
        "11",
    ]
    first = tmp_path / "s1.jsonl"
    second = tmp_path / "s2.jsonl"
    assert main(args + ["--out", str(first)]) == EXIT_OK
    assert main(args + ["--out", str(second)]) == EXIT_OK
    assert first.read_bytes() == second.read_bytes()
    records = [json.loads(line) for line in first.read_text().splitlines()]
    assert [r["index"] for r in records] == [0, 1, 2, 3]
    assert all(set(r) == {"bits", "index", "seed"} for r in records)
    instance = model.instance_from_json(inst.read_text())
    req = simulate.SimulationRequest(
        instance=instance,
        t=1.2,
        epsilon=0.05,
        radii=truncation.TruncationRadii(3, 2),
    )
    expected = simulate.sample(req, 4, 11)
    assert [r["bits"] for r in records] == [r.bits for r in expected]


def test_sample_golden_output(tmp_path):
    # N=9: every record spans two packed bytes.
    inst = tmp_path / "inst9.json"
    assert main(["gen", "--n", "9", "--xi", "0.5", "--seed", "3", "--out", str(inst)]) == EXIT_OK
    out = tmp_path / "samples.jsonl"
    args = ["sample", "--instance", str(inst), "--t", "3", "--rj", "3", "--ru", "2",
            "--samples", "8", "--seed", "11", "--out", str(out)]
    assert main(args) == EXIT_OK
    bits = ["001001001", "011001011", "101010010", "110000001",
            "001000011", "001000010", "011000001", "100000011"]
    assert out.read_text() == "".join(
        f'{{"bits": "{b}", "index": {i}, "seed": 11}}\n' for i, b in enumerate(bits)
    )


def test_sample_engines_agree(tmp_path):
    inst = _gen_instance(tmp_path, extra=("--max-width", "2", "--open-boundary"))
    outputs = {}
    for engine in ("dense", "plan"):
        out = tmp_path / f"{engine}.jsonl"
        code = main(
            [
                "sample",
                "--instance",
                str(inst),
                "--t",
                "0.8",
                "--rj",
                "3",
                "--ru",
                "2",
                "--samples",
                "3",
                "--seed",
                "2",
                "--engine",
                engine,
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        outputs[engine] = out.read_bytes()
    assert outputs["dense"] == outputs["plan"]


def test_sample_identity_instance_all_zero(tmp_path):
    params = model.InstanceParams(3, 0.5)
    instance = model.build_explicit_instance(params, {}, {})
    path = tmp_path / "identity.json"
    path.write_text(model.instance_to_json(instance))
    out = tmp_path / "samples.jsonl"
    code = main(
        [
            "sample",
            "--instance",
            str(path),
            "--t",
            "5.0",
            "--rj",
            "3",
            "--ru",
            "3",
            "--samples",
            "5",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(r["bits"] == "000" for r in records)


def test_hard_gen_and_verify(tmp_path, capsys):
    path = tmp_path / "hard.json"
    code = main(
        ["hard-gen", "--rows", "2", "--cols", "2", "--xi", "1.0", "--out", str(path)]
    )
    assert code == EXIT_OK
    instance = model.instance_from_json(path.read_text())
    assert instance.n_sites == 4
    assert instance.params.q_const == 4.0

    assert main(["hard-verify", "--rows", "2", "--cols", "2", "--xi", "1.0"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    assert report["fidelity"] >= 1 - 1e-9
    assert report["time"] == pytest.approx(math.pi * math.e**2 / 4)


def test_hard_verify_failure_exit_code(tmp_path, capsys):
    code = main(
        [
            "hard-verify",
            "--rows",
            "3",
            "--cols",
            "3",
            "--xi",
            "1.0",
            "--tolerance",
            "1e-16",
        ]
    )
    assert code == EXIT_DOMAIN
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False


def test_hard_verify_refuses_a_grid_above_the_state_cap(capsys, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a state was built before the cap was checked")

    monkeypatch.setattr(hardness, "apply_to_state", refused)
    monkeypatch.setattr(oracle, "apply_to_state", refused)
    code = main(["hard-verify", "--rows", "5", "--cols", "5", "--xi", "1.0"])
    assert code == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "536870912 bytes; N=25 exceeds the state cap of 22 sites" in captured.err


def test_gatecount_report(capsys):
    code = main(
        ["gatecount", "--n", "16", "--xi", "0.15", "--eps", "0.1", "--t", "1000"]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is True
    assert report["r_u"] == 4 and report["r_j"] == 3
    assert report["error_ledger"]["total"] < 0.1


def test_gatecount_infeasible(capsys):
    code = main(
        ["gatecount", "--n", "16", "--xi", "0.5", "--eps", "0.1", "--t", "1000"]
    )
    assert code == EXIT_DOMAIN
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is False
    assert "infeasible" in report["reason"]


@pytest.mark.parametrize("t", ["inf", "1e308"])
def test_gatecount_refuses_a_t_that_overflows(capsys, t):
    code = main(["gatecount", "--n", "16", "--xi", "0.3", "--t", t])
    assert code == EXIT_DOMAIN
    report = json.loads(capsys.readouterr().out)
    assert report["feasible"] is False
    assert str(float(t)) in report["reason"]


def test_gatecount_requires_t_or_sweep(capsys):
    assert main(["gatecount", "--n", "16", "--xi", "0.15"]) == EXIT_DOMAIN
    assert "--t is required" in capsys.readouterr().err


def test_gatecount_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "gatecount",
            "--n",
            "16",
            "--xi",
            "0.15",
            "--sweep",
            "--t-min",
            "100",
            "--t-max",
            "10000",
            "--points",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "t,total_bound,scaling_bound"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 3
    assert rows[0][0] == pytest.approx(100.0)
    assert rows[-1][0] == pytest.approx(10000.0)
    assert rows[0][1] < rows[-1][1]


def test_verify_command(capsys, monkeypatch):
    # The suite checks the tensor route: with engine "auto" it took the
    # dense route at every N up to the dense cap.  N=16 is above the dense
    # cap, and its max_body-4 support of 2516 indices is no obstacle to
    # the factored oracle.
    routes = []
    route = simulate._route

    def spied(req, engine):
        routes.append(route(req, engine))
        return routes[-1]

    monkeypatch.setattr(simulate, "_route", spied)
    for argv in (
        ["--n", "3", "--trials", "2", "--seed", "5"],
        ["--n", "8", "--trials", "5"],
        ["--n", "16", "--trials", "1"],
    ):
        code = main(["verify", *argv])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["max_discrepancy"] <= 1e-10
        assert report["conditionals_checked"] > 0
    assert routes and set(routes) == {"plan"}


def test_verify_refuses_above_the_state_cap(capsys):
    assert main(["verify", "--n", "23", "--trials", "3"]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "134217728 bytes; N=23 exceeds the state cap of 22 sites" in err


def test_usage_errors():
    assert main([]) == EXIT_USAGE
    assert main(["gen", "--n", "3"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE


def test_config_defaults_and_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "q": 2.0}))
    with_config = tmp_path / "w.json"
    explicit = tmp_path / "e.json"
    assert (
        main(
            ["--config", str(cfg), "gen", "--n", "4", "--xi", "0.5", "--out", str(with_config)]
        )
        == EXIT_OK
    )
    assert (
        main(
            ["gen", "--n", "4", "--xi", "0.5", "--seed", "7", "--q", "2.0", "--out", str(explicit)]
        )
        == EXIT_OK
    )
    assert with_config.read_bytes() == explicit.read_bytes()
    # An explicit flag wins over the config value.
    override = tmp_path / "o.json"
    assert (
        main(
            [
                "--config",
                str(cfg),
                "gen",
                "--n",
                "4",
                "--xi",
                "0.5",
                "--seed",
                "9",
                "--out",
                str(override),
            ]
        )
        == EXIT_OK
    )
    assert override.read_bytes() != with_config.read_bytes()


def test_config_can_set_boolean_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"open-boundary": True, "max-width": 2}))
    via_config = tmp_path / "c.json"
    via_flags = tmp_path / "f.json"
    base = ["gen", "--n", "4", "--xi", "0.5", "--seed", "3"]
    assert main(["--config", str(cfg), *base, "--out", str(via_config)]) == EXIT_OK
    assert (
        main([*base, "--max-width", "2", "--open-boundary", "--out", str(via_flags)])
        == EXIT_OK
    )
    assert via_config.read_bytes() == via_flags.read_bytes()


def test_config_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["--config", str(missing), "gen", "--n", "3", "--xi", "0.5"]) == EXIT_DOMAIN
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad), "gen", "--n", "3", "--xi", "0.5"]) == EXIT_DOMAIN
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert main(["--config", str(listy), "gen", "--n", "3", "--xi", "0.5"]) == EXIT_DOMAIN
    capsys.readouterr()
    # A value its flag could not take is refused by name, before any
    # command runs.
    for payload, argv, message in [
        ({"trials": "2"}, ["verify", "--n", "3"], "--trials must be an integer, got '2'"),
        ({"trials": True}, ["verify", "--n", "3"], "--trials must be an integer, got True"),
        (
            {"points": 2.5},
            ["gatecount", "--n", "16", "--xi", "0.15", "--sweep"],
            "--points must be an integer, got 2.5",
        ),
        ({"t": "1e3"}, ["gatecount", "--n", "16", "--xi", "0.15"], "--t must be a number, got '1e3'"),
    ]:
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps(payload))
        assert main(["--config", str(typed), *argv]) == EXIT_DOMAIN
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config value for {message}\n"


def test_library_warnings_are_one_line_each(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--n", "6", "--xi", "0.4", "--seed", "2", "--out", str(inst)]) == EXIT_OK
    out = tmp_path / "b.csv"
    argv = ["bound", "--instance", str(inst), "--eps", "0.1", "--t", "2", "--out", str(out)]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "warning: radius search saturated at r=N=6 before reaching per-term target "
        "2.500e-02; achieved total bound 5.828e-02\n"
    )
    assert out.read_text().startswith("N,xi,q,r_J,r_U,")


def test_console_entry_point(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "liomsim.cli", "gen", "--n", "3", "--xi", "0.5"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["n_sites"] == 3
