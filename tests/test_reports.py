"""Exact JSON of the two reports: the gate-count report and the 1D-vs-2D
mapping report, each spelled out field by field from the library's
report and compared with the bytes the CLI or to_jsonable emits."""

import json

from liomsim.cli import EXIT_OK, main
from liomsim.complexity import ComplexityQuery, circuit_complexity_bound
from liomsim.hardness import HardnessSpec, verify_2d_mapping


def _dumped(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _amplitudes(pairs) -> list[dict]:
    return [{"bits": bits, "re": amp.real, "im": amp.imag} for bits, amp in pairs]


def test_gatecount_report_json(capsys):
    code = main(["gatecount", "--n", "16", "--xi", "0.15", "--eps", "0.1", "--t", "1e3"])
    assert code == EXIT_OK
    report = circuit_complexity_bound(ComplexityQuery(16, 1e3, 0.15, 0.1))
    expected = {
        "n_sites": 16,
        "t": 1000.0,
        "xi": 0.15,
        "epsilon": 0.1,
        "r_u": report.r_u,
        "r_j": report.r_j,
        "r_u_formula": report.r_u_formula,
        "r_j_formula": report.r_j_formula,
        "delta_u": report.delta_u,
        "delta_j": report.delta_j,
        "c_u_bound": report.c_u_bound,
        "c_h_bound": report.c_h_bound,
        "total_bound": report.total_bound,
        "scaling_bound": report.scaling_bound,
        "exp_u": report.exp_u,
        "exp_h": report.exp_h,
        "error_ledger": {
            "u_synthesis": report.error_ledger["u_synthesis"],
            "u_synthesis_mirror": report.error_ledger["u_synthesis_mirror"],
            "h_synthesis": report.error_ledger["h_synthesis"],
            "truncation": report.error_ledger["truncation"],
            "total": report.error_ledger["total"],
        },
        "feasible": True,
    }
    assert capsys.readouterr().out == _dumped(expected)
    assert report.to_jsonable() == expected


def test_hard_verify_report_json(capsys):
    code = main(["hard-verify", "--rows", "3", "--cols", "3", "--xi", "1.0"])
    assert code == EXIT_OK
    report = verify_2d_mapping(HardnessSpec(rows=3, cols=3, xi=1.0))
    assert report.passed
    expected = {
        "fidelity": report.fidelity,
        "tolerance": 1e-9,
        "passed": True,
        "n_sites": 9,
        "time": report.time,
        "leading_1d": [],
        "leading_2d": [],
    }
    assert capsys.readouterr().out == _dumped(expected)


def test_perturbed_mapping_report_json():
    # The negative control lists five leading amplitudes per side.
    report = verify_2d_mapping(HardnessSpec(rows=3, cols=3, xi=1.0), perturb_site=1)
    assert not report.passed
    assert len(report.leading_1d) == len(report.leading_2d) == 5
    expected = {
        "fidelity": report.fidelity,
        "tolerance": 1e-9,
        "passed": False,
        "n_sites": 9,
        "time": report.time,
        "leading_1d": _amplitudes(report.leading_1d),
        "leading_2d": _amplitudes(report.leading_2d),
    }
    assert _dumped(report.to_jsonable()) == _dumped(expected)
