"""End-to-end checks of the crn command line front end."""

from __future__ import annotations

import inspect
import io
import json
import math
import tracemalloc

import pytest

from crnbalance import SteadyStateResult, balance, cli, network
from crnbalance.cli import main

DATA = "tests/data"
RUNNING = f"{DATA}/running.crn"
AB = f"{DATA}/ab.crn"
P2 = f"{DATA}/p2.json"
P4 = f"{DATA}/p4.json"


def run_cli(*argv):
    buf = io.StringIO()
    code = main(list(argv), stream=buf)
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run_cli(*argv)
    return code, json.loads(out)


def test_help_exits_zero(capsys):
    assert main(["--help"], stream=io.StringIO()) == 0
    assert "crn" in capsys.readouterr().out


def test_parse_reports_structure():
    code, report = run_json("parse", RUNNING)
    assert code == 0
    assert report["species"] == ["X1", "X2"]
    assert (report["n"], report["m"], report["p"]) == (2, 4, 6)
    first = report["reactions"][0]
    assert first == {
        "index": 1,
        "source": "3 X1",
        "target": "X1 + 2 X2",
        "rate": "k1",
    }
    assert report["stoichiometric_matrix"] == [
        [-2, -1, 2, 1, -3, 3],
        [2, 1, -2, -1, 3, -3],
    ]


def test_analyze_summarizes_canonical_graphs():
    code, report = run_json("analyze", RUNNING)
    assert code == 0
    assert report["rank"] == 1
    assert report["conservation_laws"] == [[1, 1]]
    assert report["graphs"]["complex"]["nodes"] == 4
    assert report["graphs"]["detailed"]["nodes"] == 10
    assert report["graphs"]["split"]["nodes"] == 12
    assert report["graphs"]["complex"]["weakly_reversible"] is True


def test_graphs_enumerate_lists_every_partition():
    code, report = run_json("graphs", "enumerate", AB)
    assert code == 0
    assert report["admissible_count"] == 4
    assert len(report["graphs"]) == 4
    for entry in report["graphs"]:
        assert set(entry) == {
            "partition",
            "nodes",
            "components",
            "deficiency",
            "weakly_reversible",
        }


def test_graphs_enumerate_rejects_exceeded_cap(capsys):
    code, out = run_cli("graphs", "enumerate", RUNNING, "--max", "10")
    assert code == 2
    assert out == ""
    err = capsys.readouterr().err
    assert err.startswith("error:") and "900" in err


def test_graphs_enumerate_streams_in_memory_bounded_by_its_output():
    # the JSON rows are written as they are produced, never held as one
    # report: holding them all peaked at 9x the output bytes
    stream = io.StringIO()
    tracemalloc.start()
    try:
        code = main(["graphs", "enumerate", RUNNING], stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 * len(stream.getvalue().encode())


def test_graphs_enumerate_text_streams_in_memory_bounded_by_its_output():
    # the text rows are rendered one at a time from the same rows as the
    # JSON form: building the whole report first peaked at 11x the output
    stream = io.StringIO()
    tracemalloc.start()
    try:
        code = main(["graphs", "enumerate", RUNNING, "--format", "text"], stream)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert stream.getvalue().count("\n  -\n") == 900
    assert peak < 3 * len(stream.getvalue().encode())


def test_handlers_return_their_report_and_never_see_the_stream():
    handlers = [name for name in dir(cli) if name.startswith("cmd_")]
    assert len(handlers) == 11
    for name in handlers:
        assert list(inspect.signature(getattr(cli, name)).parameters) == ["net", "args"], name


def test_graph_info_reports_cayley_and_kernel():
    code, report = run_json("graph", "info", RUNNING, "--partition", P4)
    assert code == 0
    assert report["nodes"] == 5
    assert report["deficiency"] == 3
    assert report["cayley_matrix"] == [
        [3, 1, 0, 2, 3],
        [0, 2, 3, 1, 0],
        [1, 1, 1, 1, 1],
    ]
    assert report["kernel_dimension"] == 3
    assert len(report["kernel_basis"]) == 3


def test_graph_info_requires_partition(capsys):
    assert run_cli("graph", "info", RUNNING)[0] == 2
    capsys.readouterr()


def test_balance_conditions_expand():
    code, report = run_json(
        "balance", "conditions", RUNNING, "--partition", P4, "--expand"
    )
    assert code == 0
    assert report["deficiency"] == 3
    quadruples = {
        (c["lhs"], c["rhs"], c["lhs_expanded"], c["rhs_expanded"])
        for c in report["conditions"]
    }
    assert quadruples == {
        ("K1*K3^2", "K2^3", "k2^3", "k1*k3^2"),
        ("K1*K2", "K4^2", "k4^2", "k1*k2"),
        ("K1", "K5", "k3*k5", "k1*k6"),
    }


def test_balance_check_exit_codes():
    code, report = run_json(
        "balance", "check", RUNNING, "--partition", P4, "--kappa", "1,1,1,1,2,2"
    )
    assert code == 0
    assert report["balanced"] is True
    assert all(entry["holds"] for entry in report["relations"])

    code, report = run_json(
        "balance", "check", RUNNING, "--partition", P2, "--kappa", "1,1,1,1,2,2"
    )
    assert code == 1
    assert report["balanced"] is False
    assert any(not entry["holds"] for entry in report["relations"])


def test_balance_check_defaults_to_the_complex_graph():
    default = run_cli("balance", "check", RUNNING, "--kappa", "1,1,1,1,2,2")
    complex_graph = run_cli(
        "balance", "check", RUNNING, "--partition", f"{DATA}/p1.json", "--kappa", "1,1,1,1,2,2"
    )
    assert default == complex_graph
    assert default[0] == 0


def test_balance_check_kappa_as_symbol_map():
    kappa = json.dumps({f"k{i}": "1" for i in range(1, 5)} | {"k5": "2", "k6": "2"})
    code, report = run_json(
        "balance", "check", RUNNING, "--partition", P4, "--kappa", kappa
    )
    assert code == 0 and report["balanced"] is True


def test_balance_check_rejects_unknown_symbols(capsys):
    code, _ = run_cli(
        "balance", "check", RUNNING, "--partition", P4, "--kappa", '{"k9": 1}'
    )
    assert code == 2
    assert "unknown rate symbols" in capsys.readouterr().err


def test_kappa_length_mismatch(capsys):
    code, _ = run_cli("balance", "check", RUNNING, "--partition", P4, "--kappa", "1,2")
    assert code == 2
    assert "kappa has 2 entries for 6 reactions" in capsys.readouterr().err


def test_steady_state_with_class_anchor():
    code, report = run_json(
        "steady-state",
        RUNNING,
        "--partition",
        P4,
        "--kappa",
        "1,1,1,1,2,2",
        "--class",
        "2,0",
    )
    assert code == 0
    assert report["feasible"] is True
    assert report["kappa"] == ["1", "1", "1", "1", "2", "2"]
    assert report["x"] == pytest.approx([1.0, 1.0], abs=1e-8)
    assert report["birch_point"] == pytest.approx([1.0, 1.0], abs=1e-8)
    assert report["stability"]["verdict"] == "Stable"
    assert report["binomials"][0] == {
        "edge": [1, 2],
        "equation": "2*X1^3 = 2*X1*X2^2",
    }


def test_steady_state_infeasible_exits_one():
    code, report = run_json(
        "steady-state", RUNNING, "--partition", P2, "--kappa", "1,1,1,1,2,2"
    )
    assert code == 1
    assert report["feasible"] is False
    assert "x" not in report


def test_steady_state_feasibility_is_the_exact_verdict_of_balance_check():
    # 1e-12 off balance on p4: the lstsq log-residual is under 1e-9, and
    # steady-state used to exit 0 with "feasible": true where balance check exits 1
    kappa = "1000000000001/1000000000000,1,1,1,2,2"
    code, check = run_json("balance", "check", RUNNING, "--partition", P4, "--kappa", kappa)
    assert (code, check["balanced"]) == (1, False)
    code, report = run_json(
        "steady-state", RUNNING, "--partition", P4, "--kappa", kappa, "--class", "1,2"
    )
    assert (code, report["feasible"]) == (1, False)
    assert 0 < report["log_residual"] < 1e-9
    assert "x" not in report and "birch_point" not in report


def test_steady_state_refuses_a_float_solve_that_misses_a_balanced_kappa(monkeypatch, capsys):
    missed = SteadyStateResult(False, None, None, 2e-9)
    monkeypatch.setattr(cli, "solve_positive_steady_state", lambda check: missed)
    code, out = run_cli("steady-state", RUNNING, "--partition", P4, "--kappa", "1,1,1,1,2,2")
    assert (code, out) == (2, "")
    assert "log-residual 2e-09 on a balanced kappa" in capsys.readouterr().err


@pytest.mark.parametrize("command, extra, evaluations, validations", [
    (["steady-state"], [], 1, 1),
    (["steady-state"], ["--class", "1,2"], 2, 4),
    (["balance", "check"], [], 1, 1),
])
def test_each_command_evaluates_k_and_validates_kappa_at_most_so_often(
    command, extra, evaluations, validations, monkeypatch
):
    # every K evaluation builds one Laplacian, and each kappa validation checks
    # its p = 6 entries; running.crn has symbolic rates, so parsing adds none
    calls = {"laplacian": 0, "entry": 0}

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(balance, "laplacian_matrix", counted("laplacian", balance.laplacian_matrix))
    monkeypatch.setattr(network, "_check_number", counted("entry", network._check_number))
    code, _ = run_cli(*command, RUNNING, "--partition", P4, "--kappa", "1,1,1,1,2,2", *extra)
    assert code == 0
    assert calls["laplacian"] <= evaluations
    assert calls["entry"] <= 6 * validations


def test_simulate_csv_trace():
    code, out = run_cli(
        "simulate", AB, "--kappa", "2,1", "--x0", "3,0", "--t-end", "1.0",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,A,B"
    assert lines[1] == "0.0,3.0,0.0"
    t, a, b = (float(v) for v in lines[-1].split(","))
    assert t == pytest.approx(1.0)
    assert a == pytest.approx(1 + 2 * math.exp(-3), abs=1e-6)
    assert a + b == pytest.approx(3.0, abs=1e-9)


def test_simulate_json_final_state():
    code, report = run_json(
        "simulate", AB, "--kappa", "2,1", "--x0", "3,0", "--t-end", "2.0",
        "--adaptive",
    )
    assert code == 0
    assert report["final"] == pytest.approx(
        [1 + 2 * math.exp(-6), 2 - 2 * math.exp(-6)], abs=1e-6
    )
    assert len(report["times"]) == len(report["states"])


@pytest.mark.parametrize("kappa, message", [("1e400,1", "overflows"), ("1e-400,1", "underflows")])
def test_simulate_refuses_kappa_outside_the_float_range(kappa, message, capsys):
    code, out = run_cli("simulate", AB, "--kappa", kappa, "--x0", "3,0", "--t-end", "1")
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert f"kappa[0] (reaction r1) {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", AB, "--kappa", "2,1", "--x0", "1e400,1", "--t-end", "1"],
         "x0[0] overflows the float range"),
        (["simulate", AB, "--kappa", "2,1", "--x0", "1e-400,1", "--t-end", "1"],
         "x0[0] underflows to 0.0"),
        (["steady-state", AB, "--kappa", "2,1", "--class", "1e400,1"],
         "x0[0] overflows the float range"),
    ],
    ids=["x0 overflow", "x0 underflow", "class overflow"],
)
def test_a_state_outside_the_float_range_is_refused(argv, message, capsys):
    # --x0 1e400 used to end in an OverflowError traceback; 1e-400 ran from 0
    code, out = run_cli(*argv)
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_an_error_the_cli_does_not_raise_itself_exits_two_not_one(capsys):
    # kappa x 1e200 overflows a float tree constant in the lstsq solve; this
    # used to end in an OverflowError traceback with exit 1, the verdict code
    kappa = "1e200,1e200,1e200,1e200,2e200,2e200"
    code, out = run_cli("steady-state", RUNNING, "--kappa", kappa, "--class", "1,2")
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_steady_state_refuses_a_class_without_a_positive_state(capsys):
    # the class of (0, 0) is {0}; it used to exit 0 with a point at 3.8e-11
    code, out = run_cli(
        "steady-state", RUNNING, "--partition", P4, "--kappa", "1,1,1,1,2,2", "--class", "0,0"
    )
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: Newton")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "extra, message",
    [
        (["--t-end", "nan"], "t_end must be finite, got nan"),
        (["--t-end", "inf"], "t_end must be finite, got inf"),
        (["--t-end", "1", "--dt", "0"], "dt must be positive, got 0.0"),
        (["--t-end", "1", "--dt", "-1"], "dt must be positive, got -1.0"),
        (["--t-end", "1", "--adaptive", "--tol", "0"], "tol must be positive, got 0.0"),
    ],
)
def test_simulate_refuses_a_horizon_step_or_tolerance_out_of_range(extra, message, capsys):
    # a t_end of nan or inf used to exit 0 with invalid JSON; dt or tol of
    # 0 used to end in a misleading step size underflow
    code, out = run_cli("simulate", AB, "--kappa", "2,1", "--x0", "3,0", *extra)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["decompose", "lift"])
@pytest.mark.parametrize("given", [["--kappa", "1,1,1,1,2,2"], ["--state", "1,1"]])
def test_kappa_and_state_go_together(command, given, capsys):
    # one of the two used to skip the check silently and exit as if asked for none
    subsets = ["--subsets", "1,2,6"] if command == "decompose" else []
    code, out = run_cli(command, RUNNING, "--partition", f"{DATA}/p1.json", *subsets, *given)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: --kappa and --state go together\n"


def test_decompose_reports_induced_parts():
    code, report = run_json(
        "decompose", RUNNING, "--partition", f"{DATA}/p1.json", "--subsets", "1,2,6"
    )
    assert code == 0
    assert report["complement"] == [3, 4, 5]
    assert report["union_equals_original"] is False
    assert report["jointly_balanceable"] is True
    assert len(report["parts"]) == 2

    code, report = run_json(
        "decompose", RUNNING, "--partition", f"{DATA}/p1.json", "--subsets", "1,2,5,6"
    )
    assert code == 1
    assert report["non_reversible_parts"] == [2]
    assert report["jointly_balanceable"] is False


def test_decompose_checks_a_state():
    code, report = run_json(
        "decompose",
        RUNNING,
        "--partition",
        f"{DATA}/p1.json",
        "--subsets",
        "1,2,6",
        "--kappa",
        "1,1,1,1,2,2",
        "--state",
        "1,1",
    )
    assert code == 1
    assert report["check"] == {
        "whole_and_subsets": False,
        "union_graph": False,
        "all_parts": False,
        "agree": True,
    }


def test_decompose_refuses_a_short_state(capsys):
    # a short state used to end in an IndexError traceback
    code, out = run_cli(
        "decompose", RUNNING, "--partition", f"{DATA}/p1.json", "--subsets", "1,2,6",
        "--kappa", "1,1,1,1,2,2", "--state", "1",
    )
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert err == "error: state has 1 entries, network has 2 species\n"


def test_decompose_names_the_flag_of_a_subset_that_is_not_integers(capsys):
    # used to print int()'s own message, which names neither the flag nor the value
    code, out = run_cli("decompose", RUNNING, "--partition", f"{DATA}/p1.json", "--subsets", "1,a")
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == "error: --subsets wants integers, got '1,a'\n"


def test_lift_reports_and_verifies():
    code, report = run_json("lift", RUNNING, "--partition", P4)
    assert code == 0
    assert report["copies"] == 5
    assert report["epsilon"] == 4
    assert report["reactions"] == 46
    assert report["lifted_deficiency"] == report["graph_deficiency"] == 3

    code, report = run_json(
        "lift", RUNNING, "--partition", P4, "--kappa", "1,1,1,1,2,2",
        "--state", "1,1",
    )
    assert code == 0
    assert report["verification"] == {
        "base_balanced": True,
        "lift_balanced": True,
        "rows_match": True,
        "holds": True,
    }

    code, report = run_json(
        "lift", RUNNING, "--partition", P4, "--kappa", "1,1,1,1,2,2",
        "--state", "1,3",
    )
    assert code == 0
    assert report["verification"]["base_balanced"] is False
    assert report["verification"]["holds"] is True


def test_incremental_condition_and_exit_codes():
    code, report = run_json(
        "incremental", RUNNING, "--partition", P4, "--join", "1,5"
    )
    assert code == 0
    assert report == {
        "nodes": [1, 5],
        "kind": "SameComponent",
        "extra_condition": True,
        "condition": {"lhs": "k3*k5", "rhs": "k1*k6"},
    }

    code, report = run_json(
        "incremental", RUNNING, "--partition", P4, "--join", "1,5",
        "--kappa", "1,1,1,1,2,2",
    )
    assert code == 0 and report["holds"] is True

    code, report = run_json(
        "incremental", RUNNING, "--partition", P4, "--join", "1,5",
        "--kappa", "1,1,1,1,1,2",
    )
    assert code == 1 and report["holds"] is False


def test_incremental_rejects_bad_join(capsys):
    code, _ = run_cli("incremental", RUNNING, "--partition", P4, "--join", "1")
    assert code == 2
    assert "--join wants two node indices" in capsys.readouterr().err
    code, _ = run_cli("incremental", RUNNING, "--partition", P4, "--join", "1,2")
    assert code == 2
    assert "label" in capsys.readouterr().err
    code, _ = run_cli("incremental", RUNNING, "--partition", P4, "--join", "3,6")
    assert code == 2
    assert "out of range" in capsys.readouterr().err


def test_incremental_rejects_nonpositive_kappa(capsys):
    code, out = run_cli(
        "incremental", f"{DATA}/running.crn", "--partition", f"{DATA}/p3.json",
        "--join", "3,6", "--kappa=-1,0,1,1,2,2",
    )
    assert code == 2
    assert out == ""
    assert "kappa[0] = -1 is not positive" in capsys.readouterr().err


def test_balance_check_rejects_an_infinite_file_rate(tmp_path, capsys):
    path = tmp_path / "inf.crn"
    path.write_text("r1: A -> B @ 1e999\nr2: B -> A @ k2\n")
    code, out = run_cli("balance", "check", str(path), "--kappa", '{"k2": 1}')
    assert code == 2
    assert out == ""
    assert "not finite" in capsys.readouterr().err


def test_missing_file_is_a_clean_error(capsys):
    code, out = run_cli("parse", "tests/data/nosuch.crn")
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_repeated_runs_are_byte_identical():
    first = run_cli("balance", "conditions", RUNNING, "--partition", P4, "--expand")
    second = run_cli("balance", "conditions", RUNNING, "--partition", P4, "--expand")
    assert first == second


def test_text_format_renders():
    code, out = run_cli("analyze", RUNNING, "--format", "text")
    assert code == 0
    assert "rank: 1" in out
    assert "weakly_reversible: true" in out
