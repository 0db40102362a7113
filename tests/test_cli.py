"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import re

import pytest

import repro.cli
from repro.cli import main
from repro.cnf import CNF, parse_dimacs_file, write_dimacs_file
from repro.solver import check_drat


@pytest.fixture
def sat_file(tmp_path):
    path = tmp_path / "sat.cnf"
    write_dimacs_file(CNF([[1, 2], [-2, 3], [-1, -3]]), path)
    return str(path)


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "unsat.cnf"
    write_dimacs_file(CNF([[1, 2], [1, -2], [-1, 2], [-1, -2]]), path)
    return str(path)


class TestSolve:
    def test_sat_exit_code_and_vline(self, sat_file, capsys):
        assert main(["solve", sat_file]) == 10
        out = capsys.readouterr().out
        assert "s SATISFIABLE" in out
        assert out.splitlines()[1].startswith("v ")

    def test_unsat_exit_code(self, unsat_file, capsys):
        assert main(["solve", unsat_file]) == 20
        assert "s UNSATISFIABLE" in capsys.readouterr().out

    def test_unknown_on_budget(self, tmp_path, capsys):
        from repro.cnf import pigeonhole

        path = tmp_path / "php.cnf"
        write_dimacs_file(pigeonhole(7), path)
        assert main(["solve", str(path), "--max-conflicts", "5"]) == 0
        assert "s UNKNOWN" in capsys.readouterr().out

    def test_proof_written_and_checks(self, unsat_file, tmp_path, capsys):
        proof_path = tmp_path / "out.drat"
        assert main(["solve", unsat_file, "--proof", str(proof_path)]) == 20
        cnf = parse_dimacs_file(unsat_file)
        assert check_drat(cnf, proof_path.read_text())

    def test_assumptions(self, sat_file, capsys):
        assert main(["solve", sat_file, "--assume", "1", "3"]) == 20

    def test_frequency_policy(self, sat_file, capsys):
        assert main(["solve", sat_file, "--policy", "frequency"]) == 10

    @pytest.mark.parametrize("flags, named", [
        (["--assume", "9"], "--assume 9"),
        (["--assume", "0"], "--assume 0"),
        (["--max-conflicts", "-1"], "--max-conflicts"),
        (["--max-propagations", "-1"], "--max-propagations"),
    ], ids=["unknown-variable", "zero-literal", "negative-conflicts",
            "negative-propagations"])
    def test_bad_input_rejected_in_one_line(self, sat_file, flags, named):
        with pytest.raises(SystemExit) as exc:
            main(["solve", sat_file, *flags])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert named in message


@pytest.mark.parametrize("argv, named", [
    (["label", "{cnf}", "--max-conflicts", "-1"], "--max-conflicts"),
    (["dataset", "--out", "{out}", "--per-year", "1", "--label-budget", "-1"],
     "--label-budget"),
    (["train", "--out", "{out}", "--per-year", "1", "--epochs", "1",
      "--label-budget", "-1"], "--label-budget"),
    (["bench", "--instances", "1", "--max-propagations", "-5"],
     "--max-propagations"),
    (["bench", "--instances", "1", "--workers", "0"], "--workers"),
    (["dataset", "--out", "{out}", "--per-year", "1", "--retries", "-1"],
     "--retries"),
], ids=["label-budget", "dataset-budget", "train-budget", "bench-budget",
        "zero-workers", "negative-retries"])
def test_sweep_numbers_rejected_in_one_line(sat_file, tmp_path, argv, named):
    argv = [a.format(cnf=sat_file, out=tmp_path / "out") for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(named)
    assert not (tmp_path / "out").exists()


_BAD_SERVE_SETTINGS = [
    (["--max-batch", "0"], "max_batch"),
    (["--max-queue", "0"], "max_queue_depth"),
    (["--default-max-conflicts", "0"], "default_max_conflicts"),
    (["--max-conflicts-cap", "0"], "max_conflicts_cap"),
    (["--workers", "0"], "workers"),
    (["--task-timeout", "0"], "task_timeout"),
    (["--memory-limit-mb", "-5"], "memory_limit_mb"),
    (["--inference-timeout", "0"], "inference_timeout"),
    (["--conflicts-per-second", "0"], "conflicts_per_second"),
    (["--session-ttl", "0"], "session_ttl"),
    (["--max-sessions", "0"], "max_sessions"),
    (["--session-drift-threshold", "-0.1"], "session_drift_threshold"),
    (["--breaker", "--breaker-threshold", "2"], "failure_threshold"),
    (["--breaker", "--breaker-window", "2"], "min_samples"),
]


@pytest.mark.parametrize("argv,named", _BAD_SERVE_SETTINGS,
                         ids=[named for _, named in _BAD_SERVE_SETTINGS])
def test_serve_settings_rejected_in_one_line(monkeypatch, capsys, argv,
                                             named):
    def never_started(*args, **kwargs):
        raise AssertionError("an invalid setting reached the service")

    monkeypatch.setattr("repro.serve.SolveService", never_started)
    assert main(["serve", "--port", "0", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"repro serve: error: {named} ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["features", "label", "solve", "select",
                                     "trim"])
def test_malformed_dimacs_is_one_line_error(tmp_path, command):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 2 1\n1 x 0\n")
    extra = {"select": ["--weights", str(tmp_path / "w.npz")],
             "trim": ["--out", str(tmp_path / "p.drat")]}.get(command, [])
    with pytest.raises(SystemExit) as exc:
        main([command, str(path), *extra])
    assert exc.value.code == "error: line 2: bad token 'x'"


@pytest.mark.parametrize("text,message", [
    ("p cnf 2 1\n1 x 0\n", "error: line 2: bad token 'x'"),
    ("p inccnf\n1 2\na 1 0\n",
     "error: line 3: assumption line inside an unterminated clause"),
    ("p cnf x 1\n1 0\n", "error: line 1: non-integer header field"),
], ids=["bad-token", "assumption-in-open-clause", "bad-header"])
def test_malformed_icnf_is_one_line_error(tmp_path, text, message):
    path = tmp_path / "bad.icnf"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--incremental", str(path)])
    assert exc.value.code == message


@pytest.mark.parametrize("text,incremental,message", [
    ("p cnf 2 1\n1 -1073741824 0\n", False,
     "error: line 2: variable 1073741824 out of range (max 1073741823)"),
    ("p cnf 1073741824 1\n1 0\n", False,
     "error: line 1: variable count 1073741824 out of range (max 1073741823)"),
    ("c big\n1 0\n99999999999999999999999 0\n", False,
     "error: line 3: variable 99999999999999999999999 out of range "
     "(max 1073741823)"),
    ("p inccnf\n1 2 0\na 1073741824 0\n", True,
     "error: line 3: variable 1073741824 out of range (max 1073741823)"),
    ("p cnf 4294967296 1\n1 0\n", True,
     "error: line 1: variable count 4294967296 out of range (max 1073741823)"),
], ids=["literal", "header", "huge-literal", "icnf-literal", "icnf-header"])
def test_variable_out_of_range_is_one_line_error(tmp_path, text, incremental,
                                                 message):
    """Variables must fit the solver's int32 literal encoding; the check
    fires while parsing, before anything is sized by the variable count."""
    path = tmp_path / "big.cnf"
    path.write_text(text)
    argv = ["solve", "--incremental", str(path)] if incremental else [
        "solve", str(path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == message


def test_docstring_lists_exactly_the_registered_subcommands():
    (subparsers,) = [
        action for action in repro.cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    documented = re.findall(r"^\* ``(\w+)``", repro.cli.__doc__, re.MULTILINE)
    assert sorted(documented) == sorted(subparsers.choices)


class TestGenerate:
    def test_generate_and_reload(self, tmp_path, capsys):
        out = tmp_path / "gen.cnf"
        code = main([
            "generate", "random_ksat", "--out", str(out),
            "--param", "num_vars=12", "--param", "num_clauses=40",
            "--seed", "5",
        ])
        assert code == 0
        cnf = parse_dimacs_file(out)
        assert cnf.num_vars == 12
        assert cnf.num_clauses == 40

    def test_pigeonhole_no_seed_param(self, tmp_path):
        out = tmp_path / "php.cnf"
        assert main(["generate", "pigeonhole", "--out", str(out),
                     "--param", "holes=3"]) == 0
        assert parse_dimacs_file(out).num_vars == 12

    def test_bad_param_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "random_ksat", "--out", str(tmp_path / "x.cnf"),
                  "--param", "oops"])


class TestFeaturesLabel:
    def test_features_lists_all(self, sat_file, capsys):
        assert main(["features", sat_file]) == 0
        out = capsys.readouterr().out
        assert "num_vars" in out and "horn_fraction" in out

    def test_label_reports_policies(self, sat_file, capsys):
        assert main(["label", sat_file, "--max-conflicts", "100"]) == 0
        out = capsys.readouterr().out
        assert "default:" in out and "frequency:" in out and "label:" in out


class TestTrainSelect:
    def test_train_then_select(self, tmp_path, sat_file, capsys):
        weights = tmp_path / "w.npz"
        code = main([
            "train", "--out", str(weights),
            "--per-year", "1", "--epochs", "2",
            "--hidden-dim", "8", "--label-budget", "200",
        ])
        assert code == 0
        assert weights.exists()
        code = main([
            "select", sat_file, "--weights", str(weights), "--hidden-dim", "8",
        ])
        assert code == 10
        out = capsys.readouterr().out
        assert "policy:" in out


class TestDatasetAndReport:
    def test_dataset_build_and_reuse(self, tmp_path, capsys):
        ds_path = tmp_path / "ds.json"
        assert main(["dataset", "--out", str(ds_path),
                     "--per-year", "1", "--label-budget", "200"]) == 0
        assert ds_path.exists()
        weights = tmp_path / "w.npz"
        code = main([
            "train", "--out", str(weights), "--dataset", str(ds_path),
            "--epochs", "1", "--hidden-dim", "8",
        ])
        assert code == 0
        assert weights.exists()

    def test_report_command(self, capsys, monkeypatch, tmp_path):
        import repro.bench.reporting as reporting

        called = {}

        def fake_build():
            called["yes"] = True

        monkeypatch.setattr(reporting, "build_experiments_md", fake_build)
        assert main(["report"]) == 0
        assert called


class TestTrim:
    def test_trim_unsat(self, unsat_file, tmp_path, capsys):
        out = tmp_path / "trimmed.drat"
        assert main(["trim", unsat_file, "--out", str(out)]) == 20
        assert out.exists()
        cnf = parse_dimacs_file(unsat_file)
        assert check_drat(cnf, out.read_text())

    def test_trim_sat_is_noop(self, sat_file, tmp_path, capsys):
        out = tmp_path / "t.drat"
        assert main(["trim", sat_file, "--out", str(out)]) == 0
        assert not out.exists()
