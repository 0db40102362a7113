"""Smoke tests: every example script must run end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name, *args, timeout=240):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "SATISFIABLE" in proc.stdout
        assert "random 3-SAT" in proc.stdout

    def test_solve_dimacs(self, tmp_path):
        cnf_path = tmp_path / "t.cnf"
        cnf_path.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
        proc = run_example("solve_dimacs.py", str(cnf_path), "--policy", "frequency")
        assert proc.returncode == 10, proc.stderr
        assert "s SATISFIABLE" in proc.stdout

    def test_solve_dimacs_unsat_with_proof(self, tmp_path):
        cnf_path = tmp_path / "u.cnf"
        cnf_path.write_text("p cnf 1 2\n1 0\n-1 0\n")
        proof_path = tmp_path / "u.drat"
        proc = run_example("solve_dimacs.py", str(cnf_path), "--proof", str(proof_path))
        assert proc.returncode == 20
        assert proof_path.exists()

    def test_policy_comparison(self):
        proc = run_example(
            "policy_comparison.py", "--instances", "2", "--budget", "20000"
        )
        assert proc.returncode == 0, proc.stderr
        assert "wins=" in proc.stdout

    def test_train_neuroselect(self, tmp_path):
        out = tmp_path / "w.npz"
        proc = run_example(
            "train_neuroselect.py",
            "--per-year", "1", "--epochs", "2", "--hidden-dim", "8",
            "--label-budget", "300", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert "accuracy" in proc.stdout

    def test_end_to_end_selection(self):
        proc = run_example(
            "end_to_end_selection.py",
            "--per-year", "1", "--epochs", "2", "--budget", "20000",
        )
        assert proc.returncode == 0, proc.stderr
        assert "Table 3" in proc.stdout
        assert "median improvement" in proc.stdout

    def test_certify(self):
        proc = run_example("certify.py")
        assert proc.returncode == 0, proc.stderr
        assert "model checked" in proc.stdout
        assert "DRAT proof checked" in proc.stdout

    def test_batched_inference(self):
        proc = run_example("batched_inference.py")
        assert proc.returncode == 0, proc.stderr
        assert "batched inference" in proc.stdout

    def test_serve_client(self):
        proc = run_example("serve_client.py")
        assert proc.returncode == 0, proc.stderr
        assert "amortized yes" in proc.stdout
        assert "DONE" in proc.stdout
