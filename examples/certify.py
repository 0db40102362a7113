"""Solve formulas and certify both kinds of answer.

Shows the two trust stories of the solver stack: a SAT answer is checked
by evaluating its model against the formula, and an UNSAT answer is
checked by replaying its DRAT proof.

Run:  python examples/certify.py
"""

from repro.cnf import parity_chain, random_ksat
from repro.solver import ProofLog, Solver, Status, check_drat


def main() -> None:
    # SAT side: model check.
    sat_cnf = parity_chain(14, seed=5, contradiction=False)
    result = Solver(sat_cnf).solve()
    print(f"parity chain: {result.status.value}")
    assert result.status is Status.SATISFIABLE
    assert sat_cnf.check_model(result.model)
    print("  -> model checked against every clause of the formula\n")

    # UNSAT side: DRAT certification.
    unsat_cnf = random_ksat(60, 280, seed=11)
    proof = ProofLog()
    result = Solver(unsat_cnf, proof=proof).solve()
    print(f"random 3-SAT @ ratio 4.67: {result.status.value}")
    assert result.status is Status.UNSATISFIABLE
    print(f"  proof: {proof.additions} additions, {proof.deletions} deletions")
    assert check_drat(unsat_cnf, proof.text())
    print("  -> DRAT proof checked by the reference RUP checker")


if __name__ == "__main__":
    main()
