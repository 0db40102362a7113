"""CDCL SAT solver substrate (the reproduction's stand-in for Kissat).

A from-scratch conflict-driven clause-learning solver with the features
the paper's deletion-policy experiments depend on: two-watched-literal
propagation with per-variable propagation-frequency counters, 1-UIP
learning with minimization and glue computation, VSIDS decisions with
phase saving, Luby restarts, Kissat-style tiered clause reduction
driven by a pluggable :class:`~repro.policies.base.DeletionPolicy`, and
DRAT proof logging.  The inner loop is compiled to C when cffi and a
compiler are present (:mod:`repro.solver.kernel`), with identical
search.
"""

from repro.solver.types import Status, Model, encode, decode
from repro.solver.statistics import SolverStatistics
from repro.solver.arena import (
    ArenaClauseView,
    ArenaConflictAnalyzer,
    ArenaPropagator,
    ArenaTrail,
    ArenaWatchLists,
    ClauseArena,
)
from repro.solver.decide import Decider
from repro.solver.restart import LubyRestarts, luby
from repro.solver.reduce import ReduceScheduler
from repro.solver.proof import ProofLog
from repro.solver.solver import Solver, SolverConfig, SolveResult, solve
from repro.solver.session import SolverSession, replay_schedule
from repro.solver.reference import brute_force_status, dpll_solve
from repro.solver.drat import check_drat, trim_proof, DratError

__all__ = [
    "Status",
    "Model",
    "encode",
    "decode",
    "SolverStatistics",
    "ClauseArena",
    "ArenaClauseView",
    "ArenaTrail",
    "ArenaWatchLists",
    "ArenaPropagator",
    "ArenaConflictAnalyzer",
    "Decider",
    "LubyRestarts",
    "luby",
    "ReduceScheduler",
    "ProofLog",
    "Solver",
    "SolverConfig",
    "SolverSession",
    "SolveResult",
    "replay_schedule",
    "solve",
    "brute_force_status",
    "dpll_solve",
    "check_drat",
    "trim_proof",
    "DratError",
]
