"""Differential fuzzing and delta debugging for the solver stack.

The correctness harness every solver/policy change is checked against:

* :mod:`repro.fuzz.oracles` — a pluggable bank of cross-checks (brute
  force, DPLL, both deletion policies, warm-vs-fresh incremental
  sessions, DRAT proofs, metamorphic transforms) that turn a solve
  result into either silence or a structured :class:`Discrepancy`;
* :mod:`repro.fuzz.campaign` — seeded, deterministic campaigns over
  the generator registry, fanned out through the fault-tolerant
  parallel runner;
* :mod:`repro.fuzz.shrink` — a ddmin-style CNF minimizer plus the
  replayable :class:`FailureCorpus` of DIMACS + manifest repro pairs.

CLI entry point: ``python -m repro fuzz --seeds 200 --shrink``.
"""

from repro.fuzz.oracles import (
    DEFAULT_BUDGET,
    BruteForceOracle,
    Discrepancy,
    DPLLOracle,
    DratOracle,
    IncrementalOracle,
    MetamorphicOracle,
    ModelCheckOracle,
    Oracle,
    OracleBank,
    OracleContext,
    PolicyAgreementOracle,
    default_oracles,
    default_solve_fn,
    derive_mutants,
    formula_key,
)
from repro.fuzz.campaign import (
    CampaignConfig,
    CampaignReport,
    FuzzCase,
    build_cases,
    draw_spec,
    render_report,
    run_campaign,
)
from repro.fuzz.shrink import (
    FailureCorpus,
    ShrinkResult,
    discrepancy_predicate,
    load_entry,
    replay_entry,
    shrink,
)

__all__ = [
    "DEFAULT_BUDGET",
    "BruteForceOracle",
    "CampaignConfig",
    "CampaignReport",
    "Discrepancy",
    "DPLLOracle",
    "DratOracle",
    "FailureCorpus",
    "FuzzCase",
    "IncrementalOracle",
    "MetamorphicOracle",
    "ModelCheckOracle",
    "Oracle",
    "OracleBank",
    "OracleContext",
    "PolicyAgreementOracle",
    "ShrinkResult",
    "build_cases",
    "default_oracles",
    "default_solve_fn",
    "derive_mutants",
    "discrepancy_predicate",
    "draw_spec",
    "formula_key",
    "load_entry",
    "render_report",
    "replay_entry",
    "run_campaign",
    "shrink",
]
