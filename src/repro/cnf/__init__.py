"""CNF substrate: formula data model, DIMACS I/O, instance generators, features.

This package provides everything needed to create, inspect, and serialize
conjunctive-normal-form (CNF) formulas, the input of every other subsystem.
Variables are 1-based integers; a literal is a signed non-zero integer
(``v`` for the positive literal, ``-v`` for the negation), matching DIMACS.
"""

from repro.cnf.formula import CNF, Clause
from repro.cnf.dimacs import parse_dimacs, parse_dimacs_file, to_dimacs, write_dimacs_file
from repro.cnf.features import FormulaFeatures, extract_features
from repro.cnf.transforms import (
    shuffle_clauses,
    rename_variables,
    flip_polarity,
    duplicate_clauses,
    compact_variables,
    augment,
)
from repro.cnf.generators import (
    GeneratorSpec,
    random_ksat,
    pigeonhole,
    graph_coloring,
    parity_chain,
    community_sat,
    cardinality_conflict,
    GENERATOR_FAMILIES,
)

__all__ = [
    "CNF",
    "Clause",
    "parse_dimacs",
    "parse_dimacs_file",
    "to_dimacs",
    "write_dimacs_file",
    "FormulaFeatures",
    "extract_features",
    "shuffle_clauses",
    "rename_variables",
    "flip_polarity",
    "duplicate_clauses",
    "compact_variables",
    "augment",
    "GeneratorSpec",
    "random_ksat",
    "pigeonhole",
    "graph_coloring",
    "parity_chain",
    "community_sat",
    "cardinality_conflict",
    "GENERATOR_FAMILIES",
]
