"""Seeded CNF instance generators.

These families stand in for the SAT Competition 2016-2022 main-track
benchmarks used by the paper (unavailable offline).  The mix deliberately
spans the axes that make clause-deletion-policy choice instance-dependent:

* **random k-SAT** near the phase transition — low structure, glue-driven
  deletion works well;
* **pigeonhole** — provably hard unsatisfiable instances with dense
  symmetric conflicts;
* **graph colouring** — structured constraints over sparse graphs;
* **parity (XOR) chains** — long propagation chains where the paper's
  propagation-frequency metric is most informative;
* **community-structured SAT** — modular "industrial-like" formulas with
  skewed variable participation;
* **cardinality conflicts** — sequential-counter encodings with heavy unit
  propagation.

All generators take an explicit ``seed`` and are fully deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cnf.formula import CNF
from repro.cnf.encodings import at_most_k


def _rng(seed: int) -> random.Random:
    return random.Random(seed)


# ---------------------------------------------------------------------------
# Random k-SAT
# ---------------------------------------------------------------------------

def random_ksat(
    num_vars: int,
    num_clauses: int,
    k: int = 3,
    seed: int = 0,
) -> CNF:
    """Uniform random k-SAT: each clause draws ``k`` distinct variables and
    independent random polarities.  At clause/variable ratio ~4.26 (k=3) the
    instances sit at the satisfiability phase transition.
    """
    if num_vars < k:
        raise ValueError(f"need at least k={k} variables, got {num_vars}")
    rng = _rng(seed)
    variables = range(1, num_vars + 1)
    clauses = []
    for _ in range(num_clauses):
        chosen = rng.sample(variables, k)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    cnf = CNF(clauses, num_vars=num_vars)
    cnf.comments.append(f"random_ksat n={num_vars} m={num_clauses} k={k} seed={seed}")
    return cnf


# ---------------------------------------------------------------------------
# Pigeonhole principle PHP(holes+1, holes): unsatisfiable
# ---------------------------------------------------------------------------

def pigeonhole(holes: int) -> CNF:
    """PHP(holes+1, holes): ``holes+1`` pigeons into ``holes`` holes.

    Variable ``x(p, h)`` means pigeon ``p`` sits in hole ``h``.  Each pigeon
    must sit somewhere and no two pigeons share a hole — unsatisfiable, with
    resolution proofs exponential in ``holes``.
    """
    if holes < 1:
        raise ValueError("need at least one hole")
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses: List[List[int]] = []
    for p in range(pigeons):
        clauses.append([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    cnf = CNF(clauses, num_vars=pigeons * holes)
    cnf.comments.append(f"pigeonhole holes={holes}")
    return cnf


# ---------------------------------------------------------------------------
# Graph colouring
# ---------------------------------------------------------------------------

def graph_coloring(
    num_nodes: int,
    num_colors: int,
    edge_prob: float = 0.5,
    seed: int = 0,
    mode: str = "gnp",
) -> CNF:
    """k-colourability of a random graph.

    Variable ``x(v, c)`` means node ``v`` gets colour ``c``.  Each node gets
    at least one colour, at most one colour, and adjacent nodes differ.

    Two graph models:

    * ``"gnp"`` — Erdős–Rényi G(n, p) with ``p = edge_prob``.  Near the
      colourability threshold these are usually *easy* for CDCL (small
      uncolourable subgraphs appear quickly).
    * ``"flat"`` — DIMACS-style *flat* graphs: nodes are secretly
      partitioned into ``num_colors`` classes and edges are only drawn
      between classes, so the instance is guaranteed colourable but the
      hidden colouring is hard to find.  ``edge_prob`` is interpreted as
      edges-per-node (e.g. 2.3 for hard flat 3-colouring).
    """
    if num_colors < 1:
        raise ValueError("need at least one colour")
    if mode not in ("gnp", "flat"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = _rng(seed)

    def var(v: int, c: int) -> int:
        return v * num_colors + c + 1

    clauses: List[List[int]] = []
    for v in range(num_nodes):
        clauses.append([var(v, c) for c in range(num_colors)])
        for c1 in range(num_colors):
            for c2 in range(c1 + 1, num_colors):
                clauses.append([-var(v, c1), -var(v, c2)])

    edges: List[Tuple[int, int]] = []
    if mode == "gnp":
        for u in range(num_nodes):
            for v in range(u + 1, num_nodes):
                if rng.random() < edge_prob:
                    edges.append((u, v))
    else:
        hidden = [v % num_colors for v in range(num_nodes)]
        num_edges = int(edge_prob * num_nodes)
        seen = set()
        attempts = 0
        while len(edges) < num_edges and attempts < 50 * num_edges:
            attempts += 1
            u = rng.randrange(num_nodes)
            v = rng.randrange(num_nodes)
            if u == v or hidden[u] == hidden[v]:
                continue
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            edges.append(key)

    for u, v in edges:
        for c in range(num_colors):
            clauses.append([-var(u, c), -var(v, c)])
    cnf = CNF(clauses, num_vars=num_nodes * num_colors)
    cnf.comments.append(
        f"graph_coloring nodes={num_nodes} colors={num_colors} "
        f"p={edge_prob} mode={mode} seed={seed}"
    )
    return cnf


# ---------------------------------------------------------------------------
# Parity (XOR) chains
# ---------------------------------------------------------------------------

def _xor_clauses(literals: Sequence[int], parity: int) -> List[List[int]]:
    """CNF clauses asserting XOR of ``literals`` equals ``parity`` (0/1).

    Direct expansion: every sign pattern with the wrong parity of negations
    is excluded.  Only used on small literal groups (<= 4).
    """
    n = len(literals)
    clauses = []
    for mask in range(1 << n):
        # mask bit i set -> literal i is TRUE in the assignment we exclude.
        ones = bin(mask).count("1")
        if ones % 2 != parity:
            clause = []
            for i, lit in enumerate(literals):
                truthy = bool(mask >> i & 1)
                # exclude the assignment: add negation of each fixed literal
                clause.append(-lit if truthy else lit)
            clauses.append(clause)
    return clauses


def parity_chain(
    num_vars: int,
    chain_length: int = 3,
    parity: int = 1,
    seed: int = 0,
    contradiction: Optional[bool] = None,
) -> CNF:
    """Chained XOR (parity) constraints — Tseitin-style instances.

    Builds *two* parity chains over the same ``num_vars`` inputs, each
    folding the inputs (in an independent shuffled order) into a running
    accumulator via ``chain_length``-ary XOR blocks with fresh auxiliary
    variables.  With ``contradiction`` the second chain asserts the
    *opposite* global parity — the instance is unsatisfiable and the
    refutation must implicitly derive the parity argument, which is hard
    for resolution-based solvers.  Without it both chains agree and the
    instance is satisfiable.  Either way, the XOR blocks create the long
    unit-propagation cascades and skewed per-variable propagation
    frequencies motivating Figure 3.

    ``contradiction=None`` picks randomly (seeded) with probability 1/2.
    """
    if num_vars < 2:
        raise ValueError("need at least two variables")
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    rng = _rng(seed)
    if contradiction is None:
        contradiction = rng.random() < 0.5
    next_var = num_vars + 1
    clauses: List[List[int]] = []

    def add_chain(target_parity: int) -> None:
        nonlocal next_var
        inputs = list(range(1, num_vars + 1))
        rng.shuffle(inputs)
        acc = inputs[0]
        idx = 1
        while idx < len(inputs):
            group = inputs[idx : idx + max(1, chain_length - 1)]
            idx += len(group)
            aux = next_var
            next_var += 1
            # aux <-> XOR(acc, *group)  ==  XOR(acc, *group, aux) = 0
            clauses.extend(_xor_clauses([acc] + group + [aux], 0))
            acc = aux
        clauses.append([acc if target_parity == 1 else -acc])

    add_chain(parity)
    add_chain(1 - parity if contradiction else parity)

    cnf = CNF(clauses, num_vars=next_var - 1)
    cnf.comments.append(
        f"parity_chain n={num_vars} len={chain_length} parity={parity} "
        f"contradiction={contradiction} seed={seed}"
    )
    return cnf


# ---------------------------------------------------------------------------
# Community-structured ("industrial-like") SAT
# ---------------------------------------------------------------------------

def community_sat(
    num_communities: int,
    vars_per_community: int,
    clauses_per_community: int,
    inter_clause_fraction: float = 0.1,
    k: int = 3,
    seed: int = 0,
) -> CNF:
    """Modular random SAT with community structure.

    Most clauses draw all variables from a single community; a fraction
    bridges two communities.  Industrial instances exhibit exactly this
    modularity, and it produces the skewed variable-participation profile
    that distinguishes the two deletion policies.
    """
    if vars_per_community < k:
        raise ValueError(f"each community needs at least k={k} variables")
    rng = _rng(seed)
    total_vars = num_communities * vars_per_community

    def community_vars(c: int) -> range:
        start = c * vars_per_community + 1
        return range(start, start + vars_per_community)

    clauses: List[List[int]] = []
    for c in range(num_communities):
        local = list(community_vars(c))
        for _ in range(clauses_per_community):
            if rng.random() < inter_clause_fraction and num_communities > 1:
                other = rng.randrange(num_communities - 1)
                if other >= c:
                    other += 1
                pool = local + list(community_vars(other))
            else:
                pool = local
            chosen = rng.sample(pool, k)
            clauses.append([v if rng.random() < 0.5 else -v for v in chosen])
    cnf = CNF(clauses, num_vars=total_vars)
    cnf.comments.append(
        f"community_sat comms={num_communities} vpc={vars_per_community} "
        f"cpc={clauses_per_community} inter={inter_clause_fraction} seed={seed}"
    )
    return cnf


# ---------------------------------------------------------------------------
# Cardinality conflict (sequential counter encoding)
# ---------------------------------------------------------------------------

def cardinality_conflict(
    num_vars: int,
    bound: Optional[int] = None,
    overconstrained: bool = True,
    seed: int = 0,
) -> CNF:
    """At-most-``bound`` via sequential counters, plus at-least constraints.

    With ``overconstrained`` the at-least side demands ``bound + 1`` true
    inputs, yielding an unsatisfiable instance whose refutation exercises
    long unit-propagation chains through the counter registers.  Without it
    the instance is satisfiable but propagation-heavy.
    """
    if num_vars < 3:
        raise ValueError("need at least three variables")
    rng = _rng(seed)
    if bound is None:
        bound = max(1, num_vars // 3)
    bound = min(bound, num_vars - 1)
    inputs = list(range(1, num_vars + 1))
    clauses, next_var = at_most_k(inputs, bound, num_vars + 1)

    demand = bound + 1 if overconstrained else max(1, bound - 1)
    # at-least-demand == at-most-(n - demand) over the negations
    neg_inputs = [-v for v in inputs]
    more, next_var = at_most_k(neg_inputs, num_vars - demand, next_var)
    clauses.extend(more)

    # A sprinkling of random ternary clauses to break symmetry.
    for _ in range(num_vars):
        chosen = rng.sample(inputs, 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in chosen])

    cnf = CNF(clauses, num_vars=next_var - 1)
    cnf.comments.append(
        f"cardinality_conflict n={num_vars} bound={bound} "
        f"over={overconstrained} seed={seed}"
    )
    return cnf


# ---------------------------------------------------------------------------
# Family registry and dataset synthesis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratorSpec:
    """A named, parameterized generator call (reproducible via ``seed``)."""

    family: str
    params: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)
    seed: int = 0

    def build(self) -> CNF:
        factory = GENERATOR_FAMILIES[self.family]
        kwargs = dict(self.params)
        if self.family != "pigeonhole":
            kwargs["seed"] = self.seed
        return factory(**kwargs)

    @property
    def name(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({inner})#s{self.seed}"


GENERATOR_FAMILIES: Dict[str, Callable[..., CNF]] = {
    "random_ksat": random_ksat,
    "pigeonhole": pigeonhole,
    "graph_coloring": graph_coloring,
    "parity_chain": parity_chain,
    "community_sat": community_sat,
    "cardinality_conflict": cardinality_conflict,
}

