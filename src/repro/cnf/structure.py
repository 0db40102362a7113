"""Structural analysis of CNF formulas via graph-theoretic measures.

Industrial SAT instances differ from uniform-random ones mainly in
*structure*: community organization, degree heterogeneity, and small
cores.  This module exposes those measures over the **variable
incidence graph** (VIG — variables as nodes, one edge per clause pair
co-occurrence), built on ``networkx``.  They complement the flat counts
in :mod:`repro.cnf.features` and drive tests that the community
generator really produces modular formulas.

``networkx`` is the optional ``structure`` extra (``pip install
repro[structure]``).  It is imported inside the functions that need it,
so importing :mod:`repro` neither requires it nor pays its import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

from repro.cnf.formula import CNF

if TYPE_CHECKING:
    import networkx as nx


def variable_incidence_graph(cnf: CNF, max_clause_size: int = 10) -> "nx.Graph":
    """Build the VIG: variables adjacent when they share a clause.

    Each clause of size ``k`` contributes an edge of weight ``1/C(k,2)``
    between every pair of its variables, so big clauses do not dominate.
    Clauses longer than ``max_clause_size`` are skipped (standard VIG
    practice; their pairwise expansion is quadratic and uninformative).
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(1, cnf.num_vars + 1))
    for clause in cnf.clauses:
        variables = sorted({abs(lit) for lit in clause.literals})
        k = len(variables)
        if k < 2 or k > max_clause_size:
            continue
        weight = 1.0 / (k * (k - 1) / 2)
        for i in range(k):
            for j in range(i + 1, k):
                u, v = variables[i], variables[j]
                if graph.has_edge(u, v):
                    graph[u][v]["weight"] += weight
                else:
                    graph.add_edge(u, v, weight=weight)
    return graph


@dataclass(frozen=True)
class StructuralFeatures:
    """Graph-level structure measures of a formula's VIG."""

    num_vig_nodes: int
    num_vig_edges: int
    density: float
    mean_degree: float
    degree_assortativity: float
    clustering_coefficient: float
    modularity: float
    num_communities: int
    largest_component_fraction: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "num_vig_nodes": self.num_vig_nodes,
            "num_vig_edges": self.num_vig_edges,
            "density": self.density,
            "mean_degree": self.mean_degree,
            "degree_assortativity": self.degree_assortativity,
            "clustering_coefficient": self.clustering_coefficient,
            "modularity": self.modularity,
            "num_communities": self.num_communities,
            "largest_component_fraction": self.largest_component_fraction,
        }


def structural_features(cnf: CNF, max_clause_size: int = 10) -> StructuralFeatures:
    """Compute :class:`StructuralFeatures` (total on degenerate inputs)."""
    import networkx as nx

    graph = variable_incidence_graph(cnf, max_clause_size=max_clause_size)
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    if n == 0:
        return StructuralFeatures(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0)

    degrees = [d for _, d in graph.degree()]
    mean_degree = sum(degrees) / n
    density = nx.density(graph)
    try:
        import numpy as np

        with np.errstate(invalid="ignore", divide="ignore"):
            assortativity = float(nx.degree_assortativity_coefficient(graph))
        if assortativity != assortativity:  # NaN for regular graphs
            assortativity = 0.0
    except (ValueError, ZeroDivisionError):
        assortativity = 0.0
    clustering = float(nx.average_clustering(graph)) if m else 0.0

    if m:
        communities = nx.algorithms.community.greedy_modularity_communities(
            graph, weight="weight"
        )
        modularity = float(
            nx.algorithms.community.modularity(graph, communities, weight="weight")
        )
        num_communities = len(communities)
    else:
        modularity = 0.0
        num_communities = n

    components = list(nx.connected_components(graph))
    largest = max((len(c) for c in components), default=0)

    return StructuralFeatures(
        num_vig_nodes=n,
        num_vig_edges=m,
        density=density,
        mean_degree=mean_degree,
        degree_assortativity=assortativity,
        clustering_coefficient=clustering,
        modularity=modularity,
        num_communities=num_communities,
        largest_component_fraction=largest / n,
    )


def community_labels(cnf: CNF, max_clause_size: int = 10) -> List[int]:
    """Greedy-modularity community id per variable (index 0 unused)."""
    import networkx as nx

    graph = variable_incidence_graph(cnf, max_clause_size=max_clause_size)
    labels = [0] * (cnf.num_vars + 1)
    if graph.number_of_edges() == 0:
        return labels
    communities = nx.algorithms.community.greedy_modularity_communities(
        graph, weight="weight"
    )
    for community_id, members in enumerate(communities):
        for var in members:
            labels[var] = community_id
    return labels
