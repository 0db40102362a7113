"""CNF formula data model.

A :class:`CNF` is an ordered collection of :class:`Clause` objects over
1-based integer variables.  Literals follow the DIMACS convention: ``v``
denotes the positive literal of variable ``v`` and ``-v`` its negation.
The model is deliberately simple and immutable-by-convention: solver-side
code converts it once into its own packed representation and never mutates
the original formula.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple


class Clause:
    """A disjunction of literals.

    Duplicate literals are removed on construction while the first-seen
    order of the remaining literals is preserved.  A clause containing both
    ``v`` and ``-v`` is a *tautology*; it is kept (callers may want to
    detect and drop it) and flagged via :meth:`is_tautology`.
    """

    __slots__ = ("literals",)

    def __init__(self, literals: Iterable[int]):
        seen: Set[int] = set()
        ordered: List[int] = []
        for lit in literals:
            lit = int(lit)
            if lit == 0:
                raise ValueError("0 is not a valid DIMACS literal")
            if lit not in seen:
                seen.add(lit)
                ordered.append(lit)
        self.literals: Tuple[int, ...] = tuple(ordered)

    def __len__(self) -> int:
        return len(self.literals)

    def __iter__(self) -> Iterator[int]:
        return iter(self.literals)

    def __contains__(self, lit: int) -> bool:
        return lit in self.literals

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Clause):
            return NotImplemented
        return frozenset(self.literals) == frozenset(other.literals)

    def __hash__(self) -> int:
        return hash(frozenset(self.literals))

    def __repr__(self) -> str:
        return f"Clause({list(self.literals)})"

    @property
    def variables(self) -> Tuple[int, ...]:
        """Variables (absolute literal values) in first-seen order."""
        return tuple(abs(lit) for lit in self.literals)

    def is_tautology(self) -> bool:
        """True when the clause contains a literal and its negation."""
        lits = set(self.literals)
        return any(-lit in lits for lit in lits)

    def is_empty(self) -> bool:
        return not self.literals


class CNF:
    """A CNF formula: a conjunction of clauses over ``num_vars`` variables.

    ``num_vars`` is at least the largest variable mentioned in any clause;
    it may be larger (DIMACS headers allow unused variables).
    """

    __slots__ = ("clauses", "num_vars", "comments")

    def __init__(
        self,
        clauses: Iterable[Iterable[int]] = (),
        num_vars: int = 0,
        comments: Optional[List[str]] = None,
    ):
        self.clauses: List[Clause] = [
            c if isinstance(c, Clause) else Clause(c) for c in clauses
        ]
        max_var = max(
            (max(abs(lit) for lit in c.literals) for c in self.clauses if c.literals),
            default=0,
        )
        if num_vars < max_var:
            num_vars = max_var
        self.num_vars: int = num_vars
        self.comments: List[str] = list(comments or [])

    # -- construction -----------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> Clause:
        """Append a clause and grow ``num_vars`` if needed; returns it."""
        clause = literals if isinstance(literals, Clause) else Clause(literals)
        if clause.literals:
            self.num_vars = max(self.num_vars, max(abs(lit) for lit in clause.literals))
        self.clauses.append(clause)
        return clause

    def copy(self) -> "CNF":
        return CNF(self.clauses, self.num_vars, list(self.comments))

    # -- inspection --------------------------------------------------------

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def num_literals(self) -> int:
        """Total literal occurrences across all clauses."""
        return sum(len(c) for c in self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __repr__(self) -> str:
        return f"CNF(num_vars={self.num_vars}, num_clauses={self.num_clauses})"

    def variables(self) -> Set[int]:
        """The set of variables that actually occur in some clause."""
        out: Set[int] = set()
        for clause in self.clauses:
            out.update(abs(lit) for lit in clause.literals)
        return out

    def has_empty_clause(self) -> bool:
        return any(c.is_empty() for c in self.clauses)

    def evaluate(self, assignment: Sequence[Optional[bool]]) -> Optional[bool]:
        """Evaluate under a (possibly partial) assignment.

        Returns ``True`` when every clause is satisfied, ``False`` when some
        clause is falsified (all its literals assigned false), and ``None``
        when undetermined.
        """
        undetermined = False
        for clause in self.clauses:
            clause_value: Optional[bool] = False
            for lit in clause.literals:
                value = assignment[abs(lit)]
                if value is None:
                    clause_value = None
                elif value == (lit > 0):
                    clause_value = True
                    break
            if clause_value is True:
                continue
            if clause_value is None:
                undetermined = True
            else:
                return False
        return None if undetermined else True

    def check_model(self, model: Sequence[Optional[bool]]) -> bool:
        """True when ``model`` (indexed by variable) satisfies the formula."""
        return self.evaluate(model) is True

    def simplified(self) -> "CNF":
        """Return a copy without tautologies and duplicate clauses."""
        seen: Set[Clause] = set()
        kept: List[Clause] = []
        for clause in self.clauses:
            if clause.is_tautology() or clause in seen:
                continue
            seen.add(clause)
            kept.append(clause)
        return CNF(kept, self.num_vars, list(self.comments))
