"""CNF formula data model.

A :class:`CNF` stores its clauses in one flat form, from DIMACS text to
the solver's C kernel: ``lits``, the DIMACS literals of every clause back
to back as int32, and ``offsets``, int64 clause boundaries of length
``num_clauses + 1`` (clause ``j`` is ``lits[offsets[j]:offsets[j + 1]]``).
Literals follow the DIMACS convention: ``v`` denotes the positive
literal of variable ``v`` and ``-v`` its negation, and ``|v|`` is at
most :data:`MAX_VAR`, so the solver's ``2 * v + 1`` encoding fits a C
``int``.

Every clause is normalised once, on the way in: duplicate literals are
dropped (the first occurrence keeps its place), and ``tautology`` marks
the clauses holding a literal and its negation.  Tautologies, empty
clauses and duplicate clauses stay in the arrays, so the graph and the
features see the formula as written.  :attr:`CNF.clauses` derives
:class:`Clause` objects from the arrays for the callers that want them
(transforms, shrinking, the reference solvers, DRAT checking); the
solving and serving path reads the arrays.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

#: Largest variable index a formula may use: the solver encodes literal
#: ``-v`` as ``2 * v + 1``, which must fit a signed 32-bit int.
MAX_VAR = 2**30 - 1


class Clause:
    """A disjunction of literals.

    Duplicate literals are removed on construction while the first-seen
    order of the remaining literals is preserved.  A clause containing both
    ``v`` and ``-v`` is a *tautology*; it is kept (callers may want to
    detect and drop it) and flagged via :meth:`is_tautology`.
    """

    __slots__ = ("literals",)

    def __init__(self, literals: Iterable[int]):
        self.literals: Tuple[int, ...] = tuple(_dedupe(literals))

    @classmethod
    def _of(cls, literals: Tuple[int, ...]) -> "Clause":
        """A clause over literals already free of duplicates and zeros."""
        clause = cls.__new__(cls)
        clause.literals = literals
        return clause

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


def _dedupe(literals: Iterable[int]) -> List[int]:
    """Literals as ints, first occurrences only; rejects 0 and out-of-range."""
    seen: Set[int] = set()
    ordered: List[int] = []
    for lit in literals:
        lit = int(lit)
        if lit == 0:
            raise ValueError("0 is not a valid DIMACS literal")
        if lit not in seen:
            if abs(lit) > MAX_VAR:
                raise ValueError(f"variable {abs(lit)} out of range (max {MAX_VAR})")
            seen.add(lit)
            ordered.append(lit)
    return ordered


def _normalise(
    lits: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop duplicate literals per clause (first occurrence kept) and mark
    tautologies; returns ``(lits as int32, offsets, tautology mask)``.

    ``lits`` are non-zero int64 DIMACS literals within :data:`MAX_VAR`.
    One stable sort by ``(clause, variable, sign)`` puts a literal's
    repeats right after its first occurrence and a variable's two signs
    side by side.
    """
    num_clauses = len(offsets) - 1
    tautology = np.zeros(num_clauses, dtype=bool)
    if len(lits) == 0:
        return lits.astype(np.int32), offsets, tautology
    clause = np.repeat(np.arange(num_clauses, dtype=np.int64), np.diff(offsets))
    key = (clause << 32) | (np.abs(lits) << 1) | (lits < 0)
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    repeat = ordered[1:] == ordered[:-1]
    both_signs = ((ordered[1:] >> 1) == (ordered[:-1] >> 1)) & ~repeat
    tautology[ordered[1:][both_signs] >> 32] = True
    if repeat.any():
        keep = np.ones(len(lits), dtype=bool)
        keep[order[1:][repeat]] = False
        lits = lits[keep]
        offsets = np.zeros(num_clauses + 1, dtype=np.int64)
        np.cumsum(np.bincount(clause[keep], minlength=num_clauses), out=offsets[1:])
    return lits.astype(np.int32), offsets, tautology


def _readonly(array: np.ndarray) -> np.ndarray:
    """A view callers cannot write through into the formula."""
    view = array.view()
    view.flags.writeable = False
    return view


class CNF:
    """A CNF formula: a conjunction of clauses over ``num_vars`` variables.

    ``num_vars`` is at least the largest variable mentioned in any clause;
    it may be larger (DIMACS headers allow unused variables).  The
    clauses live in :attr:`lits` / :attr:`offsets` (see the module
    docstring); both are read-only views, and :meth:`add_clause` appends
    in amortised O(clause size).
    """

    __slots__ = ("num_vars", "comments", "_lits", "_offsets", "_tautology", "_count")

    def __init__(
        self,
        clauses: Iterable[Iterable[int]] = (),
        num_vars: int = 0,
        comments: Optional[List[str]] = None,
    ):
        flat: List[int] = []
        offsets = [0]
        for clause in clauses:
            flat.extend(clause)
            offsets.append(len(flat))
        try:
            lits = np.array(flat, dtype=np.int64)
        except OverflowError:
            lits = None
        if lits is None or (
            len(lits)
            and (lits.min() < -MAX_VAR or lits.max() > MAX_VAR or not lits.all())
        ):
            _dedupe(flat)  # raises on the first zero or out-of-range literal
        offsets = np.array(offsets, dtype=np.int64)
        self._set(*_normalise(lits, offsets), num_vars, comments)

    @classmethod
    def from_arrays(
        cls,
        lits: np.ndarray,
        offsets: np.ndarray,
        num_vars: int = 0,
        comments: Optional[List[str]] = None,
    ) -> "CNF":
        """A formula from flat int64 literals and clause offsets, which
        the caller has checked: non-zero, within :data:`MAX_VAR`, and
        ``offsets`` non-decreasing from 0 to ``len(lits)``."""
        cnf = cls.__new__(cls)
        cnf._set(*_normalise(lits, offsets), num_vars, comments)
        return cnf

    def _set(
        self,
        lits: np.ndarray,
        offsets: np.ndarray,
        tautology: np.ndarray,
        num_vars: int,
        comments: Optional[List[str]],
    ) -> None:
        self._lits = lits
        self._offsets = offsets
        self._tautology = tautology
        self._count = len(tautology)
        if num_vars > MAX_VAR:
            raise ValueError(f"variable count {num_vars} out of range (max {MAX_VAR})")
        max_var = int(np.abs(lits).max()) if len(lits) else 0
        self.num_vars: int = max(num_vars, max_var)
        self.comments: List[str] = list(comments or [])

    # -- the flat form -----------------------------------------------------

    @property
    def lits(self) -> np.ndarray:
        """int32 DIMACS literals of all clauses, back to back."""
        return _readonly(self._lits[: self._offsets[self._count]])

    @property
    def offsets(self) -> np.ndarray:
        """int64 clause boundaries into :attr:`lits`, ``num_clauses + 1`` long."""
        return _readonly(self._offsets[: self._count + 1])

    @property
    def tautology(self) -> np.ndarray:
        """Per clause: True when it holds a literal and its negation."""
        return _readonly(self._tautology[: self._count])

    # -- construction -----------------------------------------------------

    def add_clause(self, literals: Iterable[int]) -> None:
        """Append a clause (deduplicated) and grow ``num_vars`` if needed."""
        lits = _dedupe(literals)
        seen = set(lits)
        count = self._count
        start = int(self._offsets[count])
        end = start + len(lits)
        if end > len(self._lits):
            self._lits = _grown(self._lits, start, end)
        if count + 2 > len(self._offsets):
            self._offsets = _grown(self._offsets, count + 1, count + 2)
        if count + 1 > len(self._tautology):
            self._tautology = _grown(self._tautology, count, count + 1)
        self._lits[start:end] = lits
        self._offsets[count + 1] = end
        self._tautology[count] = any(-lit in seen for lit in lits)
        self._count = count + 1
        if lits:
            self.num_vars = max(self.num_vars, max(abs(lit) for lit in lits))

    def copy(self) -> "CNF":
        cnf = CNF.__new__(CNF)
        cnf._set(
            self.lits.copy(),
            self.offsets.copy(),
            self.tautology.copy(),
            self.num_vars,
            self.comments,
        )
        return cnf

    # -- inspection --------------------------------------------------------

    @property
    def clauses(self) -> Tuple[Clause, ...]:
        """The clauses as :class:`Clause` objects, derived from the arrays."""
        flat = self.lits.tolist()
        bounds = self.offsets.tolist()
        return tuple(
            Clause._of(tuple(flat[a:b])) for a, b in zip(bounds, bounds[1:])
        )

    @property
    def num_clauses(self) -> int:
        return self._count

    @property
    def num_literals(self) -> int:
        """Total literal occurrences across all clauses."""
        return int(self._offsets[self._count])

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __repr__(self) -> str:
        return f"CNF(num_vars={self.num_vars}, num_clauses={self.num_clauses})"

    def variables(self) -> Set[int]:
        """The set of variables that actually occur in some clause."""
        return set(np.unique(np.abs(self.lits)).tolist())

    def has_empty_clause(self) -> bool:
        return bool(np.any(np.diff(self.offsets) == 0))

    def evaluate(self, assignment: Sequence[Optional[bool]]) -> Optional[bool]:
        """Evaluate under a (possibly partial) assignment.

        Returns ``True`` when every clause is satisfied, ``False`` when some
        clause is falsified (all its literals assigned false), and ``None``
        when undetermined.
        """
        values = np.fromiter(
            (-1 if value is None else bool(value) for value in assignment),
            dtype=np.int8,
            count=len(assignment),
        )
        lits = self.lits
        value = values[np.abs(lits)]
        clause = np.repeat(np.arange(self._count), np.diff(self.offsets))
        satisfied = np.zeros(self._count, dtype=bool)
        satisfied[clause[value == (lits > 0)]] = True
        open_ = np.zeros(self._count, dtype=bool)
        open_[clause[value < 0]] = True
        if np.any(~satisfied & ~open_):
            return False
        return None if np.any(~satisfied) else True

    def check_model(self, model: Sequence[Optional[bool]]) -> bool:
        """True when ``model`` (indexed by variable) satisfies the formula."""
        return self.evaluate(model) is True

    def simplified(self) -> "CNF":
        """Return a copy without tautologies and duplicate clauses."""
        seen: Set[Clause] = set()
        kept: List[Clause] = []
        for clause, tautology in zip(self.clauses, self.tautology.tolist()):
            if tautology or clause in seen:
                continue
            seen.add(clause)
            kept.append(clause)
        return CNF(kept, self.num_vars, list(self.comments))


def _grown(buffer: np.ndarray, used: int, need: int) -> np.ndarray:
    """``buffer``'s first ``used`` items in a zeroed buffer of room >= ``need``
    (capacity doubles, so appends are amortised O(1) per item)."""
    out = np.zeros(max(need, 2 * len(buffer), 8), dtype=buffer.dtype)
    out[:used] = buffer[:used]
    return out
