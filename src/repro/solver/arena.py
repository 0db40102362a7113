"""Flat int32 arena clause store and the contiguous-memory BCP core.

This is the solver's only engine representation, shaped after Kissat's
arena clause store:

* **Arena** — all clauses live back to back in one growable flat buffer
  of ints as ``[id, size, lit0 .. litN]`` blocks.  A clause is addressed
  by the *offset* of its first literal, so ``data[off-1]`` is its length
  and ``data[off-2]`` its id.  Every value fits an int32 (asserted by
  :meth:`ClauseArena.as_int32`), which is what lets the compiled
  conflict loop (:mod:`repro.solver.kernel`) hold the same words in C
  ``int`` buffers; in pure CPython a plain ``list`` outperforms
  ``array('i')`` because the latter re-boxes every element on read.
* **Clause ids** — per-clause metadata (glue, activity, used, garbage,
  frequency, learned) lives in parallel arrays indexed by a *stable*
  clause id.  Ids are append-only and survive compaction; offsets do
  not.  Long-lived references (trail reasons, proofs, policies) hold
  ids; only watcher records hold offsets, and those are relocated in one
  pass after each compaction.
* **Watch tables** — binary clauses are watcher-only (a flat list of the
  *other* literal per watching literal; the reason is re-derived from
  the implication itself), ternary clauses are fully watched on all
  three literals (``[o1, o2, id]`` triples that never relocate), and
  only clauses of length >= 4 pay for offset-based two-watched-literal
  records with blocking literals.

Soundness is checked by engine-independent oracles (model check, brute
force, DPLL, DRAT, metamorphic transforms, warm-vs-fresh incremental
re-solves; see :mod:`repro.fuzz.oracles`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.obs.metrics import BATCH_BUCKETS, MetricsRegistry
from repro.solver.statistics import SolverStatistics
from repro.solver.types import FALSE, TRUE, UNASSIGNED

#: Words preceding each clause's literals in the arena: ``[id, size]``.
HEADER_WORDS = 2

#: A conflict returned by :meth:`ArenaPropagator.propagate`: either the
#: id of a falsified clause or, for binary clauses (which have no id in
#: the hot path), the pair of their (both false) literals.
Conflict = Union[int, Tuple[int, int]]


class ArenaClauseView:
    """Read/write proxy presenting one arena clause as an object.

    Deletion policies and tests access ``lits``, ``glue``, ``activity``,
    ``used``, ``learned``, ``garbage`` and ``frequency`` attributes; the
    view forwards each to the arena's metadata arrays, so a policy
    writing ``clause.frequency`` (as :class:`FrequencyPolicy` does for
    its Eq. (2) cache) lands in ``ClauseArena.frequency`` and therefore
    survives compaction.
    """

    __slots__ = ("arena", "cid")

    def __init__(self, arena: "ClauseArena", cid: int):
        self.arena = arena
        self.cid = cid

    @property
    def lits(self) -> List[int]:
        return self.arena.literals(self.cid)

    @property
    def glue(self) -> int:
        return self.arena.glue[self.cid]

    @property
    def activity(self) -> float:
        return self.arena.activity[self.cid]

    @property
    def used(self) -> bool:
        return bool(self.arena.used[self.cid])

    @property
    def learned(self) -> bool:
        return bool(self.arena.learned[self.cid])

    @property
    def garbage(self) -> bool:
        return bool(self.arena.garbage[self.cid])

    @property
    def frequency(self) -> int:
        return self.arena.frequency[self.cid]

    @frequency.setter
    def frequency(self, value: int) -> None:
        self.arena.frequency[self.cid] = value

    def __len__(self) -> int:
        return self.arena.size_of(self.cid)

    def __repr__(self) -> str:
        kind = "learned" if self.learned else "original"
        return f"ArenaClauseView(#{self.cid}, {self.lits}, {kind}, glue={self.glue})"


class ClauseArena:
    """Flat clause arena plus id-indexed metadata.

    Lifecycle API (construction, activity, deletion, inspection) over
    integer clause ids; :meth:`view` wraps an id for policy scoring.
    """

    def __init__(self, keep_glue: int = 2):
        #: The arena proper: ``[id, size, lit0 .. litN]`` blocks.
        self.data: List[int] = []
        #: Offset of each clause's first literal; -1 once compacted away.
        self.offset: List[int] = []
        # -- metadata, indexed by clause id (append-only, never swept) --
        self.glue: List[int] = []
        self.activity: List[float] = []
        self.used: List[int] = []
        self.garbage: List[int] = []
        #: Per-clause Eq. (2) frequency cache (policy-written).
        self.frequency: List[int] = []
        self.learned: List[int] = []

        self.keep_glue: int = keep_glue
        self.clause_inc: float = 1.0
        self.clause_decay: float = 0.999
        self._num_original = 0
        self._num_learned_live = 0

    # -- construction ------------------------------------------------------

    def _push(self, lits: List[int], learned: bool, glue: int) -> int:
        cid = len(self.offset)
        data = self.data
        data.append(cid)
        data.append(len(lits))
        off = len(data)
        data.extend(lits)
        self.offset.append(off)
        self.glue.append(glue)
        self.activity.append(self.clause_inc if learned else 0.0)
        self.used.append(0)
        self.garbage.append(0)
        self.frequency.append(0)
        self.learned.append(1 if learned else 0)
        return cid

    def add_original(self, lits: List[int]) -> int:
        self._num_original += 1
        return self._push(lits, learned=False, glue=0)

    def add_learned(self, lits: List[int], glue: int) -> int:
        self._num_learned_live += 1
        return self._push(lits, learned=True, glue=glue)

    # -- addressing --------------------------------------------------------

    def size_of(self, cid: int) -> int:
        return self.data[self.offset[cid] - 1]

    def literals(self, cid: int) -> List[int]:
        off = self.offset[cid]
        return self.data[off : off + self.data[off - 1]]

    def view(self, cid: int) -> ArenaClauseView:
        return ArenaClauseView(self, cid)

    # -- activity ----------------------------------------------------------

    def bump_clause(self, cid: int) -> None:
        """Increase a learned clause's activity; rescale all on overflow.

        Invariant: only *learned* clauses are ever bumped — conflict analysis checks ``learned`` before
        calling — so rescaling only the learned activities is exhaustive.
        """
        if not self.learned[cid]:
            raise ValueError(
                f"bump_clause on original clause #{cid}: only learned "
                "clauses carry activity (rescale would miss originals)"
            )
        activity = self.activity
        activity[cid] += self.clause_inc
        self.used[cid] = 1
        if activity[cid] > 1e20:
            learned = self.learned
            for other in range(len(activity)):
                if learned[other]:
                    activity[other] *= 1e-20
            self.clause_inc *= 1e-20

    def decay_clause_activities(self) -> None:
        self.clause_inc /= self.clause_decay

    # -- deletion ----------------------------------------------------------

    def reducible_clauses(self) -> List[int]:
        """Ids of learned clauses that are candidates for deletion.

        Binary clauses are excluded (as in Kissat): they are watcher-only in the arena and are never deleted.
        """
        keep_glue = self.keep_glue
        glue = self.glue
        garbage = self.garbage
        learned = self.learned
        data = self.data
        offset = self.offset
        return [
            cid
            for cid in range(len(offset))
            if learned[cid]
            and not garbage[cid]
            and glue[cid] > keep_glue
            and data[offset[cid] - 1] > 2
        ]

    def mark_garbage(self, cid: int) -> None:
        if not self.garbage[cid]:
            self.garbage[cid] = 1
            if self.learned[cid]:
                self._num_learned_live -= 1

    def compact(self) -> Dict[int, int]:
        """Rebuild the arena without garbage blocks.

        Returns the ``{old_offset: new_offset}`` relocation map for the
        surviving clauses; watcher records are the only offset holders
        and must be rewritten with it
        (:meth:`ArenaWatchLists.relocate`).  Clause ids and all metadata
        arrays are untouched — garbage ids simply get offset -1.
        """
        data = self.data
        offset = self.offset
        garbage = self.garbage
        new_data: List[int] = []
        remap: Dict[int, int] = {}
        for cid, off in enumerate(offset):
            if off < 0:
                continue
            if garbage[cid]:
                offset[cid] = -1
                continue
            new_off = len(new_data) + HEADER_WORDS
            new_data.extend(data[off - HEADER_WORDS : off + data[off - 1]])
            remap[off] = new_off
            offset[cid] = new_off
        self.data = new_data
        return remap

    # -- inspection ----------------------------------------------------------

    def live_ids(self) -> List[int]:
        """All non-garbage clause ids, in insertion (= id) order."""
        garbage = self.garbage
        return [cid for cid in range(len(self.offset)) if not garbage[cid]]

    def live_learned_ids(self) -> List[int]:
        garbage = self.garbage
        learned = self.learned
        return [
            cid
            for cid in range(len(self.offset))
            if learned[cid] and not garbage[cid]
        ]

    @property
    def num_learned(self) -> int:
        return self._num_learned_live

    @property
    def num_original(self) -> int:
        return self._num_original

    def arena_words(self) -> int:
        """Current arena length in words (growth/realloc diagnostics)."""
        return len(self.data)

    def as_int32(self):
        """The arena as a numpy int32 array (copy).

        Verifies the int32 discipline the flat layout is designed
        around: every header word and literal fits in 32 bits, which is
        what the compiled conflict loop (:mod:`repro.solver.kernel`)
        stores the arena as.
        """
        import numpy as np

        out = np.asarray(self.data, dtype=np.int64)
        assert out.size == 0 or (
            out.min() >= -(2**31) and out.max() < 2**31
        ), "arena word outside int32 range"
        return out.astype(np.int32)


class ArenaTrail:
    """Assignment trail: values, decision levels, reasons, backtracking.

    The trail is the chronological record of all current assignments
    (``num_vars`` variables, 1-based).  Each variable stores the
    decision level it was assigned at and the *reason* that implied it:
    ``None`` for decisions, a clause id (>= 0) for implications from
    ternary/long clauses, and ``~other_lit`` (< 0) for implications from
    binary clauses.  Binary watchers carry no id, so the reason is
    reconstructed from the implication itself — the implied variable's
    true literal plus ``other_lit``, the binary clause's other (false)
    literal.

    Two representation choices serve the BCP hot path:

    * ``lit_values`` (per literal: TRUE/FALSE/UNASSIGNED) is the single
      source of truth — ``lit_values[var << 1]`` is the variable's
      value — sparing the propagator the ``>> 1`` / ``& 1`` / xor dance
      on every watcher visit and one list store per assignment;
    * :meth:`backtrack` resets only ``lit_values``.  ``levels`` and
      ``reasons`` go stale for unassigned variables, which is safe
      because every reader — conflict analysis, :meth:`reason_literals`,
      :meth:`is_reason`, reduction — checks assignment first.
    """

    def __init__(self, num_vars: int, arena: ClauseArena):
        self.num_vars = num_vars
        self.arena = arena
        n = num_vars + 1
        self.lit_values: List[int] = [UNASSIGNED] * (2 * n)
        self.levels: List[int] = [0] * n
        self.reasons: List[Optional[int]] = [None] * n
        self.trail: List[int] = []  # internal literals, assignment order
        self.trail_lim: List[int] = []  # trail index where each level starts
        self.qhead: int = 0  # propagation queue head into trail

    # -- queries ---------------------------------------------------------------

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    def value_var(self, var: int) -> int:
        return self.lit_values[var << 1]

    def value_lit(self, lit: int) -> int:
        """TRUE / FALSE / UNASSIGNED for an internal literal."""
        return self.lit_values[lit]

    def num_assigned(self) -> int:
        return len(self.trail)

    def all_assigned(self) -> bool:
        return len(self.trail) == self.num_vars

    def model(self) -> List[Optional[bool]]:
        """Current assignment as an optional-bool list indexed by variable."""
        out: List[Optional[bool]] = [None] * (self.num_vars + 1)
        lit_values = self.lit_values
        for var in range(1, self.num_vars + 1):
            v = lit_values[var << 1]
            if v == TRUE:
                out[var] = True
            elif v == FALSE:
                out[var] = False
        return out

    # -- mutation --------------------------------------------------------------

    def new_decision_level(self) -> None:
        self.trail_lim.append(len(self.trail))

    def assign(self, lit: int, reason: Optional[int]) -> None:
        """Record ``lit`` as true at the current decision level."""
        assert self.lit_values[lit] == UNASSIGNED, f"literal {lit} already set"
        var = lit >> 1
        self.lit_values[lit] = TRUE
        self.lit_values[lit ^ 1] = FALSE
        self.levels[var] = len(self.trail_lim)
        self.reasons[var] = reason
        self.trail.append(lit)

    def backtrack(self, level: int) -> List[int]:
        """Undo all assignments above ``level``; returns unassigned literals."""
        if level >= len(self.trail_lim):
            return []
        boundary = self.trail_lim[level]
        undone = self.trail[boundary:]
        lit_values = self.lit_values
        for lit in undone:
            lit_values[lit] = UNASSIGNED
            lit_values[lit ^ 1] = UNASSIGNED
        del self.trail[boundary:]
        del self.trail_lim[level:]
        if self.qhead > boundary:
            self.qhead = boundary
        return undone

    def reason_literals(self, var: int) -> List[int]:
        """Literals of the clause that implied ``var`` (any order)."""
        reason = self.reasons[var]
        if reason < 0:
            pos = var << 1
            lit = pos if self.lit_values[pos] == TRUE else pos | 1
            return [lit, ~reason]
        return self.arena.literals(reason)

    def is_reason(self, cid: int) -> bool:
        """True when clause ``cid`` currently implies some assigned variable."""
        arena = self.arena
        off = arena.offset[cid]
        if off < 0:
            return False
        data = arena.data
        lit_values = self.lit_values
        reasons = self.reasons
        for k in range(off, off + data[off - 1]):
            var = data[k] >> 1
            if lit_values[var << 1] != UNASSIGNED and reasons[var] == cid:
                return True
        return False


class ArenaWatchLists:
    """Per-literal watcher tables over the arena.

    Three tables, all flat int lists (no per-record allocation):

    * ``binary[lit]`` — the *other* literal of each binary clause
      containing ``lit``.  No clause reference at all: implication,
      conflict, and reason are all decided from the pair of literals.
    * ``ternary[lit]`` — ``[o1, o2, id]`` triples: the two other
      literals plus the clause id (needed as reason/conflict).  Ternary
      clauses are watched on *all three* literals and the records never
      change, so compaction costs them nothing.
    * ``watches[lit]`` — ``[blocker, offset]`` pairs for clauses of
      length >= 4: classic two-watched-literal records with a cached
      blocking literal, addressed by arena offset (``data[off-2]``
      recovers the id when needed).
    """

    def __init__(self, num_vars: int, arena: ClauseArena):
        n = 2 * (num_vars + 1)
        self.arena = arena
        self.binary: List[List[int]] = [[] for _ in range(n)]
        self.ternary: List[List[int]] = [[] for _ in range(n)]
        self.watches: List[List[int]] = [[] for _ in range(n)]
        # Live-clause counts per table.  The propagator hoists one
        # has-any flag per table per call, so a formula without (say)
        # long clauses never pays the long-table fetch on each dequeued
        # literal — the dominant overhead on binary-heavy instances.
        self.n_binary = 0
        self.n_ternary = 0
        self.n_long = 0

    def attach(self, cid: int) -> None:
        """Register watchers for a clause (length >= 2)."""
        arena = self.arena
        data = arena.data
        off = arena.offset[cid]
        size = data[off - 1]
        assert size >= 2, "unit/empty clauses are not watched"
        a = data[off]
        b = data[off + 1]
        if size == 2:
            self.binary[a].append(b)
            self.binary[b].append(a)
            self.n_binary += 1
        elif size == 3:
            c = data[off + 2]
            self.ternary[a] += (b, c, cid)
            self.ternary[b] += (a, c, cid)
            self.ternary[c] += (a, b, cid)
            self.n_ternary += 1
        else:
            self.watches[a] += (b, off)
            self.watches[b] += (a, off)
            self.n_long += 1

    def detach_garbage(self) -> None:
        """Drop garbage clauses from the ternary and long tables.

        Binary clauses are never garbage (reduce excludes them), so the
        binary table is left alone.  Must run *before*
        :meth:`ClauseArena.compact`: long records are identified through
        their still-valid offsets.
        """
        arena = self.arena
        garbage = arena.garbage
        data = arena.data
        ternary_records = 0
        for lst in self.ternary:
            kept = 0
            for i in range(0, len(lst), 3):
                if not garbage[lst[i + 2]]:
                    lst[kept] = lst[i]
                    lst[kept + 1] = lst[i + 1]
                    lst[kept + 2] = lst[i + 2]
                    kept += 3
            if kept != len(lst):
                del lst[kept:]
            ternary_records += kept
        long_records = 0
        for lst in self.watches:
            kept = 0
            for i in range(0, len(lst), 2):
                off = lst[i + 1]
                if not garbage[data[off - HEADER_WORDS]]:
                    lst[kept] = lst[i]
                    lst[kept + 1] = off
                    kept += 2
            if kept != len(lst):
                del lst[kept:]
            long_records += kept
        # Each ternary clause keeps 3 records (one per literal), each
        # long clause 2 (its watch pair); binary clauses are never swept.
        self.n_ternary = ternary_records // 9
        self.n_long = long_records // 4

    def relocate(self, remap: Dict[int, int]) -> None:
        """Rewrite long-watcher offsets after :meth:`ClauseArena.compact`.

        Only the long table holds offsets; binary/ternary records are
        offset-free by construction, which is most of why compaction is
        cheap.  Record order and cached blockers are preserved.
        """
        for lst in self.watches:
            for i in range(1, len(lst), 2):
                lst[i] = remap[lst[i]]

    def long_watch_ids(self, lit: int) -> List[int]:
        """Clause ids of long clauses currently watching ``lit``."""
        data = self.arena.data
        lst = self.watches[lit]
        return [data[lst[i + 1] - HEADER_WORDS] for i in range(0, len(lst), 2)]

    def ternary_watch_ids(self, lit: int) -> List[int]:
        lst = self.ternary[lit]
        return [lst[i + 2] for i in range(0, len(lst), 3)]

    def total_watches(self) -> int:
        return (
            sum(len(lst) for lst in self.binary)
            + sum(len(lst) // 3 for lst in self.ternary)
            + sum(len(lst) // 2 for lst in self.watches)
        )


class ArenaPropagator:
    """Unit propagation over the flat arena, with the paper's Eq. (2)
    per-variable propagation-frequency counters.

    Hot-path representation:

    * binary implications write ``~false_lit`` as the reason (no clause
      dereference, no record tuple at all);
    * ternary clauses are resolved from their immutable ``[o1, o2, id]``
      record — two literal-value loads decide skip/imply/conflict;
    * long clauses walk ``[blocker, offset]`` pairs strided directly in
      the watcher list and read literals straight out of the arena;
    * the max-frequency is *not* maintained per bump: reductions are
      rare, so :meth:`max_frequency` computes it on demand instead of
      taxing every propagation with a compare.

    Contract: no garbage clauses in any watch table when ``propagate``
    runs.
    """

    def __init__(
        self,
        trail: ArenaTrail,
        watches: ArenaWatchLists,
        stats: SolverStatistics,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.trail = trail
        self.watches = watches
        self.arena = watches.arena
        self.stats = stats
        self.frequency: List[int] = [0] * (trail.num_vars + 1)
        self._lifetime_base: List[int] = [0] * (trail.num_vars + 1)
        if metrics is not None and metrics.enabled:
            self._batch_hist = metrics.histogram("bcp.batch_size", BATCH_BUCKETS)
        else:
            self._batch_hist = None

    @property
    def lifetime_frequency(self) -> List[int]:
        """Lifetime propagation counters, never reset (Figure 3 input)."""
        return [
            base + live
            for base, live in zip(self._lifetime_base, self.frequency)
        ]

    def reset_frequencies(self) -> None:
        """Called at every clause-deletion round ("since the last deletion")."""
        base = self._lifetime_base
        for var, count in enumerate(self.frequency):
            if count:
                base[var] += count
        self.frequency[:] = [0] * len(self.frequency)

    def max_frequency(self) -> int:
        """Largest per-variable counter, computed on demand (per-reduce O(n))."""
        return max(self.frequency)

    def bump_frequency(self, var: int, count: int = 1) -> None:
        """Externally credit ``var`` with propagations (tests, replay tools)."""
        self.frequency[var] += count

    def propagate(self) -> Optional[Conflict]:
        """Propagate all queued assignments.

        Returns ``None``, a conflicting clause id, or an
        ``(other, false_lit)`` pair for a conflicting binary clause.
        """
        trail = self.trail
        lit_values = trail.lit_values
        levels = trail.levels
        reasons = trail.reasons
        trail_list = trail.trail
        data = self.arena.data
        watches = self.watches.watches
        binary = self.watches.binary
        ternary = self.watches.ternary
        frequency = self.frequency
        level = len(trail.trail_lim)
        qhead = trail.qhead
        ntrail = len(trail_list)
        base = ntrail
        # Hoisted per call: a table with no clauses at all costs one
        # local bool test per dequeued literal instead of a list fetch.
        has_binary = self.watches.n_binary > 0
        has_ternary = self.watches.n_ternary > 0
        has_long = self.watches.n_long > 0

        while qhead < ntrail:
            lit = trail_list[qhead]
            qhead += 1
            false_lit = lit ^ 1

            # -- binary: the other literal alone decides everything.
            blist = binary[false_lit] if has_binary else None
            if blist:
                for other in blist:
                    v = lit_values[other]
                    if v > 0:
                        continue
                    if v == 0:
                        trail.qhead = ntrail
                        self._flush(ntrail - base)
                        return (other, false_lit)
                    var = other >> 1
                    lit_values[other] = 1
                    lit_values[other ^ 1] = 0
                    levels[var] = level
                    reasons[var] = ~false_lit
                    trail_list.append(other)
                    ntrail += 1
                    frequency[var] += 1

            # -- ternary: immutable [o1, o2, id] records, no relocation.
            # Index walk rather than zip(iter, iter, iter): the lists
            # are short, so iterator setup would dominate the scan.
            tlist = ternary[false_lit] if has_ternary else None
            if tlist:
                t = 0
                tn = len(tlist)
                while t < tn:
                    o1 = tlist[t]
                    v1 = lit_values[o1]
                    if v1 > 0:
                        t += 3
                        continue
                    o2 = tlist[t + 1]
                    v2 = lit_values[o2]
                    if v2 > 0:
                        t += 3
                        continue
                    if v1 == 0:
                        if v2 == 0:
                            trail.qhead = ntrail
                            self._flush(ntrail - base)
                            return tlist[t + 2]
                        var = o2 >> 1
                        lit_values[o2] = 1
                        lit_values[o2 ^ 1] = 0
                        levels[var] = level
                        reasons[var] = tlist[t + 2]
                        trail_list.append(o2)
                        ntrail += 1
                        frequency[var] += 1
                    elif v2 == 0:
                        var = o1 >> 1
                        lit_values[o1] = 1
                        lit_values[o1 ^ 1] = 0
                        levels[var] = level
                        reasons[var] = tlist[t + 2]
                        trail_list.append(o1)
                        ntrail += 1
                        frequency[var] += 1
                    # else: both unassigned — the clause cannot propagate.
                    t += 3

            # -- long clauses (>= 4 lits): [blocker, offset] pairs.
            #
            # Two-phase scan: phase 1 is write-free until the first
            # relocation leaves a two-slot hole; phase 2 compacts the
            # rest down over it.
            if not has_long:
                continue
            watchers = watches[false_lit]
            if not watchers:
                continue
            i = 0
            n = len(watchers)
            conflict = -1
            hole = -1
            while i < n:
                if lit_values[watchers[i]] > 0:
                    i += 2  # blocker true: clause satisfied, arena untouched
                    continue
                off = watchers[i + 1]
                first = data[off]
                if first == false_lit:
                    # Normalize: watched false literal at slot 1.
                    first = data[off + 1]
                    data[off] = first
                    data[off + 1] = false_lit
                v0 = lit_values[first]
                if v0 > 0:
                    watchers[i] = first  # other watch true: new blocker
                    i += 2
                    continue
                # Probe the third literal directly, then the tail.
                candidate = data[off + 2]
                if lit_values[candidate] != 0:
                    data[off + 1] = candidate
                    data[off + 2] = false_lit
                    wl = watches[candidate]
                    wl.append(first)
                    wl.append(off)
                    hole = i
                    i += 2
                    break
                moved = False
                for k in range(off + 3, off + data[off - 1]):
                    candidate = data[k]
                    if lit_values[candidate] != 0:
                        data[off + 1] = candidate
                        data[k] = false_lit
                        wl = watches[candidate]
                        wl.append(first)
                        wl.append(off)
                        moved = True
                        break
                if moved:
                    hole = i
                    i += 2
                    break
                # No replacement: unit or conflicting on ``first``.
                watchers[i] = first
                i += 2
                if v0 < 0:  # UNASSIGNED: implication
                    var = first >> 1
                    lit_values[first] = 1
                    lit_values[first ^ 1] = 0
                    levels[var] = level
                    reasons[var] = data[off - 2]
                    trail_list.append(first)
                    ntrail += 1
                    frequency[var] += 1
                else:
                    # Conflict; every record was kept so far.
                    trail.qhead = ntrail
                    self._flush(ntrail - base)
                    return data[off - 2]
            if hole < 0:
                continue  # phase 1 kept everything: list untouched
            j = hole
            while i < n:
                blocker = watchers[i]
                off = watchers[i + 1]
                i += 2
                if lit_values[blocker] > 0:
                    watchers[j] = blocker
                    watchers[j + 1] = off
                    j += 2
                    continue
                first = data[off]
                if first == false_lit:
                    first = data[off + 1]
                    data[off] = first
                    data[off + 1] = false_lit
                v0 = lit_values[first]
                if v0 > 0:
                    watchers[j] = first
                    watchers[j + 1] = off
                    j += 2
                    continue
                candidate = data[off + 2]
                if lit_values[candidate] != 0:
                    data[off + 1] = candidate
                    data[off + 2] = false_lit
                    wl = watches[candidate]
                    wl.append(first)
                    wl.append(off)
                    continue
                moved = False
                for k in range(off + 3, off + data[off - 1]):
                    candidate = data[k]
                    if lit_values[candidate] != 0:
                        data[off + 1] = candidate
                        data[k] = false_lit
                        wl = watches[candidate]
                        wl.append(first)
                        wl.append(off)
                        moved = True
                        break
                if moved:
                    continue
                watchers[j] = first
                watchers[j + 1] = off
                j += 2
                if v0 < 0:  # UNASSIGNED: implication
                    var = first >> 1
                    lit_values[first] = 1
                    lit_values[first ^ 1] = 0
                    levels[var] = level
                    reasons[var] = data[off - 2]
                    trail_list.append(first)
                    ntrail += 1
                    frequency[var] += 1
                else:
                    # Conflict: keep the remaining records, then bail out.
                    while i < n:
                        watchers[j] = watchers[i]
                        watchers[j + 1] = watchers[i + 1]
                        j += 2
                        i += 2
                    conflict = data[off - 2]
            del watchers[j:]
            if conflict >= 0:
                trail.qhead = ntrail
                self._flush(ntrail - base)
                return conflict

        trail.qhead = qhead
        self._flush(ntrail - base)
        return None

    def _flush(self, propagated: int) -> None:
        """Write loop-local counters back to shared state."""
        self.stats.propagations += propagated
        self.stats.bcp_rounds += 1
        if self._batch_hist is not None:
            self._batch_hist.observe(propagated)


class ArenaConflictAnalyzer:
    """1-UIP conflict analysis over clause-id reasons.

    First-UIP learning with recursive-lite minimization, glue (LBD) and
    backjump-level computation.  Reads literals straight from the arena
    and resolves the three reason encodings (``None`` / id / ``~other_lit``).  The implied literal is
    skipped by variable comparison instead of relying on slot-0
    normalization — ternary clauses are never normalized in the arena.
    """

    def __init__(
        self,
        trail: ArenaTrail,
        arena: ClauseArena,
        stats: SolverStatistics,
        bump_variable: Callable[[int], None],
    ):
        self.trail = trail
        self.clause_db = arena
        self.arena = arena
        self.stats = stats
        self.bump_variable = bump_variable
        self._seen: List[bool] = [False] * (trail.num_vars + 1)

    def analyze(self, conflict: Conflict) -> Tuple[List[int], int, int]:
        """Analyze a conflict at decision level > 0.

        Returns ``(learned_lits, backjump_level, glue)`` where
        ``learned_lits[0]`` is the asserting (1-UIP) literal.
        """
        trail = self.trail
        arena = self.arena
        data = arena.data
        offset = arena.offset
        learned_flags = arena.learned
        seen = self._seen
        levels = trail.levels
        trail_list = trail.trail
        reasons = trail.reasons
        bump_variable = self.bump_variable
        current_level = trail.decision_level
        assert current_level > 0, "conflict at level 0 is final UNSAT"

        learned: List[int] = [0]  # placeholder for the asserting literal
        counter = 0  # unresolved literals at the current level
        index = len(trail_list) - 1
        asserting_lit = -1
        touched: List[int] = []

        if type(conflict) is tuple:
            lits: Tuple[int, ...] = conflict
        else:
            if learned_flags[conflict]:
                arena.bump_clause(conflict)
            off = offset[conflict]
            lits = tuple(data[off : off + data[off - 1]])
        skip_var = -1  # conflict: resolve over every literal

        while True:
            for lit in lits:
                var = lit >> 1
                if var == skip_var:
                    continue
                level = levels[var]
                if seen[var] or level == 0:
                    continue
                seen[var] = True
                touched.append(var)
                bump_variable(var)
                if level == current_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Find the next seen literal on the trail (current level).
            while not seen[trail_list[index] >> 1]:
                index -= 1
            asserting_lit = trail_list[index]
            var = asserting_lit >> 1
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            reason = reasons[var]
            assert reason is not None, "reached a decision while resolving"
            if reason < 0:
                # Binary reason: resolving removes var, adds the other lit.
                lits = (~reason,)
                skip_var = -1
            else:
                if learned_flags[reason]:
                    arena.bump_clause(reason)
                off = offset[reason]
                lits = tuple(data[off : off + data[off - 1]])
                skip_var = var

        learned[0] = asserting_lit ^ 1

        # -- recursive-lite minimization ----------------------------------
        before = len(learned)
        learned = self._minimize(learned)
        self.stats.minimized_literals += before - len(learned)

        # -- glue (LBD): distinct decision levels in the learned clause ----
        glue = len({levels[lit >> 1] for lit in learned})

        # -- backjump level: second-highest level in the clause -------------
        if len(learned) == 1:
            backjump = 0
        else:
            max_i = 1
            max_level = levels[learned[1] >> 1]
            for i in range(2, len(learned)):
                lvl = levels[learned[i] >> 1]
                if lvl > max_level:
                    max_level = lvl
                    max_i = i
            learned[1], learned[max_i] = learned[max_i], learned[1]
            backjump = max_level

        for var in touched:
            seen[var] = False
        return learned, backjump, glue

    def _minimize(self, learned: List[int]) -> List[int]:
        """Drop literals whose reasons are subsumed by the clause itself."""
        trail = self.trail
        arena = self.arena
        data = arena.data
        offset = arena.offset
        seen = self._seen
        levels = trail.levels
        reasons = trail.reasons
        kept = [learned[0]]
        for lit in learned[1:]:
            var = lit >> 1
            reason = reasons[var]
            if reason is None:
                kept.append(lit)
                continue
            removable = True
            if reason < 0:
                ovar = (~reason) >> 1
                if not seen[ovar] and levels[ovar] > 0:
                    removable = False
            else:
                off = offset[reason]
                for k in range(off, off + data[off - 1]):
                    ovar = data[k] >> 1
                    if ovar == var:
                        continue
                    if not seen[ovar] and levels[ovar] > 0:
                        removable = False
                        break
            if removable:
                seen[var] = False
            else:
                kept.append(lit)
        return kept
