"""The compiled conflict loop: build, load, and the Python/C state boundary.

``_kernel.c`` transliterates :meth:`Solver._solve`'s inner CDCL loop --
propagate, 1-UIP analysis with minimization, the VSIDS bump and lazy
heap, backtrack with phase saving, learned-clause install, decisions
(assumptions first), Luby restarts and the budget checks -- statement
for statement, so a solve makes the same decisions, propagations,
learned clauses, restarts and reductions on either engine.  Reduce and
policy scoring, DRAT emission, observer events, ``analyzeFinal`` and
the model check stay in Python.

The kernel is a cffi API-mode extension compiled with the system C
compiler the first time a :class:`~repro.solver.solver.Solver` needs it
(or by ``make kernel``).  Its module name embeds a hash of the C source,
the declarations and the flags, so a stale build is never loaded; the
build runs in a temporary directory and is moved into place with
``os.replace``, so concurrent first uses (service workers, parallel
test runs) are safe.  It lands in ``_build/`` next to this file, or in
``~/.cache/repro`` when the package directory is read-only.  When cffi,
a compiler or the Python headers are missing, or the build fails, the
solver silently keeps its pure-Python loop; :func:`engine_info` says
which engine runs and why.

The same extension carries ``k_message_sum``, the gather-weight-scatter
loop of one message-passing round, which
:meth:`repro.nn.tensor.Tensor.message_sum` reaches through :func:`load`
(numpy computes the same bits when it returns None).

A :class:`KernelEngine` owns one solver's C-side state for the solver's
lifetime.  C owns it from construction: :meth:`~KernelEngine.ingest`
loads the formula's clauses with ``k_ingest`` straight from the
:class:`~repro.cnf.formula.CNF`'s int32 literal and int64 offset
arrays, so the Python arena, trail and watch tables stay empty until
something reads them.  From then on ownership flips lazily: the engine
pulls C back into the *same* Python objects
(:meth:`~KernelEngine.expose`) only when Python code reads them -- a
reduce, the solver's public ``trail`` / ``watches`` / ``clause_db`` /
``decider`` / ``propagator`` / ``restarts`` attributes -- and pushes
them into C again (:meth:`~KernelEngine.acquire`) before the next C
operation.  Between those points only deltas cross the boundary:
clauses added through ``add_clause`` go in; statistics, learned
clauses (for the proof and the glue histogram), BCP batch sizes and
the model come out, and a failed assumption copies the arena and trail
out for ``analyzeFinal`` without giving up C's ownership.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile
import threading
from pathlib import Path
from typing import List, Optional, Tuple

#: Test seam: when True every new Solver runs the pure-Python loop.
_FORCE_PYTHON = False

_SOURCE = Path(__file__).with_name("_kernel.c")

#: The declarations cffi compiles against; ``...;`` lets the compiler
#: lay out the rest of the struct.
_CDEF = """
typedef struct { int *a; int n; ...; } ivec;
typedef struct {
    int num_vars;
    int nlits;
    int *data;
    int data_len;
    int n_clauses;
    int *offset, *glue, *used, *garbage, *learned;
    double *cact;
    double clause_inc, clause_decay;
    int num_learned_live, num_original;
    int8_t *vals;
    int *levels, *reasons, *trail, *trail_lim;
    int trail_len, n_lim, qhead;
    int n_binary, n_ternary, n_long;
    int64_t *frequency;
    double *activity;
    int8_t *phase;
    double var_inc, var_decay;
    double *hkey;
    int *hvar;
    int heap_len;
    int64_t luby_base, luby_index, luby_limit, luby_conflicts;
    int64_t decisions, propagations, conflicts, restarts, learned_clauses,
        learned_literals, minimized_literals, max_trail, glue_sum, bcp_rounds;
    int log_learned, log_batches;
    ivec learn_log, batch_log;
    ...;
} kstate;

kstate *k_new(int num_vars);
void k_free(kstate *k);
int k_reserve(kstate *k, int ndata, int nclauses, int nheap);
int k_load_watches(kstate *k, int table, const int *starts, const int *flat);
int k_watch_total(kstate *k, int table);
void k_dump_watches(kstate *k, int table, int *starts, int *flat);
int k_add_clause(kstate *k, const int *lits, int size);
int k_ingest(kstate *k, const int *lits, const int64_t *offsets, int n_clauses,
             const uint8_t *tautology);
void k_assign(kstate *k, int lit);
int k_backtrack(kstate *k, int level);
int k_propagate(kstate *k);
int k_run(kstate *k, int phase, const int *assumed, int nassumed,
          int64_t max_conflicts, int64_t max_propagations,
          int64_t max_decisions, int64_t reduce_limit, int stop_on_restart);
int k_message_sum(const double *x, int64_t num_sources, int64_t width,
                  const int64_t *source, const int64_t *target,
                  const double *weight, int64_t num_edges,
                  double *out, int64_t num_targets);
"""

#: -O2 without -ffast-math, and no FMA contraction: doubles must round
#: exactly like Python floats for the VSIDS and clause activities.
_CFLAGS = ("-O2", "-fPIC", "-shared", "-fno-strict-aliasing", "-ffp-contract=off")
_COMPILERS = ("gcc", "cc")
_BUILD_TIMEOUT = 300.0

# k_run entry phases and exit codes (mirrors the enums in _kernel.c).
START, LOOP, AFTER_REDUCE = 0, 1, 2
UNKNOWN, REDUCE, RESTART, FAILED, SAT, UNSAT = 0, 1, 2, 3, 10, 20
_NO_REASON = -(2**31)
_INT64_MAX = 2**63 - 1

#: SolverStatistics fields the C loop advances.
_STATS = (
    "decisions", "propagations", "conflicts", "restarts", "learned_clauses",
    "learned_literals", "minimized_literals", "max_trail", "glue_sum",
    "bcp_rounds",
)

_lock = threading.Lock()
#: ``(module, "")`` once loaded, ``(None, reason)`` once given up.
_state: Optional[Tuple[object, str]] = None


# ---------------------------------------------------------------------------
# build and load
# ---------------------------------------------------------------------------


def module_name() -> str:
    """Extension module name: a hash of everything the binary depends on."""
    digest = hashlib.sha256()
    for part in (_CDEF, _SOURCE.read_text(encoding="utf-8"), " ".join(_CFLAGS)):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return "_cdcl_kernel_" + digest.hexdigest()[:16]


def _build_dirs() -> List[Path]:
    """Where a build may live, in lookup order.  ``_build`` is not a
    package, so module walkers never import the binary by accident."""
    return [_SOURCE.parent / "_build", Path.home() / ".cache" / "repro"]


def _writable(directory: Path) -> bool:
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError:
        return False
    return os.access(directory, os.W_OK)


def _import(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compile(name: str, directory: Path) -> Tuple[Optional[Path], str]:
    """Build the extension into ``directory``; ``(path, "")`` or ``(None, reason)``."""
    compiler = next(filter(None, map(shutil.which, _COMPILERS)), None)
    if compiler is None:
        return None, "no C compiler on PATH"
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        return None, f"Python headers not found in {include}"
    try:
        import cffi
        from cffi.recompiler import recompile
    except ImportError:
        return None, "cffi not importable"

    ffibuilder = cffi.FFI()
    ffibuilder.cdef(_CDEF)
    target = directory / (name + sysconfig.get_config_var("EXT_SUFFIX"))
    with tempfile.TemporaryDirectory(dir=directory, prefix=".kernel-build-") as tmp:
        c_file = os.path.join(tmp, name + ".c")
        built = os.path.join(tmp, target.name)
        # ffi.emit_c_code, minus its "generating ..." line on stdout.
        recompile(
            ffibuilder,
            name,
            _SOURCE.read_text(encoding="utf-8"),
            c_file=c_file,
            call_c_compiler=False,
            uses_ffiplatform=False,
            compiler_verbose=False,
        )
        try:
            proc = subprocess.run(
                [compiler, *_CFLAGS, "-I", include, c_file, "-o", built],
                capture_output=True,
                text=True,
                timeout=_BUILD_TIMEOUT,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            return None, f"compiler failed to run: {exc}"
        if proc.returncode != 0:
            lines = [line for line in proc.stderr.splitlines() if line.strip()]
            errors = [line for line in lines if "error" in line] or lines
            first = errors[0] if errors else f"exit status {proc.returncode}"
            return None, f"compile failed: {first}"
        os.replace(built, target)
    return target, ""


def _load() -> Tuple[object, str]:
    try:
        import _cffi_backend  # noqa: F401  (every built kernel imports it)
    except ImportError:
        return None, "cffi not importable"
    name = module_name()
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    dirs = _build_dirs()
    for directory in dirs:
        path = directory / (name + suffix)
        if path.exists():
            try:
                return _import(name, path), ""
            except ImportError:
                continue  # a broken file: rebuild below
    writable = [directory for directory in dirs if _writable(directory)]
    if not writable:
        return None, "no writable build directory"
    path, reason = _compile(name, writable[0])
    if path is None:
        return None, reason
    try:
        return _import(name, path), ""
    except ImportError as exc:
        return None, f"built kernel failed to load: {exc}"


def load():
    """The compiled kernel module, building it on first use; None when
    unavailable (see :func:`engine_info` for why).  Never prints."""
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                _state = _load()
    return _state[0]


def engine_info() -> Tuple[str, str]:
    """``(engine, reason)``: ``("c", "")`` when new solvers run the
    compiled loop, else ``("python", why)``."""
    if _FORCE_PYTHON:
        return "python", "kernel disabled"
    module = load()
    if module is None:
        return "python", _state[1]
    return "c", ""


def new_engine(solver) -> Optional["KernelEngine"]:
    """A kernel engine for ``solver``'s objects, or None (Python loop)."""
    if _FORCE_PYTHON:
        return None
    module = load()
    if module is None:
        return None
    return KernelEngine(module, solver)


# ---------------------------------------------------------------------------
# the boundary
# ---------------------------------------------------------------------------


def _unpack(ffi, pointer, length: int) -> list:
    """``ffi.unpack`` that accepts a never-allocated (NULL) empty buffer."""
    return ffi.unpack(pointer, length) if length else []


def _budget(value: Optional[int]) -> int:
    """A Python budget as an int64 (None: never reached)."""
    if value is None:
        return _INT64_MAX
    return max(-1, min(int(value), _INT64_MAX))


class KernelEngine:
    """One solver's state in C, synced with its Python objects on demand.

    Holds the solver's component objects (never the solver itself), and
    writes pulls into those same objects so every reference to them --
    the reducer's, the analyzer's, a caller's -- stays valid.
    """

    def __init__(self, module, solver):
        self._ffi = module.ffi
        self._lib = module.lib
        k = self._lib.k_new(solver.num_vars)
        if k == self._ffi.NULL:
            raise MemoryError("kernel state allocation failed")
        self._k = self._ffi.gc(k, self._lib.k_free)
        self._arena = solver._clause_db
        self._trail = solver._trail
        self._watches = solver._watches
        self._propagator = solver._propagator
        self._decider = solver._decider
        self._restarts = solver._restarts
        self._stats = solver.stats
        self._proof = solver.proof
        self._glue_hist = solver._glue_hist
        self._batch_hist = solver._propagator._batch_hist
        k.log_learned = int(self._proof is not None or self._glue_hist is not None)
        k.log_batches = int(self._batch_hist is not None)
        #: True while C holds the current state (Python objects stale).
        self.c_owns = False

    # -- ownership -----------------------------------------------------

    def acquire(self) -> None:
        """Make C current: push every Python object (a no-op when C owns)."""
        if self.c_owns:
            return
        k, ffi, lib = self._k, self._ffi, self._lib
        arena, trail, decider = self._arena, self._trail, self._decider
        n_clauses = len(arena.offset)
        heap = decider._heap
        if lib.k_reserve(k, len(arena.data), n_clauses, len(heap)):
            raise MemoryError("kernel arena allocation failed")
        k.data[0 : len(arena.data)] = arena.data
        k.data_len = len(arena.data)
        k.offset[0:n_clauses] = arena.offset
        k.glue[0:n_clauses] = arena.glue
        k.used[0:n_clauses] = arena.used
        k.garbage[0:n_clauses] = arena.garbage
        k.learned[0:n_clauses] = arena.learned
        k.cact[0:n_clauses] = arena.activity
        k.n_clauses = n_clauses
        k.num_learned_live = arena._num_learned_live
        k.num_original = arena._num_original

        n = trail.num_vars + 1
        k.vals[0 : 2 * n] = trail.lit_values
        k.levels[0:n] = trail.levels
        k.reasons[0:n] = [
            _NO_REASON if reason is None else reason for reason in trail.reasons
        ]
        k.trail[0 : len(trail.trail)] = trail.trail
        k.trail_len = len(trail.trail)
        k.trail_lim[0 : len(trail.trail_lim)] = trail.trail_lim
        k.n_lim = len(trail.trail_lim)
        k.qhead = trail.qhead

        watches = self._watches
        for table, lists in enumerate(
            (watches.binary, watches.ternary, watches.watches)
        ):
            starts = [0]
            flat: List[int] = []
            for lst in lists:
                flat += lst
                starts.append(len(flat))
            if lib.k_load_watches(
                k, table, ffi.new("int[]", starts), ffi.new("int[]", flat)
            ):
                raise MemoryError("kernel watch allocation failed")
        k.n_binary = watches.n_binary
        k.n_ternary = watches.n_ternary
        k.n_long = watches.n_long

        k.frequency[0:n] = self._propagator.frequency
        k.activity[0:n] = decider.activity
        k.phase[0:n] = decider.saved_phase
        k.hkey[0 : len(heap)] = [key for key, _ in heap]
        k.hvar[0 : len(heap)] = [var for _, var in heap]
        k.heap_len = len(heap)
        self._push_scalars()
        self.c_owns = True

    def ingest(self, cnf) -> bool:
        """Load ``cnf``'s clauses into the fresh C state straight from its
        flat arrays (``k_ingest``, the solver's ``_ingest_clauses`` in C);
        C owns the state from here on.  True when the formula is
        inconsistent: an empty clause or clashing units."""
        ffi = self._ffi
        self._push_scalars()
        code = self._lib.k_ingest(
            self._k,
            ffi.from_buffer("int[]", cnf.lits),
            ffi.from_buffer("int64_t[]", cnf.offsets),
            cnf.num_clauses,
            ffi.from_buffer("uint8_t[]", cnf.tautology),
        )
        if code == -1:
            raise MemoryError("kernel arena allocation failed")
        if code < 0:
            raise ValueError("clause literal outside the formula's variables")
        self.c_owns = True
        return code == 1

    def _push_scalars(self) -> None:
        """The activity increments and decays and the Luby state."""
        k, arena, decider = self._k, self._arena, self._decider
        k.clause_inc = arena.clause_inc
        k.clause_decay = arena.clause_decay
        k.var_inc = decider.var_inc
        k.var_decay = decider.decay
        restarts = self._restarts
        k.luby_base = restarts.base
        k.luby_index = restarts._index
        k.luby_limit = restarts._limit
        k.luby_conflicts = restarts._conflicts

    def expose(self) -> None:
        """Make the Python objects current (a no-op unless C owns);
        afterwards Python owns, so callers may also mutate them."""
        if not self.c_owns:
            return
        self.peek_trail()
        k, ffi, lib = self._k, self._ffi, self._lib
        watches = self._watches
        nlits = k.nlits
        for table, lists in enumerate(
            (watches.binary, watches.ternary, watches.watches)
        ):
            starts = ffi.new("int[]", nlits + 1)
            flat = ffi.new("int[]", lib.k_watch_total(k, table))
            lib.k_dump_watches(k, table, starts, flat)
            bounds = _unpack(ffi, starts, nlits + 1)
            words = _unpack(ffi, flat, bounds[-1])
            for lit, lst in enumerate(lists):
                lst[:] = words[bounds[lit] : bounds[lit + 1]]
        watches.n_binary = k.n_binary
        watches.n_ternary = k.n_ternary
        watches.n_long = k.n_long

        n = k.num_vars + 1
        self._propagator.frequency[:] = _unpack(ffi, k.frequency, n)
        decider = self._decider
        decider.activity[:] = _unpack(ffi, k.activity, n)
        decider.saved_phase[:] = [bool(p) for p in _unpack(ffi, k.phase, n)]
        decider.var_inc = k.var_inc
        decider._heap = list(
            zip(_unpack(ffi, k.hkey, k.heap_len), _unpack(ffi, k.hvar, k.heap_len))
        )
        restarts = self._restarts
        restarts._index = k.luby_index
        restarts._limit = k.luby_limit
        restarts._conflicts = k.luby_conflicts
        self.c_owns = False

    def peek_trail(self) -> None:
        """Copy the arena and trail out for reading; C keeps ownership."""
        if not self.c_owns:
            return
        k, ffi = self._k, self._ffi
        arena = self._arena
        n_clauses = k.n_clauses
        arena.data = _unpack(ffi, k.data, k.data_len)
        arena.offset[:] = _unpack(ffi, k.offset, n_clauses)
        arena.glue[:] = _unpack(ffi, k.glue, n_clauses)
        arena.used[:] = _unpack(ffi, k.used, n_clauses)
        arena.garbage[:] = _unpack(ffi, k.garbage, n_clauses)
        arena.learned[:] = _unpack(ffi, k.learned, n_clauses)
        arena.activity[:] = _unpack(ffi, k.cact, n_clauses)
        # Per-clause Eq. (2) caches are policy-written in Python only.
        arena.frequency.extend([0] * (n_clauses - len(arena.frequency)))
        arena.clause_inc = k.clause_inc
        arena._num_learned_live = k.num_learned_live
        arena._num_original = k.num_original

        trail = self._trail
        n = k.num_vars + 1
        trail.lit_values[:] = _unpack(ffi, k.vals, 2 * n)
        trail.levels[:] = _unpack(ffi, k.levels, n)
        trail.reasons[:] = [
            None if reason == _NO_REASON else reason
            for reason in _unpack(ffi, k.reasons, n)
        ]
        trail.trail[:] = _unpack(ffi, k.trail, k.trail_len)
        trail.trail_lim[:] = _unpack(ffi, k.trail_lim, k.n_lim)
        trail.qhead = k.qhead

    # -- operations on C-owned state -------------------------------------

    def value(self, lit: int) -> int:
        return self._k.vals[lit]

    def backtrack(self, level: int) -> None:
        if self._lib.k_backtrack(self._k, level):
            raise MemoryError("kernel heap allocation failed")

    def add_original(self, lits: List[int]) -> None:
        if self._lib.k_add_clause(self._k, lits, len(lits)) < 0:
            raise MemoryError("kernel arena allocation failed")

    def assign_and_propagate(self, lit: int) -> bool:
        """Assign a level-0 unit and propagate; True on a conflict."""
        k = self._k
        self._lib.k_assign(k, lit)
        self._push_stats()
        conflict = self._lib.k_propagate(k)
        self._after_call()
        if conflict < 0:
            raise MemoryError("kernel watch allocation failed")
        return conflict == 1

    def run(
        self,
        phase: int,
        assumed: List[int],
        max_conflicts: Optional[int],
        max_propagations: Optional[int],
        max_decisions: Optional[int],
        reduce_limit: int,
        stop_on_restart: bool,
    ) -> int:
        """One ``k_run`` call; returns its exit code."""
        self.acquire()
        self._push_stats()
        code = self._lib.k_run(
            self._k,
            phase,
            assumed,
            len(assumed),
            _budget(max_conflicts),
            _budget(max_propagations),
            _budget(max_decisions),
            _budget(reduce_limit),
            int(stop_on_restart),
        )
        self._after_call()
        if code == -1:
            raise MemoryError("kernel allocation failed mid-search")
        if code < 0:
            raise RuntimeError("internal error: kernel resolved over a decision")
        return code

    def model(self) -> List[Optional[bool]]:
        """The assignment as an optional-bool list indexed by variable
        (:meth:`ArenaTrail.model` over the C-owned trail)."""
        k = self._k
        values = _unpack(self._ffi, k.vals, k.nlits)
        out: List[Optional[bool]] = [None] * (k.num_vars + 1)
        for var in range(1, k.num_vars + 1):
            v = values[var << 1]
            if v >= 0:
                out[var] = v == 1
        return out

    # -- deltas out ----------------------------------------------------

    def _push_stats(self) -> None:
        k, stats = self._k, self._stats
        for name in _STATS:
            setattr(k, name, getattr(stats, name))

    def _after_call(self) -> None:
        """Copy counters out and drain the learned-clause and batch logs."""
        k, stats, ffi = self._k, self._stats, self._ffi
        for name in _STATS:
            setattr(stats, name, getattr(k, name))
        log = k.learn_log
        if log.n:
            words = _unpack(ffi, log.a, log.n)
            log.n = 0
            glue_hist, proof = self._glue_hist, self._proof
            i = 0
            while i < len(words):
                glue, size = words[i], words[i + 1]
                i += 2
                if glue_hist is not None:
                    glue_hist.observe(glue)
                if proof is not None:
                    proof.add_clause(words[i : i + size])
                i += size
        log = k.batch_log
        if log.n:
            observe = self._batch_hist.observe
            for size in _unpack(ffi, log.a, log.n):
                observe(size)
            log.n = 0
