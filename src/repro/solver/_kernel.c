/* The compiled CDCL conflict loop (see repro/solver/kernel.py).
 *
 * A transliteration of Solver._solve's Python loop over flat buffers:
 * ArenaPropagator.propagate (binary / ternary / long watch tables and
 * the Eq. (2) per-variable counters), ArenaConflictAnalyzer.analyze
 * (1-UIP, minimization, glue, backjump swap), Decider (EVSIDS bump,
 * CPython heapq over (-activity, var) pairs with stale duplicates),
 * backtracking with phase saving and requeue, learned-clause install,
 * assumption-first decisions, Luby restarts and the budget checks.
 * Every step mirrors the Python code statement for statement, so the
 * search -- decisions, propagations, learned clauses, restarts and
 * reductions -- is bit-identical; build with -O2 and neither
 * -ffast-math nor FMA contraction so doubles round like Python floats.
 *
 * Encodings match the Python objects: literal values are 1 / 0 / -1
 * (TRUE / FALSE / UNASSIGNED), a reason is a clause id (>= 0),
 * ~other_lit (< 0) for a binary implication, or NO_REASON for a
 * decision or level-0 unit (Python's None).
 *
 * The state never calls back into Python and holds no Python object,
 * so cffi runs every entry point with the interpreter lock released.
 *
 * The same extension carries the one loop the neural models need in C,
 * the message-passing sum k_message_sum (at the end), so the package
 * keeps a single compiled module, build and hash.
 */

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define NO_REASON INT_MIN

enum { T_BINARY = 0, T_TERNARY = 1, T_LONG = 2 };
enum { P_START = 0, P_LOOP = 1, P_AFTER_REDUCE = 2 };
enum {
    K_UNKNOWN = 0, K_REDUCE = 1, K_RESTART = 2, K_FAILED = 3,
    K_SAT = 10, K_UNSAT = 20, K_NOMEM = -1, K_CORRUPT = -2
};

typedef struct {
    int *a;
    int n;
    int cap;
} ivec;

typedef struct {
    int num_vars;
    int nlits;
    int oom;
    /* -- arena: [id, size, lits...] blocks plus id-indexed metadata */
    int *data;
    int data_len, data_cap;
    int n_clauses, clause_cap;
    int *offset, *glue, *used, *garbage, *learned;
    double *cact;
    double clause_inc, clause_decay;
    int num_learned_live, num_original;
    /* -- trail */
    int8_t *vals;
    int *levels, *reasons, *trail, *trail_lim;
    int trail_len, n_lim, qhead;
    /* -- watch tables, one vector per literal */
    ivec *tables[3];
    int n_binary, n_ternary, n_long;
    /* -- Eq. (2) counters since the last reduction */
    int64_t *frequency;
    /* -- EVSIDS with saved phases */
    double *activity;
    int8_t *phase;
    double var_inc, var_decay;
    double *hkey;
    int *hvar;
    int heap_len, heap_cap;
    /* -- Luby restarts */
    int64_t luby_base, luby_index, luby_limit, luby_conflicts;
    /* -- SolverStatistics counters the loop advances */
    int64_t decisions, propagations, conflicts, restarts, learned_clauses,
        learned_literals, minimized_literals, max_trail, glue_sum, bcp_rounds;
    /* -- the last conflict: a clause id, or (cid < 0) a binary pair */
    int conflict_cid, conflict_a, conflict_b;
    /* -- analysis scratch */
    int8_t *seen;
    int *touched, *learnt, *stamp;
    int stamp_gen;
    /* -- logs drained by Python: [glue, size, lits...] per learned
     * clause, and the batch size of every propagate call */
    int log_learned, log_batches;
    ivec learn_log, batch_log;
} kstate;

/* ------------------------------------------------------------------ */
/* allocation                                                          */
/* ------------------------------------------------------------------ */

static int resize(void **p, int cap, size_t width)
{
    void *q = realloc(*p, (size_t)cap * width);
    if (q == NULL)
        return -1;
    *p = q;
    return 0;
}

static int grown(int cap, int need)
{
    int cap2 = cap > 0 ? cap : 8;
    while (cap2 < need)
        cap2 = cap2 > INT_MAX / 2 ? need : cap2 * 2;
    return cap2;
}

static int grow(void **p, int *cap, int need, size_t width)
{
    if (need <= *cap)
        return 0;
    int cap2 = grown(*cap, need);
    void *q = realloc(*p, (size_t)cap2 * width);
    if (q == NULL)
        return -1;
    *p = q;
    *cap = cap2;
    return 0;
}

static inline void iv_push(kstate *k, ivec *v, int x)
{
    if (v->n == v->cap && grow((void **)&v->a, &v->cap, v->n + 1, sizeof(int))) {
        k->oom = 1;
        return;
    }
    v->a[v->n++] = x;
}

static inline void iv_push2(kstate *k, ivec *v, int x, int y)
{
    if (v->n + 2 > v->cap && grow((void **)&v->a, &v->cap, v->n + 2, sizeof(int))) {
        k->oom = 1;
        return;
    }
    v->a[v->n++] = x;
    v->a[v->n++] = y;
}

static inline void iv_push3(kstate *k, ivec *v, int x, int y, int z)
{
    if (v->n + 3 > v->cap && grow((void **)&v->a, &v->cap, v->n + 3, sizeof(int))) {
        k->oom = 1;
        return;
    }
    v->a[v->n++] = x;
    v->a[v->n++] = y;
    v->a[v->n++] = z;
}

/* Room for ``ndata`` arena words, ``nclauses`` clause ids and ``nheap``
 * heap entries (a bulk load from Python, or growth mid-search). */
int k_reserve(kstate *k, int ndata, int nclauses, int nheap)
{
    if (grow((void **)&k->data, &k->data_cap, ndata, sizeof(int)))
        return -1;
    if (nclauses > k->clause_cap) {
        int cap = grown(k->clause_cap, nclauses);
        if (resize((void **)&k->offset, cap, sizeof(int))
            || resize((void **)&k->glue, cap, sizeof(int))
            || resize((void **)&k->used, cap, sizeof(int))
            || resize((void **)&k->garbage, cap, sizeof(int))
            || resize((void **)&k->learned, cap, sizeof(int))
            || resize((void **)&k->cact, cap, sizeof(double)))
            return -1;
        k->clause_cap = cap;
    }
    if (nheap > k->heap_cap) {
        int cap = grown(k->heap_cap, nheap);
        if (resize((void **)&k->hkey, cap, sizeof(double))
            || resize((void **)&k->hvar, cap, sizeof(int)))
            return -1;
        k->heap_cap = cap;
    }
    return 0;
}

void k_free(kstate *k)
{
    if (k == NULL)
        return;
    free(k->data);
    free(k->offset);
    free(k->glue);
    free(k->used);
    free(k->garbage);
    free(k->learned);
    free(k->cact);
    free(k->vals);
    free(k->levels);
    free(k->reasons);
    free(k->trail);
    free(k->trail_lim);
    for (int t = 0; t < 3; t++) {
        if (k->tables[t] != NULL) {
            for (int lit = 0; lit < k->nlits; lit++)
                free(k->tables[t][lit].a);
            free(k->tables[t]);
        }
    }
    free(k->frequency);
    free(k->activity);
    free(k->phase);
    free(k->hkey);
    free(k->hvar);
    free(k->seen);
    free(k->touched);
    free(k->learnt);
    free(k->stamp);
    free(k->learn_log.a);
    free(k->batch_log.a);
    free(k);
}

kstate *k_new(int num_vars)
{
    /* 2 * (num_vars + 1) literal slots must fit an int. */
    if (num_vars < 0 || num_vars > INT_MAX / 2 - 1)
        return NULL;
    kstate *k = calloc(1, sizeof(kstate));
    if (k == NULL)
        return NULL;
    int n = num_vars + 1;
    k->num_vars = num_vars;
    k->nlits = 2 * n;
    k->vals = malloc((size_t)k->nlits);
    k->levels = calloc((size_t)n, sizeof(int));
    k->reasons = malloc((size_t)n * sizeof(int));
    k->trail = malloc((size_t)n * sizeof(int));
    k->trail_lim = malloc((size_t)n * sizeof(int));
    for (int t = 0; t < 3; t++)
        k->tables[t] = calloc((size_t)k->nlits, sizeof(ivec));
    k->frequency = calloc((size_t)n, sizeof(int64_t));
    k->activity = calloc((size_t)n, sizeof(double));
    k->phase = malloc((size_t)n);
    k->seen = calloc((size_t)n, 1);
    k->touched = malloc((size_t)n * sizeof(int));
    k->learnt = malloc((size_t)(n + 1) * sizeof(int));
    k->stamp = calloc((size_t)n, sizeof(int));
    if (!k->vals || !k->reasons || !k->trail || !k->trail_lim || !k->tables[0]
        || !k->tables[1] || !k->tables[2] || !k->frequency || !k->activity
        || !k->phase || !k->seen || !k->touched || !k->learnt || !k->stamp
        || !k->levels) {
        k_free(k);
        return NULL;
    }
    memset(k->vals, -1, (size_t)k->nlits);
    for (int v = 0; v < n; v++)
        k->reasons[v] = NO_REASON;
    memset(k->phase, 1, (size_t)n);
    /* Decider's initial heap: every variable at activity 0, in order. */
    if (k_reserve(k, 0, 0, num_vars)) {
        k_free(k);
        return NULL;
    }
    for (int v = 1; v <= num_vars; v++) {
        k->hkey[v - 1] = 0.0;
        k->hvar[v - 1] = v;
    }
    k->heap_len = num_vars;
    return k;
}

/* ------------------------------------------------------------------ */
/* watch tables in CSR form (bulk load / dump)                          */
/* ------------------------------------------------------------------ */

int k_load_watches(kstate *k, int table, const int *starts, const int *flat)
{
    ivec *lists = k->tables[table];
    for (int lit = 0; lit < k->nlits; lit++) {
        int n = starts[lit + 1] - starts[lit];
        ivec *v = &lists[lit];
        if (grow((void **)&v->a, &v->cap, n, sizeof(int)))
            return -1;
        if (n > 0)
            memcpy(v->a, flat + starts[lit], (size_t)n * sizeof(int));
        v->n = n;
    }
    return 0;
}

int k_watch_total(kstate *k, int table)
{
    int total = 0;
    for (int lit = 0; lit < k->nlits; lit++)
        total += k->tables[table][lit].n;
    return total;
}

void k_dump_watches(kstate *k, int table, int *starts, int *flat)
{
    ivec *lists = k->tables[table];
    int pos = 0;
    for (int lit = 0; lit < k->nlits; lit++) {
        starts[lit] = pos;
        if (lists[lit].n > 0)
            memcpy(flat + pos, lists[lit].a, (size_t)lists[lit].n * sizeof(int));
        pos += lists[lit].n;
    }
    starts[k->nlits] = pos;
}

/* ------------------------------------------------------------------ */
/* CPython heapq over (key, var) pairs                                  */
/* ------------------------------------------------------------------ */

/* Tuple order: keys first, variables break ties. */
static inline int h_lt(double ka, int va, double kb, int vb)
{
    return ka < kb || (ka == kb && va < vb);
}

static void h_siftdown(kstate *k, int startpos, int pos)
{
    double *key = k->hkey;
    int *var = k->hvar;
    double nk = key[pos];
    int nv = var[pos];
    while (pos > startpos) {
        int parentpos = (pos - 1) >> 1;
        if (h_lt(nk, nv, key[parentpos], var[parentpos])) {
            key[pos] = key[parentpos];
            var[pos] = var[parentpos];
            pos = parentpos;
            continue;
        }
        break;
    }
    key[pos] = nk;
    var[pos] = nv;
}

static void h_siftup(kstate *k, int pos)
{
    double *key = k->hkey;
    int *var = k->hvar;
    int endpos = k->heap_len;
    int startpos = pos;
    double nk = key[pos];
    int nv = var[pos];
    int childpos = 2 * pos + 1;
    while (childpos < endpos) {
        int rightpos = childpos + 1;
        if (rightpos < endpos
            && !h_lt(key[childpos], var[childpos], key[rightpos], var[rightpos]))
            childpos = rightpos;
        key[pos] = key[childpos];
        var[pos] = var[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    key[pos] = nk;
    var[pos] = nv;
    h_siftdown(k, startpos, pos);
}

static inline void h_push(kstate *k, double key, int var)
{
    if (k->heap_len == k->heap_cap && k_reserve(k, 0, 0, k->heap_len + 1)) {
        k->oom = 1;
        return;
    }
    k->hkey[k->heap_len] = key;
    k->hvar[k->heap_len] = var;
    k->heap_len++;
    h_siftdown(k, 0, k->heap_len - 1);
}

static int h_pop(kstate *k)
{
    k->heap_len--;
    int last = k->heap_len;
    if (last > 0) {
        int ret = k->hvar[0];
        k->hkey[0] = k->hkey[last];
        k->hvar[0] = k->hvar[last];
        h_siftup(k, 0);
        return ret;
    }
    return k->hvar[last];
}

static void h_heapify(kstate *k)
{
    for (int i = k->heap_len / 2 - 1; i >= 0; i--)
        h_siftup(k, i);
}

/* ------------------------------------------------------------------ */
/* Decider                                                              */
/* ------------------------------------------------------------------ */

static void rescale_vars(kstate *k)
{
    int n = k->num_vars;
    for (int v = 1; v <= n; v++)
        k->activity[v] *= 1e-100;
    k->var_inc *= 1e-100;
    if (k_reserve(k, 0, 0, n)) {
        k->oom = 1;
        return;
    }
    for (int v = 1; v <= n; v++) {
        k->hkey[v - 1] = -k->activity[v];
        k->hvar[v - 1] = v;
    }
    k->heap_len = n;
    h_heapify(k);
}

static inline void bump_var(kstate *k, int var)
{
    k->activity[var] += k->var_inc;
    if (k->activity[var] > 1e100)
        rescale_vars(k);
    h_push(k, -k->activity[var], var);
}

/* Highest-activity unassigned variable, or 0 when all are assigned. */
static int pick_branch_var(kstate *k)
{
    int8_t *vals = k->vals;
    while (k->heap_len > 0) {
        int var = h_pop(k);
        if (vals[var << 1] == -1)
            return var;
    }
    for (int var = 1; var <= k->num_vars; var++) {
        if (vals[var << 1] == -1) {
            h_push(k, -k->activity[var], var);
            return var;
        }
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* arena                                                                */
/* ------------------------------------------------------------------ */

static void bump_clause(kstate *k, int cid)
{
    double *cact = k->cact;
    cact[cid] += k->clause_inc;
    k->used[cid] = 1;
    if (cact[cid] > 1e20) {
        for (int other = 0; other < k->n_clauses; other++)
            if (k->learned[other])
                cact[other] *= 1e-20;
        k->clause_inc *= 1e-20;
    }
}

/* Push a clause block and attach its watchers; returns its id. */
static int push_clause(kstate *k, const int *lits, int size, int learned, int glue)
{
    int cid = k->n_clauses;
    if (k_reserve(k, k->data_len + size + 2, cid + 1, 0)) {
        k->oom = 1;
        return -1;
    }
    int *data = k->data;
    data[k->data_len++] = cid;
    data[k->data_len++] = size;
    int off = k->data_len;
    memcpy(data + off, lits, (size_t)size * sizeof(int));
    k->data_len += size;
    k->offset[cid] = off;
    k->glue[cid] = glue;
    k->cact[cid] = learned ? k->clause_inc : 0.0;
    k->used[cid] = 0;
    k->garbage[cid] = 0;
    k->learned[cid] = learned;
    k->n_clauses++;
    if (learned)
        k->num_learned_live++;
    else
        k->num_original++;

    int a = lits[0], b = lits[1];
    if (size == 2) {
        iv_push(k, &k->tables[T_BINARY][a], b);
        iv_push(k, &k->tables[T_BINARY][b], a);
        k->n_binary++;
    } else if (size == 3) {
        int c = lits[2];
        iv_push3(k, &k->tables[T_TERNARY][a], b, c, cid);
        iv_push3(k, &k->tables[T_TERNARY][b], a, c, cid);
        iv_push3(k, &k->tables[T_TERNARY][c], a, b, cid);
        k->n_ternary++;
    } else {
        iv_push2(k, &k->tables[T_LONG][a], b, off);
        iv_push2(k, &k->tables[T_LONG][b], a, off);
        k->n_long++;
    }
    return cid;
}

/* An original clause of >= 2 literals (Solver.add_clause). */
int k_add_clause(kstate *k, const int *lits, int size)
{
    int cid = push_clause(k, lits, size, 0, 0);
    return k->oom ? -1 : cid;
}

/* ------------------------------------------------------------------ */
/* trail                                                                */
/* ------------------------------------------------------------------ */

static inline void assign(kstate *k, int lit, int reason)
{
    int var = lit >> 1;
    k->vals[lit] = 1;
    k->vals[lit ^ 1] = 0;
    k->levels[var] = k->n_lim;
    k->reasons[var] = reason;
    k->trail[k->trail_len++] = lit;
}

/* A level-0 unit or decision literal (no reason). */
void k_assign(kstate *k, int lit)
{
    assign(k, lit, NO_REASON);
}

/* Solver._ingest_clauses over a formula's flat form: DIMACS ``lits``,
 * clause j at [offsets[j], offsets[j + 1]), its literals already
 * deduplicated.  Tautologies are skipped; units are assigned at level 0
 * in order; longer clauses are added and watched in order.  Returns 1
 * at an empty clause or a unit falsified by an earlier one (the clauses
 * after it are not loaded), 0 once all are loaded, -1 when out of
 * memory, -2 on a literal outside 1..num_vars or an oversized clause. */
int k_ingest(kstate *k, const int *lits, const int64_t *offsets, int n_clauses,
             const uint8_t *tautology)
{
    int64_t words = offsets[n_clauses] - offsets[0] + 2 * (int64_t)n_clauses;
    if (words > INT_MAX - k->data_len || n_clauses > INT_MAX - k->n_clauses)
        return -1;
    if (k_reserve(k, k->data_len + (int)words, k->n_clauses + n_clauses, 0))
        return -1;
    int num_vars = k->num_vars;
    int *encoded = k->learnt; /* num_vars + 1 slots of scratch */
    for (int j = 0; j < n_clauses; j++) {
        if (tautology[j])
            continue;
        int64_t start = offsets[j];
        int64_t size = offsets[j + 1] - start;
        if (size == 0)
            return 1;
        if (size > num_vars)
            return -2; /* a non-tautology repeats no variable */
        for (int i = 0; i < size; i++) {
            int lit = lits[start + i];
            if (lit == 0 || lit < -num_vars || lit > num_vars)
                return -2;
            encoded[i] = lit > 0 ? 2 * lit : 2 * -lit + 1;
        }
        if (size == 1) {
            int value = k->vals[encoded[0]];
            if (value == 0)
                return 1;
            if (value < 0)
                assign(k, encoded[0], NO_REASON);
            continue;
        }
        push_clause(k, encoded, (int)size, 0, 0);
        if (k->oom)
            return -1;
    }
    return 0;
}

/* Backtrack with phase saving and requeue (Solver._backtrack). */
int k_backtrack(kstate *k, int level)
{
    if (level >= k->n_lim)
        return 0;
    int boundary = k->trail_lim[level];
    int8_t *vals = k->vals;
    for (int i = boundary; i < k->trail_len; i++) {
        int lit = k->trail[i];
        int var = lit >> 1;
        vals[lit] = -1;
        vals[lit ^ 1] = -1;
        k->phase[var] = (lit & 1) == 0;
        h_push(k, -k->activity[var], var);
    }
    k->trail_len = boundary;
    k->n_lim = level;
    if (k->qhead > boundary)
        k->qhead = boundary;
    return k->oom ? -1 : 0;
}

/* ------------------------------------------------------------------ */
/* propagation                                                          */
/* ------------------------------------------------------------------ */

/* ArenaPropagator.propagate; returns 1 on a conflict (recorded in
 * conflict_cid / conflict_a / conflict_b), else 0. */
static int propagate(kstate *k)
{
    int8_t *vals = k->vals;
    int *levels = k->levels;
    int *reasons = k->reasons;
    int *trail = k->trail;
    int *data = k->data;
    int64_t *frequency = k->frequency;
    ivec *binary = k->tables[T_BINARY];
    ivec *ternary = k->tables[T_TERNARY];
    ivec *watches = k->tables[T_LONG];
    int level = k->n_lim;
    int qhead = k->qhead;
    int ntrail = k->trail_len;
    int base = ntrail;
    int has_binary = k->n_binary > 0;
    int has_ternary = k->n_ternary > 0;
    int has_long = k->n_long > 0;
    int conflict = 0;

    while (qhead < ntrail) {
        int lit = trail[qhead++];
        int false_lit = lit ^ 1;

        if (has_binary) {
            const int *blist = binary[false_lit].a;
            int bn = binary[false_lit].n;
            for (int i = 0; i < bn; i++) {
                int other = blist[i];
                int v = vals[other];
                if (v > 0)
                    continue;
                if (v == 0) {
                    k->conflict_cid = -1;
                    k->conflict_a = other;
                    k->conflict_b = false_lit;
                    conflict = 1;
                    goto done;
                }
                int var = other >> 1;
                vals[other] = 1;
                vals[other ^ 1] = 0;
                levels[var] = level;
                reasons[var] = ~false_lit;
                trail[ntrail++] = other;
                frequency[var]++;
            }
        }

        if (has_ternary) {
            const int *tlist = ternary[false_lit].a;
            int tn = ternary[false_lit].n;
            for (int t = 0; t < tn; t += 3) {
                int o1 = tlist[t];
                int v1 = vals[o1];
                if (v1 > 0)
                    continue;
                int o2 = tlist[t + 1];
                int v2 = vals[o2];
                if (v2 > 0)
                    continue;
                if (v1 == 0) {
                    if (v2 == 0) {
                        k->conflict_cid = tlist[t + 2];
                        conflict = 1;
                        goto done;
                    }
                    int var = o2 >> 1;
                    vals[o2] = 1;
                    vals[o2 ^ 1] = 0;
                    levels[var] = level;
                    reasons[var] = tlist[t + 2];
                    trail[ntrail++] = o2;
                    frequency[var]++;
                } else if (v2 == 0) {
                    int var = o1 >> 1;
                    vals[o1] = 1;
                    vals[o1 ^ 1] = 0;
                    levels[var] = level;
                    reasons[var] = tlist[t + 2];
                    trail[ntrail++] = o1;
                    frequency[var]++;
                }
            }
        }

        if (!has_long)
            continue;
        /* Long clauses: [blocker, offset] pairs compacted in place (the
         * Python two-phase scan writes the same records in the same
         * order; j == i until the first watch moves away). */
        ivec *wl = &watches[false_lit];
        int *w = wl->a;
        int n = wl->n;
        int i = 0, j = 0;
        while (i < n) {
            int blocker = w[i];
            int off = w[i + 1];
            i += 2;
            if (vals[blocker] > 0) {
                w[j++] = blocker;
                w[j++] = off;
                continue;
            }
            int first = data[off];
            if (first == false_lit) {
                first = data[off + 1];
                data[off] = first;
                data[off + 1] = false_lit;
            }
            int v0 = vals[first];
            if (v0 > 0) {
                w[j++] = first;
                w[j++] = off;
                continue;
            }
            int end = off + data[off - 1];
            int moved = 0;
            for (int kk = off + 2; kk < end; kk++) {
                int candidate = data[kk];
                if (vals[candidate] != 0) {
                    data[off + 1] = candidate;
                    data[kk] = false_lit;
                    iv_push2(k, &watches[candidate], first, off);
                    moved = 1;
                    break;
                }
            }
            if (moved)
                continue;
            w[j++] = first;
            w[j++] = off;
            if (v0 < 0) {
                int var = first >> 1;
                vals[first] = 1;
                vals[first ^ 1] = 0;
                levels[var] = level;
                reasons[var] = data[off - 2];
                trail[ntrail++] = first;
                frequency[var]++;
            } else {
                while (i < n)
                    w[j++] = w[i++];
                wl->n = j;
                k->conflict_cid = data[off - 2];
                conflict = 1;
                goto done;
            }
        }
        wl->n = j;
    }

done:
    k->qhead = conflict ? ntrail : qhead;
    k->trail_len = ntrail;
    k->propagations += ntrail - base;
    k->bcp_rounds++;
    if (k->log_batches)
        iv_push(k, &k->batch_log, ntrail - base);
    return conflict;
}

/* Propagate outside the search loop (a level-0 unit from add_clause). */
int k_propagate(kstate *k)
{
    int conflict = propagate(k);
    return k->oom ? -1 : conflict;
}

/* ------------------------------------------------------------------ */
/* conflict analysis                                                    */
/* ------------------------------------------------------------------ */

/* ArenaConflictAnalyzer.analyze on the recorded conflict.  Leaves the
 * learned clause in learnt[0..*size) with the asserting literal first;
 * returns 0, or -1 when a decision turned up as a reason. */
static int analyze(kstate *k, int *size, int *backjump, int *glue_out)
{
    int8_t *seen = k->seen;
    int *levels = k->levels;
    int *trail = k->trail;
    int *reasons = k->reasons;
    int *data = k->data;
    int *learnt = k->learnt;
    int *touched = k->touched;
    int current_level = k->n_lim;
    int nl = 1;
    int counter = 0;
    int index = k->trail_len - 1;
    int asserting_lit = -1;
    int nt = 0;
    int pair[2];
    const int *lits;
    int nlits;
    int skip_var = -1;

    if (k->conflict_cid < 0) {
        pair[0] = k->conflict_a;
        pair[1] = k->conflict_b;
        lits = pair;
        nlits = 2;
    } else {
        int cid = k->conflict_cid;
        if (k->learned[cid])
            bump_clause(k, cid);
        int off = k->offset[cid];
        lits = data + off;
        nlits = data[off - 1];
    }

    for (;;) {
        for (int i = 0; i < nlits; i++) {
            int lit = lits[i];
            int var = lit >> 1;
            if (var == skip_var)
                continue;
            int level = levels[var];
            if (seen[var] || level == 0)
                continue;
            seen[var] = 1;
            touched[nt++] = var;
            bump_var(k, var);
            if (level == current_level)
                counter++;
            else
                learnt[nl++] = lit;
        }
        while (!seen[trail[index] >> 1])
            index--;
        asserting_lit = trail[index];
        int var = asserting_lit >> 1;
        seen[var] = 0;
        counter--;
        index--;
        if (counter == 0)
            break;
        int reason = reasons[var];
        if (reason == NO_REASON)
            return -1;
        if (reason < 0) {
            pair[0] = ~reason;
            lits = pair;
            nlits = 1;
            skip_var = -1;
        } else {
            if (k->learned[reason])
                bump_clause(k, reason);
            int off = k->offset[reason];
            lits = data + off;
            nlits = data[off - 1];
            skip_var = var;
        }
    }
    learnt[0] = asserting_lit ^ 1;

    /* recursive-lite minimization, in place (kept <= i) */
    int before = nl;
    int kept = 1;
    for (int i = 1; i < nl; i++) {
        int lit = learnt[i];
        int var = lit >> 1;
        int reason = reasons[var];
        if (reason == NO_REASON) {
            learnt[kept++] = lit;
            continue;
        }
        int removable = 1;
        if (reason < 0) {
            int ovar = (~reason) >> 1;
            if (!seen[ovar] && levels[ovar] > 0)
                removable = 0;
        } else {
            int off = k->offset[reason];
            int end = off + data[off - 1];
            for (int kk = off; kk < end; kk++) {
                int ovar = data[kk] >> 1;
                if (ovar == var)
                    continue;
                if (!seen[ovar] && levels[ovar] > 0) {
                    removable = 0;
                    break;
                }
            }
        }
        if (removable)
            seen[var] = 0;
        else
            learnt[kept++] = lit;
    }
    nl = kept;
    k->minimized_literals += before - nl;

    /* glue: distinct decision levels */
    if (k->stamp_gen == INT_MAX) {
        memset(k->stamp, 0, (size_t)(k->num_vars + 1) * sizeof(int));
        k->stamp_gen = 0;
    }
    int gen = ++k->stamp_gen;
    int glue = 0;
    for (int i = 0; i < nl; i++) {
        int level = levels[learnt[i] >> 1];
        if (k->stamp[level] != gen) {
            k->stamp[level] = gen;
            glue++;
        }
    }

    /* backjump: second-highest level, moved to slot 1 */
    int bj = 0;
    if (nl > 1) {
        int max_i = 1;
        int max_level = levels[learnt[1] >> 1];
        for (int i = 2; i < nl; i++) {
            int level = levels[learnt[i] >> 1];
            if (level > max_level) {
                max_level = level;
                max_i = i;
            }
        }
        int tmp = learnt[1];
        learnt[1] = learnt[max_i];
        learnt[max_i] = tmp;
        bj = max_level;
    }

    for (int t = 0; t < nt; t++)
        seen[touched[t]] = 0;
    *size = nl;
    *backjump = bj;
    *glue_out = glue;
    return 0;
}

/* Solver._install_learned */
static void install_learned(kstate *k, int size, int glue)
{
    const int *lits = k->learnt;
    k->learned_clauses++;
    k->learned_literals += size;
    k->glue_sum += glue;
    if (k->log_learned) {
        iv_push2(k, &k->learn_log, glue, size);
        for (int i = 0; i < size; i++)
            iv_push(k, &k->learn_log, lits[i]);
    }
    if (size == 1) {
        assign(k, lits[0], NO_REASON);
        return;
    }
    int cid = push_clause(k, lits, size, 1, glue);
    if (cid >= 0)
        assign(k, lits[0], cid);
}

/* ------------------------------------------------------------------ */
/* the loop                                                             */
/* ------------------------------------------------------------------ */

static int64_t luby(int64_t i)
{
    for (;;) {
        int kk = 1;
        while ((INT64_C(1) << kk) - 1 < i)
            kk++;
        if ((INT64_C(1) << kk) - 1 == i)
            return INT64_C(1) << (kk - 1);
        i -= (INT64_C(1) << (kk - 1)) - 1;
    }
}

/* Solver._solve's loop from ``phase`` until it needs Python: a reduce
 * is due (K_REDUCE, before the restart check), a budget is spent,
 * SAT, UNSAT (a level-0 conflict), a falsified assumption (K_FAILED),
 * or -- when ``stop_on_restart`` -- right after each restart. */
int k_run(kstate *k, int phase, const int *assumed, int nassumed,
          int64_t max_conflicts, int64_t max_propagations, int64_t max_decisions,
          int64_t reduce_limit, int stop_on_restart)
{
    if (phase == P_START) {
        if (propagate(k))
            return K_UNSAT;
        phase = P_LOOP;
    }
    for (;;) {
        if (k->oom)
            return K_NOMEM;
        if (phase == P_LOOP) {
            if (propagate(k)) {
                k->conflicts++;
                if (k->n_lim == 0)
                    return K_UNSAT;
                int size, backjump, glue;
                if (analyze(k, &size, &backjump, &glue))
                    return K_CORRUPT;
                k->luby_conflicts++;
                k_backtrack(k, backjump);
                install_learned(k, size, glue);
                k->var_inc /= k->var_decay;
                k->clause_inc /= k->clause_decay;
                continue;
            }
            if (k->conflicts >= max_conflicts || k->propagations >= max_propagations
                || k->decisions >= max_decisions)
                return K_UNKNOWN;
            if (k->conflicts >= reduce_limit)
                return K_REDUCE;
        }
        phase = P_LOOP;

        if (k->luby_conflicts >= k->luby_limit && k->n_lim > 0) {
            k->restarts++;
            k->luby_index++;
            k->luby_limit = k->luby_base * luby(k->luby_index);
            k->luby_conflicts = 0;
            k_backtrack(k, 0);
            if (stop_on_restart)
                return k->oom ? K_NOMEM : K_RESTART;
            continue;
        }

        int decision = -1;
        for (int i = 0; i < nassumed; i++) {
            int v = k->vals[assumed[i]];
            if (v == 0)
                return K_FAILED;
            if (v < 0) {
                decision = assumed[i];
                break;
            }
        }
        if (decision < 0) {
            int var = pick_branch_var(k);
            if (var == 0)
                return k->oom ? K_NOMEM : K_SAT;
            decision = k->phase[var] ? 2 * var : 2 * var + 1;
        }
        k->decisions++;
        k->trail_lim[k->n_lim++] = k->trail_len;
        assign(k, decision, NO_REASON);
        if (k->trail_len > k->max_trail)
            k->max_trail = k->trail_len;
    }
}

/* ------------------------------------------------------------------ */
/* message passing                                                      */
/* ------------------------------------------------------------------ */

/* One message-passing sum (repro.nn.tensor.message_sum): for every edge
 * e in order, out[target[e]] += weight[e] * x[source[e]], a row of
 * ``width`` doubles per node; a NULL ``weight`` means unit weights.
 * One rounded multiply, then one rounded add per cell in edge order --
 * the order np.bincount accumulates the unfused path's products in --
 * so the sums are bit-identical to it.  Returns -1, writing nothing,
 * when an index is outside [0, num_sources) or [0, num_targets). */
int k_message_sum(const double *x, int64_t num_sources, int64_t width,
                  const int64_t *source, const int64_t *target,
                  const double *weight, int64_t num_edges,
                  double *out, int64_t num_targets)
{
    for (int64_t e = 0; e < num_edges; e++)
        if ((uint64_t)source[e] >= (uint64_t)num_sources
            || (uint64_t)target[e] >= (uint64_t)num_targets)
            return -1;
    for (int64_t e = 0; e < num_edges; e++) {
        const double *row = x + source[e] * width;
        double *acc = out + target[e] * width;
        if (weight) {
            double w = weight[e];
            for (int64_t j = 0; j < width; j++)
                acc[j] += w * row[j];
        } else {
            for (int64_t j = 0; j < width; j++)
                acc[j] += row[j];
        }
    }
    return 0;
}
