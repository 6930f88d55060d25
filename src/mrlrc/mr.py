"""Maximally recoverable LRC assembly, exhaustive verification and the
erasure codec.

The parity-check matrix has the block shape: a shared delta x r local
parity A on the diagonal (one copy per group) and a bottom band of
h x r Moore blocks D_i whose first rows span the subspaces of a
certified direct sum system.  Verification re-proves maximal
recoverability by enumerating every erasure pattern (delta positions
per group plus h more anywhere); exhaustive and sampled checks are one
strided walk (_blocks) over blocks, the patterns that share their
per-group delta-subsets.  With the local block MDS, each group's delta
positions carry its local pivots, so a pattern costs one check that its
h extras, reduced against them, are independent (verify_mr); the
structured verifier reaches the same verdict with one such check per
erased support.  Both verifiers pass one gate (_gate) and read one
store (_tables): every table of reduced columns (_reduced_columns),
derived once per parity check, and one check (_independent) decides
them.  For h <= 2 a check compares the columns' projective keys; for
h >= 3 it is one h x h rank computation.  One certificate for the
whole code decides every verify_mr run, exhaustive or sampled
(_certified: no key owned by two groups for h <= 2, the one support
walk of the structured verifier for h >= 3), since when it holds every
pattern passes; the patterns are walked (_block_walk) only when it
fails, to find the first failure, and for h <= 2 that walk decides a
block whole from its tables' key sets, walking pattern by pattern only
the blocks that test leaves open.  Every rank computation, determinant
and subset check goes through the shared kernel in linalg.

The erasure codec decodes an erased set densely the first time it sees
it and from a cached decode plan when the set comes back, with the
dense decoder kept as the reference (see erase_decode).
"""

from __future__ import annotations

# threading.Lock is this lock; importing threading would add to the
# start-up time and memory of every mrlrc command
from _thread import allocate_lock
from functools import lru_cache
from itertools import combinations, product
from math import comb, prod
from time import perf_counter

from . import config
from .errors import BudgetError, ParameterError
from .gf import FieldTower
from .linalg import (
    FieldMatrix,
    det,
    first_dependent_subset,
    is_mds_parity_check,
    kernel,
    solve,
    vec_mat,
    _echelonize,
    _rank_rows,
    _strided_combinations,
    _unrank_combination,
)
from .record import FrozenRecord, Record
from .sdss import SubspaceSystem


class MrCodeSpec(FrozenRecord):
    """Parameters (N = n*r, r, h, delta) over F_ell with ell = q^m."""

    __slots__ = ("n", "r", "h", "delta", "tower")

    def __init__(self, n: int, r: int, h: int, delta: int, tower: FieldTower):
        self._set(n, r, h, delta, tower)
        if self.n < 1 or self.h < 1:
            raise ParameterError("need n >= 1 and h >= 1")
        if not 1 <= self.delta <= self.r - 1:
            raise ParameterError("need 1 <= delta <= r-1")
        if self.k < 1:
            raise ParameterError(
                f"dimension N - n*delta - h = {self.k} must be positive"
            )

    @property
    def N(self) -> int:
        return self.n * self.r

    @property
    def k(self) -> int:
        return self.N - self.n * self.delta - self.h

    @property
    def ell(self) -> int:
        return self.tower.q**self.tower.m


class MrParityCheck:
    """Assembled (n*delta + h) x N parity check over the top field.

    check=True re-derives each block of D from its first row and refuses
    one that is not Moore; the builders, whose blocks come from
    `moore_matrix`, and `fileio.parse_mr` pass check=False."""

    def __init__(self, spec: MrCodeSpec, A: FieldMatrix, D: list[FieldMatrix],
                 check: bool = True):
        t = spec.tower
        if A.rows != spec.delta or A.cols != spec.r:
            raise ParameterError("local parity block has the wrong shape")
        if len(D) != spec.n or any(
            Di.rows != spec.h or Di.cols != spec.r for Di in D
        ):
            raise ParameterError("Moore band has the wrong shape")
        if check:
            for i, Di in enumerate(D):
                if not _is_moore(t, Di):
                    raise ParameterError(f"block {i} is not a Moore matrix")
        self.spec = spec
        self.A = A
        self.D = list(D)
        self.H = _assemble(spec, A, D)
        self._plans = _PlanCache()
        self._tables = None  # the verifiers' reduced columns (_tables)

    def __repr__(self):
        s = self.spec
        return f"MrParityCheck(N={s.N}, r={s.r}, h={s.h}, delta={s.delta}, ell={s.tower.q}^{s.tower.m})"


def _is_moore(t: FieldTower, M: FieldMatrix) -> bool:
    return M.data == moore_matrix(t, M.row(0), M.rows).data


def _assemble(spec: MrCodeSpec, A: FieldMatrix, D: list[FieldMatrix]) -> FieldMatrix:
    t = spec.tower
    n, r, h, delta = spec.n, spec.r, spec.h, spec.delta
    N = spec.N
    rows = [[0] * N for _ in range(n * delta + h)]
    for i in range(n):
        for s in range(delta):
            target = rows[i * delta + s]
            for j in range(r):
                target[i * r + j] = A.at(s, j)  # F_q codes embed as constants
    for i, Di in enumerate(D):
        for s in range(h):
            target = rows[n * delta + s]
            for j in range(r):
                target[i * r + j] = Di.at(s, j)
    return FieldMatrix.from_rows(t, "top", rows)


# -- Moore matrices ----------------------------------------------------


def moore_matrix(t: FieldTower, alphas, h: int) -> FieldMatrix:
    """h x len(alphas) matrix whose row i is the q^i powers of the alphas."""
    if h < 1:
        raise ParameterError("need h >= 1")
    alphas = list(alphas)
    rows = [list(alphas)]
    for _ in range(1, h):
        rows.append([t.frobenius(x, 1) for x in rows[-1]])
    return FieldMatrix.from_rows(t, "top", rows)


def moore_det(t: FieldTower, alphas) -> int:
    """Determinant of the square Moore matrix on alphas.

    Computed twice: as the product of c_1 a_1 + ... + c_i-1 a_i-1 + a_i
    over all direction vectors with last nonzero entry 1, and by
    linalg.det on the assembled matrix; the two must agree.
    """
    alphas = list(alphas)
    h = len(alphas)
    F = t.field("top")
    q = t.q
    prod = 1
    for i in range(h):
        for cs in product(range(q), repeat=i):
            acc = alphas[i]
            for c, a in zip(cs, alphas):
                if c:
                    acc = F.add(acc, F.mul(c, a))
            prod = F.mul(prod, acc)
    if prod != det(moore_matrix(t, alphas, h)):
        raise AssertionError(
            "Moore determinant formula disagrees with elimination"
        )
    return prod


# -- construction ------------------------------------------------------


def local_parity_check(t: FieldTower, r: int, delta: int) -> FieldMatrix:
    """delta x r parity check of an [r, r-delta, delta+1] MDS code over F_q.

    Uses the Vandermonde construction for r <= q+1; for longer blocks
    only delta = 1 (single parity) and delta = r-1 (repetition dual)
    exist over a fixed F_q, and those are built directly.
    """
    from .codes import rs_parity_check

    q = t.q
    if not 1 <= delta <= r - 1:
        raise ParameterError("need 1 <= delta <= r-1")
    if r <= q + 1:
        return rs_parity_check(t, "mid", r, delta)
    if delta == 1:
        return FieldMatrix.from_rows(t, "mid", [[1] * r])
    if delta == r - 1:
        F = t.field("mid")
        rows = []
        for i in range(r - 1):
            row = [0] * r
            row[i] = 1
            row[r - 1] = F.neg(1)
            rows.append(row)
        return FieldMatrix.from_rows(t, "mid", rows)
    raise ParameterError(
        f"local group length {r} over F_{q} needs r <= q+1 unless delta is 1 or r-1"
    )


def build_direct(spec: MrCodeSpec, S: SubspaceSystem) -> MrParityCheck:
    """Moore-band construction directly on a certified system whose
    subspace dimension equals the locality r."""
    return _moore_band(spec, S, None)


def build_concatenated(spec: MrCodeSpec, S: SubspaceSystem, inner: FieldMatrix,
                       budget: int | None = None) -> MrParityCheck:
    """Moore-band construction through an inner [r, r-s, d >= h+delta+1]
    code: the Moore blocks run over combinations of the subspace basis
    given by the inner parity columns, so any h+delta of them stay
    F_q-independent."""
    return _moore_band(spec, S, inner, budget)


def _moore_band(spec: MrCodeSpec, S: SubspaceSystem, inner: FieldMatrix | None,
                budget: int | None = None) -> MrParityCheck:
    """The one assembly of both builders: refuse an uncertified system
    (checked first), a foreign tower, mismatched parameters or a weak
    inner code, then put A on every group and, per group, the Moore
    block of its basis vectors (inner None) or of their combinations by
    the inner parity columns."""
    t = spec.tower
    if not S.certified:
        raise ParameterError("refusing to build on an uncertified system")
    if S.tower != t:
        raise ParameterError("system must live in the code's tower")
    if (S.n, S.h) != (spec.n, spec.h) or (inner is None and S.r != spec.r):
        raise ParameterError("system parameters do not match the code spec")
    if inner is None:
        alphas = [[t.vec_to_top(v) for v in group] for group in S.basis]
    else:
        s = S.r
        if inner.rows != s:
            raise ParameterError("inner parity rows must match the subspace dimension")
        if inner.cols != spec.r:
            raise ParameterError("inner parity columns must match the locality")
        Fq_inner = inner.field()
        if Fq_inner.size != t.q or Fq_inner.char != t.p:
            raise ParameterError("inner code must be defined over F_q")
        need = spec.h + spec.delta
        if need > s:
            raise ParameterError(
                f"inner code cannot have {need} independent columns with only {s} rows"
            )
        total = comb(spec.r, need)
        if total > config.subset_budget(budget):
            raise BudgetError(f"{total} column subsets exceed the budget")
        cols = [inner.column(c) for c in range(spec.r)]
        sel, _ = first_dependent_subset(Fq_inner, [[col] for col in cols], need)
        if sel is not None:
            raise ParameterError(
                f"inner code distance below h+delta+1: columns {sel} are dependent"
            )
        # column c's alpha is the F_q-combination of the group's basis by
        # the inner column c: formed on coordinate vectors over F_q, so no
        # product in the top field is needed
        groups = (FieldMatrix.from_rows(t, "mid", group) for group in S.basis)
        alphas = [[t.vec_to_top(vec_mat(col, G)) for col in cols] for G in groups]
    A = local_parity_check(t, spec.r, spec.delta)
    D = [moore_matrix(t, a, spec.h) for a in alphas]
    return MrParityCheck(spec, A, D, check=False)


# -- erasure patterns ---------------------------------------------------


class ErasurePattern(FrozenRecord):
    """delta absolute positions per group plus h extra positions."""

    __slots__ = ("per_group", "extra")

    def __init__(self, per_group: tuple[tuple[int, ...], ...], extra: tuple[int, ...]):
        self._set(per_group, extra)

    def columns(self) -> tuple[int, ...]:
        return tuple(sorted([c for g in self.per_group for c in g] + list(self.extra)))


def pattern_count(spec: MrCodeSpec) -> int:
    return comb(spec.r, spec.delta) ** spec.n * comb(
        spec.N - spec.n * spec.delta, spec.h
    )


@lru_cache(maxsize=16)
def _subsets(r: int, delta: int) -> tuple[tuple[int, ...], ...]:
    """The delta-subsets of range(r) in lexicographic order."""
    return tuple(combinations(range(r), delta))


def _ranks(spec: MrCodeSpec, block: int) -> list[int]:
    """Index in _subsets(r, delta) of each group's delta-subset in the
    block-th block (a block holds the patterns that share them; first
    group slowest)."""
    count = comb(spec.r, spec.delta)
    ranks = [0] * spec.n
    for i in reversed(range(spec.n)):
        block, ranks[i] = divmod(block, count)
    return ranks


def _block(spec: MrCodeSpec, ranks):
    """Per-group delta-subsets (absolute positions) of the block with the
    given subset indices, and the positions left for the extras."""
    r = spec.r
    subsets = _subsets(r, spec.delta)
    pg = tuple(tuple(i * r + j for j in subsets[rk]) for i, rk in enumerate(ranks))
    taken = {c for g in pg for c in g}
    return pg, [c for c in range(spec.N) if c not in taken]


def _blocks(spec: MrCodeSpec, step: int):
    """The blocks holding a pattern at index 0, step, 2*step, ...: per
    block its subset indices (_ranks), the extras index of its first
    sampled pattern and how many of its patterns are sampled.  Nothing
    of a block is unranked here; _block and _strided_combinations do
    that for the blocks whose patterns are wanted one by one."""
    if step < 1:
        raise ParameterError("pattern step must be positive")
    extras_total = comb(spec.N - spec.n * spec.delta, spec.h)
    total = pattern_count(spec)
    index = 0
    while index < total:
        block, first = divmod(index, extras_total)
        count = -(-(extras_total - first) // step)
        yield _ranks(spec, block), first, count
        index += step * count


def enumerate_patterns(spec: MrCodeSpec, step: int = 1):
    """The maximal erasure patterns at indices 0, step, 2*step, ... of
    the lexicographic order: per-group delta-subsets vary combinadically
    (last group fastest), then the h extras over the remaining
    positions.  Step 1 is every pattern.  Each block of patterns sharing
    their per-group subsets is decoded once, and blocks holding no
    sampled index are skipped (_blocks, which verify_mr walks itself)."""
    for ranks, first, _ in _blocks(spec, step):
        pg, rest = _block(spec, ranks)
        for extra in _strided_combinations(rest, spec.h, step, first):
            yield ErasurePattern(per_group=pg, extra=extra)


def pattern_at(spec: MrCodeSpec, index: int) -> ErasurePattern:
    """Pattern at a given index of the enumerate_patterns(spec) stream,
    decoded on its own; the index oracle for the walk."""
    extras_total = comb(spec.N - spec.n * spec.delta, spec.h)
    if not 0 <= index < pattern_count(spec):
        raise ParameterError("pattern index out of range")
    block, e = divmod(index, extras_total)
    pg, rest = _block(spec, _ranks(spec, block))
    extra = tuple(rest[j] for j in _unrank_combination(len(rest), spec.h, e))
    return ErasurePattern(per_group=pg, extra=extra)


# -- verification -------------------------------------------------------


class VerifyReport(Record):
    """`sampled` is None for an exhaustive walk; `checks` counts the checks
    done in all, None when there was one per pattern checked."""

    __slots__ = ("ok", "patterns_checked", "first_failure", "sampled", "elapsed",
                 "reason", "checks")

    def __init__(self, ok: bool, patterns_checked: int,
                 first_failure: ErasurePattern | None, sampled: int | None,
                 elapsed: float, reason: str = "", checks: int | None = None):
        self.ok = ok
        self.patterns_checked = patterns_checked
        self.first_failure = first_failure
        self.sampled = sampled
        self.elapsed = elapsed
        self.reason = reason
        self.checks = checks


def _reduced_columns(P: MrParityCheck, g: int, S: tuple[int, ...]) -> dict:
    """Column c -> w(S, c) = D_g[:, c] - D_g|_S (A|_S)^-1 A[:, c] for the
    columns c of group g outside its delta-subset S (absolute positions):
    the global rows of column c once the local pivots on S are
    eliminated from it.  Only the delta local rows are echelonized;
    the global rows take the multipliers and are never mixed."""
    spec = P.spec
    F = spec.tower.field("top")
    H, r, delta = P.H, spec.r, spec.delta
    rest = [c for c in range(g * r, (g + 1) * r) if c not in S]
    work = [[H.at(g * delta + s, c) for c in S + tuple(rest)]
            for s in range(delta)]
    if _echelonize(F, work) != list(range(delta)):
        raise AssertionError("MDS local block has a singular delta-subset")
    # work is now [I | (A|_S)^-1 A|_rest]
    sub, mul = F.sub, F.mul
    glob = [H.row(spec.n * delta + i) for i in range(spec.h)]
    out = {}
    for t, c in enumerate(rest, start=delta):
        w = []
        for row in glob:
            acc = row[c]
            for s, pos in enumerate(S):
                if work[s][t] and row[pos]:
                    acc = sub(acc, mul(row[pos], work[s][t]))
            w.append(acc)
        out[c] = w
    return out


def _projective_key(F, w: list[int]):
    """The point w spans for h <= 2 global rows, or None when w = 0:
    for h = 1 every nonzero w is the one point 0; for h = 2 it is
    w[1] / w[0] when w[0] != 0, else F.size (the point at infinity)."""
    if not any(w):
        return None
    if len(w) == 1:
        return 0
    if w[0]:
        return F.mul(w[1], F.inv(w[0]))
    return F.size


def _keys_independent(keys) -> bool:
    """h <= 2 columns, given by their keys, are independent iff every
    key is defined and the keys are pairwise distinct."""
    return None not in keys and len(set(keys)) == len(keys)


def _independent(F, h: int):
    """The one check of h reduced columns, given as the tables hold them
    (_tables): for h <= 2 it compares their projective keys
    (_keys_independent); for h >= 3 it is one h x h rank computation."""
    if h <= 2:
        return _keys_independent
    return lambda cols: _rank_rows(F, cols) == h


def _key_set(keys: dict, h: int):
    """What deciding a whole block needs of one table of projective keys
    (h <= 2): None when some key is undefined or, for h = 2, two keys are
    equal; else the keys a column of another group must not share, which
    for h = 1 are none (one extra never meets a second column)."""
    found = set(keys.values())
    if None in found or (h == 2 and len(found) < len(keys)):
        return None
    return found if h == 2 else set()


def _block_clean(key_sets: list) -> bool:
    """True when every table of a block has a key set (_key_set) and the
    sets are pairwise disjoint: then any h <= 2 extras of the block have
    defined, pairwise distinct keys, so no pattern of it is dependent."""
    if None in key_sets:
        return False
    return len(set().union(*key_sets)) == sum(map(len, key_sets))


def _tables(P: MrParityCheck):
    """The store both verifiers read, derived whole on first use and kept
    on P: per group g and subset index k (_subsets), the table of group
    g's columns off its k-th delta-subset (_reduced_columns), mapping
    each column to its projective key for h <= 2 and to w(S, c) itself
    for h >= 3, and for h <= 2 the tables' key sets (_key_set; None as a
    whole for h >= 3, where no block can be decided whole).
    Read only past the gate, whose MDS test makes every A|_S invertible."""
    if P._tables is None:
        spec = P.spec
        F, h, r = spec.tower.field("top"), spec.h, spec.r

        def table(g, S):
            cols = _reduced_columns(P, g, tuple(g * r + j for j in S))
            return {c: _projective_key(F, w) for c, w in cols.items()} if h <= 2 else cols

        tables = [[table(g, S) for S in _subsets(r, spec.delta)] for g in range(spec.n)]
        key_sets = [[_key_set(t, h) for t in row] for row in tables] if h <= 2 else None
        P._tables = tables, key_sets
    return P._tables


def _gate(P: MrParityCheck, budget: int | None, sample: int | None):
    """The one gate of both verifiers, in this order: a sample size below
    1 raises ParameterError, a local block that is not MDS gives the
    failing report returned here, and an exhaustive walk over the budget
    raises BudgetError; None when P passes.  P's tables exist only past
    a passing MDS test, which is then not repeated."""
    if sample is not None and sample < 1:
        raise ParameterError("sample size must be positive")
    spec = P.spec
    if P._tables is None and not is_mds_parity_check(P.A, spec.delta):
        return VerifyReport(False, 0, None, None, 0.0,
                            reason="local parity block is not MDS")
    total = pattern_count(spec)
    if sample is None and total > config.subset_budget(budget):
        raise BudgetError(
            f"{total} erasure patterns exceed the budget; pass a sample size"
        )
    return None


def _compositions(h: int, max_e: int, most: int):
    """The compositions of h into at most `most` parts of at most max_e:
    by number of parts, then in lexicographic order.  Each is built
    part by part, every part in the range that leaves the rest a
    composition, so nothing else is formed."""
    def parts(total, size):
        if size == 1:
            if total <= max_e:
                yield (total,)
            return
        for first in range(max(1, total - max_e * (size - 1)),
                           min(max_e, total - size + 1) + 1):
            for rest in parts(total - first, size - 1):
                yield (first,) + rest

    for size in range(1, min(h, most) + 1):
        yield from parts(h, size)


def _support_count(spec: MrCodeSpec) -> int:
    """How many supports _supports yields, in closed form: per
    composition, C(n, parts) choices of groups times C(r, delta + e)
    erased sets per group erased on delta + e positions."""
    n, r, delta = spec.n, spec.r, spec.delta
    return sum(comb(n, len(parts)) * prod(comb(r, delta + e) for e in parts)
               for parts in _compositions(spec.h, min(spec.h, r - delta), n))


def _supports(P: MrParityCheck, tables):
    """The h table entries (_tables) of every erased support, the unit of
    verify_mr_structured: at most h groups, a composition of h into parts
    e of at most r - delta (_compositions), and per group an erased set E
    of delta + e positions, given by the entries of the columns in
    E[delta:] off its delta-subset E[:delta]."""
    spec = P.spec
    n, r, h, delta = spec.n, spec.r, spec.h, spec.delta
    max_e = min(h, r - delta)
    # per (e, group), per erased set E in lexicographic order (its
    # delta-subset S, then the e positions after S)
    sets = {(e, i): [[table[i * r + j] for j in tail]
                     for S, table in zip(_subsets(r, delta), tables[i])
                     for tail in combinations(range(S[-1] + 1, r), e)]
            for e in range(1, max_e + 1) for i in range(n)}
    for parts in _compositions(h, max_e, n):
        for groups in combinations(range(n), len(parts)):
            choices = [sets[e, i] for i, e in zip(groups, parts)]
            for cols in product(*choices):
                yield [c for cs in cols for c in cs]


def _support_walk(P: MrParityCheck) -> tuple[bool, int]:
    """Every support (_supports) in order, each decided by the one check
    (_independent) on P's tables, up to the first dependent one: (all
    independent, supports checked)."""
    spec = P.spec
    independent = _independent(spec.tower.field("top"), spec.h)
    checks = 0
    for checks, cols in enumerate(_supports(P, _tables(P)[0]), 1):
        if not independent(cols):
            return False, checks
    return True, checks


def _certified(P: MrParityCheck, covered: int) -> bool:
    """The whole-code certificate verify_mr asks before any walk,
    exhaustive or sampled: True only when every pattern of P passes.
    For h <= 2 it is the key-ownership map: the keys a group owns are
    the union of its key sets, and the code is clean when every key set
    is defined and no key is owned by two groups (_block_clean on the
    owned sets), which makes every block clean whatever subset each
    group takes.  For h >= 3 it is the support walk of
    verify_mr_structured passing (_support_walk), tried only when there
    are at most `covered` supports (_support_count), so it never costs
    more checks than the walk it saves; an exhaustive walk covers every
    pattern, and a code has no more supports than patterns."""
    spec = P.spec
    if spec.h <= 2:
        return _block_clean([None if None in row else set().union(*row)
                             for row in _tables(P)[1]])
    return _support_count(spec) <= covered and _support_walk(P)[0]


def _block_walk(P: MrParityCheck, step: int) -> tuple[int, ErasurePattern | None]:
    """The patterns at index 0, step, 2*step, ... (_blocks) in order, up
    to the first dependent one: (patterns checked, that pattern or None).
    For h <= 2 a block whose tables' key sets pass _block_clean is counted
    whole; every other block is unranked and walked pattern by pattern,
    one check (_independent) each."""
    spec = P.spec
    h, r = spec.h, spec.r
    tables, key_sets = _tables(P)
    independent = _independent(spec.tower.field("top"), h)
    checked = 0
    for ranks, first, count in _blocks(spec, step):
        if key_sets is not None and _block_clean(
                [row[rk] for row, rk in zip(key_sets, ranks)]):
            checked += count
            continue
        pg, rest = _block(spec, ranks)
        # each extra is looked up in the table of its own group
        by_group = [row[rk] for row, rk in zip(tables, ranks)]
        for extra in _strided_combinations(rest, h, step, first):
            checked += 1
            if not independent([by_group[c // r][c] for c in extra]):
                return checked, ErasurePattern(per_group=pg, extra=extra)
    return checked, None


def verify_mr(P: MrParityCheck, budget: int | None = None,
              sample: int | None = None) -> VerifyReport:
    """Check the two parity-check conditions by enumeration.

    (a) the local block A passes the exhaustive MDS subset test;
    (b) for every erasure pattern the selected n*delta+h columns of H
        are independent.  Exhaustive unless `sample` is given, in which
        case an evenly strided subset of at least that many patterns is
        checked and the report is labelled accordingly.

    The sample size is checked first, then (a), then the budget (_gate).
    With A MDS, the delta columns S_g a pattern erases in group g carry
    the group's local pivots, so (b) holds iff the h extras, reduced
    against them, are independent (_independent), read off P's tables
    (_tables, one per group and subset, shared with
    verify_mr_structured).  One certificate for the whole code then
    decides every run, exhaustive or sampled (_certified): for h <= 2
    no key undefined, no equal keys within a table and no key in two
    groups' tables; for h >= 3 every structured support, when there are
    no more of them than covered patterns.  When it holds every covered
    pattern passes, and they are counted without a block being visited.
    Only when it fails are the patterns walked (_block_walk), to find
    the first failure: for h <= 2 a block (the patterns sharing their
    per-group subsets) whose tables pass the key-set test (_block_clean)
    is decided whole; the other blocks, and every block for h >= 3, are
    walked pattern by pattern, one check each (an h x h rank computation
    for h >= 3).  Either way the counts, the first failure and the
    verdict are those of a walk over every covered pattern.
    """
    t0 = perf_counter()
    report = _gate(P, budget, sample)
    if report is not None:
        report.elapsed = perf_counter() - t0
        return report
    total = pattern_count(P.spec)
    step = 1 if sample is None else max(1, total // sample)
    covered = -(-total // step)  # the patterns at 0, step, 2*step, ...
    if _certified(P, covered):
        checked, failure = covered, None
    else:
        checked, failure = _block_walk(P, step)
    return VerifyReport(failure is None, checked, failure,
                        None if sample is None else checked,
                        perf_counter() - t0,
                        reason="" if failure is None else "dependent erasure pattern")


def verify_mr_structured(P: MrParityCheck,
                         budget: int | None = None) -> VerifyReport:
    """Exhaustive verify_mr through the per-support reduction of
    Gopalan-Huang-Jenkins-Yekhanin (IEEE T-IT 2014).

    With A MDS, a group erased only on delta positions is recovered by
    A alone, and a group erased on a set E of delta + e positions adds
    e columns to the global rows: with S = E[:delta], the reduced
    columns w(S, c) of verify_mr for the c in E[delta:] (A|_S is
    invertible, so eliminating the local pivots on S leaves exactly
    these).  A maximal pattern is recoverable iff the h columns of its
    groups have rank h, so one check per support (at most h groups, a
    composition of h into parts of at most r - delta, one erased set
    per group) covers every pattern.  The support walk (_support_walk)
    is the one verify_mr's h >= 3 certificate runs, with verify_mr's
    check (_independent) on the same tables (_tables), and `checks`
    counts one per support.  Gate, budget and the success report are
    those of verify_mr, plus `checks`.  When a support fails, verify_mr
    itself (on the tables already built) locates the first
    counterexample and its report is returned, its `checks` counting
    the supports checked plus the patterns its walk decided; for
    h >= 3 its certificate first runs the support walk again, up to the
    same dependent support, before the dense walk starts.
    """
    t0 = perf_counter()
    report = _gate(P, budget, None)
    if report is not None:
        report.elapsed = perf_counter() - t0
        return report
    ok, checks = _support_walk(P)
    if ok:
        return VerifyReport(True, pattern_count(P.spec), None, None,
                            perf_counter() - t0, checks=checks)
    report = verify_mr(P, budget)
    if report.ok:
        raise AssertionError(
            "structured verifier found a dependent support "
            "that the dense walk accepts"
        )
    report.checks = checks + report.patterns_checked
    report.elapsed = perf_counter() - t0
    return report


# -- codec --------------------------------------------------------------


def generator_from_parity(P: MrParityCheck) -> FieldMatrix:
    """k x N generator: a kernel basis of H, over the top field."""
    G = kernel(P.H)
    if G.rows != P.spec.k:
        raise ParameterError(
            f"parity check is rank deficient: kernel dimension {G.rows}, expected {P.spec.k}"
        )
    return G


def _check_symbols(values: list[int], size: int, what: str) -> None:
    if values and (min(values) < 0 or max(values) >= size):
        raise ParameterError(f"{what} holds a symbol outside 0..{size - 1}")


def encode(G: FieldMatrix, msg) -> list[int]:
    """Codeword msg . G."""
    msg = list(msg)
    _check_symbols(msg, G.field().size, "message")
    return vec_mat(msg, G)


class DecodeResult(Record):
    """`certificate` is a kernel vector over the erased columns."""

    __slots__ = ("ok", "codeword", "certificate", "reason")

    def __init__(self, ok: bool, codeword: list[int] | None,
                 certificate: list[int] | None, reason: str = ""):
        self.ok = ok
        self.codeword = codeword
        self.certificate = certificate
        self.reason = reason


_DEPENDENT = "erased columns are dependent"
_INCONSISTENT = "known coordinates are inconsistent"

# Erased sets remembered per parity check.  Node-failure repair repeats
# one set over consecutive stripes, so a few dozen sets catch every repeat.
PLAN_CAP = 64


class _Plan:
    """Decoding of one erased set E, from one elimination of [H_E | I]
    to its reduced form [R | T], so that T H_E = R.

    With H_E of full column rank, R is the identity over zero rows: the
    erased values are x = -T_top s for the syndrome s of the known
    symbols, and T_bot s = 0 holds iff those symbols are consistent.
    Otherwise R is rref(H_E) over zero rows and the plan holds the
    certificate that linalg.kernel(H_E) gives first.
    """

    __slots__ = ("F", "erased", "known", "tables", "columns", "t_columns", "certificate")

    def __init__(self, P: MrParityCheck, erased: list[int], tables, columns):
        F = P.spec.tower.field("top")
        R, e = P.H.rows, len(erased)
        work = []
        for i, row in enumerate(P.H.to_rows()):
            ident = [0] * R
            ident[i] = 1
            work.append([row[j] for j in erased] + ident)
        pivots = _echelonize(F, work)
        rank = sum(1 for c in pivots if c < e)
        self.F = F
        self.erased = erased
        self.certificate = None
        if rank < e:
            free = next(c for c in range(e) if c not in pivots)
            cert = [0] * e
            cert[free] = 1
            for i, c in enumerate(pivots[:rank]):
                cert[c] = F.neg(work[i][free])
            self.certificate = tuple(cert)
            return
        erased_set = set(erased)
        self.known = [j for j in range(P.spec.N) if j not in erased_set]
        self.tables = tables
        self.columns = columns
        # column i of T as (row, entry) pairs, the entries as logs on tables
        log = None if tables is None else tables[1]
        self.t_columns = [
            [(k, work[k][e + i] if log is None else log[work[k][e + i]])
             for k in range(R) if work[k][e + i]]
            for i in range(R)
        ]

    def decode(self, received: list[int]) -> DecodeResult:
        F = self.F
        if self.certificate is not None:
            return DecodeResult(False, None, list(self.certificate), reason=_DEPENDENT)
        columns, t_columns = self.columns, self.t_columns
        R = len(t_columns)
        s = [0] * R
        out = [0] * R
        if self.tables is not None:
            exp, log = self.tables
            for j in self.known:
                v = received[j]
                if v:
                    lv = log[v]
                    for i, lh in columns[j]:
                        s[i] ^= exp[lh + lv]
            for i, a in enumerate(s):
                if a:
                    la = log[a]
                    for k, lt in t_columns[i]:
                        out[k] ^= exp[lt + la]
        else:
            add, mul = F.add, F.mul
            for j in self.known:
                v = received[j]
                if v:
                    for i, h in columns[j]:
                        s[i] = add(s[i], mul(h, v))
            for i, a in enumerate(s):
                if a:
                    for k, t in t_columns[i]:
                        out[k] = add(out[k], mul(t, a))
        e = len(self.erased)
        if any(out[e:]):
            return DecodeResult(False, None, None, reason=_INCONSISTENT)
        word = list(received)
        for pos, v in zip(self.erased, out):
            word[pos] = F.neg(v)
        return DecodeResult(True, word, None)


class _PlanCache:
    """The last PLAN_CAP erased sets decoded with one parity check, oldest
    first: a set seen once maps to None, a set seen again to its plan."""

    _UNSEEN = object()

    def __init__(self):
        self._lock = allocate_lock()
        self._plans: dict[tuple[int, ...], _Plan | None] = {}
        self._layout = None

    def plan(self, P: MrParityCheck, erased: list[int]) -> _Plan | None:
        """The plan for `erased`, or None on its first sight."""
        key = tuple(erased)
        with self._lock:
            plan = self._plans.pop(key, self._UNSEEN)
            if plan is self._UNSEEN:
                plan = None
                if len(self._plans) >= PLAN_CAP:
                    del self._plans[next(iter(self._plans))]
            elif plan is None:
                if self._layout is None:
                    self._layout = _plan_layout(P)
                plan = _Plan(P, erased, *self._layout)
            self._plans[key] = plan
            return plan


def _plan_layout(P: MrParityCheck):
    """What every plan of P shares: the (exp, log) tables where plans run
    on table lookups and XOR, as linalg._echelonize does (binary fields
    with tables; else None), and per column of H its nonzero (row,
    entry) pairs, the entries as logs on tables."""
    F = P.spec.tower.field("top")
    tables = F.tables() if F.char == 2 else None
    log = None if tables is None else tables[1]
    H = P.H
    columns = [
        [(i, v if log is None else log[v]) for i, v in enumerate(H.column(j)) if v]
        for j in range(H.cols)
    ]
    return tables, columns


def _decode_args(P: MrParityCheck, received, erased):
    spec = P.spec
    received = list(received)
    if len(received) != spec.N:
        raise ParameterError("received word length mismatch")
    _check_symbols(received, spec.ell, "received word")
    erased = sorted(set(erased))
    for e in erased:
        if not 0 <= e < spec.N:
            raise ParameterError(f"erased index {e} out of range")
    return received, erased


def erase_decode(P: MrParityCheck, received, erased) -> DecodeResult:
    """Fill in the erased coordinates from the parity equations.

    Values at erased positions in `received` are ignored, but every
    symbol must be a field element.  When the erased columns of H are
    independent the unique fill-in is returned; when they are dependent
    the failure carries a kernel vector of those columns as a
    certificate.  With nothing erased the word itself is checked: a
    codeword comes back as it is, any other word is inconsistent.

    The first sight of an erased set is decoded by erase_decode_dense.
    A set seen again among the last PLAN_CAP gets a decode plan, and
    from then on a stripe costs a syndrome over the nonzero entries of
    the known columns and one rows x rows product.  Every known symbol
    is still read, for the consistency check.  The result equals that
    of erase_decode_dense for every input.
    """
    received, erased = _decode_args(P, received, erased)
    plan = P._plans.plan(P, erased)
    if plan is None:
        return _decode_dense(P, received, erased)
    return plan.decode(received)


def erase_decode_dense(P: MrParityCheck, received, erased) -> DecodeResult:
    """erase_decode through linalg.kernel and linalg.solve on H_E alone,
    with no plan: the reference the plan path is tested against."""
    return _decode_dense(P, *_decode_args(P, received, erased))


def _decode_dense(P: MrParityCheck, received: list[int],
                  erased: list[int]) -> DecodeResult:
    spec = P.spec
    F = spec.tower.field("top")
    rows = P.H.to_rows()
    M = FieldMatrix.from_rows(spec.tower, "top", [[row[j] for j in erased] for row in rows])
    ker = kernel(M)
    if ker.rows:
        return DecodeResult(False, None, ker.row(0), reason=_DEPENDENT)
    erased_set = set(erased)
    add, mul = F.add, F.mul
    syndrome = []
    for row in rows:
        acc = 0
        for j, h in enumerate(row):
            if h and j not in erased_set:
                v = received[j]
                if v:
                    acc = add(acc, mul(h, v))
        syndrome.append(F.neg(acc))
    x = solve(M, syndrome)
    if x is None:
        return DecodeResult(False, None, None, reason=_INCONSISTENT)
    out = list(received)
    for pos, val in zip(erased, x):
        out[pos] = val
    return DecodeResult(True, out, None)
