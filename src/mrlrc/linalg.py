"""Dense exact linear algebra over one level of a field tower.

Matrices are immutable row-major lists of int element codes.  One
Gaussian elimination kernel, `_echelonize` (deterministic pivoting:
first nonzero entry per column, columns scanned left to right), is
behind `rref`, `rank`, `solve`, `kernel` and every rank check in the
package on lists of field elements; F_2 vectors packed into ints
are ranked by one XOR basis (`_xor_rank`).  `first_dependent_subset`
is the package's one walk over the k-subsets of groups of rows that
must stay independent: MDS column checks, direct sums of subspaces,
block distances.
"""

from itertools import combinations

from .errors import ParameterError
from .gf import Field, FieldTower, _undigits


class FieldMatrix:
    """rows x cols matrix over tower level `level`; entries row-major."""

    __slots__ = ("tower", "level", "rows", "cols", "data")

    def __init__(self, tower: FieldTower, level: str, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ParameterError("negative matrix dimension")
        data = list(data)
        if len(data) != rows * cols:
            raise ParameterError("entry count does not match dimensions")
        size = tower.level_size(level)
        for e in data:
            if not 0 <= e < size:
                raise ParameterError(f"entry {e} out of range for level {level}")
        self.tower = tower
        self.level = level
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def from_rows(cls, tower, level, row_lists) -> "FieldMatrix":
        row_lists = [list(r) for r in row_lists]
        rows = len(row_lists)
        cols = len(row_lists[0]) if row_lists else 0
        flat = []
        for r in row_lists:
            if len(r) != cols:
                raise ParameterError("ragged rows")
            flat.extend(r)
        return cls(tower, level, rows, cols, flat)

    @classmethod
    def identity(cls, tower, level, n) -> "FieldMatrix":
        data = [0] * (n * n)
        for i in range(n):
            data[i * n + i] = 1
        return cls(tower, level, n, n, data)

    @classmethod
    def zero(cls, tower, level, rows, cols) -> "FieldMatrix":
        return cls(tower, level, rows, cols, [0] * (rows * cols))

    def field(self) -> Field:
        return self.tower.field(self.level)

    def at(self, i, j):
        return self.data[i * self.cols + j]

    def row(self, i) -> list:
        return self.data[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [self.row(i) for i in range(self.rows)]

    def column(self, j) -> list:
        return self.data[j :: self.cols] if self.cols else []

    def transpose(self) -> "FieldMatrix":
        data = [0] * (self.rows * self.cols)
        for i in range(self.rows):
            base = i * self.cols
            for j in range(self.cols):
                data[j * self.rows + i] = self.data[base + j]
        return FieldMatrix(self.tower, self.level, self.cols, self.rows, data)

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.tower == other.tower
            and self.level == other.level
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"FieldMatrix({self.level}, {self.rows}x{self.cols})"


def _echelonize(F: Field, work: list[list[int]], reduced: bool = True) -> list[int]:
    """In-place Gaussian elimination; returns the pivot column list.

    The pivot of each column is its first nonzero entry at or below the
    current row, and rows are swapped as objects, never copied.  With
    `reduced` the result is the reduced row-echelon form.  Without it
    only the rows below each pivot are cleared and pivot rows keep their
    values, so a square matrix ends upper triangular with the pivots on
    its diagonal.  Binary fields with log/exp tables, F_2 included, run
    on table lookups and XOR instead of Field calls.
    """
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    tables = F.tables() if F.char == 2 else None
    if tables is not None:
        exp, log = tables
        n1 = F.size - 1
    else:
        sub, mul, inv = F.sub, F.mul, F.inv
    pivots = []
    r = 0
    for c in range(ncols):
        for piv in range(r, nrows):
            if work[piv][c]:
                break
        else:
            continue
        prow = work[piv]
        work[piv] = work[r]
        work[r] = prow
        lo = 0 if reduced else r + 1
        if tables is not None:
            pl = log[prow[c]]
            if reduced and pl:
                s = n1 - pl
                for t in range(c, ncols):
                    if prow[t]:
                        prow[t] = exp[log[prow[t]] + s]
                pl = 0
            for i in range(lo, nrows):
                row = work[i]
                g = row[c]
                if g and i != r:
                    # exp has 2*n1 entries and period n1, so exp[log[v] + s]
                    # is (g / pivot) * v even where the index is negative
                    s = log[g] - pl
                    row[c] = 0
                    for t in range(c + 1, ncols):
                        v = prow[t]
                        if v:
                            row[t] ^= exp[log[v] + s]
        else:
            f = inv(prow[c])
            if reduced and f != 1:
                for t in range(c, ncols):
                    if prow[t]:
                        prow[t] = mul(f, prow[t])
                f = 1
            for i in range(lo, nrows):
                row = work[i]
                g = row[c]
                if g and i != r:
                    if f != 1:
                        g = mul(g, f)
                    row[c] = 0
                    for t in range(c + 1, ncols):
                        v = prow[t]
                        if v:
                            row[t] = sub(row[t], mul(g, v))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(M: FieldMatrix):
    """Reduced row-echelon form: (R, rank, pivot columns)."""
    if M.rows == 0:
        return M, 0, []
    work = M.to_rows()
    pivots = _echelonize(M.field(), work)
    R = FieldMatrix.from_rows(M.tower, M.level, work)
    return R, len(pivots), pivots


def rank(M: FieldMatrix) -> int:
    work = M.to_rows()
    return len(_echelonize(M.field(), work, reduced=False))


def _rank_rows(F: Field, row_lists) -> int:
    """Rank of a list of coefficient rows (consumed as scratch)."""
    work = [list(r) for r in row_lists]
    return len(_echelonize(F, work, reduced=False))


def _xor_rank(rows, basis=None) -> int:
    """Rank over F_2 of vectors packed into ints (bit j is coordinate j),
    by one XOR basis keyed by leading bit: a vector is reduced by the
    basis vector that has its leading bit until it is 0 (dependent) or
    its leading bit is new (it joins the basis).  A `basis` built here
    is extended in place, and the rank is that of its vectors and the
    rows together."""
    if basis is None:
        basis = {}
    for v in rows:
        while v:
            lead = v.bit_length()
            b = basis.get(lead)
            if b is None:
                basis[lead] = v
                break
            v ^= b
    return len(basis)


def solve(M: FieldMatrix, b) -> list[int] | None:
    """One solution of M x = b (free variables zero), or None."""
    b = list(b)
    if len(b) != M.rows:
        raise ParameterError("right-hand side length mismatch")
    F = M.field()
    work = [M.row(i) + [b[i]] for i in range(M.rows)]
    pivots = _echelonize(F, work)
    if M.cols in pivots:
        return None  # a pivot in the augmented column: inconsistent
    x = [0] * M.cols
    for i, c in enumerate(pivots):
        x[c] = work[i][M.cols]
    return x


def kernel(M: FieldMatrix) -> FieldMatrix:
    """Matrix whose rows are a basis of {x : M x^T = 0}.

    One basis row per rref free column, in ascending column order.
    """
    R, rk, pivots = rref(M)
    F = M.field()
    neg = F.neg if F.char != 2 else None  # -x = x in characteristic 2
    pivset = set(pivots)
    free = [c for c in range(M.cols) if c not in pivset]
    rows = []
    for fcol in free:
        v = [0] * M.cols
        v[fcol] = 1
        for i, pc in enumerate(pivots):
            e = R.at(i, fcol)
            v[pc] = neg(e) if neg else e
        rows.append(v)
    if not rows:
        return FieldMatrix(M.tower, M.level, 0, M.cols, [])
    return FieldMatrix.from_rows(M.tower, M.level, rows)


def matmul(A: FieldMatrix, B: FieldMatrix) -> FieldMatrix:
    if A.cols != B.rows:
        raise ParameterError("inner dimensions do not match")
    if A.level != B.level or A.tower != B.tower:
        raise ParameterError("matrix level mismatch")
    F = A.field()
    add, mul = F.add, F.mul
    brows = B.to_rows()
    out = []
    for i in range(A.rows):
        arow = A.row(i)
        acc = [0] * B.cols
        for k, aik in enumerate(arow):
            if aik:
                brow = brows[k]
                for j in range(B.cols):
                    v = brow[j]
                    if v:
                        acc[j] = add(acc[j], mul(aik, v))
        out.append(acc)
    return FieldMatrix.from_rows(A.tower, A.level, out) if out else FieldMatrix(
        A.tower, A.level, 0, B.cols, []
    )


def vec_mat(v, M: FieldMatrix) -> list[int]:
    """Row vector times matrix."""
    v = list(v)
    if len(v) != M.rows:
        raise ParameterError("vector length mismatch")
    F = M.field()
    add, mul = F.add, F.mul
    acc = [0] * M.cols
    for k, vk in enumerate(v):
        if vk:
            row = M.row(k)
            for j in range(M.cols):
                e = row[j]
                if e:
                    acc[j] = add(acc[j], mul(vk, e))
    return acc


def comb(n: int, k: int) -> int:
    """C(n, k) as `math.comb` gives it: 0 for k > n, ValueError on a
    negative argument.  Every caller counts subsets or fills a table,
    so loading `math`, a shared library, at start-up is not worth it."""
    if n < 0:
        raise ValueError("n must be a non-negative integer")
    if k < 0:
        raise ValueError("k must be a non-negative integer")
    if k > n:
        return 0
    k = min(k, n - k)
    c = 1
    for i in range(1, k + 1):
        c = c * (n - k + i) // i
    return c


def prod(values) -> int:
    """The product of `values`, 1 if there are none (`math.prod`)."""
    p = 1
    for v in values:
        p *= v
    return p


def _unrank_combination(m: int, k: int, idx: int) -> tuple[int, ...]:
    """idx-th k-subset of range(m) in lexicographic order."""
    return next(_strided_combinations(range(m), k, 1, idx))


_COMB_TABLES: dict = {}


def _comb_tables(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Row s holds C(c, s) for c = 0..m, for s = 0..k.  Memoised; the
    memo is emptied before it would pass 16 entries."""
    tables = _COMB_TABLES.get((m, k))
    if tables is None:
        if len(_COMB_TABLES) >= 16:
            _COMB_TABLES.clear()
        tables = _COMB_TABLES[m, k] = tuple(
            tuple(comb(c, s) for c in range(m + 1)) for s in range(k + 1))
    return tables


def _strided_combinations(pool, k: int, step: int = 1, first: int = 0):
    """The k-subsets of `pool` (as tuples of its items) at indices first,
    first + step, first + 2*step, ... of the lexicographic order.

    Except for the plain walk (step 1 from index 0), each subset is read
    off its index from the end, written in the combinatorial number
    system: the largest c with C(c, s) at most what is left, for s = k
    down to 1, found by bisecting a table of C(., s) (_comb_tables).
    """
    pool = tuple(pool)
    m = len(pool)
    if step == 1 and first == 0:
        yield from combinations(pool, k)
        return
    from bisect import bisect_right  # only here: it loads a C extension

    tables = _comb_tables(m, k)
    total = tables[k][m]
    last = m - 1
    for idx in range(first, total, step):
        left = total - 1 - idx
        sel = []
        for s in range(k, 0, -1):
            table = tables[s]
            c = bisect_right(table, left) - 1
            left -= table[c]
            sel.append(pool[last - c])
        yield tuple(sel)


def first_dependent_subset(F: Field, groups, k: int, step: int = 1):
    """Walk the k-subsets of `groups` (each a list of rows) in
    lexicographic order, rank-checking the stacked rows of each.

    Returns (the first subset whose rows are dependent, or None; the
    number of subsets checked).  With step > 1 only the subsets at
    indices 0, step, 2*step, ... are checked (_strided_combinations).

    Over F_2 each row is packed into an int once, bit j its coordinate
    j, and ranked by XOR bases (`_xor_rank`).  bases[j] is the basis of
    the first j groups of the current subset, all independent, so a
    subset that shares its first j groups with the one before starts
    from bases[j] and reduces only its other groups' rows.
    """
    walk = _strided_combinations(range(len(groups)), k, step)
    checked = 0
    if F.size != 2:
        for sel in walk:
            checked += 1
            rows = [v for i in sel for v in groups[i]]
            if _rank_rows(F, rows) != len(rows):
                return sel, checked
        return None, checked
    groups = [[_undigits(v, 2) for v in group] for group in groups]
    bases, prev = [{}], ()
    for sel in walk:
        checked += 1
        j = 0
        while j < len(prev) and sel[j] == prev[j]:
            j += 1
        del bases[j + 1:]
        for i in sel[j:]:
            basis = dict(bases[-1])
            if _xor_rank(groups[i], basis) != len(bases[-1]) + len(groups[i]):
                return sel, checked
            bases.append(basis)
        prev = sel
    return None, checked


def columns_independent(M: FieldMatrix, idxs) -> bool:
    """True iff the selected columns have rank len(idxs)."""
    idxs = list(idxs)
    for j in idxs:
        if not 0 <= j < M.cols:
            raise ParameterError(f"column index {j} out of range")
    if len(idxs) > M.rows:
        return False
    # rank of the transposed selection: each selected column becomes a row
    rows = [[M.at(i, j) for i in range(M.rows)] for j in idxs]
    return _rank_rows(M.field(), rows) == len(idxs)


def is_mds_parity_check(A: FieldMatrix, delta: int) -> bool:
    """True iff every delta-subset of columns of A is independent.

    A must have exactly delta rows; decided by exhausting all C(cols, delta)
    subsets, which doubles as an oracle for constructor bugs.
    """
    if delta > A.cols:
        raise ParameterError("delta exceeds the number of columns")
    if A.rows != delta:
        raise ParameterError("matrix must have exactly delta rows")
    cols = [[A.column(j)] for j in range(A.cols)]
    return first_dependent_subset(A.field(), cols, delta)[0] is None
