"""The elimination kernel's log/exp table path against its generic path.

Binary extension fields with tables run `_echelonize` on table lookups
and XOR; with `Field.tables` patched to return None the same matrices go
through Field calls.  Every routine built on the kernel must give the
same answer both ways, and `det` must match the Leibniz sum.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import pytest

from mrlrc.gf import Field, make_tower
from mrlrc.linalg import FieldMatrix, det, kernel, rank, rref, solve, vec_mat

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

TOWERS = ((2, 1, 6), (2, 2, 3), (2, 1, 1), (3, 1, 4))


@lru_cache(maxsize=None)
def _tower(p, a, m):
    return make_tower(p, a, m)


@st.composite
def matrices(draw):
    """Random matrices up to 8x8 at the mid or top level; about half of
    the rows after the first may be replaced by a combination of two
    earlier rows, so rank-deficient matrices are common."""
    t = _tower(*draw(st.sampled_from(TOWERS)))
    level = draw(st.sampled_from(("mid", "top")))
    F = t.field(level)
    nrows = draw(st.integers(1, 8))
    ncols = nrows if draw(st.booleans()) else draw(st.integers(1, 8))
    entry = st.integers(0, F.size - 1)
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.booleans()):
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(entry), draw(entry)
            rows[i] = [F.add(F.mul(a, x), F.mul(b, y)) for x, y in zip(rows[j], rows[k])]
    x = draw(st.lists(entry, min_size=ncols, max_size=ncols))
    b = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return FieldMatrix.from_rows(t, level, rows), x, b


def _results(M, x, b):
    """Everything the kernel computes for M: rank, rref, kernel, solve of
    a consistent system (M x) and of an arbitrary one (b), det."""
    consistent = vec_mat(x, M.transpose())
    return (
        rank(M),
        rref(M),
        kernel(M),
        solve(M, consistent),
        solve(M, b),
        det(M) if M.rows == M.cols else None,
    )


def _leibniz(M):
    F = M.field()
    k = M.rows
    total = 0
    for perm in permutations(range(k)):
        term = 1
        for i, j in enumerate(perm):
            term = F.mul(term, M.at(i, j))
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        total = F.sub(total, term) if inversions % 2 else F.add(total, term)
    return total


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(matrices())
def test_table_path_matches_generic_path(case):
    M, x, b = case
    table = _results(M, x, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Field, "tables", lambda self: None)
        generic = _results(M, x, b)
    assert table == generic
    rk, (R, rk_rref, pivots), K, sol, _, d = table
    assert rk == rk_rref == len(pivots) and K.rows == M.cols - rk
    assert sol is not None
    assert vec_mat(sol, M.transpose()) == vec_mat(x, M.transpose())
    if M.rows == M.cols:
        assert (d != 0) == (rk == M.rows)
        if M.rows <= 4:
            assert d == _leibniz(M)


def test_table_path_is_taken_on_binary_towers():
    for p, a, m in TOWERS:
        F = _tower(p, a, m).field("top")
        if p == 2 and F.size > 2:
            assert F.tables() is not None


def test_det_of_permuted_identity_carries_the_sign():
    t = _tower(3, 1, 4)
    F = t.field("top")

    def permuted(order):
        n = len(order)
        return FieldMatrix.from_rows(t, "top", [[int(j == i) for j in range(n)] for i in order])

    assert det(permuted((1, 0, 3, 2))) == 1  # two transpositions
    assert det(permuted((1, 2, 0))) == 1  # a 3-cycle
    assert det(permuted((1, 0, 2))) == F.neg(1)
