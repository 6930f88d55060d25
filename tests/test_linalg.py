from __future__ import annotations

import random
from itertools import combinations
from math import comb

import pytest

from mrlrc import linalg
from mrlrc.errors import ParameterError
from mrlrc.gf import make_tower
from mrlrc.linalg import (
    FieldMatrix,
    _comb_tables,
    _rank_rows,
    _strided_combinations,
    _unrank_combination,
    _xor_rank,
    columns_independent,
    first_dependent_subset,
    is_mds_parity_check,
    kernel,
    mat_vec,
    matmul,
    rank,
    rref,
    solve,
    vec_mat,
)

F2 = make_tower(2)
F4T = make_tower(2, 1, 2)
F5 = make_tower(5)


def rand_matrix(tower, level, rows, cols, rng):
    size = tower.level_size(level)
    return FieldMatrix(tower, level, rows, cols,
                       [rng.randrange(size) for _ in range(rows * cols)])


def test_rref_identity_and_zero():
    I = FieldMatrix.identity(F5, "prime", 3)
    R, rk, piv = rref(I)
    assert R == I and rk == 3 and piv == [0, 1, 2]
    Z = FieldMatrix.zero(F5, "prime", 2, 4)
    R, rk, piv = rref(Z)
    assert R == Z and rk == 0 and piv == []


def test_rref_proportional_moore_rows_rank_one():
    # rows (x, x) and (x+1, x+1) over F_4 are proportional
    M = FieldMatrix.from_rows(F4T, "top", [[2, 2], [3, 3]])
    _, rk, _ = rref(M)
    assert rk == 1


def test_rref_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        M = rand_matrix(F4T, "top", rng.randrange(1, 5), rng.randrange(1, 5), rng)
        R, rk, piv = rref(M)
        R2, rk2, piv2 = rref(R)
        assert R2 == R and rk2 == rk and piv2 == piv


def test_rank_equals_transpose_rank_exhaustive_f2():
    for bits in range(2**9):
        data = [(bits >> i) & 1 for i in range(9)]
        M = FieldMatrix(F2, "prime", 3, 3, data)
        assert rank(M) == rank(M.transpose())


def test_rank_equals_transpose_rank_sampled_f3():
    t3 = make_tower(3)
    rng = random.Random(5)
    for _ in range(200):
        M = rand_matrix(t3, "prime", 4, 4, rng)
        assert rank(M) == rank(M.transpose())


def test_solve_examples():
    I = FieldMatrix.identity(F5, "prime", 3)
    assert solve(I, [4, 0, 2]) == [4, 0, 2]
    M = FieldMatrix.from_rows(F2, "prime", [[1, 1]])
    assert solve(M, [1]) == [1, 0]  # free variable pinned to zero
    M2 = FieldMatrix.from_rows(F2, "prime", [[1, 0], [1, 0]])
    assert solve(M2, [0, 1]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ParameterError):
        solve(FieldMatrix.identity(F2, "prime", 2), [1])


def test_solve_kernel_full_solution_set():
    rng = random.Random(13)
    for _ in range(30):
        M = rand_matrix(F4T, "top", 3, 5, rng)
        F = M.field()
        truth = [rng.randrange(4) for _ in range(5)]
        b = mat_vec(M, truth)
        x0 = solve(M, b)
        assert x0 is not None
        K = kernel(M)
        assert K.rows == 5 - rank(M)
        for pick in range(K.rows + 1):
            x = list(x0)
            for i in range(pick):
                x = [F.add(u, v) for u, v in zip(x, K.row(i))]
            assert mat_vec(M, x) == b


def test_kernel_examples():
    M = FieldMatrix.from_rows(F2, "prime", [[1, 1]])
    assert kernel(M).to_rows() == [[1, 1]]
    assert kernel(FieldMatrix.identity(F2, "prime", 3)).rows == 0
    rng = random.Random(17)
    for _ in range(30):
        M = rand_matrix(F5, "prime", 3, 6, rng)
        K = kernel(M)
        assert K.rows == 6 - rank(M)
        for i in range(K.rows):
            assert mat_vec(M, K.row(i)) == [0, 0, 0]


def test_columns_independent_basics():
    I = FieldMatrix.identity(F5, "prime", 4)
    assert columns_independent(I, [0, 2, 3])
    assert not columns_independent(I, [1, 1])  # duplicated selection
    with pytest.raises(ParameterError):
        columns_independent(I, [4])


def test_columns_independent_invariant_under_row_ops():
    # exhaustive: every 2x3 matrix over F_2, every invertible T, every subset
    invertibles = []
    for bits in range(16):
        T = FieldMatrix(F2, "prime", 2, 2, [(bits >> i) & 1 for i in range(4)])
        if rank(T) == 2:
            invertibles.append(T)
    assert len(invertibles) == 6
    subsets = [s for k in range(1, 4) for s in combinations(range(3), k)]
    for bits in range(2**6):
        M = FieldMatrix(F2, "prime", 2, 3, [(bits >> i) & 1 for i in range(6)])
        for T in invertibles:
            TM = matmul(T, M)
            for I in subsets:
                assert columns_independent(M, I) == columns_independent(TM, I)


def test_matmul_against_naive():
    rng = random.Random(23)
    F = F4T.field("top")
    for _ in range(20):
        A = rand_matrix(F4T, "top", 2, 3, rng)
        B = rand_matrix(F4T, "top", 3, 4, rng)
        C = matmul(A, B)
        for i in range(2):
            for j in range(4):
                acc = 0
                for k in range(3):
                    acc = F.add(acc, F.mul(A.at(i, k), B.at(k, j)))
                assert C.at(i, j) == acc
        v = [rng.randrange(4) for _ in range(2)]
        assert vec_mat(v, A) == [matmul(FieldMatrix.from_rows(F4T, "top", [v]), A).at(0, j) for j in range(3)]


def test_is_mds_parity_check_examples():
    ones = FieldMatrix.from_rows(F5, "prime", [[1] * 6])
    assert is_mds_parity_check(ones, 1)

    # 2x4 Vandermonde over F_5; oracle: all 2x2 determinants mod 5
    V = FieldMatrix.from_rows(F5, "prime", [[1, 1, 1, 1], [0, 1, 2, 3]])
    for i, j in combinations(range(4), 2):
        det = (V.at(0, i) * V.at(1, j) - V.at(0, j) * V.at(1, i)) % 5
        assert det != 0
    assert is_mds_parity_check(V, 2)

    Z = FieldMatrix.from_rows(F5, "prime", [[1, 0, 1], [1, 0, 2]])
    assert not is_mds_parity_check(Z, 2)  # zero column


def test_is_mds_parity_check_errors():
    M = FieldMatrix.from_rows(F2, "prime", [[1, 1]])
    with pytest.raises(ParameterError):
        is_mds_parity_check(M, 3)
    with pytest.raises(ParameterError):
        is_mds_parity_check(M, 0)  # rows != delta


def test_unrank_combination_matches_lexicographic_order():
    for m, k in ((5, 2), (7, 3), (6, 6), (4, 1)):
        for idx, sel in enumerate(combinations(range(m), k)):
            assert _unrank_combination(m, k, idx) == sel


def test_comb_tables_are_memoised_within_16_entries():
    keys = [(m, k) for m in range(8) for k in range(m + 1)]  # 36 keys
    for m, k in keys + keys[::-1]:
        want = tuple(tuple(comb(c, s) for c in range(m + 1)) for s in range(k + 1))
        assert _comb_tables(m, k) == want
        assert _comb_tables(m, k) is _comb_tables(m, k)
        assert len(linalg._COMB_TABLES) <= 16


def test_strided_combinations_match_sliced_lexicographic_order():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(m=st.integers(0, 12), k=st.integers(0, 5), step=st.integers(1, 40),
               first=st.integers(0, 60))
    def check(m, k, step, first):
        want = list(combinations(range(m), k))[first::step]
        assert list(_strided_combinations(range(m), k, step, first)) == want
        # any pool: the items at those positions
        pool = [chr(97 + i) for i in range(m)]
        assert list(_strided_combinations(pool, k, step, first)) == [
            tuple(pool[i] for i in sel) for sel in want]

    check()


def test_xor_rank_matches_the_rank_over_f2():
    # random bit vectors, and rows planted as XORs of earlier rows
    rng = random.Random(11)
    F = F2.field("prime")
    for trial in range(400):
        width, count = rng.randint(1, 12), rng.randint(0, 6)
        rows = [rng.randrange(1 << width) for _ in range(count)]
        if rows and trial % 2:
            rows.append(rows[0] ^ rows[-1])
        bits = [[(v >> j) & 1 for j in range(width)] for v in rows]
        assert _xor_rank(rows) == _rank_rows(F, bits), rows


def test_first_dependent_subset_strided_matches_filtered_walk():
    """The strided walk checks exactly the subsets at indices 0, step,
    2*step, ... of the full lexicographic walk and stops at the first
    dependent one among them."""
    rng = random.Random(7)
    F = F4T.field("top")
    for trial in range(40):
        n, k, size = rng.randint(3, 7), rng.randint(1, 3), rng.randint(1, 2)
        k = min(k, n)
        width = k * size + rng.randint(0, 1)
        groups = [[[rng.randrange(4) for _ in range(width)] for _ in range(size)]
                  for _ in range(n)]
        if trial % 2:
            groups[rng.randrange(n)] = groups[rng.randrange(n)]  # plant a repeat
        for step in (1, 2, 3, 5):
            expected, checked = None, 0
            for idx, sel in enumerate(combinations(range(n), k)):
                if idx % step:
                    continue
                checked += 1
                rows = [v for i in sel for v in groups[i]]
                if _rank_rows(F, rows) != len(rows):
                    expected = sel
                    break
            assert first_dependent_subset(F, groups, k, step) == (expected, checked)


def test_f2_first_dependent_subset_matches_rank_rows_walk():
    """Over F_2 the walk packs rows into ints and reuses the XOR bases of
    shared prefixes; it must return the subset and count of a plain
    `_rank_rows` loop over the same strided subsets."""
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    F = F2.field("prime")

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(st.data())
    def check(data):
        k = data.draw(st.sampled_from((1, 2, 3)))
        step = data.draw(st.sampled_from((1, 2, 5)))
        n = data.draw(st.integers(k, 8))
        size = data.draw(st.integers(1, 3))
        width = data.draw(st.integers(1, k * size + 1))
        bits = st.lists(st.integers(0, 1), min_size=width, max_size=width)
        groups = [[data.draw(bits) for _ in range(size)] for _ in range(n)]
        for _ in range(data.draw(st.integers(0, 2))):  # plant dependencies
            a, b, c = (data.draw(st.integers(0, n - 1)) for _ in range(3))
            kind = data.draw(st.sampled_from(("sum", "repeat", "zero")))
            if kind == "sum":  # a row of c is the sum of rows of a and b
                groups[c][-1] = [x ^ y for x, y in zip(groups[a][0], groups[b][-1])]
            elif kind == "repeat":
                groups[c] = groups[a]
            else:
                groups[c][0] = [0] * width
        expected, checked = None, 0
        for sel in _strided_combinations(range(n), k, step):
            checked += 1
            rows = [v for i in sel for v in groups[i]]
            if _rank_rows(F, rows) != len(rows):
                expected = sel
                break
        assert first_dependent_subset(F, groups, k, step) == (expected, checked)

    check()


def test_matrix_validation():
    with pytest.raises(ParameterError):
        FieldMatrix(F2, "prime", 1, 2, [0, 2])  # code out of range
    with pytest.raises(ParameterError):
        FieldMatrix(F2, "prime", 2, 2, [0, 1, 1])  # wrong entry count
