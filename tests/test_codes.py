from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from mrlrc import codes, config
from mrlrc.codes import (
    BlockCode,
    LinearCode,
    bch_parity_check,
    block_distance_at_least,
    block_min_distance,
    block_weight,
    pi_expand,
    rs_parity_check,
    subfield_subcode,
    _min_weight,
    _parity_distance,
)
from mrlrc.errors import BudgetError, ParameterError
from mrlrc.gf import make_tower
from mrlrc.linalg import FieldMatrix, is_mds_parity_check, kernel, mat_vec, rank, rref
from mrlrc.sdss import subfield_construct


def brute_codewords(F, gen_rows):
    """Oracle: all codewords by plain message enumeration (no Gray walk)."""
    if not gen_rows:
        return [[]]
    n = len(gen_rows[0])
    out = []
    for msg in product(range(F.size), repeat=len(gen_rows)):
        cw = [0] * n
        for coef, row in zip(msg, gen_rows):
            if coef:
                for t in range(n):
                    if row[t]:
                        cw[t] = F.add(cw[t], F.mul(coef, row[t]))
        out.append(cw)
    return out


def brute_min_block_weight(F, gen_rows, r):
    best = None
    for cw in brute_codewords(F, gen_rows):
        if any(cw):
            w = block_weight(cw, r)
            if best is None or w < best:
                best = w
    return best


# -- MDS parity checks ---------------------------------------------------


def test_rs_single_parity_is_all_ones():
    for r in (2, 3):
        A = rs_parity_check(make_tower(2), "prime", r, 1)
        assert A.to_rows() == [[1] * r]
    A = rs_parity_check(make_tower(5), "prime", 6, 1)
    assert A.to_rows() == [[1] * 6]


def test_rs_vandermonde_f5():
    A = rs_parity_check(make_tower(5), "prime", 4, 2)
    assert A.to_rows() == [[1, 1, 1, 1], [0, 1, 2, 3]]
    # oracle: every 2x2 minor nonzero mod 5
    for i, j in combinations(range(4), 2):
        assert (A.at(0, i) * A.at(1, j) - A.at(0, j) * A.at(1, i)) % 5 != 0
    assert is_mds_parity_check(A, 2)


def test_rs_extended_f2():
    A = rs_parity_check(make_tower(2), "prime", 3, 2)
    assert A.to_rows() == [[1, 1, 0], [0, 1, 1]]
    # oracle: exhaustive 2-subset independence over F_2
    cols = [A.column(j) for j in range(3)]
    for i, j in combinations(range(3), 2):
        u, v = cols[i], cols[j]
        assert any(u) and any(v) and u != v
    assert is_mds_parity_check(A, 2)


# rs_parity_check rests on the theorem that a Vandermonde matrix on
# distinct nodes is MDS; this is its oracle on every local code over
# q in {2, 3, 4, 5, 7, 8} (r <= q+1) and, at the top level of F_16,
# on every RS code of length up to 17 with at most 4 parity rows
_RS_GRID = [((2,), 3, 1), ((3,), 4, 2), ((5,), 6, 3), ((2, 2), 5, 2), ((2, 2), 5, 4)]
_RS_GRID += [shape for q_args, q in (((2,), 2), ((3,), 3), ((2, 2), 4), ((5,), 5),
                                     ((7,), 7), ((2, 3), 8))
             for r in range(2, q + 2) for delta in range(1, r)
             if (shape := (q_args, r, delta)) not in _RS_GRID]
_RS_GRID += [((2, 1, 4), r, delta) for r in range(2, 18) for delta in range(1, min(r, 5))]


@pytest.mark.parametrize("q_args,r,delta", _RS_GRID)
def test_rs_parity_is_mds_across_grid(q_args, r, delta):
    t = make_tower(*q_args)
    level = ("prime", "mid", "top")[len(q_args) - 1]
    assert is_mds_parity_check(rs_parity_check(t, level, r, delta), delta)


def test_rs_rejects_too_long():
    with pytest.raises(ParameterError):
        rs_parity_check(make_tower(2), "prime", 4, 2)  # r > q+1


def test_linear_code_checks_generator_against_parity():
    t = make_tower(5)
    H = rs_parity_check(t, "prime", 4, 2)
    G = kernel(H)
    code = LinearCode(t, "prime", 4, generator=G, parity=H)
    assert code.dim == 2
    # unit rows are independent but not orthogonal to an MDS parity check
    with pytest.raises(ParameterError, match="disagree"):
        LinearCode(t, "prime", 4, parity=H,
                   generator=FieldMatrix.from_rows(t, "prime", [[1, 0, 0, 0], [0, 1, 0, 0]]))


# -- BCH -------------------------------------------------------------------


def test_bch_hamming_15_11_3():
    H = bch_parity_check(4, 1)
    assert 15 - H.rows == 11  # n - delta*t_exp
    code = LinearCode.from_parity(H)
    assert block_min_distance(BlockCode(code, 1)) == 3


def test_bch_15_7_5():
    H = bch_parity_check(4, 2)
    assert 15 - H.rows == 7
    assert block_min_distance(BlockCode(LinearCode.from_parity(H), 1)) == 5


def test_bch_7_4_3_exhaustive_oracle():
    H = bch_parity_check(3, 1)
    assert 15 - 8 == 7  # sanity on the arithmetic above
    code = LinearCode.from_parity(H)
    assert (code.length, code.dim) == (7, 4)
    F = code.field()
    gen = code.generator_matrix().to_rows()
    weights = sorted(sum(1 for c in cw if c) for cw in brute_codewords(F, gen) if any(cw))
    assert weights[0] == 3
    # every codeword satisfies the parity equations
    for cw in brute_codewords(F, gen):
        assert mat_vec(H, cw) == [0] * H.rows


@pytest.mark.parametrize("t_exp,checked", [(3, [1, 2]), (4, [1, 2, 3]), (5, [3, 4, 5, 6])])
def test_bch_meets_its_designed_distance(t_exp, checked):
    # bch_parity_check rests on the BCH bound; this is its oracle on every
    # code of length 2^t_exp - 1 whose codebook fits the default budget
    n = 2**t_exp - 1
    seen = []
    for delta in range(1, n):
        if delta * t_exp >= n:
            break
        code = LinearCode.from_parity(bch_parity_check(t_exp, delta))
        if 2**code.dim <= config.CODEBOOK_BUDGET:
            assert block_min_distance(BlockCode(code, 1)) >= 2 * delta + 1
            seen.append(delta)
    assert seen == checked


def test_bch_preconditions():
    with pytest.raises(ParameterError):
        bch_parity_check(4, 0)
    with pytest.raises(ParameterError):
        bch_parity_check(3, 3)  # delta*t_exp >= n


# -- subfield subcodes -------------------------------------------------------


def test_subfield_subcode_trivial_extension():
    t = make_tower(3, 1, 1)
    H = FieldMatrix.from_rows(t, "top", [[1, 2, 0], [2, 1, 1]])
    Hq = subfield_subcode(H)
    R, rk, _ = rref(H)
    assert Hq.to_rows() == R.to_rows()[:rk]


def test_subfield_subcode_of_rs_over_f4():
    t = make_tower(2, 1, 2)
    H = rs_parity_check(t, "top", 5, 2)  # [5,3,3] over F_4
    Hq = subfield_subcode(H)
    sub = LinearCode.from_parity(Hq)
    assert sub.dim >= 5 - 2 * 2  # n - (n-k)*u
    assert sub.dim >= 1
    assert block_min_distance(BlockCode(sub, 1)) >= 3

    # oracle: the literal intersection with F_2^5
    F4 = t.field("top")
    parent = LinearCode.from_parity(H)
    parent_cw = brute_codewords(F4, parent.generator_matrix().to_rows())
    rational = sorted(tuple(c) for c in parent_cw if all(x < 2 for x in c))
    sub_cw = sorted(
        tuple(c) for c in brute_codewords(sub.field(), sub.generator_matrix().to_rows())
    )
    assert rational == sub_cw


def test_subfield_subcode_full_space_parent():
    t = make_tower(2, 1, 2)
    H = FieldMatrix(t, "top", 0, 4, [])
    Hq = subfield_subcode(H)
    assert Hq.rows == 0 and Hq.cols == 4


# -- block codes ---------------------------------------------------------------


def test_pi_expand_mds_barrel():
    # [5,3,3] MDS over F_4 -> [(5,2), 6, 3] block code
    t = make_tower(2, 1, 2)
    C = LinearCode.from_parity(rs_parity_check(t, "top", 5, 2))
    B = pi_expand(C)
    assert (B.n_blocks, B.block_size, B.dim) == (5, 2, 6)
    assert block_min_distance(B) == 3
    # oracle: brute enumeration of all 64 codewords
    assert brute_min_block_weight(B.code.field(), B.code.generator_matrix().to_rows(), 2) == 3


def test_pi_expand_cardinality_and_distance_map():
    t = make_tower(2, 1, 2)
    C = LinearCode.from_parity(rs_parity_check(t, "top", 3, 1))
    B = pi_expand(C)
    F4 = t.field("top")
    parent = brute_codewords(F4, C.generator_matrix().to_rows())
    child = brute_codewords(B.code.field(), B.code.generator_matrix().to_rows())
    assert len(set(map(tuple, parent))) == len(set(map(tuple, child)))
    lam = t.fq_basis()
    # expansion of each parent word appears with identical block weight
    for cw in parent:
        flat = [c for sym in cw for c in t.top_to_vec(sym)]
        assert block_weight(flat, 2) == sum(1 for s in cw if s)
        assert flat in child


def test_pi_expand_repetition():
    t = make_tower(2, 1, 2)
    G = FieldMatrix.from_rows(t, "top", [[1, 1]])
    B = pi_expand(LinearCode.from_generator(G))
    assert (B.n_blocks, B.block_size, B.dim) == (2, 2, 2)
    assert block_min_distance(B) == 2


def test_pi_expand_zero_code():
    t = make_tower(2, 1, 2)
    C = LinearCode.from_generator(FieldMatrix(t, "top", 0, 3, []))
    B = pi_expand(C)
    assert B.dim == 0
    assert block_min_distance(B) == B.n_blocks + 1  # sentinel


def test_block_weight():
    assert block_weight([0, 0, 0, 0], 2) == 0
    assert block_weight([0, 0, 1, 0, 0, 0], 2) == 1
    assert block_weight([1] * 12, 3) == 4
    with pytest.raises(ParameterError):
        block_weight([1, 2, 3], 2)


def test_block_min_distance_full_space():
    t = make_tower(2)
    B = BlockCode(LinearCode.from_generator(FieldMatrix.identity(t, "prime", 4)), 2)
    assert block_min_distance(B) == 1


def test_block_min_distance_budget():
    t = make_tower(2)
    G = FieldMatrix.identity(t, "prime", 8)
    B = BlockCode(LinearCode.from_generator(G), 2)
    with pytest.raises(BudgetError):
        block_min_distance(B, budget=2**6)


def test_min_weight_gray_walk_matches_brute():
    rng = random.Random(29)
    # odd q with one- and two-digit symbols, lanes of 3 and 4 bits, and
    # F_9 reached both as F_q and as F_{q^m}
    cases = [(make_tower(2), "prime", 2), (make_tower(2, 1, 2), "top", 2),
             (make_tower(3), "prime", 3), (make_tower(5), "prime", 2),
             (make_tower(7), "prime", 2), (make_tower(3, 2), "mid", 2),
             (make_tower(3, 1, 2), "top", 2), (make_tower(2, 1, 3), "top", 2)]
    for tower, level, r in cases:
        F = tower.field(level)
        for _ in range(15):
            k = rng.randrange(1, 4)
            n = r * rng.randrange(2, 4)
            rows = [[rng.randrange(F.size) for _ in range(n)] for _ in range(k)]
            expected = brute_min_block_weight(F, rows, r)
            got = _min_weight(F, rows, r)
            if expected is None:
                assert got == n // r + 1  # only the zero span
            else:
                assert got == expected


def test_block_distance_at_least_matches_enumeration():
    t = make_tower(2, 1, 2)
    B = pi_expand(LinearCode.from_parity(rs_parity_check(t, "top", 5, 2)))
    d = block_min_distance(B)
    for k in range(0, B.n_blocks + 1):
        assert block_distance_at_least(B, k) == (d >= k + 1)


def test_block_distance_is_a_metric_f2():
    # translation-invariant form of the triangle inequality, exhaustively:
    # wt(a + b) <= wt(a) + wt(b) for all pairs in F_2^8 with blocks of 2
    for a in range(256):
        va = [(a >> i) & 1 for i in range(8)]
        wa = block_weight(va, 2)
        for b in range(256):
            vb = [(b >> i) & 1 for i in range(8)]
            s = [x ^ y for x, y in zip(va, vb)]
            assert block_weight(s, 2) <= wa + block_weight(vb, 2)
    # raw three-point form, sampled
    rng = random.Random(31)
    for _ in range(500):
        u, v, w = ([rng.randrange(2) for _ in range(8)] for _ in range(3))
        duv = block_weight([x ^ y for x, y in zip(u, v)], 2)
        dvw = block_weight([x ^ y for x, y in zip(v, w)], 2)
        duw = block_weight([x ^ y for x, y in zip(u, w)], 2)
        assert duw <= duv + dvw


def test_linear_code_duality_and_dims():
    t = make_tower(2, 1, 2)
    H = rs_parity_check(t, "top", 5, 2)
    C = LinearCode.from_parity(H)
    G = C.generator_matrix()
    assert G.rows == 3 and rank(G) == 3
    F = t.field("top")
    for i in range(G.rows):
        assert mat_vec(H, G.row(i)) == [0, 0]
    # rebuilding from the generator gives the same codeword set
    C2 = LinearCode.from_generator(G)
    assert kernel(C2.parity_matrix()).rows == 3


# -- the two exact distance routes -----------------------------------------

# q in {2, 3, 4, 5, 7}; F_4 is the mid level of the (2, 2) tower
ROUTE_FIELDS = [(make_tower(2), "prime"), (make_tower(3), "prime"),
                (make_tower(2, 2), "mid"), (make_tower(5), "prime"),
                (make_tower(7), "prime")]


def both_routes(tower, level, rows, r):
    """(Gray walk, parity-column route) distances of the span of rows."""
    F = tower.field(level)
    G = FieldMatrix.from_rows(tower, level, rows)
    n, k = G.cols // r, rank(G)
    s = n - -(-k // r) + 1  # block Singleton bound
    return _min_weight(F, rows, r), _parity_distance(kernel(G), r, s)


def test_parity_route_matches_gray_walk_and_brute():
    rng = random.Random(41)
    for tower, level in ROUTE_FIELDS:
        F = tower.field(level)
        for r in (1, 2, 3):
            for trial in range(12):
                n = rng.randrange(2, 5)
                k = rng.randrange(1, 4)
                rows = [[rng.randrange(F.size) for _ in range(n * r)] for _ in range(k)]
                if trial % 4 == 1:  # a block that is zero in every codeword
                    b = rng.randrange(n)
                    for row in rows:
                        row[b * r:(b + 1) * r] = [0] * r
                if trial % 4 == 2 and k > 1:  # dependent generator rows
                    c = rng.randrange(1, F.size)
                    rows[-1] = [F.add(x, F.mul(c, y)) for x, y in zip(rows[0], rows[1])]
                if not any(map(any, rows)):
                    continue
                expected = brute_min_block_weight(F, rows, r)
                assert both_routes(tower, level, rows, r) == (expected, expected)
            # the full space: every single block carries a codeword
            full = FieldMatrix.identity(tower, level, 2 * r).to_rows()
            assert both_routes(tower, level, full, r) == (1, 1)


@pytest.mark.parametrize("p,m,n,k", [(2, 2, 5, 3), (2, 3, 9, 4), (3, 2, 10, 2),
                                     (2, 2, 4, 1)])
def test_parity_route_reaches_singleton_on_mds_expansions(p, m, n, k):
    # pi-expanded RS[n, k] over F_{p^m}: d = n - k + 1, the block Singleton bound
    t = make_tower(p, 1, m)
    B = pi_expand(LinearCode.from_parity(rs_parity_check(t, "top", n, n - k)))
    rows = B.code.generator_matrix().to_rows()
    assert both_routes(t, "mid", rows, m) == (n - k + 1, n - k + 1)


def count_routes(monkeypatch):
    calls = {"gray": 0, "parity": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(codes, "_min_weight", counted("gray", codes._min_weight))
    monkeypatch.setattr(codes, "_parity_distance",
                        counted("parity", codes._parity_distance))
    return calls


def test_route_choice(monkeypatch):
    calls = count_routes(monkeypatch)
    # subfield code with u = 1, r = 3, h = 3: 255 subsets against 2^18 codewords
    S = subfield_construct(make_tower(2), 1, 3, 3)
    assert S.certified and S.n == 9
    assert calls == {"gray": 0, "parity": 1}
    # BCH(15, 7): 2^7 codewords against the C(15, t) of t <= 9
    calls.update(gray=0, parity=0)
    assert block_min_distance(BlockCode(LinearCode.from_parity(bch_parity_check(4, 2)), 1)) == 5
    assert calls == {"gray": 1, "parity": 0}
    # pi-expanded RS[10, 3] over F_16: 4,096 codewords against 1,012
    # subsets, which would take 968 checks to reach d = 8
    calls.update(gray=0, parity=0)
    t = make_tower(2, 1, 4)
    B = pi_expand(LinearCode.from_parity(rs_parity_check(t, "top", 10, 7)))
    assert block_min_distance(B) == 8
    assert calls == {"gray": 1, "parity": 0}
    # even-weight [16, 15, 2] over F_2: 136 subsets against 2^15 codewords
    calls.update(gray=0, parity=0)
    t = make_tower(2)
    even = LinearCode.from_parity(FieldMatrix.from_rows(t, "prime", [[1] * 16]))
    assert block_min_distance(BlockCode(even, 1)) == 2
    assert calls == {"gray": 0, "parity": 1}


def test_parity_route_refuses_a_distance_past_singleton():
    # blocks of a parity check that are independent beyond the Singleton
    # bound cannot belong to a code of that dimension
    t = make_tower(2)
    H = FieldMatrix.identity(t, "prime", 4)
    with pytest.raises(AssertionError, match="Singleton"):
        _parity_distance(H, 1, 3)
