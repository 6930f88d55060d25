from __future__ import annotations

import random
import sys
from itertools import combinations, product
from math import comb

import pytest

from mrlrc import mr
from mrlrc.codes import bch_parity_check, rs_parity_check
from mrlrc.errors import BudgetError, ParameterError
from mrlrc.gf import make_tower
from mrlrc.linalg import FieldMatrix, matmul, vec_mat, _rank_rows
from mrlrc.mr import (
    ErasurePattern,
    MrCodeSpec,
    MrParityCheck,
    build_concatenated,
    build_direct,
    encode,
    enumerate_patterns,
    erase_decode,
    generator_from_parity,
    local_parity_check,
    moore_matrix,
    pattern_at,
    pattern_count,
    verify_mr,
)
from mrlrc.sdss import gv_greedy, mds_construct
from oracles import mat_vec, moore_det


def is_moore(t, M) -> bool:
    return all(
        M.at(i, j) == t.frobenius(M.at(i - 1, j), 1)
        for i in range(1, M.rows)
        for j in range(M.cols)
    )


def fq_independent(t, alphas) -> bool:
    """Oracle: F_q-independence via coordinate rank."""
    vecs = [t.top_to_vec(a) for a in alphas]
    return _rank_rows(t.field("mid"), vecs) == len(alphas)


# -- Moore matrices ------------------------------------------------------


def test_moore_matrix_examples():
    t = make_tower(2, 1, 2)
    assert moore_matrix(t, [2, 3], 1).to_rows() == [[2, 3]]
    assert moore_matrix(t, [2, 3], 2).to_rows() == [[2, 3], [3, 2]]


def test_moore_rows_are_frobenius_powers():
    t = make_tower(2, 2, 3)
    rng = random.Random(5)
    alphas = [rng.randrange(t.level_size("top")) for _ in range(4)]
    M = moore_matrix(t, alphas, 3)
    assert is_moore(t, M)


def test_moore_difference_is_moore():
    t = make_tower(2, 1, 4)
    F = t.field("top")
    rng = random.Random(9)
    a = [rng.randrange(16) for _ in range(3)]
    b = [rng.randrange(16) for _ in range(3)]
    K = moore_matrix(t, a, 2)
    L = moore_matrix(t, b, 2)
    diff = FieldMatrix.from_rows(
        t, "top",
        [[F.sub(K.at(i, j), L.at(i, j)) for j in range(3)] for i in range(2)],
    )
    assert is_moore(t, diff)


def test_moore_times_fq_matrix_is_moore():
    # K . A stays Moore when A has F_q entries, exhaustively for small
    # shapes, and its first row lies in the F_q-span of K's first row
    t = make_tower(2, 1, 3)
    F = t.field("mid")
    for alphas in product(range(8), repeat=2):
        K = moore_matrix(t, list(alphas), 2)
        span_rows = [t.top_to_vec(a) for a in alphas]
        for bits in range(2**4):
            A = FieldMatrix(t, "top", 2, 2, [(bits >> i) & 1 for i in range(4)])
            KA = matmul(K, A)
            assert is_moore(t, KA)
            for j in range(2):
                vec = t.top_to_vec(KA.at(0, j))
                assert _rank_rows(F, span_rows + [vec]) == _rank_rows(F, span_rows)


def test_moore_det_f4_example():
    t = make_tower(2, 1, 2)
    assert moore_det(t, [2, 3]) == 1  # x(x+1)(x + (x+1)) = 1
    assert moore_det(t, [2, 2]) == 0


def test_moore_det_nonzero_iff_independent_f16():
    t = make_tower(2, 1, 4)
    for a in range(1, 16):
        for b in range(1, 16):
            det = moore_det(t, [a, b])  # asserts formula == elimination
            assert (det != 0) == fq_independent(t, [a, b])


def test_moore_det_triples_f64_sampled():
    t = make_tower(2, 1, 6)
    rng = random.Random(41)
    for _ in range(500):
        alphas = [rng.randrange(1, 64) for _ in range(3)]
        det = moore_det(t, alphas)
        assert (det != 0) == fq_independent(t, alphas)


# -- local parity blocks ---------------------------------------------------


def test_local_parity_check_vandermonde_and_fallbacks():
    from mrlrc.linalg import is_mds_parity_check

    t = make_tower(2, 1, 4)
    assert local_parity_check(t, 3, 1).to_rows() == [[1, 1, 1]]  # rs at r = q+1
    ones = local_parity_check(t, 7, 1)  # r > q+1, single parity
    assert ones.to_rows() == [[1] * 7]
    assert is_mds_parity_check(ones, 1)
    rep = local_parity_check(t, 5, 4)  # r > q+1, repetition dual
    assert is_mds_parity_check(rep, 4)
    with pytest.raises(ParameterError):
        local_parity_check(t, 5, 2)  # 1 < delta < r-1 needs r <= q+1


# -- direct construction ------------------------------------------------------


def build_example(p=2, a=1, n=5, r=3, h=2, delta=1):
    t = make_tower(p, a, h * r)
    S = mds_construct(t, n, r, h)
    spec = MrCodeSpec(n=n, r=r, h=h, delta=delta, tower=t)
    return spec, build_direct(spec, S)


def test_build_direct_shape_and_verify():
    spec, P = build_example()
    assert (P.H.rows, P.H.cols) == (7, 15)
    assert spec.ell == 2**6
    report = verify_mr(P)
    assert report.ok
    assert report.patterns_checked == pattern_count(spec) == 3**5 * 45
    assert report.sampled is None


def test_build_direct_small_h1_all_patterns():
    t = make_tower(2, 1, 3)
    S = gv_greedy(t, 2, 3, 1)
    spec = MrCodeSpec(n=2, r=3, h=1, delta=1, tower=t)
    P = build_direct(spec, S)
    assert pattern_count(spec) == 36
    assert verify_mr(P).ok


def test_build_direct_delta_r_minus_1():
    t = make_tower(2, 1, 6)
    S = mds_construct(t, 4, 3, 2)
    spec = MrCodeSpec(n=4, r=3, h=2, delta=2, tower=t)
    P = build_direct(spec, S)
    assert verify_mr(P).ok


def test_build_direct_rejects_uncertified():
    t = make_tower(2, 1, 6)
    S = mds_construct(t, 5, 3, 2)
    S.certified = False
    spec = MrCodeSpec(n=5, r=3, h=2, delta=1, tower=t)
    with pytest.raises(ParameterError):
        build_direct(spec, S)


def test_build_direct_refuses_a_local_block_that_is_not_mds(monkeypatch):
    # the one MDS test of construction: column 2 of [1 1 0] is zero
    t = make_tower(2, 1, 6)
    S = mds_construct(t, 5, 3, 2)
    spec = MrCodeSpec(n=5, r=3, h=2, delta=1, tower=t)
    monkeypatch.setattr(mr, "local_parity_check",
                        lambda t, r, delta: FieldMatrix.from_rows(t, "mid", [[1, 1, 0]]))
    with pytest.raises(AssertionError, match="not MDS"):
        build_direct(spec, S)


def test_verify_mr_catches_duplicated_groups():
    spec, P = build_example()
    bad = MrParityCheck(spec, P.A, [P.D[0], P.D[0]] + P.D[2:])
    report = verify_mr(bad)
    assert not report.ok
    assert report.first_failure is not None
    # the counterexample really is dependent
    cols = report.first_failure.columns()
    rows = [[bad.H.at(i, c) for i in range(bad.H.rows)] for c in cols]
    assert _rank_rows(spec.tower.field("top"), rows) < len(cols)


def test_single_group_code():
    t = make_tower(2, 1, 3)
    S = gv_greedy(t, 1, 3, 1)
    spec = MrCodeSpec(n=1, r=3, h=1, delta=1, tower=t)
    P = build_direct(spec, S)
    assert pattern_count(spec) == 3 * 2  # delta choices x extra choices
    assert verify_mr(P).ok


def test_mr_spec_validation():
    t = make_tower(2, 1, 4)
    with pytest.raises(ParameterError):
        MrCodeSpec(n=2, r=2, h=2, delta=1, tower=t)  # k = 0
    with pytest.raises(ParameterError):
        MrCodeSpec(n=3, r=2, h=1, delta=2, tower=t)  # delta > r-1


# -- concatenated construction -------------------------------------------------


def test_build_concatenated_hamming_inner():
    # inner [7,4,3] with s = 3, h = delta = 1: MR (7n, 7, 1, 1) over 2^3
    inner = bch_parity_check(3, 1)
    t = make_tower(2, 1, 3)
    for n in (2, 3):
        S = gv_greedy(t, n, 3, 1)
        spec = MrCodeSpec(n=n, r=7, h=1, delta=1, tower=t)
        inner_t = FieldMatrix(t, "mid", inner.rows, inner.cols, inner.data)
        P = build_concatenated(spec, S, inner_t)
        assert verify_mr(P).ok


def test_build_concatenated_rejects_weak_inner():
    # the [7,4,3] inner cannot support h + delta + 1 = 5
    inner = bch_parity_check(3, 1)
    t = make_tower(2, 1, 6)
    S = mds_construct(t, 3, 3, 2)
    spec = MrCodeSpec(n=3, r=7, h=2, delta=2, tower=t)
    inner_t = FieldMatrix(t, "mid", inner.rows, inner.cols, inner.data)
    with pytest.raises(ParameterError):
        build_concatenated(spec, S, inner_t)


def test_build_concatenated_identity_inner_matches_direct():
    t = make_tower(2, 1, 6)
    S = mds_construct(t, 4, 3, 2)
    spec = MrCodeSpec(n=4, r=3, h=2, delta=1, tower=t)
    inner = FieldMatrix.identity(t, "mid", 3)
    P = build_concatenated(spec, S, inner)
    direct = build_direct(spec, S)
    assert P.H == direct.H


def test_build_direct_builds_no_top_tables():
    make_tower.cache_clear()
    t = make_tower(3, 1, 6)
    S = mds_construct(t, 4, 3, 2)
    P = build_direct(MrCodeSpec(n=4, r=3, h=2, delta=1, tower=t), S)
    assert all(is_moore(t, D) for D in P.D)
    assert t.field("top")._exp is None


def _concat_bch_15_2():
    inner = bch_parity_check(4, 2)  # [15, 7, 5], s = 8
    t = make_tower(2, 1, 16)
    S = mds_construct(t, 3, inner.rows, 2)
    spec = MrCodeSpec(n=3, r=15, h=2, delta=1, tower=t)
    return spec, S, FieldMatrix(t, "mid", inner.rows, inner.cols, inner.data)


def _concat_rs_p3():
    t = make_tower(3, 1, 6)
    inner = rs_parity_check(make_tower(3), "mid", 4, 3)  # [4, 1, 4] over F_3
    S = mds_construct(t, 3, 3, 2)
    spec = MrCodeSpec(n=3, r=4, h=2, delta=1, tower=t)
    return spec, S, FieldMatrix(t, "mid", inner.rows, inner.cols, inner.data)


def test_build_concatenated_builds_no_top_tables():
    make_tower.cache_clear()
    spec, S, inner = _concat_bch_15_2()
    build_concatenated(spec, S, inner)
    assert spec.tower.field("top")._exp is None


@pytest.mark.parametrize("case", [_concat_bch_15_2, _concat_rs_p3])
def test_build_concatenated_matches_top_field_combinations(case):
    # oracle: the alphas as top-field products of the basis by the inner
    # parity, as F_q codes embed as constants
    spec, S, inner = case()
    t = spec.tower
    inner_top = FieldMatrix(t, "top", inner.rows, inner.cols, inner.data)
    P = build_concatenated(spec, S, inner)
    for group, D in zip(S.basis, P.D):
        alphas = [t.vec_to_top(v) for v in group]
        assert D == moore_matrix(t, vec_mat(alphas, inner_top), spec.h)


def _direct_p3():
    t = make_tower(3, 1, 6)
    return MrCodeSpec(n=4, r=3, h=2, delta=1, tower=t), mds_construct(t, 4, 3, 2)


@pytest.mark.parametrize("build,case", [(build_direct, _direct_p3),
                                        (build_concatenated, _concat_rs_p3)])
def test_builders_make_one_moore_block_per_group(monkeypatch, build, case):
    # the blocks are Moore by construction, so no builder re-derives them
    calls = []
    moore = mr.moore_matrix

    def counted(t, alphas, h):
        calls.append(None)
        return moore(t, alphas, h)

    monkeypatch.setattr(mr, "moore_matrix", counted)
    spec, *args = case()
    build(spec, *args)
    assert len(calls) == spec.n


# -- patterns ------------------------------------------------------------------


def test_pattern_count_and_first():
    t = make_tower(2, 1, 3)
    spec = MrCodeSpec(n=2, r=3, h=1, delta=1, tower=t)
    pats = list(enumerate_patterns(spec))
    assert len(pats) == 36 == pattern_count(spec)
    assert pats[0] == ErasurePattern(per_group=((0,), (3,)), extra=(1,))
    # all patterns distinct, sizes right, disjoint
    seen = set()
    for p in pats:
        cols = p.columns()
        assert len(cols) == len(set(cols)) == 3  # n*delta + h
        seen.add((p.per_group, p.extra))
    assert len(seen) == 36


def test_subsets_are_memoised_within_16_entries():
    keys = [(r, d) for r in range(7) for d in range(r + 1)]  # 28 keys
    for r, d in keys + keys[::-1]:
        assert mr._subsets(r, d) == tuple(combinations(range(r), d))
        assert mr._subsets(r, d) is mr._subsets(r, d)
        assert len(mr._SUBSETS) <= 16


def test_bounded_memos_stay_right_under_racing_threads():
    from threading import Thread

    from mrlrc.linalg import _comb_tables

    keys = [(r, d) for r in range(9) for d in range(r + 1)]  # 45 keys, past both caps
    errors = []

    def walk(order):
        try:
            for r, d in order * 20:
                assert mr._subsets(r, d) == tuple(combinations(range(r), d))
                assert _comb_tables(r, d)[d] == tuple(comb(c, d) for c in range(r + 1))
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [Thread(target=walk, args=(keys[i::2] + keys[:i],)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_pattern_at_matches_stream():
    t = make_tower(2, 1, 4)
    spec = MrCodeSpec(n=3, r=2, h=2, delta=1, tower=t)
    pats = list(enumerate_patterns(spec))
    for i, p in enumerate(pats):
        assert pattern_at(spec, i) == p
    with pytest.raises(ParameterError):
        pattern_at(spec, len(pats))


def reference_patterns(spec):
    """Oracle: the maximal patterns in lexicographic order, a product of
    per-group combinations, then combinations of the rest."""
    n, r, delta, h = spec.n, spec.r, spec.delta, spec.h
    groups = [[tuple(i * r + j for j in sel) for sel in combinations(range(r), delta)]
              for i in range(n)]
    out = []
    for pg in product(*groups):
        taken = {c for g in pg for c in g}
        rest = [c for c in range(spec.N) if c not in taken]
        out.extend(ErasurePattern(per_group=pg, extra=e) for e in combinations(rest, h))
    return out


def test_strided_walk_matches_reference_and_index_oracle():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    t = make_tower(2, 1, 3)

    @st.composite
    def specs_and_steps(draw):
        n = draw(st.integers(1, 4))
        r = draw(st.integers(2, 5))
        delta = draw(st.integers(1, r - 1))
        h = draw(st.integers(1, 3))
        hyp.assume(n * (r - delta) - h >= 1)  # dimension k >= 1
        spec = MrCodeSpec(n=n, r=r, h=h, delta=delta, tower=t)
        hyp.assume(pattern_count(spec) <= 3000)
        return spec, draw(st.integers(1, pattern_count(spec) + 3))

    @hyp.settings(max_examples=150, deadline=None)
    @hyp.given(specs_and_steps())
    def check(case):
        spec, drawn = case
        ref = reference_patterns(spec)
        total = len(ref)
        assert total == pattern_count(spec)
        block_size = comb(spec.N - spec.n * spec.delta, spec.h)
        for step in {1, drawn, block_size + 1}:
            walk = list(enumerate_patterns(spec, step))
            assert walk == ref[::step]
            assert walk == [pattern_at(spec, i) for i in range(0, total, step)]

    check()


def test_walk_rejects_step_below_1():
    spec = MrCodeSpec(n=2, r=3, h=1, delta=1, tower=make_tower(2, 1, 3))
    for step in (0, -1):
        with pytest.raises(ParameterError):
            list(enumerate_patterns(spec, step))


def test_verify_mr_budget_and_sampling():
    spec, P = build_example()
    with pytest.raises(BudgetError):
        verify_mr(P, budget=100)
    report = verify_mr(P, sample=500)
    assert report.ok and report.sampled == report.patterns_checked >= 500


# -- codec -----------------------------------------------------------------------


def test_generator_from_parity():
    spec, P = build_example()
    G = generator_from_parity(P)
    assert G.rows == spec.k == 8
    GHt = matmul(G, P.H.transpose())
    assert all(v == 0 for v in GHt.data)


def test_local_projection_is_mds():
    # tiny code: every group projection of the row space has distance delta+1
    t = make_tower(2, 1, 2)
    S = mds_construct(t, 2, 2, 1)
    spec = MrCodeSpec(n=2, r=2, h=1, delta=1, tower=t)
    P = build_direct(spec, S)
    G = generator_from_parity(P)
    F = t.field("top")
    assert G.rows == 1
    projections = {0: set(), 1: set()}
    for c0 in F.elements():
        cw = [F.mul(c0, g) for g in G.row(0)]
        for grp in (0, 1):
            projections[grp].add(tuple(cw[grp * 2 : grp * 2 + 2]))
    for grp in (0, 1):
        weights = [sum(1 for x in v if x) for v in projections[grp] if any(v)]
        assert min(weights) == spec.delta + 1


def test_encode_basics():
    spec, P = build_example()
    G = generator_from_parity(P)
    assert encode(G, [0] * spec.k) == [0] * spec.N
    for i in range(spec.k):
        msg = [0] * spec.k
        msg[i] = 1
        assert encode(G, msg) == G.row(i)
    rng = random.Random(3)
    for _ in range(20):
        msg = [rng.randrange(spec.ell) for _ in range(spec.k)]
        cw = encode(G, msg)
        assert mat_vec(P.H, cw) == [0] * P.H.rows


def test_erase_decode_empty_and_local():
    spec, P = build_example()
    G = generator_from_parity(P)
    rng = random.Random(7)
    msg = [rng.randrange(spec.ell) for _ in range(spec.k)]
    cw = encode(G, msg)
    res = erase_decode(P, cw, [])
    assert res.ok and res.codeword == cw
    # delta erasures inside one group recover locally
    rx = list(cw)
    rx[4] = 0
    res = erase_decode(P, rx, [4])
    assert res.ok and res.codeword == cw


def test_erase_decode_maximal_patterns():
    spec, P = build_example(n=3)
    G = generator_from_parity(P)
    rng = random.Random(11)
    pats = list(enumerate_patterns(spec))
    for i in range(0, len(pats), 37):
        msg = [rng.randrange(spec.ell) for _ in range(spec.k)]
        cw = encode(G, msg)
        cols = pats[i].columns()
        rx = [0 if j in cols else cw[j] for j in range(spec.N)]
        res = erase_decode(P, rx, cols)
        assert res.ok and res.codeword == cw


def test_erase_decode_dependent_certificate():
    spec, P = build_example(n=3)
    G = generator_from_parity(P)
    cw = encode(G, [1] * spec.k)
    erased = [0, 1, 2, 3, 4, 5]  # two full groups exceed n*delta + h = 5
    res = erase_decode(P, cw, erased)
    assert not res.ok and res.certificate is not None
    # the certificate is a nonzero kernel vector of the erased columns
    F = spec.tower.field("top")
    assert any(res.certificate)
    for i in range(P.H.rows):
        acc = 0
        for c, e in zip(res.certificate, erased):
            if c:
                acc = F.add(acc, F.mul(P.H.at(i, e), c))
        assert acc == 0


def test_erase_decode_inconsistent_known_values():
    spec, P = build_example(n=3)
    G = generator_from_parity(P)
    cw = encode(G, [1] * spec.k)
    rx = list(cw)
    rx[5] = (rx[5] + 1) % spec.ell  # corrupt a known coordinate
    res = erase_decode(P, rx, [0])
    assert not res.ok and res.certificate is None


@pytest.mark.parametrize("p", (2, 3))
def test_erase_decode_without_erasures_checks_the_word(p):
    spec, P = build_example(p=p, n=3)
    G = generator_from_parity(P)
    cw = encode(G, [1] * spec.k)
    rx = list(cw)
    rx[5] = (rx[5] + 1) % spec.ell
    want = mr.DecodeResult(False, None, None, reason="known coordinates are inconsistent")
    assert mr.erase_decode_dense(P, rx, []) == want
    assert mr.erase_decode_dense(P, cw, []) == mr.DecodeResult(True, cw, None)
    # first sight decodes densely, the second and third from a plan for
    # the empty set
    for _ in range(3):
        assert erase_decode(P, rx, []) == want
        assert erase_decode(P, cw, []) == mr.DecodeResult(True, cw, None)
    assert P._plans.plan(P, []) is not None
