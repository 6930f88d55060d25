from __future__ import annotations

import hashlib
import json
from itertools import combinations
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

import mrlrc.sdss as sdss_module
from mrlrc import linalg
from mrlrc.codes import BlockCode, LinearCode, block_min_distance
from mrlrc.errors import BudgetError, ParameterError
from mrlrc.fileio import format_sdss
from mrlrc.gf import make_tower
from mrlrc.linalg import FieldMatrix, _echelonize, _rank_rows, _reduce_against
from mrlrc.sdss import (
    BoundsReport,
    SubspaceSystem,
    bounds,
    from_block_code,
    gv_dimension,
    gv_greedy,
    mds_construct,
    restrict,
    subfield_construct,
    to_block_code,
    verify_direct_sum,
    _add_row,
    _certify,
    _ell_basis,
    _identity,
    _walk,
    _subfield_inside,
)

SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "spec.json"


def in_span(F, rows, vec):
    """Oracle: vec lies in the row span (rank does not grow)."""
    return _rank_rows(F, list(rows) + [vec]) == _rank_rows(F, rows)


def test_verify_single_subset_when_n_equals_h():
    t = make_tower(2, 1, 4)
    basis = [[(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)]]
    S = SubspaceSystem(t, 2, 2, 2, basis)
    assert comb(S.n, S.h) == 1
    assert verify_direct_sum(S)


def test_verify_rejects_duplicated_subspace():
    t = make_tower(2, 1, 4)
    g = [(1, 0, 0, 0), (0, 1, 0, 0)]
    S = SubspaceSystem(t, 2, 2, 2, [g, g])
    assert not verify_direct_sum(S)


def test_verify_mds_output():
    S = mds_construct(make_tower(2, 1, 4), 5, 2, 2)
    assert verify_direct_sum(S)  # C(5,2) = 10 rank checks


def test_verify_budget():
    S = mds_construct(make_tower(2, 1, 4), 5, 2, 2)
    with pytest.raises(BudgetError):
        verify_direct_sum(S, budget=5)


def test_bounds_example():
    rep = bounds(2, 5, 2, 2)
    # by hand: gv = 2 + floor(log2(1 + 4*3)) = 5; hamming = ceil(log2 16) = 4
    assert rep == BoundsReport(gv_m=5, hamming_lower=4, singleton_lower=4)


def test_bounds_singleton_always_hr():
    for q, n, r, h in [(2, 4, 1, 2), (3, 5, 2, 1), (4, 6, 3, 2)]:
        assert bounds(q, n, r, h).singleton_lower == h * r


def test_bounds_h1_degenerate():
    rep = bounds(3, 7, 2, 1)
    assert rep.gv_m == 2  # the sum collapses to 1
    assert rep.hamming_lower == rep.singleton_lower == 2


def test_bounds_ordering_invariants():
    for q in (2, 3, 4):
        for n in range(2, 7):
            for r in (1, 2, 3):
                for h in (1, 2):
                    if h > n:
                        continue
                    rep = bounds(q, n, r, h)
                    assert rep.hamming_lower <= rep.gv_m
                    assert rep.singleton_lower <= rep.gv_m


# -- greedy construction ----------------------------------------------------


def test_gv_dimension_values():
    assert gv_dimension(2, 4, 1, 2) == 1 + 2  # 1 + floor(log2 4)
    assert gv_dimension(2, 5, 2, 2) == 2 + 3  # 2 + floor(log2 13)
    assert gv_dimension(2, 2, 2, 2) == 4  # n = h collapses to hr


def _brute_log(q: int, s: int, ceil: bool) -> int:
    """Oracle: the least e with q^e >= s (ceil) or the greatest e with
    q^e <= s, over an explicit list of powers."""
    powers = [q**e for e in range(s.bit_length() + 2)]
    if ceil:
        return min(e for e, v in enumerate(powers) if v >= s)
    return max(e for e, v in enumerate(powers) if v <= s)


def test_gv_dimension_and_bounds_match_brute_force_logs():
    for q in range(2, 10):
        for n in range(1, 13):
            for r in range(1, 5):
                for h in range(1, n + 1):
                    gv_sum = sum(comb(n - 1, i) * (q**r - 1) ** i for i in range(h))
                    packing = sum(comb(n, i) * (q**r - 1) ** i for i in range(h // 2 + 1))
                    rep = bounds(q, n, r, h)
                    assert gv_dimension(q, n, r, h) == rep.gv_m
                    assert rep.gv_m == r + _brute_log(q, gv_sum, ceil=False)
                    if h >= 2:
                        assert rep.hamming_lower == _brute_log(q, packing, ceil=True)


def test_bounds_reject_field_size_below_2():
    for q in (1, 0, -3):
        with pytest.raises(ParameterError):
            gv_dimension(q, 5, 3, 2)
        with pytest.raises(ParameterError):
            bounds(q, 5, 3, 2)


def test_gv_greedy_one_dimensional():
    t = make_tower(2, 1, 3)
    S = gv_greedy(t, 4, 1, 2)
    assert S.certified
    F = t.field("mid")
    for i, j in combinations(range(4), 2):
        assert _rank_rows(F, [S.basis[i][0], S.basis[j][0]]) == 2


def test_gv_greedy_r2():
    t = make_tower(2, 1, 5)
    S = gv_greedy(t, 5, 2, 2)
    assert S.m == 5 == gv_dimension(2, 5, 2, 2)
    assert verify_direct_sum(S)


def test_gv_greedy_seed_only_when_n_equals_h():
    t = make_tower(2, 1, 4)
    S = gv_greedy(t, 2, 2, 2)
    assert S.basis[0] == [(1, 0, 0, 0), (0, 1, 0, 0)]
    assert S.basis[1] == [(0, 0, 1, 0), (0, 0, 0, 1)]


def test_gv_greedy_refuses_small_ambient():
    t = make_tower(2, 1, 4)
    with pytest.raises(ParameterError):
        gv_greedy(t, 5, 2, 2)  # needs m >= 5


def test_gv_greedy_never_picks_inside_exclusion():
    # re-check the construction invariant from the finished system
    t = make_tower(3, 1, 4)
    n, r, h = 5, 1, 2
    assert gv_dimension(3, n, r, h) <= 4
    S = gv_greedy(t, n, r, h)
    F = t.field("mid")
    for i in range(h, n):
        for j in range(r):
            chosen = S.basis[i][j]
            partial = list(S.basis[i][:j])
            for subset in combinations(range(i), h - 1):
                rows = [v for g in subset for v in S.basis[g]] + partial
                assert not in_span(F, rows, chosen)


def reference_gv_basis(t, n, r, h):
    """The scan gv_greedy ran before its packed syndrome word: for every
    slot, every code from 0 up, one `_reduce_against` elimination per
    span until the code lies outside all of them."""
    q, m = t.q, t.m
    F = t.field("mid")
    basis = [[tuple(int(k == i * r + j) for k in range(m)) for j in range(r)]
             for i in range(h)]
    for i in range(h, n):
        group = []
        for _ in range(r):
            spans = []
            for subset in combinations(range(i), h - 1):
                work = [list(v) for g in subset for v in basis[g]]
                work += [list(v) for v in group]
                spans.append(list(zip(_echelonize(F, work), work)))
            for code in range(q**m):
                v = t.top_to_vec(code)
                if all(any(_reduce_against(F, sp, v)) for sp in spans):
                    group.append(tuple(v))
                    break
            else:
                raise AssertionError("greedy scan exhausted")
        basis.append(group)
    return basis


# (p, a, n, r, h, m) for q in {2, 3, 4, 5, 7, 9}, m at the greedy
# guarantee and one above, small enough for the reference scan
GV_CASES = [
    (p, a, n, r, h, m)
    for p, a in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2))
    for n in range(1, 7)
    for r in range(1, 4)
    for h in range(1, n + 1)
    for m in (gv_dimension(p**a, n, r, h), gv_dimension(p**a, n, r, h) + 1)
    if p ** (a * m) <= 3**9
]


def test_gv_greedy_matches_reference_scan():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=80, deadline=None)
    @hyp.given(hyp.strategies.sampled_from(GV_CASES))
    def check(case):
        p, a, n, r, h, m = case
        t = make_tower(p, a, m)
        assert gv_greedy(t, n, r, h).basis == reference_gv_basis(t, n, r, h)

    check()


def test_add_row_matches_kernel():
    # the check basis of a span folded row by row from the identity
    # against the oracle, linalg.kernel of the stacked rows
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(st.data())
    def check(data):
        p = data.draw(st.sampled_from((2, 3, 5, 7)))
        n = data.draw(st.integers(1, 12))
        t = make_tower(p)
        F = t.field("prime")
        digit = st.integers(0, p - 1)
        rows = []
        for _ in range(data.draw(st.integers(0, n + 3))):
            kind = data.draw(st.sampled_from(
                ("random", "zero", "repeat", "sum", "multiple") if rows
                else ("random", "zero")))
            if kind == "random":
                row = data.draw(st.lists(digit, min_size=n, max_size=n))
            elif kind == "zero":
                row = [0] * n
            elif kind == "repeat":
                row = list(data.draw(st.sampled_from(rows)))
            elif kind == "sum":
                x, y = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
                row = [(a + b) % p for a, b in zip(x, y)]
            else:
                c = data.draw(digit)
                row = [c * a % p for a in data.draw(st.sampled_from(rows))]
            rows.append(row)
        # p = 2 folds packed rows into packed checks; compare on digits
        pack = _pack if p == 2 else list
        checks = _identity(p, n)
        for i, row in enumerate(rows):
            new = _add_row(checks, pack(row), p)
            if _rank_rows(F, rows[:i + 1]) == _rank_rows(F, rows[:i]):
                assert new is checks  # a dependent row leaves the basis
            checks = new
        if p == 2:
            checks = [_unpack(y, n) for y in checks]
        rk = _rank_rows(F, rows)
        assert len(checks) == n - rk
        assert _rank_rows(F, checks) == len(checks)
        assert all(sum(a * b for a, b in zip(y, row)) % p == 0
                   for y in checks for row in rows)
        K = linalg.kernel(FieldMatrix(t, "prime", len(rows), n,
                                      [d for row in rows for d in row]))
        assert K.rows == len(checks)
        assert _rank_rows(F, checks + K.to_rows()) == len(checks)

    check()


def _pack(digits):
    """F_2 digits (lowest first) as one int, bit i the digit i."""
    return sum(d << i for i, d in enumerate(digits))


def _unpack(v, n):
    return [v >> i & 1 for i in range(n)]


def _add_row_digits(checks, row, p):
    """Oracle: `_add_row` on digit lists for every p, as it ran before
    F_2 checks were packed into ints."""
    syndromes = [sum(a * b for a, b in zip(y, row)) % p for y in checks]
    k = next((k for k, s in enumerate(syndromes) if s), None)
    if k is None:
        return checks
    pivot, inv = checks[k], pow(syndromes[k], -1, p)
    out = checks[:k]
    for y, t in zip(checks[k + 1:], syndromes[k + 1:]):
        c = t * inv % p
        out.append([(e - c * f) % p for e, f in zip(y, pivot)])
    return out


def _first_outside_digits(p, n, check_sets, start):
    """Oracle: the smallest code from start whose digits fail some check
    of every set, by checking each code in turn."""
    for code in range(start, p**n):
        x = [code // p**i % p for i in range(n)]
        if all(any(sum(a * b for a, b in zip(y, x)) % p for y in checks)
               for checks in check_sets):
            return code
    return None


def test_packed_check_bases_match_digit_lists():
    # F_2 check bases are packed ints: folding rows into them and the
    # span scan over them must agree with the digit-list forms on
    # random spans (with dependent rows planted) and random starts
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=200, deadline=None)
    @hyp.given(st.data())
    def check(data):
        n = data.draw(st.integers(1, 10))
        check_sets, digit_sets = [], []
        for _ in range(data.draw(st.integers(1, 3))):
            rows = []
            for _ in range(data.draw(st.integers(0, n))):
                if rows and data.draw(st.booleans()):
                    x, y = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
                    rows.append(x ^ y)  # a dependent row
                else:
                    rows.append(data.draw(st.integers(0, (1 << n) - 1)))
            packed, digits = _identity(2, n), [_unpack(1 << i, n) for i in range(n)]
            for row in rows:
                new = _add_row(packed, row, 2)
                want = _add_row_digits(digits, _unpack(row, n), 2)
                assert (new is packed) == (want is digits)
                packed, digits = new, want
                assert [_unpack(y, n) for y in packed] == digits
            check_sets.append(packed)
            digit_sets.append(digits)
        start = data.draw(st.integers(0, 1 << n))
        assert sdss_module._first_outside(2, n, check_sets, start) == \
            _first_outside_digits(2, n, digit_sets, start)

    check()


def _first_outside_packed(n, check_sets, start):
    """Oracle: the F_2 scan code by code on packed ints, a syndrome the
    parity of y & code."""
    for code in range(start, 1 << n):
        if all(any((y & code).bit_count() & 1 for y in checks) for checks in check_sets):
            return code
    return None


def test_f2_block_sieve_matches_code_by_code_scan(monkeypatch):
    # n up to 14 spans several blocks of 2^b codes; the sieve's answer
    # must not depend on b, so small b are drawn too.  Starts fall on
    # block boundaries and on the last code of a block.  A set of no
    # checks is the whole space, and no sets at all leave every code
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None)
    @hyp.given(st.data())
    def check(data):
        bits = data.draw(st.sampled_from((1, 2, 3, 10)))
        monkeypatch.setattr(sdss_module, "_SIEVE_BITS", bits)
        n = data.draw(st.integers(1, 14))
        check_sets = []
        for _ in range(data.draw(st.integers(0, 4))):
            size = data.draw(st.integers(0, n))
            if size == n:
                rows = [1 << i for i in range(n)]  # folds to no checks
            else:
                rows = [data.draw(st.integers(0, (1 << n) - 1)) for _ in range(size)]
            checks = _identity(2, n)
            for row in rows:
                checks = _add_row(checks, row, 2)
            check_sets.append(checks)
        b = min(n, bits)
        start = data.draw(st.one_of(
            st.sampled_from((0, (1 << n) - 1, 1 << n)),
            st.integers(0, 1 << (n - b)).map(lambda k: k << b),
            st.integers(1, 1 << (n - b)).map(lambda k: (k << b) - 1),
            st.integers(0, 1 << n),
        ))
        assert sdss_module._first_outside(2, n, check_sets, start) == \
            _first_outside_packed(n, check_sets, start)

    check()


@pytest.mark.parametrize("tower, n, r, h, digest", [
    ((2, 1, 24), 16, 6, 3, "a741f75ebafa6df4f2ac91c7dabf5090e717193f0cded29e277e29b17ae07083"),
    ((2, 2, 11), 8, 3, 3, "bb1ccf34c285cb8a797062507484a3f2228a2a990bb2d35638335626dedad9ab"),
], ids=["gv-2-24", "gv-4-11"])
def test_gv_greedy_pinned_digests(tower, n, r, h, digest):
    # recorded from the code-by-code F_2 scan that the block sieve replaced
    S = gv_greedy(make_tower(*tower), n, r, h)
    assert S.certified and S.certified_sample is None
    assert hashlib.sha256(format_sdss(S).encode()).hexdigest() == digest


# (label in perfbench/spec.json, tower, n, r, h) of the benchmark's two
# slowest construct commands
GV_BENCH = [("gv-2-16", (2, 1, 16), 8, 4, 3), ("gv-2-13", (2, 1, 13), 10, 3, 3)]


@pytest.mark.parametrize("label, tower, n, r, h", GV_BENCH, ids=[c[0] for c in GV_BENCH])
def test_gv_greedy_makes_no_kernel_call(label, tower, n, r, h, monkeypatch):
    # one kernel per span per slot would be 220 calls on gv-2-16 and 357
    # on gv-2-13; the check bases are updated instead
    spec = json.loads(SPEC.read_text())["construct"]
    digest = next(c["sha256"]["sdss"] for c in spec if c["label"] == label)
    kernel, calls = linalg.kernel, []

    def counting(M):
        calls.append(M.rows)
        return kernel(M)

    monkeypatch.setattr(linalg, "kernel", counting)
    monkeypatch.setattr(sdss_module, "kernel", counting)
    S = gv_greedy(make_tower(*tower), n, r, h)
    assert calls == []
    assert hashlib.sha256(format_sdss(S).encode()).hexdigest() == digest


# -- MDS construction ----------------------------------------------------------


def test_mds_construct_basic():
    S = mds_construct(make_tower(2, 1, 4), 5, 2, 2)
    assert S.m == 4 and S.certified
    assert verify_direct_sum(S)


def test_mds_construct_field_size_instance():
    # n = 1 + q^r with q=2, r=3: ambient 6, so the MR field will be 2^6
    S = mds_construct(make_tower(2, 1, 6), 9, 3, 2)
    assert (S.n, S.m, S.r, S.h) == (9, 6, 3, 2)
    assert verify_direct_sum(S)


def test_mds_construct_h1_groups_full_rank():
    t = make_tower(2, 1, 2)
    S = mds_construct(t, 5, 2, 1)
    F = t.field("mid")
    for group in S.basis:
        assert _rank_rows(F, group) == 2


def test_mds_construct_preconditions():
    with pytest.raises(ParameterError):
        mds_construct(make_tower(2, 1, 4), 6, 2, 2)  # n > q^r + 1
    with pytest.raises(ParameterError):
        mds_construct(make_tower(2, 1, 3), 5, 2, 2)  # ambient degree != h*r
    with pytest.raises(ParameterError):
        mds_construct(make_tower(2, 1, 4), 2, 2, 2)  # h = n


def test_restrict():
    S = mds_construct(make_tower(2, 1, 4), 5, 2, 2)
    S2 = restrict(S, 3)
    assert (S2.n, S2.r, S2.h) == (3, 2, 2) and S2.certified
    assert S2.basis == S.basis[:3]


# -- subfield construction -------------------------------------------------------


def test_subfield_construct_small():
    S = subfield_construct(make_tower(2), 2, 1, 2)
    assert (S.n, S.r, S.h) == (5, 1, 2)
    assert S.m <= 4  # achieved rank within the h*u*r guarantee
    F = S.tower.field("mid")
    for i, j in combinations(range(5), 2):
        assert _rank_rows(F, [S.basis[i][0], S.basis[j][0]]) == 2


def test_subfield_construct_u1_degenerates_to_mds_parameters():
    S = subfield_construct(make_tower(2), 1, 2, 2)
    M = mds_construct(make_tower(2, 1, 4), 5, 2, 2)
    assert (S.n, S.r, S.h, S.m) == (M.n, M.r, M.h, M.m)
    assert S.certified


def test_subfield_construct_n17():
    S = subfield_construct(make_tower(2), 2, 2, 2)
    assert (S.n, S.r, S.h) == (17, 2, 2)
    assert S.m <= 8
    assert verify_direct_sum(S)  # all C(17,2) = 136 subsets


def test_subfield_construct_respects_hamming_bound():
    S = subfield_construct(make_tower(2), 2, 2, 2)
    assert S.m >= bounds(2, 17, 2, 2).hamming_lower


def test_subfield_construct_keeps_the_rs_self_test_in_the_budget():
    # n = 33, h = 8: an MDS test of the RS parity check would walk
    # C(33, 8) = 13,884,156 column subsets; none is run, and over
    # budget=10 the system's sampled certification checks what it derives
    t0 = perf_counter()
    S = subfield_construct(make_tower(2), 5, 1, 8, budget=10)
    assert perf_counter() - t0 < 2
    assert (S.n, S.h) == (33, 8)
    assert S.certified and S.certified_sample is not None


@pytest.mark.parametrize("budget", range(1, 10))
def test_sampled_certification_stays_within_the_cap(budget):
    # C(5, 2) = 10 subsets over a cap below 10: every ceil(10 / cap)-th
    # subset, never more than the cap (a step of 10 // 9 = 1 would
    # check all 10 and call them a sample)
    S = mds_construct(make_tower(2, 1, 4), 5, 2, 2, budget=budget)
    assert S.certified
    assert S.certified_sample == len(range(0, 10, -(-10 // budget))) <= budget


def test_sampled_certification_rejects_a_rank_deficient_group():
    # group 3 spans only e0; at budget 3 the sample takes every 4th of the
    # C(5, 2) = 10 pairs, (0, 1), (1, 2) and (2, 4), none holding group 3,
    # so only the group ranks can refuse the system
    t = make_tower(2, 1, 6)
    e = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    e02, e13 = (1, 0, 1, 0, 0, 0), (0, 1, 0, 1, 0, 0)
    basis = [[e[0], e[1]], [e[2], e[3]], [e[4], e[5]], [e[0], e[0]], [e02, e13]]
    S = SubspaceSystem(t, 5, 2, 2, basis)
    assert not verify_direct_sum(S)
    with pytest.raises(AssertionError, match="non-direct"):
        _certify(S, budget=3)
    assert not S.certified and S.certified_sample is None
    # the same system without the defect passes that sample
    basis[3] = [(1, 1, 1, 0, 0, 0), (0, 0, 1, 1, 1, 1)]
    S = _certify(SubspaceSystem(t, 5, 2, 2, basis), budget=3)
    assert S.certified and S.certified_sample == 3


def test_h1_walk_ranks_each_group_once(monkeypatch):
    # for h = 1 the 1-subsets are the groups, so the group-rank pass is
    # the whole walk: n rank checks for n groups, at every step; F_2
    # groups are packed and ranked by `_xor_rank`, odd q on lists
    for p, n, r, kernel in ((2, 17, 4, "_xor_rank"), (3, 10, 2, "_rank_rows")):
        S = mds_construct(make_tower(p, 1, r), n, r, 1)
        calls = []
        real = getattr(linalg, kernel)

        def counted(*args, real=real):
            calls.append(None)
            return real(*args)

        monkeypatch.setattr(linalg, kernel, counted)
        stats = {}
        assert verify_direct_sum(S, stats=stats)
        assert len(calls) == stats["subsets_checked"] == n
        for step in (2, 5, n, 40):
            calls.clear()
            assert _walk(S, step) == (True, len(range(0, n, step)))
            assert len(calls) == n
        # a rank-deficient group still fails before any 1-subset is counted
        basis = [list(g) for g in S.basis]
        basis[9][1] = basis[9][0]
        bad = SubspaceSystem(S.tower, n, r, 1, basis)
        stats = {}
        assert not verify_direct_sum(bad, stats=stats) and stats["subsets_checked"] == 0
        assert _walk(bad, 3) == (False, 0)
        monkeypatch.undo()


@pytest.mark.parametrize("p, a, u, r, expected", [
    (2, 1, 2, 1, [1]),
    (2, 1, 2, 2, [1, 2]),
    (2, 1, 2, 3, [1, 2, 4]),
    (2, 1, 3, 2, [1, 2]),
    (3, 1, 2, 1, [1]),
    (3, 1, 2, 2, [1, 3]),
    (2, 2, 2, 2, [1, 4]),
    (2, 1, 4, 2, [1, 2]),
    (5, 1, 2, 2, [1, 5]),
    (3, 1, 3, 2, [1, 3]),
], ids=str)
def test_ell_basis_pinned(p, a, u, r, expected):
    # recorded from the echelon-and-reduce scan _ell_basis ran before it
    # used _first_outside
    big = make_tower(p, a, u * r)
    assert _ell_basis(big, _subfield_inside(big, u), r) == expected


# -- block-code equivalence ---------------------------------------------------------


def test_to_block_code_example():
    S = mds_construct(make_tower(2, 1, 4), 5, 2, 2)
    B = to_block_code(S)
    assert (B.n_blocks, B.block_size, B.dim) == (5, 2, 6)
    assert block_min_distance(B) == 3  # h + 1


def test_to_block_code_requires_certification():
    t = make_tower(2, 1, 4)
    S = SubspaceSystem(t, 2, 2, 2,
                       [[(1, 0, 0, 0), (0, 1, 0, 0)], [(0, 0, 1, 0), (0, 0, 0, 1)]])
    with pytest.raises(ParameterError):
        to_block_code(S)


def test_to_block_code_r1_is_classical():
    S = gv_greedy(make_tower(2, 1, 3), 4, 1, 2)
    B = to_block_code(S)
    assert block_min_distance(B) == block_min_distance(BlockCode(B.code, 1)) >= 3


def test_from_block_code_repetition():
    t = make_tower(2)
    rep = BlockCode(LinearCode.from_generator(
        FieldMatrix.from_rows(t, "prime", [[1, 1]])), 1)
    S = from_block_code(rep, 1)
    assert (S.n, S.r, S.h, S.m) == (2, 1, 1, 1)
    assert S.basis[0][0] == (1,) and S.basis[1][0] == (1,)


def test_from_block_code_distance_precondition():
    t = make_tower(2)
    full = BlockCode(LinearCode.from_generator(FieldMatrix.identity(t, "prime", 4)), 2)
    with pytest.raises(ParameterError):
        from_block_code(full, 2)  # d_B = 1 < 3


def test_round_trip_preserves_parameters():
    S = mds_construct(make_tower(2, 1, 4), 5, 2, 2)
    S2 = from_block_code(to_block_code(S), 2)
    assert (S2.n, S2.r, S2.h) == (S.n, S.r, S.h)
    assert S2.m <= S.m
    assert S2.certified


def test_from_block_code_of_expanded_mds():
    from mrlrc.codes import pi_expand, rs_parity_check

    t = make_tower(2, 1, 2)
    B = pi_expand(LinearCode.from_parity(rs_parity_check(t, "top", 5, 2)))
    S = from_block_code(B, 2)
    assert (S.n, S.r, S.h, S.m) == (5, 2, 2, 4)
    assert S.certified


def test_constructions_meet_lower_bounds():
    for p, a, n, r, h in [(2, 1, 5, 2, 2), (3, 1, 4, 2, 2), (2, 2, 5, 3, 2)]:
        q = p**a
        t = make_tower(p, a, h * r)
        S = mds_construct(t, n, r, h)
        rep = bounds(q, n, r, h)
        assert S.m == h * r == rep.singleton_lower
        assert S.m >= rep.hamming_lower
