"""The MR verifiers against each other: the per-support verifier against
the pattern walk, and the walk's h x h checks against the plain k x k walk
(reference_verify_mr)."""

from __future__ import annotations

from functools import lru_cache
from math import comb
from time import perf_counter

import pytest

from mrlrc import config, mr
from mrlrc.errors import BudgetError, ParameterError
from mrlrc.gf import make_tower
from mrlrc.linalg import FieldMatrix, _rank_rows, is_mds_parity_check
from mrlrc.mr import (
    MrCodeSpec,
    MrParityCheck,
    VerifyReport,
    build_direct,
    moore_matrix,
    pattern_at,
    pattern_count,
    verify_mr,
    verify_mr_structured,
)
from mrlrc.sdss import gv_greedy, mds_construct

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# (p, a, r, h, delta, n): char 2, char 3 and q = 4, h in 1..3, delta in 1..2,
# all small enough for the dense walk (at most 4,536 patterns)
BASES = (
    (2, 1, 3, 1, 1, 4),
    (2, 1, 3, 2, 1, 5),
    (2, 1, 3, 2, 2, 4),
    (2, 1, 2, 3, 1, 4),
    (2, 1, 3, 3, 1, 4),
    (2, 1, 3, 3, 2, 4),
    (3, 1, 3, 1, 2, 3),
    (3, 1, 3, 2, 1, 4),
    (3, 1, 3, 2, 2, 4),
    (3, 1, 2, 3, 1, 4),
    (2, 2, 3, 1, 2, 3),
    (2, 2, 3, 2, 1, 4),
    (2, 2, 2, 3, 1, 4),
)


@lru_cache(maxsize=None)
def base_code(p, a, r, h, delta, n):
    t = make_tower(p, a, h * r)
    spec = MrCodeSpec(n=n, r=r, h=h, delta=delta, tower=t)
    return build_direct(spec, mds_construct(t, n, r, h))


def reference_verify_mr(P, budget=None, sample=None) -> VerifyReport:
    """Oracle for verify_mr: the same gates, then one rank check of all
    n*delta + h erased columns of H per pattern, each pattern decoded
    on its own by pattern_at."""
    t0 = perf_counter()
    spec = P.spec
    if not is_mds_parity_check(P.A, spec.delta):
        return VerifyReport(False, 0, None, None, perf_counter() - t0,
                            reason="local parity block is not MDS")
    total = pattern_count(spec)
    if sample is None and total > config.subset_budget(budget):
        raise BudgetError("too many erasure patterns")
    if sample is not None and sample < 1:
        raise ParameterError("sample size must be positive")
    step = 1 if sample is None else max(1, total // sample)
    F = spec.tower.field("top")
    cols = [P.H.column(j) for j in range(P.H.cols)]
    checked = 0
    failure = None
    for index in range(0, total, step):
        pat = pattern_at(spec, index)
        checked += 1
        erased = pat.columns()
        if _rank_rows(F, [cols[c] for c in erased]) != len(erased):
            failure = pat
            break
    return VerifyReport(failure is None, checked, failure,
                        None if sample is None else checked,
                        perf_counter() - t0,
                        reason="" if failure is None else "dependent erasure pattern")


def corrupt(P, kind, rnd):
    """P with the Moore block of one group j replaced, by the copy of
    another group i's block, a random Moore block, or its own block with
    one alpha borrowed from group i."""
    spec, t = P.spec, P.spec.tower
    i, j = rnd.sample(range(spec.n), 2)
    D = list(P.D)
    if kind == "copy":
        D[j] = D[i]
    elif kind == "random":
        size = t.field("top").size
        D[j] = moore_matrix(t, [rnd.randrange(size) for _ in range(spec.r)], spec.h)
    else:  # one alpha of group j borrowed from group i
        alphas = D[j].row(0)
        alphas[rnd.randrange(spec.r)] = D[i].at(0, rnd.randrange(spec.r))
        D[j] = moore_matrix(t, alphas, spec.h)
    return MrParityCheck(spec, P.A, D)


def replaced(report, **changes) -> VerifyReport:
    """A copy of report with the given fields changed."""
    fields = {name: getattr(report, name) for name in VerifyReport.__slots__}
    return VerifyReport(**dict(fields, **changes))


def same_verdict(a, b) -> bool:
    """Equal reports apart from the timing and the checks each mode did."""
    return replaced(a, elapsed=0.0, checks=None) == replaced(b, elapsed=0.0, checks=None)


def walked(P) -> VerifyReport:
    """verify_mr with its whole-code certificate refused, so the dense walk
    decides the report: for h >= 3 the certificate is the structured
    verifier's own support walk, and comparing with it checks nothing."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mr, "_certified", lambda P, covered: False)
        return verify_mr(P)


@pytest.mark.parametrize("base", BASES)
def test_structured_matches_dense_on_bases(base):
    P = base_code(*base)
    a, b = verify_mr_structured(P), walked(P)
    assert a.ok and same_verdict(a, b)
    assert a.patterns_checked == pattern_count(P.spec)
    assert 0 < a.checks <= a.patterns_checked  # each check stands for >= 1 pattern


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.sampled_from(BASES),
       kind=st.sampled_from(("copy", "random", "borrow")),
       rnd=st.randoms(use_true_random=False))
def test_structured_matches_dense_on_corrupted_moore_blocks(base, kind, rnd):
    bad = corrupt(base_code(*base), kind, rnd)
    a, b = verify_mr_structured(bad), walked(bad)
    assert same_verdict(a, b)
    assert a.checks >= 1


def test_structured_check_counts_readme_codes():
    # README code (n=5): 5 single-group supports + C(5,2) * 3 * 3 pairs
    P = base_code(2, 1, 3, 2, 1, 5)
    assert verify_mr_structured(P).checks == 95
    # n=7: 7 + C(7,2) * 9, covering all 199,017 patterns
    P7 = base_code(2, 1, 3, 2, 1, 7)
    report = verify_mr_structured(P7)
    assert (report.ok, report.checks, report.patterns_checked, report.sampled) == (
        True, 196, 199017, None)


def test_structured_failure_returns_dense_counterexample():
    P = base_code(2, 1, 3, 2, 1, 5)
    bad = MrParityCheck(P.spec, P.A, [P.D[0], P.D[0]] + P.D[2:])
    a, b = verify_mr_structured(bad), verify_mr(bad)
    assert not a.ok and a.first_failure is not None and same_verdict(a, b)
    # the structured checks up to the failure plus the dense walk
    assert a.checks > b.patterns_checked


def test_structured_budget_and_local_gate():
    P = base_code(2, 1, 3, 2, 1, 5)
    with pytest.raises(BudgetError):
        verify_mr_structured(P, budget=100)
    A = FieldMatrix(P.A.tower, P.A.level, 1, 3, [1, 1, 0])  # column 2 is zero
    bad = MrParityCheck(P.spec, A, P.D)
    a, b = verify_mr_structured(bad), verify_mr(bad)
    assert not a.ok and same_verdict(a, b)
    assert a.reason == "local parity block is not MDS"



def without_elapsed(report):
    return replaced(report, elapsed=0.0)


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.sampled_from(BASES),
       kind=st.sampled_from(("none", "copy", "random", "borrow")),
       how=st.sampled_from(("all", "small", "total")),
       small=st.integers(1, 60),
       rnd=st.randoms(use_true_random=False))
def test_verify_mr_matches_reference_walk(base, kind, how, small, rnd):
    P = base_code(*base)
    if kind != "none":
        P = corrupt(P, kind, rnd)
    total = pattern_count(P.spec)
    sample = {"all": None, "small": small, "total": total + small}[how]
    a, b = verify_mr(P, sample=sample), reference_verify_mr(P, sample=sample)
    assert without_elapsed(a) == without_elapsed(b)
    if kind == "none":
        assert a.ok


def test_verify_mr_matches_reference_walk_on_non_mds_local_block():
    P = base_code(2, 1, 3, 2, 1, 5)
    A = FieldMatrix(P.A.tower, P.A.level, 1, 3, [1, 1, 0])  # column 2 is zero
    bad = MrParityCheck(P.spec, A, P.D)
    for sample in (None, 7):
        a, b = verify_mr(bad, sample=sample), reference_verify_mr(bad, sample=sample)
        assert not a.ok and without_elapsed(a) == without_elapsed(b)


def test_verify_mr_asserts_the_local_gate(monkeypatch):
    # past a gate that wrongly passes, the singular delta-subset {2} of
    # A is a broken invariant, not a verdict
    P = base_code(2, 1, 3, 2, 1, 5)
    A = FieldMatrix(P.A.tower, P.A.level, 1, 3, [1, 1, 0])
    monkeypatch.setattr(mr, "is_mds_parity_check", lambda A, delta: True)
    with pytest.raises(AssertionError):
        verify_mr(MrParityCheck(P.spec, A, P.D))


def closed_form_checks(n, r, h, delta):
    """The structured checks of an OK code, counted from the parameters:
    the sum over s <= min(h, n) of C(n, s) times the sum, over ordered
    compositions (e_1..e_s) of h with parts at most r - delta, of the
    product of C(r, delta + e_i).  weight[t, s] sums that product over
    the compositions of t into s parts, one part at a time."""
    weight = {(0, 0): 1}
    for s in range(1, h + 1):
        for t in range(h + 1):
            weight[t, s] = sum(comb(r, delta + e) * weight.get((t - e, s - 1), 0)
                               for e in range(1, min(t, r - delta) + 1))
    return sum(comb(n, s) * weight[h, s] for s in range(1, min(h, n) + 1))


def gv_code(n, r, h):
    t = make_tower(2, 1, 16)
    return build_direct(MrCodeSpec(n=n, r=r, h=h, delta=1, tower=t), gv_greedy(t, n, r, h))


@pytest.mark.parametrize("code, known", (
    ((2, 1, 3, 1, 1, 4), 12),
    ((2, 1, 3, 2, 1, 5), 95),  # the README code
    ((2, 1, 3, 3, 2, 4), None),
    ((3, 1, 3, 2, 1, 4), None),
    ((2, 1, 3, 4, 1, 5), 685),
    ("gv-8-4-3", 13448),
))
def test_structured_checks_match_the_closed_form(code, known):
    P = gv_code(8, 4, 3) if code == "gv-8-4-3" else base_code(*code)
    spec = P.spec
    report = verify_mr_structured(P, budget=pattern_count(spec))
    want = closed_form_checks(spec.n, spec.r, spec.h, spec.delta)
    assert report.ok and report.checks == want
    if known is not None:
        assert want == known


def test_one_parity_check_derives_each_table_once(monkeypatch):
    P = base_code(2, 1, 3, 2, 1, 5)
    bad = MrParityCheck(P.spec, P.A, [P.D[0], P.D[0]] + P.D[2:])
    calls = []
    real = mr._reduced_columns

    def counted(P, g, S):
        calls.append((g, S))
        return real(P, g, S)

    monkeypatch.setattr(mr, "_reduced_columns", counted)
    assert not verify_mr_structured(bad).ok  # the failing path walks densely
    assert verify_mr(bad, sample=7).sampled == 8
    spec = bad.spec
    assert len(calls) == len(set(calls)) == spec.n * comb(spec.r, spec.delta)
