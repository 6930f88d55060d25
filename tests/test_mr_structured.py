"""The per-support MR verifier against the dense pattern walk."""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import pytest

from mrlrc.errors import BudgetError
from mrlrc.gf import make_tower
from mrlrc.linalg import FieldMatrix
from mrlrc.mr import (
    MrCodeSpec,
    MrParityCheck,
    build_direct,
    moore_matrix,
    pattern_count,
    verify_mr,
    verify_mr_structured,
)
from mrlrc.sdss import mds_construct

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


def same_verdict(a, b) -> bool:
    """Equal reports apart from the timing and the checks each mode did."""
    return replace(a, elapsed=0.0, checks=None) == replace(b, elapsed=0.0, checks=None)


@pytest.mark.parametrize("base", BASES)
def test_structured_matches_dense_on_bases(base):
    P = base_code(*base)
    a, b = verify_mr_structured(P), verify_mr(P)
    assert a.ok and same_verdict(a, b)
    assert a.patterns_checked == pattern_count(P.spec)
    assert 0 < a.checks <= a.patterns_checked  # each check stands for >= 1 pattern


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.sampled_from(BASES),
       kind=st.sampled_from(("copy", "random", "borrow")),
       rnd=st.randoms(use_true_random=False))
def test_structured_matches_dense_on_corrupted_moore_blocks(base, kind, rnd):
    P = base_code(*base)
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
    bad = MrParityCheck(spec, P.A, D)
    a, b = verify_mr_structured(bad), verify_mr(bad)
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

