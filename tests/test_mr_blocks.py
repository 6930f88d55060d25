"""verify_mr decides an h <= 2 block whole from its tables' key sets and
walks only the blocks that test leaves open: its reports against a
per-pattern oracle, and which blocks it unranks."""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mrlrc import mr
from mrlrc.linalg import FieldMatrix, columns_independent, is_mds_parity_check, solve
from mrlrc.mr import (
    MrParityCheck,
    _projective_key,
    _reduced_columns,
    enumerate_patterns,
    moore_matrix,
    pattern_count,
    verify_mr,
    verify_mr_structured,
)

from test_mr_structured import base_code, reference_verify_mr, without_elapsed

# (p, a, r, h, delta, n): h in {1, 2} over F_2, F_3 and F_4, one delta = 2
CODES = {
    "p2-h1": (2, 1, 3, 1, 1, 4),
    "p2-h2": (2, 1, 3, 2, 1, 5),
    "p2-h2-delta2": (2, 1, 3, 2, 2, 4),
    "p3-h1": (3, 1, 3, 1, 1, 4),
    "p3-h2": (3, 1, 3, 2, 1, 4),
    "p3-h2-r4": (3, 1, 4, 2, 1, 3),
    "q4-h2": (2, 2, 3, 2, 1, 4),
}


def with_reduced(P, g, S, c, beta):
    """P with alpha_c of group g moved so that the reduced column w(S, c)
    is the Moore column of beta: alpha_c = beta + the F_q-combination of
    the alphas on S that A pairs with column c (A_S x = A_c)."""
    spec, t = P.spec, P.spec.tower
    F = t.field("top")
    rows = range(g * spec.delta, (g + 1) * spec.delta)
    A_S = FieldMatrix.from_rows(t, "top", [[P.H.at(i, s) for s in S] for i in rows])
    x = solve(A_S, [P.H.at(i, c) for i in rows])
    alphas = P.D[g].row(0)
    acc = beta
    for xi, s in zip(x, S):
        acc = F.add(acc, F.mul(xi, alphas[s - g * spec.r]))
    alphas[c - g * spec.r] = acc
    D = list(P.D)
    D[g] = moore_matrix(t, alphas, spec.h)
    return MrParityCheck(spec, P.A, D)


def clean(P, pool) -> bool:
    """The block test, from the definition: every h <= 2 extras of the
    block whose extras range over `pool` have defined, distinct keys."""
    spec = P.spec
    F = spec.tower.field("top")
    taken = sorted(set(range(spec.N)) - set(pool))
    keys = []
    for g in range(spec.n):
        S = tuple(c for c in taken if c // spec.r == g)
        keys += [_projective_key(F, w) for w in _reduced_columns(P, g, S).values()]
    return None not in keys and (spec.h == 1 or len(set(keys)) == len(keys))


def corrupted(name, kind):
    """The code `name` with one corruption: group 1's Moore block copied
    from group 0 (copy); a zero reduced column, an undefined key, in group
    1 (zero); two equal columns in group 1 (equal); or, in the last group,
    a reduced column off the first delta-subset made zero for h = 1 and,
    for h = 2, equal to one of group 0, chosen so that the first block
    stays clean and clean blocks come before the first failure (late).
    The equal columns are the group's last two, so for delta = 1 its first
    table holds two equal keys but no undefined one."""
    P = base_code(*CODES[name])
    spec = P.spec
    n, r, delta = spec.n, spec.r, spec.delta
    if kind == "none":
        return P
    if kind == "copy":
        return MrParityCheck(spec, P.A, [P.D[0], P.D[0]] + P.D[2:])
    if kind == "zero":
        return with_reduced(P, 1, tuple(range(r, r + delta)), r + delta, 0)
    if kind == "equal":
        alphas = P.D[1].row(0)
        alphas[-1] = alphas[-2]
        D = list(P.D)
        D[1] = moore_matrix(spec.tower, alphas, spec.h)
        return MrParityCheck(spec, P.A, D)
    assert kind == "late" and delta == 1
    last = (n - 1) * r
    first_pool = [c for c in range(spec.N) if c % r]
    betas = [0] if spec.h == 1 else [
        w[0] for s in range(r) for w in _reduced_columns(P, 0, (s,)).values()]
    for beta in betas:
        bad = with_reduced(P, n - 1, (last + 1,), last + 2, beta)
        if clean(bad, first_pool):
            return bad
    raise AssertionError("no late corruption leaves the first block clean")


@lru_cache(maxsize=None)
def oracle(name, kind, step):
    """(ok, patterns_checked, first_failure, reason) of a walk over the
    patterns enumerate_patterns samples at `step`, each decided by the
    rank of all its n*delta + h columns of H."""
    P = corrupted(name, kind)
    if not is_mds_parity_check(P.A, P.spec.delta):
        return False, 0, None, "local parity block is not MDS"
    checked = 0
    for pat in enumerate_patterns(P.spec, step):
        checked += 1
        if not columns_independent(P.H, pat.columns()):
            return False, checked, pat, "dependent erasure pattern"
    return True, checked, None, ""


KINDS = ("none", "copy", "zero", "equal", "late")
STEPS = ("exhaustive", 1, 7, 100, "total")


@pytest.mark.parametrize("step", STEPS, ids=str)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", CODES)
def test_block_decided_walk_matches_per_pattern_oracle(name, kind, step):
    if kind == "late" and CODES[name][4] != 1:
        pytest.skip("the late corruption is built for delta = 1")
    P = corrupted(name, kind)
    total = pattern_count(P.spec)
    if step == "exhaustive":
        sample, walk = None, 1
    else:
        # the sample size that asks for this step, and the step it gives
        sample = total // (total if step == "total" else step)
        walk = max(1, total // sample)
    report = verify_mr(P, sample=sample)
    ok, checked, failure, reason = oracle(name, kind, walk)
    assert (report.ok, report.patterns_checked, report.first_failure,
            report.sampled, report.reason) == (
        ok, checked, failure, None if sample is None else checked, reason)
    h, delta = P.spec.h, P.spec.delta
    if kind == "none":
        assert ok and checked == len(range(0, total, walk))
    elif kind in ("zero", "late") or (kind, h) == ("copy", 2) or (kind, delta) == ("equal", 1):
        # a corruption the exhaustive walk must catch; a copied block is
        # harmless for h = 1, and equal columns can be for delta = 2
        assert not oracle(name, kind, 1)[0]
    if kind == "late" and walk == 1:
        # the first failure lies past the first block, which is clean
        spec = P.spec
        assert checked > comb(spec.N - spec.n * spec.delta, spec.h)


def count_unranked(monkeypatch):
    """The pools (positions left for the extras) of every block verify_mr
    unranks, recorded through mr._strided_combinations."""
    pools = []
    real = mr._strided_combinations

    def counted(pool, *args):
        pools.append(tuple(pool))
        return real(pool, *args)

    monkeypatch.setattr(mr, "_strided_combinations", counted)
    return pools


@pytest.mark.parametrize("sample", (None, 1, 500, 10**6))
@pytest.mark.parametrize("name", ("p2-h2", "p3-h2-r4", "q4-h2", "p2-h1"))
def test_certified_code_unranks_no_pattern(monkeypatch, name, sample):
    pools = count_unranked(monkeypatch)
    P = base_code(*CODES[name])
    report = verify_mr(P, sample=sample)
    assert report.ok and report.patterns_checked >= 1
    assert pools == []


@pytest.mark.parametrize("sample", (None, 40, 300))
@pytest.mark.parametrize("name", ("p2-h1", "p2-h2", "p3-h2-r4", "q4-h2"))
def test_last_group_corruption_unranks_only_unclean_blocks(monkeypatch, name, sample):
    P = corrupted(name, "late")
    pools = count_unranked(monkeypatch)
    report = verify_mr(P, sample=sample)
    assert pools and not any(clean(P, pool) for pool in pools)
    if sample is None:
        assert not report.ok
    if not report.ok:  # the failing block is the last one walked
        erased = {c for g in report.first_failure.per_group for c in g}
        assert set(pools[-1]) == set(range(P.spec.N)) - erased
    # fewer blocks unranked than visited: the clean ones were counted whole
    spec = P.spec
    total = pattern_count(spec)
    step = 1 if sample is None else max(1, total // sample)
    extras_total = comb(spec.N - spec.n * spec.delta, spec.h)
    visited = len({i // extras_total for i in range(0, total, step)
                   if i < step * report.patterns_checked})
    assert len(pools) < visited


def test_h3_blocks_are_all_walked(monkeypatch):
    pools = count_unranked(monkeypatch)
    cleans = counted(monkeypatch, "_block_clean")
    P = base_code(2, 1, 3, 3, 1, 4)
    report = verify_mr(P, sample=100)
    spec = P.spec
    total = pattern_count(spec)
    extras_total = comb(spec.N - spec.n * spec.delta, spec.h)
    step = max(1, total // 100)
    assert report.ok
    assert len(pools) == len({i // extras_total for i in range(0, total, step)})
    # no h >= 3 block can pass the key-set test, so none is asked it
    assert cleans == []


# -- the whole-code certificate a sampled walk tries first ----------------------

# (p, a, r, h, delta, n): h in {1, 2, 3} over F_2 and F_3, each small
# enough for the per-pattern reference (at most 4,536 patterns)
CERT_CODES = (
    (2, 1, 3, 1, 1, 4),
    (3, 1, 3, 1, 1, 4),
    (2, 1, 3, 2, 1, 5),
    (2, 1, 3, 2, 2, 4),
    (3, 1, 3, 2, 1, 4),
    (2, 1, 3, 3, 1, 4),
    (3, 1, 2, 3, 1, 4),
)


def corrupt_moore(P, kind, rnd):
    """P with one group's Moore block changed: copied from another group
    (copy), one reduced column made zero (zero), two alphas made equal
    (equal) or every alpha drawn at random (random)."""
    spec, t = P.spec, P.spec.tower
    n, r, delta = spec.n, spec.r, spec.delta
    i, j = rnd.sample(range(n), 2)
    if kind == "none":
        return P
    if kind == "zero":
        S = tuple(sorted(j * r + s for s in rnd.sample(range(r), delta)))
        c = rnd.choice([c for c in range(j * r, (j + 1) * r) if c not in S])
        return with_reduced(P, j, S, c, 0)
    D = list(P.D)
    if kind == "copy":
        D[j] = D[i]
    else:
        alphas = D[j].row(0)
        if kind == "equal":
            a, b = rnd.sample(range(r), 2)
            alphas[b] = alphas[a]
        else:
            alphas = [rnd.randrange(t.field("top").size) for _ in range(r)]
        D[j] = moore_matrix(t, alphas, spec.h)
    return MrParityCheck(spec, P.A, D)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(code=st.sampled_from(CERT_CODES),
       kind=st.sampled_from(("none", "copy", "zero", "equal", "random")),
       # samples below and above the 144 supports of the F_2, h = 3 code
       # and exhaustive (None), which the certificate decides too
       sample=st.one_of(st.none(), st.integers(1, 300), st.integers(300, 5000)),
       rnd=st.randoms(use_true_random=False))
def test_certificate_matches_the_walk_and_the_reference(code, kind, sample, rnd):
    P = corrupt_moore(base_code(*code), kind, rnd)
    report = verify_mr(P, sample=sample)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mr, "_certified", lambda P, covered: False)
        walked = verify_mr(P, sample=sample)
    assert without_elapsed(report) == without_elapsed(walked)
    if report.patterns_checked <= 1000:
        assert without_elapsed(report) == without_elapsed(reference_verify_mr(P, sample=sample))
    if kind == "none":
        assert report.ok


def counted(monkeypatch, name):
    """The argument lists of every call to mr.<name>."""
    calls = []
    real = getattr(mr, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(mr, name, wrapper)
    return calls


@pytest.mark.parametrize("sample", (1, 500, 10**6))
@pytest.mark.parametrize("name", ("p2-h1", "p3-h1", "p2-h2", "p3-h2-r4", "q4-h2"))
def test_certified_sample_visits_no_block(monkeypatch, name, sample):
    P = base_code(*CODES[name])
    ranks = counted(monkeypatch, "_ranks")
    cleans = counted(monkeypatch, "_block_clean")
    report = verify_mr(P, sample=sample)
    total = pattern_count(P.spec)
    want = len(range(0, total, max(1, total // sample)))
    assert (report.ok, report.patterns_checked, report.sampled) == (True, want, want)
    assert ranks == []
    # one key-ownership test on the groups' owned keys, none per block
    assert len(cleans) == 1 and len(cleans[0][0]) == P.spec.n


@pytest.mark.parametrize("sample", (144, 1000, 10**6))
def test_h3_sample_above_the_supports_unranks_no_pattern(monkeypatch, sample):
    # 144 structured supports, at most the sampled patterns
    P = base_code(2, 1, 3, 3, 1, 4)
    assert mr._support_count(P.spec) == 144
    pools = count_unranked(monkeypatch)
    ranks = counted(monkeypatch, "_ranks")
    report = verify_mr(P, sample=sample)
    total = pattern_count(P.spec)
    want = len(range(0, total, max(1, total // sample)))
    assert want >= 144
    assert (report.ok, report.patterns_checked, report.sampled) == (True, want, want)
    assert pools == [] and ranks == []


@pytest.mark.parametrize("code", CERT_CODES + ((2, 1, 3, 4, 1, 5),))
def test_support_count_is_the_supports_walked(code):
    P = base_code(*code)
    tables, _ = mr._tables(P)
    assert mr._support_count(P.spec) == sum(1 for _ in mr._supports(P, tables))
    assert mr._support_count(P.spec) == verify_mr_structured(P).checks


@pytest.mark.parametrize("code", CERT_CODES)
def test_exhaustive_certified_code_visits_no_block(monkeypatch, code):
    P = base_code(*code)
    pools = count_unranked(monkeypatch)
    ranks = counted(monkeypatch, "_ranks")
    report = verify_mr(P)
    assert (report.ok, report.patterns_checked, report.sampled) == (
        True, pattern_count(P.spec), None)
    assert pools == [] and ranks == []


def filtered_compositions(h, max_e, most):
    """The compositions of h as the filter over every tuple of parts up to
    max_e, by number of parts: the oracle for the direct generator."""
    for size in range(1, min(h, most) + 1):
        for parts in product(range(1, max_e + 1), repeat=size):
            if sum(parts) == h:
                yield parts


def test_compositions_are_the_filtered_tuples_in_order():
    for h, max_e, most in product(range(7), repeat=3):
        assert list(mr._compositions(h, max_e, most)) == list(
            filtered_compositions(h, max_e, most)), (h, max_e, most)

