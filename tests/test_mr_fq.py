"""The MR checks of a Moore code decided over F_q on the Moore generators
(Lidl-Niederreiter, Lemma 3.51): the same reports as the F_ell route on
the reduced columns, no top-field tables, and `checks=` equal to the
checks made."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mrlrc import fileio, mr
from mrlrc.cli import main
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

from test_mr_structured import base_code, gv_code, reference_verify_mr, without_elapsed

# (p, a, r, h, delta, n): p in {2, 3, 5} and q = 4, h in 1..3
BASES = (
    (2, 1, 3, 1, 1, 4),
    (2, 1, 3, 2, 1, 4),
    (2, 1, 3, 3, 1, 4),
    (3, 1, 3, 1, 1, 3),
    (3, 1, 3, 2, 1, 3),
    (3, 1, 2, 3, 1, 4),
    (5, 1, 3, 1, 1, 3),
    (5, 1, 3, 2, 1, 3),
    (5, 1, 2, 3, 1, 4),
    (2, 2, 3, 1, 1, 3),
    (2, 2, 3, 2, 1, 3),
    (2, 2, 2, 3, 1, 4),
)

# the dense oracle walks every pattern one k x k rank at a time
ORACLE_PATTERNS = 2000


def fq_combination(t, coeffs, alphas):
    """sum c * alpha over F_q, digit by digit: no top-field product."""
    Fq = t.field("mid")
    acc = [0] * t.m
    for c, a in zip(coeffs, alphas):
        acc = [Fq.add(x, Fq.mul(c, y)) for x, y in zip(acc, t.top_to_vec(a))]
    return t.vec_to_top(acc)


def moore_corruption(P, kind, rnd):
    """The Moore blocks of P with one group j changed: a copy of another
    group's block, one alpha set to an F_q-combination of other groups'
    alphas, one alpha set to zero, or random alphas."""
    spec, t = P.spec, P.spec.tower
    n, r, h = spec.n, spec.r, spec.h
    D = list(P.D)
    if kind == "none":
        return D
    i, j = rnd.sample(range(n), 2)
    if kind == "copy":
        D[j] = D[i]
        return D
    alphas = D[j].row(0)
    c = rnd.randrange(r)
    if kind == "combo":
        others = [D[g].at(0, k) for g in range(n) if g != j for k in range(r)]
        picked = rnd.sample(others, min(len(others), rnd.randint(1, 3)))
        alphas[c] = fq_combination(t, [rnd.randrange(1, t.q) for _ in picked], picked)
    elif kind == "zero":
        alphas[c] = 0
    else:
        alphas = [rnd.randrange(t.field("top").size) for _ in range(r)]
    D[j] = moore_matrix(t, alphas, h)
    return D


def reports(spec, A, D, sample, fq):
    """(verify_mr, verify_mr_structured) on fresh parity checks, the F_ell
    route forced by an _is_moore that refuses every block when not fq."""
    with pytest.MonkeyPatch.context() as mp:
        if not fq:
            mp.setattr(mr, "_is_moore", lambda t, M: False)
        a = verify_mr(MrParityCheck(spec, A, D, check=False), sample=sample)
        b = verify_mr_structured(MrParityCheck(spec, A, D, check=False))
    return without_elapsed(a), without_elapsed(b)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.sampled_from(BASES),
       kind=st.sampled_from(("none", "copy", "combo", "zero", "random")),
       how=st.sampled_from(("all", "small", "total")),
       small=st.integers(1, 60),
       rnd=st.randoms(use_true_random=False))
def test_fq_route_matches_the_f_ell_route(base, kind, how, small, rnd):
    P = base_code(*base)
    spec = P.spec
    D = moore_corruption(P, kind, rnd)
    total = pattern_count(spec)
    sample = {"all": None, "small": small, "total": total + small}[how]
    fq = reports(spec, P.A, D, sample, True)
    assert fq == reports(spec, P.A, D, sample, False)
    if kind == "none":
        assert fq[0].ok and fq[1].ok
    if total <= ORACLE_PATTERNS:
        dense = without_elapsed(reference_verify_mr(
            MrParityCheck(spec, P.A, D, check=False), sample=sample))
        assert fq[0] == dense


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=st.sampled_from([b for b in BASES if b[3] >= 2]),
       kind=st.sampled_from(("none", "copy", "combo")),
       rnd=st.randoms(use_true_random=False))
def test_non_moore_code_takes_the_f_ell_route(base, kind, rnd):
    # one entry of a block's last row bumped: that block is not Moore
    P = base_code(*base)
    spec, t = P.spec, P.spec.tower
    D = moore_corruption(P, kind, rnd)
    g, c = rnd.randrange(spec.n), rnd.randrange(spec.r)
    rows = D[g].to_rows()
    rows[-1][c] = (rows[-1][c] + 1) % t.field("top").size
    D[g] = FieldMatrix.from_rows(t, "top", rows)
    bad = MrParityCheck(spec, P.A, D, check=False)
    routes = []
    real = mr._table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mr, "_table", lambda P, g, S, moore: routes.append(moore)
                   or real(P, g, S, moore))
        report = verify_mr(bad)
    assert routes and not any(routes)
    assert without_elapsed(report) == without_elapsed(reference_verify_mr(bad))


# (p, a, r, h, delta, n) for q in {2, 3, 4} and h in {2, 3}
NO_TABLE_CODES = (
    (2, 1, 3, 2, 1, 5),
    (2, 1, 3, 3, 1, 4),
    (3, 1, 3, 2, 1, 4),
    (3, 1, 2, 3, 1, 4),
    (2, 2, 3, 2, 1, 4),
    (2, 2, 2, 3, 1, 4),
)


@pytest.mark.parametrize("code", NO_TABLE_CODES, ids=str)
@pytest.mark.parametrize("run", ("exhaustive", "sampled", "fail-exhaustive", "fail-sampled"))
def test_verify_of_a_moore_code_builds_no_top_tables(code, run):
    p, a, r, h, delta, n = code
    make_tower.cache_clear()
    t = make_tower(p, a, h * r)
    spec = MrCodeSpec(n=n, r=r, h=h, delta=delta, tower=t)
    P = build_direct(spec, mds_construct(t, n, r, h))
    if run.startswith("fail"):
        P = MrParityCheck(spec, P.A, [P.D[0], P.D[0]] + P.D[2:])
    if run.endswith("sampled"):
        report = verify_mr(P, sample=50)
    else:
        report = verify_mr_structured(P)
    assert report.ok == (not run.startswith("fail"))
    top = t.field("top")
    assert top._exp is None and top._zech is None


def counted_checks(monkeypatch):
    """A list that grows by one on every call of the store's check."""
    calls = []
    real = mr._independent

    def independent(F, h):
        check = real(F, h)
        return lambda cols: calls.append(1) or check(cols)

    monkeypatch.setattr(mr, "_independent", independent)
    return calls


@pytest.mark.parametrize("copy", ((0, 1), (7, 0)), ids=str)
def test_verbose_checks_count_every_check_of_an_h3_fail(tmp_path, capsys, monkeypatch,
                                                        copy):
    P = gv_code(8, 4, 3)  # the gv-2-16 code
    D = list(P.D)
    D[copy[1]] = D[copy[0]]
    path = tmp_path / "bad.mr"
    path.write_text(fileio.format_mr(MrParityCheck(P.spec, P.A, D)))
    calls = counted_checks(monkeypatch)
    assert main(["verify", "--in", str(path), "--budget", "300000000", "-v"]) == 1
    err = capsys.readouterr().err
    assert f" checks={len(calls)} " in err
    if copy == (0, 1):
        assert len(calls) == 20
