"""The h <= 2 check by projective keys against rank, and the sampled walk
across blocks on a code with more groups than the shared bases."""

from __future__ import annotations

from functools import lru_cache
from math import comb

import pytest

from mrlrc import config
from mrlrc.gf import make_tower
from mrlrc.linalg import _rank_rows
from mrlrc.mr import _keys_independent, _projective_key, pattern_count, verify_mr

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_mr_structured import (  # noqa: E402
    base_code,
    corrupt,
    reference_verify_mr,
    without_elapsed,
)

# (p, a, m): char 2 with tables at 2^6 and 2^16, odd characteristic 3^4,
# the q = 4 tower, and 2^21, above config.TABLE_CAP (no log/exp tables)
FIELDS = ((2, 1, 6), (2, 1, 16), (3, 1, 4), (2, 2, 3), (2, 1, 21))


@lru_cache(maxsize=None)
def top_field(p, a, m):
    return make_tower(p, a, m).field("top")


def test_fields_cover_a_field_without_tables():
    assert top_field(2, 1, 21).size > config.TABLE_CAP
    assert top_field(2, 1, 21).tables() is None
    assert top_field(2, 1, 16).tables() is not None


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field=st.sampled_from(FIELDS),
       h=st.integers(1, 2),
       plant=st.sampled_from(("none", "zero", "proportional", "infinity")),
       rnd=st.randoms(use_true_random=False))
def test_keys_decide_independence_like_rank(field, h, plant, rnd):
    F = top_field(*field)
    cols = [[rnd.randrange(F.size) for _ in range(h)] for _ in range(h)]
    i = rnd.randrange(h)
    if plant == "zero":
        cols[i] = [0] * h
    elif plant == "proportional":
        # column i becomes a multiple of column j (the same column when h = 1)
        j = rnd.randrange(h)
        lam = rnd.randrange(1, F.size)
        cols[i] = [F.mul(lam, x) for x in cols[j]]
    elif plant == "infinity":
        cols[i][0] = 0  # w[0] = 0: the point at infinity, or w = 0
    keys = [_projective_key(F, w) for w in cols]
    assert _keys_independent(keys) == (_rank_rows(F, cols) == h)


# an h = 2 code with 7 groups: 199,017 patterns in blocks of C(14, 2) = 91
N7 = (2, 1, 3, 2, 1, 7)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(kind=st.sampled_from(("none", "copy", "random", "borrow")),
       sample=st.integers(20, 600),
       rnd=st.randoms(use_true_random=False))
def test_sampled_walk_across_blocks_matches_reference_walk(kind, sample, rnd):
    P = base_code(*N7)
    spec = P.spec
    # a stride past one block's extras: consecutive samples fall in
    # different blocks, so the extras' groups vary from pattern to pattern
    assert pattern_count(spec) // sample > comb(spec.N - spec.n * spec.delta, spec.h)
    if kind != "none":
        P = corrupt(P, kind, rnd)
    a, b = verify_mr(P, sample=sample), reference_verify_mr(P, sample=sample)
    assert without_elapsed(a) == without_elapsed(b)
    if kind == "none":
        assert a.ok
