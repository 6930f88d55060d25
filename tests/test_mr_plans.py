"""Cached decode plans against the dense erasure decoder.

`erase_decode` decodes the first sight of an erased set densely, builds
a plan on the second sight and runs the plan on every later stripe,
remembering the last PLAN_CAP sets.  Whatever path a stripe takes, its
DecodeResult must equal that of `erase_decode_dense`.
"""

from __future__ import annotations

import random
import sys
import threading
from functools import lru_cache

import pytest

from mrlrc import mr
from mrlrc.gf import make_tower
from mrlrc.mr import (
    PLAN_CAP,
    MrCodeSpec,
    MrParityCheck,
    build_direct,
    encode,
    erase_decode,
    erase_decode_dense,
    generator_from_parity,
)
from mrlrc.sdss import mds_construct

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# (p, a, r, h, delta, n): characteristic 2 on tables, characteristic 3 on
# Zech logarithms, and q = 4 and q = 9 towers with a = 2
CODES = (
    (2, 1, 3, 2, 1, 5),
    (2, 2, 3, 2, 1, 4),
    (3, 1, 3, 2, 1, 4),
    (3, 1, 3, 1, 2, 3),
    (3, 2, 2, 2, 1, 4),
)


@lru_cache(maxsize=None)
def code(p, a, r, h, delta, n):
    t = make_tower(p, a, h * r)
    spec = MrCodeSpec(n=n, r=r, h=h, delta=delta, tower=t)
    P = build_direct(spec, mds_construct(t, n, r, h))
    return P, generator_from_parity(P)


def fresh(P: MrParityCheck) -> MrParityCheck:
    """The same parity check with an empty plan cache."""
    return MrParityCheck(P.spec, P.A, P.D, check=False)


class KernelCalls:
    """Counts mr.kernel calls: only the dense path makes them."""

    def __init__(self, monkeypatch):
        self.calls = 0
        orig = mr.kernel

        def counted(M):
            self.calls += 1
            return orig(M)

        monkeypatch.setattr(mr, "kernel", counted)


def stripe(rng, P, G, erased, corrupt: bool) -> list[int]:
    """An encoded word with random values at the erased positions and,
    if `corrupt`, one known symbol changed."""
    ell = P.spec.ell
    word = encode(G, [rng.randrange(ell) for _ in range(G.rows)])
    for e in erased:
        word[e] = rng.randrange(ell)
    known = [j for j in range(P.spec.N) if j not in erased]
    if corrupt and known:
        j = rng.choice(known)
        word[j] = (word[j] + 1 + rng.randrange(ell - 1)) % ell
    return word


def check(P, received, erased, kernels=None):
    """erase_decode equals the dense oracle, and mutating its result
    changes neither a later result nor the cache.  Returns the result
    and whether the first erase_decode took the dense path."""
    before = kernels.calls if kernels else 0
    got = erase_decode(P, received, erased)
    dense = kernels is not None and kernels.calls > before
    want = erase_decode_dense(P, received, erased)
    assert got == want
    for vec in (got.codeword, got.certificate):
        if vec:
            vec[0] = -1
    assert erase_decode(P, received, erased) == want
    return want, dense


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(st.sampled_from(CODES), st.integers(0, 2**32 - 1), st.data())
def test_plan_path_matches_dense_oracle(monkeypatch, params, seed, data):
    base, G = code(*params)
    P = fresh(base)
    spec = P.spec
    rows = P.H.rows
    rng = random.Random(seed)
    # up to two more erasures than parity rows: many sets are dependent
    size = data.draw(st.integers(1, rows + 2), label="erasures")
    erased = sorted(rng.sample(range(spec.N), size))
    key = tuple(erased)
    plans = P._plans._plans
    kernels = KernelCalls(monkeypatch)

    def paths():
        """Dense or plan path of each of four stripes, one corrupted."""
        return [check(P, stripe(rng, P, G, erased, corrupt), erased, kernels)[1]
                for corrupt in (False, False, True, False)]

    # each check() decodes twice: the first sight is dense and only
    # recorded, the second builds the plan, every later stripe runs on it
    assert paths() == [True, False, False, False]
    assert plans[key] is not None
    # PLAN_CAP other sets push this one out of the cache
    others = set()
    while len(others) < PLAN_CAP:
        other = tuple(sorted(rng.sample(range(spec.N), rng.randrange(1, rows + 1))))
        if other != key:
            others.add(other)
    for other in others:
        erase_decode(P, stripe(rng, P, G, other, False), other)
    assert key not in plans and len(plans) == PLAN_CAP
    assert paths() == [True, False, False, False]


def test_dependent_set_certificate_is_the_dense_one():
    P, G = code(2, 1, 3, 2, 1, 5)
    P = fresh(P)
    erased = list(range(8))  # eight erasures against seven parity rows
    rng = random.Random(1)
    results = [check(P, stripe(rng, P, G, erased, False), erased)[0] for _ in range(4)]
    assert all(not r.ok and r.certificate == results[0].certificate for r in results)
    assert list(P._plans._plans[tuple(erased)].certificate) == results[0].certificate


def test_shared_plan_cache_under_threads():
    """Threads decoding a few sets on one parity check, with frequent
    switches, all get the dense oracle's results."""
    P, G = code(3, 1, 3, 2, 1, 4)
    P = fresh(P)
    rng = random.Random(2)
    sets = [sorted(rng.sample(range(P.spec.N), k)) for k in (1, 2, 3, 4, 7)]
    jobs = []
    for _ in range(40):
        erased = rng.choice(sets)
        rx = stripe(rng, P, G, erased, rng.random() < 0.2)
        jobs.append((rx, erased, erase_decode_dense(P, rx, erased)))
    errors = []

    def work(offset):
        for i in range(200):
            rx, erased, want = jobs[(offset + i) % len(jobs)]
            if erase_decode(P, rx, erased) != want:
                errors.append((offset, i))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k * 7,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(P._plans._plans) == len(sets)
