from __future__ import annotations

import random
import sys
from functools import lru_cache

import pytest

from mrlrc import gf
from mrlrc.errors import FormatError, ParameterError
from mrlrc.gf import FieldTower, make_tower, parse_tower_line, tower_line


def brute_min_irreducible_quadratic(p: int) -> tuple[int, int, int]:
    """Oracle: first monic quadratic over F_p without roots, ascending
    low-part encoding (a quadratic is irreducible iff it has no root)."""
    for low in range(p * p):
        c0, c1 = low % p, low // p
        if all((x * x + c1 * x + c0) % p for x in range(p)):
            return (c0, c1, 1)
    raise AssertionError


def test_prime_identity_case():
    t = make_tower(2, 1, 1)
    assert t.q == 2
    assert t.base_poly is None and t.ext_poly is None
    assert list(t.field("prime").elements()) == [0, 1]


def test_f4_minimal_polynomial():
    # ascending scan over monic quadratics: x^2, x^2+1, x^2+x all reducible
    t = make_tower(2, 1, 2)
    assert t.ext_poly == brute_min_irreducible_quadratic(2) == (1, 1, 1)


def test_f9_minimal_polynomial():
    t = make_tower(3, 1, 2)
    assert t.ext_poly == brute_min_irreducible_quadratic(3)


def test_make_tower_deterministic():
    a = FieldTower(3, 2, 2)
    b = FieldTower(3, 2, 2)
    assert a.base_poly == b.base_poly and a.ext_poly == b.ext_poly
    assert make_tower(3, 2, 2) is make_tower(3, 2, 2)


def test_make_tower_memoises_on_the_normalised_key():
    t = make_tower(2)
    assert make_tower(2, 1) is t and make_tower(p=2) is t and make_tower(2, 1, 1) is t
    assert make_tower(2, m=1) is t and make_tower(m=1, a=1, p=2) is t
    assert make_tower(2, 1, 2) is not t
    make_tower.cache_clear()
    fresh = make_tower(2, 1, 1)
    assert fresh is not t and fresh == t
    assert make_tower(2) is fresh


def test_racing_builders_get_the_one_stored_tower():
    from threading import Barrier, Thread

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            make_tower.cache_clear()
            barrier, got = Barrier(4), []

            def build():
                barrier.wait(timeout=30)
                got.append(make_tower(3, 1, 6))

            threads = [Thread(target=build) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert len(got) == 4
            assert all(tower is make_tower(3, 1, 6) for tower in got)
    finally:
        sys.setswitchinterval(interval)


def test_make_tower_keeps_no_failed_build():
    with pytest.raises(ParameterError):
        make_tower(4)
    assert (4, 1, 1) not in gf._TOWERS


def test_arith_examples():
    F4 = make_tower(2, 1, 2).field("top")
    assert F4.mul(2, 3) == 1  # x * (x+1) = x^2 + x = 1 mod x^2+x+1
    F5 = make_tower(5).field("prime")
    assert F5.inv(2) == 3
    for t in (make_tower(2, 1, 2), make_tower(2, 2, 2)):
        F = t.field("top")
        assert all(F.add(c, c) == 0 for c in F.elements())


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_tower(2, 1, 3).field("top").inv(0)
    with pytest.raises(ZeroDivisionError):
        make_tower(7).field("prime").inv(0)


def _check_axioms_exhaustive(F):
    els = list(F.elements())
    for a in els:
        if a:
            assert F.mul(a, F.inv(a)) == 1
        assert F.add(a, F.neg(a)) == 0
        assert F.sub(a, a) == 0
    for a in els:
        for b in els:
            assert F.mul(a, b) == F.mul(b, a)
            for c in els:
                assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


@pytest.mark.parametrize(
    "p,a,m,level",
    [
        (2, 1, 2, "top"),
        (2, 1, 3, "top"),
        (3, 1, 2, "top"),
        (2, 2, 1, "mid"),
        (2, 2, 2, "top"),
        (5, 1, 2, "top"),
        (2, 1, 6, "top"),
        (2, 3, 2, "top"),
    ],
)
def test_field_axioms_exhaustive_small(p, a, m, level):
    # exhaustive triples for every field of size <= 64
    _check_axioms_exhaustive(make_tower(p, a, m).field(level))


@pytest.mark.parametrize("p,a,m", [(2, 1, 7), (3, 1, 4), (2, 2, 4)])
def test_field_axioms_sampled_larger(p, a, m):
    F = make_tower(p, a, m).field("top")
    rng = random.Random(7)
    for _ in range(2000):
        a_, b_, c_ = (rng.randrange(F.size) for _ in range(3))
        assert F.mul(F.mul(a_, b_), c_) == F.mul(a_, F.mul(b_, c_))
        assert F.mul(a_, F.add(b_, c_)) == F.add(F.mul(a_, b_), F.mul(a_, c_))
        if a_:
            assert F.mul(a_, F.inv(a_)) == 1


@pytest.mark.parametrize("p,a,m", [(3, 1, 4), (3, 1, 8), (3, 2, 3), (5, 2, 2)])
def test_zech_arithmetic_matches_digit_loop(p, a, m):
    """Once the tables exist, odd-characteristic add/sub/neg run on Zech
    logarithms; they must equal the digit-by-digit arithmetic and keep
    the additive group laws."""
    F = make_tower(p, a, m).field("top")
    ops = F
    assert F.tables() is not None
    assert len(ops._zech) == F.size - 1

    def digits(op, x, y):
        return ops._digitwise(getattr(ops.base, op), x, y)

    rng = random.Random(p * 100 + a * 10 + m)
    for _ in range(3000):
        x, y, z = (rng.randrange(F.size) for _ in range(3))
        if rng.random() < 0.1:
            y = x
        elif rng.random() < 0.1:
            y = digits("sub", 0, x)
        assert F.add(x, y) == digits("add", x, y)
        assert F.sub(x, y) == digits("sub", x, y)
        assert F.neg(x) == digits("sub", 0, x)
        assert F.add(x, F.neg(x)) == 0
        assert F.sub(x, x) == 0
        assert F.add(x, 0) == F.sub(x, 0) == x
        assert F.add(x, y) == F.add(y, x)
        assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
        assert F.sub(F.add(x, y), y) == x
        assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))


@pytest.mark.parametrize("p,a,m", [(2, 2, 2), (2, 1, 6), (3, 1, 3)])
def test_frobenius_is_field_automorphism(p, a, m):
    t = make_tower(p, a, m)
    F = t.field("top")
    for x in F.elements():
        for y in F.elements():
            assert t.frobenius(F.add(x, y)) == F.add(t.frobenius(x), t.frobenius(y))
            assert t.frobenius(F.mul(x, y)) == F.mul(t.frobenius(x), t.frobenius(y))


@pytest.mark.parametrize("p,a,m", [(2, 2, 2), (2, 1, 6), (3, 1, 2), (2, 1, 12), (2, 2, 3)])
def test_frobenius_fixed_field_is_embedded_fq(p, a, m):
    t = make_tower(p, a, m)
    fixed = [x for x in t.field("top").elements() if t.frobenius(x, 1) == x]
    assert fixed == list(range(t.q))


def test_frobenius_examples():
    t = make_tower(2, 1, 2)
    assert t.frobenius(2, 1) == 3  # x^2 = x + 1 in F_4
    assert t.frobenius(2, 0) == 2
    t16 = make_tower(2, 2, 2)
    for c in range(t16.q):  # embedded F_4 is fixed
        assert t16.frobenius(c, 5) == c
    for x in t16.field("top").elements():  # orbit closes after m steps
        assert t16.frobenius(x, t16.m) == x


def small_towers(limit=2**12):
    """Every (p, a, m) with p in {2, 3, 5}, a in {1, 2, 3} and p^(a*m) <= limit."""
    for p in (2, 3, 5):
        for a in (1, 2, 3):
            m = 1
            while p ** (a * m) <= limit:
                yield p, a, m
                m += 1


def test_frobenius_matches_pow_on_every_small_tower():
    # a fresh tower per shape, so the table-free map is set up on each;
    # m = 1 (top is mid) included, where every power is the identity
    for p, a, m in small_towers():
        t = FieldTower(p, a, m)
        F = t.field("top")
        for i in (0, 1, 2, m, m + 1, 2 * m + 3):
            e = t.q ** (i % m)
            for x in F.elements():
                assert t.frobenius(x, i) == F.pow(x, e), (p, a, m, i, x)


@pytest.mark.parametrize("p,a,m", [(2, 1, 16), (3, 1, 10), (2, 2, 6)])
def test_frobenius_matches_pow_on_random_elements(p, a, m):
    t = FieldTower(p, a, m)
    F = t.field("top")
    rng = random.Random(p * 100 + a * 10 + m)
    for x in [0, 1, F.size - 1] + [rng.randrange(F.size) for _ in range(300)]:
        for i in (0, 1, 3, m, m + 2):
            assert t.frobenius(x, i) == F.pow(x, t.q ** (i % m))


def test_frobenius_above_the_table_cap():
    t = FieldTower(2, 1, 21)
    F = t.field("top")
    assert F.size > gf.config.TABLE_CAP
    rng = random.Random(21)
    for x in [1, F.size - 1] + [rng.randrange(F.size) for _ in range(100)]:
        assert t.frobenius(x) == F._pow_raw(x, 2)
        assert t.frobenius(x, 2) == F._pow_raw(x, 4)
        assert t.frobenius(x, 21) == x
    assert F._exp is None


@pytest.mark.parametrize("p,a,m", [(2, 1, 16), (3, 1, 10), (2, 2, 6), (5, 1, 4)])
def test_frobenius_builds_no_top_tables(p, a, m):
    t = FieldTower(p, a, m)
    for x in range(0, t.level_size("top"), 97):
        t.frobenius(x, 2)
    assert t.field("top")._exp is None and t.field("top")._zech is None


def test_frobenius_on_an_odd_tower_above_the_table_cap():
    t = FieldTower(3, 1, 15)
    F = t.field("top")
    assert F.size > gf.config.TABLE_CAP
    rng = random.Random(315)
    for _ in range(30):
        x, y = rng.randrange(F.size), rng.randrange(F.size)
        assert t.frobenius(F.add(x, y)) == F.add(t.frobenius(x), t.frobenius(y))
        assert t.frobenius(F._mul_raw(x, y)) == F._mul_raw(t.frobenius(x), t.frobenius(y))
    # the element with code q is a root of the modulus and generates the
    # top field over F_q, so its orbit has m distinct elements
    orbit = [t.q]
    for _ in range(t.m):
        orbit.append(t.frobenius(orbit[-1]))
    assert orbit[-1] == orbit[0] and len(set(orbit)) == t.m
    assert F._exp is None and F._zech is None


@pytest.mark.parametrize("p,a,m", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (3, 2, 2)])
def test_pow_raw_matches_repeated_products(monkeypatch, p, a, m):
    F = FieldTower(p, a, m).field("top")
    exps = (0, 1, 2, 3, p**a, F.size - 2, F.size - 1, F.size)
    for x in F.elements():
        powers = [1]
        for _ in range(F.size):
            powers.append(F._mul_raw(powers[-1], x))
        for e in exps:
            assert F._pow_raw(x, e) == powers[e], (x, e)
    # from the top bit of e down: one squaring per further bit and one
    # product per further set bit, nothing else
    calls = []
    product = gf.Field._mul_raw

    def counted(self, x, y):
        if self is F:
            calls.append(None)
        return product(self, x, y)

    monkeypatch.setattr(gf.Field, "_mul_raw", counted)
    for e in exps[1:]:
        calls.clear()
        F._pow_raw(F.size - 1, e)
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1") - 1, e


def _monic(size, degree):
    """Every monic polynomial of the degree over 0..size-1, in code order."""
    return [tuple(gf._digits(low, size, degree)) + (1,) for low in range(size**degree)]


def _brute_irreducibles(ops, degree):
    """Oracle: the monic polynomials of the degree that are no product of
    two monic polynomials of lower degree, in code order."""
    reducible = set()
    for i in range(1, degree // 2 + 1):
        for f in _monic(ops.size, i):
            for g in _monic(ops.size, degree - i):
                prod = [0] * (degree + 1)
                for j, fj in enumerate(f):
                    for k, gk in enumerate(g):
                        prod[j + k] = ops.add(prod[j + k], ops.mul(fj, gk))
                reducible.add(tuple(prod))
    return [f for f in _monic(ops.size, degree) if f not in reducible]


@pytest.mark.parametrize("ops,degrees", [
    (gf._PrimeOps(2), range(1, 11)),
    (gf._PrimeOps(3), range(1, 7)),
    (gf._PrimeOps(5), range(1, 5)),
    (FieldTower(2, 2, 1).field("mid"), range(1, 5)),
    (FieldTower(3, 2, 1).field("mid"), range(1, 5)),
], ids=["2", "3", "5", "4", "9"])
def test_irreducibility_search_matches_brute_force(ops, degrees):
    for degree in degrees:
        irreducibles = _brute_irreducibles(ops, degree)
        assert gf._min_irreducible(ops, degree) == irreducibles[0]
        assert [f for f in _monic(ops.size, degree)
                if gf._is_irreducible(ops, list(f))] == irreducibles


# (p, a, largest m): every tower of these shapes up to that m
PINNED_SHAPES = [(2, 1, 24), (3, 1, 15), (2, 2, 12), (5, 1, 10), (7, 1, 7),
                 (2, 3, 8), (3, 2, 7), (2, 4, 6)]

# their tower lines as the search found them by trial division, before
# Ben-Or's test decided each candidate: the choice of polynomial is part
# of every artifact, so it must never change
PINNED_TOWERS = [
    "p=2 a=1 m=1",
    "p=2 a=1 m=2 ext_poly=1,1,1",
    "p=2 a=1 m=3 ext_poly=1,1,0,1",
    "p=2 a=1 m=4 ext_poly=1,1,0,0,1",
    "p=2 a=1 m=5 ext_poly=1,0,1,0,0,1",
    "p=2 a=1 m=6 ext_poly=1,1,0,0,0,0,1",
    "p=2 a=1 m=7 ext_poly=1,1,0,0,0,0,0,1",
    "p=2 a=1 m=8 ext_poly=1,1,0,1,1,0,0,0,1",
    "p=2 a=1 m=9 ext_poly=1,1,0,0,0,0,0,0,0,1",
    "p=2 a=1 m=10 ext_poly=1,0,0,1,0,0,0,0,0,0,1",
    "p=2 a=1 m=11 ext_poly=1,0,1,0,0,0,0,0,0,0,0,1",
    "p=2 a=1 m=12 ext_poly=1,0,0,1,0,0,0,0,0,0,0,0,1",
    "p=2 a=1 m=13 ext_poly=1,1,0,1,1,0,0,0,0,0,0,0,0,1",
    "p=2 a=1 m=14 ext_poly=1,0,0,0,0,1,0,0,0,0,0,0,0,0,1",
    "p=2 a=1 m=15 ext_poly=1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,1",
    "p=2 a=1 m=16 ext_poly=1,1,0,1,0,1,0,0,0,0,0,0,0,0,0,0,1",
    "p=2 a=1 m=17 ext_poly=1,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,1",
    "p=2 a=1 m=18 ext_poly=1,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1",
    "p=2 a=1 m=19 ext_poly=1,1,1,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,1",
    "p=2 a=1 m=20 ext_poly=1,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1",
    "p=2 a=1 m=21 ext_poly=1,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1",
    "p=2 a=1 m=22 ext_poly=1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1",
    "p=2 a=1 m=23 ext_poly=1,0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1",
    "p=2 a=1 m=24 ext_poly=1,1,0,1,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1",
    "p=3 a=1 m=1",
    "p=3 a=1 m=2 ext_poly=1,0,1",
    "p=3 a=1 m=3 ext_poly=1,2,0,1",
    "p=3 a=1 m=4 ext_poly=2,1,0,0,1",
    "p=3 a=1 m=5 ext_poly=1,2,0,0,0,1",
    "p=3 a=1 m=6 ext_poly=2,1,0,0,0,0,1",
    "p=3 a=1 m=7 ext_poly=2,0,1,0,0,0,0,1",
    "p=3 a=1 m=8 ext_poly=2,0,1,0,0,0,0,0,1",
    "p=3 a=1 m=9 ext_poly=1,0,1,2,0,0,0,0,0,1",
    "p=3 a=1 m=10 ext_poly=1,0,2,0,0,0,0,0,0,0,1",
    "p=3 a=1 m=11 ext_poly=2,0,1,0,0,0,0,0,0,0,0,1",
    "p=3 a=1 m=12 ext_poly=2,0,1,0,0,0,0,0,0,0,0,0,1",
    "p=3 a=1 m=13 ext_poly=1,2,0,0,0,0,0,0,0,0,0,0,0,1",
    "p=3 a=1 m=14 ext_poly=2,1,0,0,0,0,0,0,0,0,0,0,0,0,1",
    "p=3 a=1 m=15 ext_poly=2,0,1,0,0,0,0,0,0,0,0,0,0,0,0,1",
    "p=2 a=2 m=1 base_poly=1,1,1",
    "p=2 a=2 m=2 base_poly=1,1,1 ext_poly=2,1,1",
    "p=2 a=2 m=3 base_poly=1,1,1 ext_poly=2,0,0,1",
    "p=2 a=2 m=4 base_poly=1,1,1 ext_poly=1,2,1,0,1",
    "p=2 a=2 m=5 base_poly=1,1,1 ext_poly=2,1,0,0,0,1",
    "p=2 a=2 m=6 base_poly=1,1,1 ext_poly=2,1,1,0,0,0,1",
    "p=2 a=2 m=7 base_poly=1,1,1 ext_poly=1,1,0,0,0,0,0,1",
    "p=2 a=2 m=8 base_poly=1,1,1 ext_poly=2,1,0,1,0,0,0,0,1",
    "p=2 a=2 m=9 base_poly=1,1,1 ext_poly=2,0,0,0,0,0,0,0,0,1",
    "p=2 a=2 m=10 base_poly=1,1,1 ext_poly=3,0,2,1,0,0,0,0,0,0,1",
    "p=2 a=2 m=11 base_poly=1,1,1 ext_poly=2,1,0,0,0,0,0,0,0,0,0,1",
    "p=2 a=2 m=12 base_poly=1,1,1 ext_poly=1,2,1,1,0,0,0,0,0,0,0,0,1",
    "p=5 a=1 m=1",
    "p=5 a=1 m=2 ext_poly=2,0,1",
    "p=5 a=1 m=3 ext_poly=1,1,0,1",
    "p=5 a=1 m=4 ext_poly=2,0,0,0,1",
    "p=5 a=1 m=5 ext_poly=1,4,0,0,0,1",
    "p=5 a=1 m=6 ext_poly=2,1,0,0,0,0,1",
    "p=5 a=1 m=7 ext_poly=1,1,0,0,0,0,0,1",
    "p=5 a=1 m=8 ext_poly=2,0,0,0,0,0,0,0,1",
    "p=5 a=1 m=9 ext_poly=3,2,1,0,0,0,0,0,0,1",
    "p=5 a=1 m=10 ext_poly=3,1,1,0,0,0,0,0,0,0,1",
    "p=7 a=1 m=1",
    "p=7 a=1 m=2 ext_poly=1,0,1",
    "p=7 a=1 m=3 ext_poly=2,0,0,1",
    "p=7 a=1 m=4 ext_poly=1,1,0,0,1",
    "p=7 a=1 m=5 ext_poly=3,1,0,0,0,1",
    "p=7 a=1 m=6 ext_poly=2,0,0,0,0,0,1",
    "p=7 a=1 m=7 ext_poly=1,6,0,0,0,0,0,1",
    "p=2 a=3 m=1 base_poly=1,1,0,1",
    "p=2 a=3 m=2 base_poly=1,1,0,1 ext_poly=1,1,1",
    "p=2 a=3 m=3 base_poly=1,1,0,1 ext_poly=2,1,0,1",
    "p=2 a=3 m=4 base_poly=1,1,0,1 ext_poly=1,1,0,0,1",
    "p=2 a=3 m=5 base_poly=1,1,0,1 ext_poly=1,0,1,0,0,1",
    "p=2 a=3 m=6 base_poly=1,1,0,1 ext_poly=2,1,0,0,0,0,1",
    "p=2 a=3 m=7 base_poly=1,1,0,1 ext_poly=2,0,0,0,0,0,0,1",
    "p=2 a=3 m=8 base_poly=1,1,0,1 ext_poly=3,2,0,1,0,0,0,0,1",
    "p=3 a=2 m=1 base_poly=1,0,1",
    "p=3 a=2 m=2 base_poly=1,0,1 ext_poly=4,0,1",
    "p=3 a=2 m=3 base_poly=1,0,1 ext_poly=3,1,0,1",
    "p=3 a=2 m=4 base_poly=1,0,1 ext_poly=4,0,0,0,1",
    "p=3 a=2 m=5 base_poly=1,0,1 ext_poly=4,1,0,0,0,1",
    "p=3 a=2 m=6 base_poly=1,0,1 ext_poly=4,0,1,0,0,0,1",
    "p=3 a=2 m=7 base_poly=1,0,1 ext_poly=4,1,0,0,0,0,0,1",
    "p=2 a=4 m=1 base_poly=1,1,0,0,1",
    "p=2 a=4 m=2 base_poly=1,1,0,0,1 ext_poly=8,1,1",
    "p=2 a=4 m=3 base_poly=1,1,0,0,1 ext_poly=2,0,0,1",
    "p=2 a=4 m=4 base_poly=1,1,0,0,1 ext_poly=4,2,1,0,1",
    "p=2 a=4 m=5 base_poly=1,1,0,0,1 ext_poly=2,0,0,0,0,1",
    "p=2 a=4 m=6 base_poly=1,1,0,0,1 ext_poly=13,2,1,0,0,0,1",
]


def test_tower_choice_is_pinned():
    got = [tower_line(FieldTower(p, a, m))
           for p, a, top in PINNED_SHAPES for m in range(1, top + 1)]
    assert len(got) == 89
    assert got == PINNED_TOWERS


def test_is_prime_matches_a_sieve():
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for d in range(2, 317):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, limit, d)))
    assert [n for n in range(-3, limit) if gf._is_prime(n)] == \
        [n for n in range(limit) if sieve[n]]
    # a window around 2^24, sieved by the primes up to its square root
    lo, hi = 2**24 - 3000, 2**24 + 3000
    window = bytearray([1]) * (hi - lo)
    for d in range(2, 4100):
        if sieve[d]:
            start = -(-lo // d) * d
            window[start - lo::d] = bytes(len(range(start, hi, d)))
    assert [n for n in range(lo, hi) if gf._is_prime(n)] == \
        [n for n in range(lo, hi) if window[n - lo]]


def test_fq_basis():
    assert make_tower(2, 1, 2).fq_basis() == [1, 2]
    assert make_tower(3, 1, 1).fq_basis() == [1]
    assert make_tower(2, 1, 4).fq_basis() == [1, 2, 4, 8]


def test_element_enumeration():
    t = make_tower(2, 1, 3)
    assert list(make_tower(2).field("prime").elements()) == [0, 1]
    assert list(make_tower(2, 1, 2).field("top").elements()) == [0, 1, 2, 3]
    top = list(t.field("top").elements())
    assert len(top) == 8 and top[0] == 0


def test_vector_encoding_bijection():
    t = make_tower(3, 1, 3)
    for code in t.field("top").elements():
        vec = t.top_to_vec(code)
        assert len(vec) == t.m
        assert t.vec_to_top(vec) == code


def test_pow_matches_repeated_multiplication():
    F = make_tower(2, 2, 2).field("top")
    rng = random.Random(3)
    for _ in range(200):
        x = rng.randrange(F.size)
        e = rng.randrange(40)
        acc = 1
        for _ in range(e):
            acc = F.mul(acc, x)
        assert F.pow(x, e) == acc
    assert F.pow(0, 0) == 1 and F.pow(0, 5) == 0


def test_is_generator():
    F7 = make_tower(7).field("prime")
    assert F7.is_generator(3)
    assert not F7.is_generator(2)  # 2^3 = 1 mod 7
    F4 = make_tower(2, 1, 2).field("top")
    assert F4.is_generator(2)
    assert not F4.is_generator(1)


@pytest.mark.parametrize("tables", [True, False], ids=["tables", "no-tables"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_level_is_arithmetic_mod_p(monkeypatch, p, tables):
    """F_p is the degree-1 Field: on tables and Zech logarithms, or with
    the tables refused, every operation equals the integers mod p."""
    if not tables:
        monkeypatch.setattr(gf.config, "TABLE_CAP", 1)
    F = FieldTower(p, 1, 1).field("prime")  # fresh, not the cached tower's
    assert (F.tables() is not None) == tables
    for x in range(p):
        assert F.neg(x) == -x % p
        if x:
            assert F.inv(x) == pow(x, -1, p)
        for e in range(2 * p):
            assert F.pow(x, e) == pow(x, e, p)
        for y in range(p):
            assert F.add(x, y) == (x + y) % p
            assert F.sub(x, y) == (x - y) % p
            assert F.mul(x, y) == x * y % p


def test_levels_that_are_one_field_are_one_object():
    t = make_tower(3, 1, 4)
    assert t.field("mid") is t.field("prime")
    assert t.field("top") is not t.field("mid")
    u = make_tower(2, 2, 1)
    assert u.field("top") is u.field("mid")
    assert u.field("mid") is not u.field("prime")
    with pytest.raises(ParameterError):
        t.field("bottom")


def test_field_operations_are_defined_on_the_class():
    # perfbench/tracer.py counts field operations by replacing these
    assert {"add", "sub", "neg", "mul", "inv", "pow"} <= set(vars(gf.Field))


def test_make_tower_errors():
    with pytest.raises(ParameterError):
        make_tower(4, 1, 2)  # not prime
    with pytest.raises(ParameterError):
        make_tower(2, 0, 2)
    with pytest.raises(ParameterError):
        make_tower(2, 1, 25)  # 2^25 over the size cap


def test_tower_line_roundtrip():
    for t in (make_tower(2, 1, 1), make_tower(2, 1, 6), make_tower(3, 2, 2)):
        assert parse_tower_line(tower_line(t)) == t
    line = tower_line(make_tower(2, 1, 2))
    assert line == "p=2 a=1 m=2 ext_poly=1,1,1"


def test_tower_line_rejects_wrong_polynomial():
    with pytest.raises(FormatError):
        parse_tower_line("p=2 a=1 m=2 ext_poly=1,0,1")  # reducible, not the minimal pick
    with pytest.raises(FormatError):
        parse_tower_line("p=2 a=1 m=2")  # missing ext_poly
    with pytest.raises(FormatError):
        parse_tower_line("p=x a=1 m=2")


# -- log/exp/Zech table construction ----------------------------------


def _fresh_ops(p, a, m):
    """A new Field for the top field of a tower, with no tables yet."""
    ops = make_tower(p, a, m).field("top")
    return gf.Field(ops.base, ops.modulus)


@lru_cache(maxsize=None)
def _reference_tables(p, a, m):
    """exp, log and Zech lists from one generic product per element and
    from digit-by-digit addition, for the generator the tables use."""
    ops = _fresh_ops(p, a, m)
    g = ops._find_generator()
    n1 = ops.size - 1
    exp, log = [], [0] * ops.size
    v = 1
    for i in range(n1):
        exp.append(v)
        log[v] = i
        v = ops._mul_raw(v, g)
    assert v == 1
    zech = None
    if p != 2:
        zech = [-1 if i == n1 // 2 else log[ops._digitwise(ops.base.add, x, 1)]
                for i, x in enumerate(exp)]
    return exp + exp, log, zech


def _assert_same_tables(p, a, m):
    ops = _fresh_ops(p, a, m)
    assert ops._ensure_tables()
    exp, log, zech = _reference_tables(p, a, m)
    assert ops._exp == exp
    assert ops._log == log
    assert ops._zech == zech


# every extension field p^(a*m) <= 3^9 with p in {2, 3, 5, 7}, a in {1, 2}
# (the mid field of (p, 2, m) is the top field of (p, 2, 1))
SMALL_EXTENSIONS = [
    (p, a, m)
    for p in (2, 3, 5, 7)
    for a in (1, 2)
    for m in range(1, 15)
    if a * m > 1 and p ** (a * m) <= 3**9
]


def test_chunked_walk_matches_one_product_per_element():
    hyp = pytest.importorskip("hypothesis")

    @hyp.settings(max_examples=20, deadline=None)
    @hyp.given(hyp.strategies.sampled_from(SMALL_EXTENSIONS))
    def check(key):
        _assert_same_tables(*key)

    check()


def test_chunked_walk_matches_on_3_10():
    _assert_same_tables(3, 1, 10)


# _mul_raw calls _find_generator makes on a fresh 3^10 field (generator 34)
GENERATOR_PRODUCTS_3_10 = 745


def test_table_build_makes_no_product_per_element(monkeypatch):
    """The walk may call the generic product only for the generator
    search and the two half-image tables, never once per element."""
    calls = []
    product = gf.Field._mul_raw

    def counted(self, x, y):
        calls.append(None)
        return product(self, x, y)

    monkeypatch.setattr(gf.Field, "_mul_raw", counted)
    ops = _fresh_ops(3, 1, 10)
    assert ops._find_generator() == 34
    assert len(calls) == GENERATOR_PRODUCTS_3_10
    calls.clear()
    assert ops._ensure_tables()
    assert len(calls) <= 2 * 3**5 + GENERATOR_PRODUCTS_3_10


def _power(ops, x, e):
    acc = 1
    for _ in range(e):
        acc = ops._mul_raw(acc, x)
    return acc


@pytest.mark.parametrize("p,m,order", [(3, 4, 2), (3, 4, 40), (2, 4, 5), (2, 4, 3)])
def test_non_generator_is_refused(monkeypatch, p, m, order):
    """An element of order < q^m - 1 also satisfies g^(q^m - 1) = 1; the
    walk must notice that it came back to 1 early and publish nothing."""
    ops = _fresh_ops(p, 1, m)
    n1 = ops.size - 1
    bad = _power(ops, ops._find_generator(), n1 // order)
    assert _power(ops, bad, order) == 1 and bad != 1
    monkeypatch.setattr(gf.Field, "_find_generator", lambda self: bad)
    with pytest.raises(AssertionError, match="generator order"):
        ops._ensure_tables()
    assert ops._exp is ops._log is ops._zech is None


@pytest.mark.parametrize("p,a,m", [(3, 2, 2), (2, 2, 3)])
def test_tables_are_never_seen_half_published(p, a, m):
    """Stop _ensure_tables at each of its lines, as a second thread could,
    and use the field there: every operation must see either no tables
    or tables it can use, and agree with the generic arithmetic."""
    ops = _fresh_ops(p, a, m)
    slots = ("_exp", "_log", "_zech", "_half")
    rng = random.Random(p * 100 + a * 10 + m)
    pairs = [(rng.randrange(ops.size), rng.randrange(1, ops.size)) for _ in range(20)]
    expected = [
        (ops._mul_raw(x, y), ops._pow_raw(y, ops.size - 2), ops._pow_raw(x, 5),
         ops._digitwise(ops.base.add, x, y), ops._digitwise(ops.base.sub, x, y),
         ops._digitwise(ops.base.sub, 0, x))
        for x, y in pairs
    ]
    code = gf.Field._ensure_tables.__code__
    seen_lines, seen_states, errors = set(), set(), []

    def use_the_field(frame, event, arg):
        if event == "line" and frame.f_lineno not in seen_lines:
            seen_lines.add(frame.f_lineno)
            saved = [getattr(ops, s) for s in slots]
            seen_states.add(tuple(v is None for v in saved[:3]))
            try:
                got = [(ops.mul(x, y), ops.inv(y), ops.pow(x, 5),
                        ops.add(x, y), ops.sub(x, y), ops.neg(x)) for x, y in pairs]
                if got != expected:
                    errors.append((frame.f_lineno, "wrong result"))
            except Exception as exc:  # noqa: BLE001 - any error is the failure
                errors.append((frame.f_lineno, repr(exc)))
            finally:
                # a build started by the calls above must not hide this state
                for s, v in zip(slots, saved):
                    setattr(ops, s, v)
        return use_the_field

    def on_call(frame, event, arg):
        if frame.f_code is code and frame.f_locals.get("self") is ops:
            return use_the_field
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        assert ops._ensure_tables()
    finally:
        sys.settrace(previous)
    assert errors == []
    # the states between the first and the last store were visited
    assert (True, False, True) in seen_states  # log set, exp not yet
    assert (False, False, True) in seen_states  # log and exp set, Zech not yet


# -- inverses without tables ---------------------------------------------


def test_binary_inverse_without_tables_matches_power(monkeypatch):
    """Every nonzero element of every binary field up to 2^12, with the
    tables refused so that inv takes the extended Euclidean route."""
    monkeypatch.setattr(gf.config, "TABLE_CAP", 1)
    for m in range(2, 13):
        ops = _fresh_ops(2, 1, m)
        assert ops._mod_int is not None
        for x in range(1, ops.size):
            assert ops.inv(x) == ops._pow_raw(x, ops.size - 2)
        assert ops._exp is None


@pytest.mark.parametrize("m", [21, 24])
def test_binary_inverse_above_the_table_cap(m):
    F = make_tower(2, 1, m).field("top")
    ops = F
    assert F.size > gf.config.TABLE_CAP and F.tables() is None
    rng = random.Random(m)
    for x in [1, 2, F.size - 1] + [rng.randrange(1, F.size) for _ in range(60)]:
        y = F.inv(x)
        assert y == ops._pow_raw(x, F.size - 2)
        assert ops._mul_raw(x, y) == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_lane_layout_zero_test_and_add(p):
    # multi-lane fields, one-lane fields and an empty field, which is
    # zero in every word
    fields = [3, 1, 0, 4, 2]
    w, offsets, ones, guards, tops, bias = gf._lane_layout(p, fields)
    rng = random.Random(p)

    def pack(vec):
        return sum(d << (offsets[f] + j * w)
                   for f, digits in enumerate(vec) for j, d in enumerate(digits))

    def draw():
        # each field is zero with probability 1/2, else random digits
        return [[rng.randrange(p) for _ in range(n)] if rng.randrange(2) else [0] * n
                for n in fields]

    for _ in range(300):
        x, y = draw(), draw()
        kept = ((pack(x) | guards) - ones) & guards
        nonzero = [f for f, digits in enumerate(x) if any(digits)]
        assert kept == sum(1 << (offsets[f] + fields[f] * w) for f in nonzero)
        assert bin(kept).count("1") == len(nonzero)
        total = [[(a + b) % p for a, b in zip(u, v)] for u, v in zip(x, y)]
        assert gf._lane_add(pack(x), pack(y), p, w, tops, bias) == pack(total)
