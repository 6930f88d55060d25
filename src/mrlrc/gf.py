"""Exact arithmetic in a finite-field tower F_p <= F_q <= F_{q^m}.

Every field element is a plain int.  A mid-level element (F_q, q = p^a)
encodes its coefficient vector over F_p in base p, little-endian with
the constant term first; a top-level element (F_{q^m}) encodes its
coefficient vector over F_q in base q the same way.  The defining
polynomials are the monic irreducibles of the required degree with the
smallest integer encoding of their coefficient vector, found by
ascending exhaustive search (each candidate decided by Ben-Or's test,
`_is_irreducible`), so two towers built from the same (p, a, m) are
identical and every code is reproducible across runs.

Levels are addressed by name: ``"prime"`` (F_p), ``"mid"`` (F_q),
``"top"`` (F_{q^m}).  Every level is one `Field`, an extension
base[x]/(modulus) of its digit field; F_p is the degree-1 case
F_p[x]/(x), whose codes are 0..p-1.  Levels that are the same field
(mid when a = 1, top when m = 1) are the same object.  Towers and their
element codes are immutable; all operations are pure functions, safe to
share across threads.  Fields up to config.TABLE_CAP elements, F_p
included, build log/exp tables the first time `mul`, `inv`, `pow` or
`tables` is called on them and then multiply on them; odd-characteristic
fields then also add, subtract and negate on a table of Zech logarithms,
but `add`, `sub` and `neg` never build the tables themselves.
`FieldTower.frobenius` never builds tables of the top field: it raises
x to q^i by square-and-multiply on generic products (`_pow_raw`).

The tables come from one walk over the powers of a generator g.
Multiplying by g is F_p-linear on the base-p digits of a code, so a
step adds the precomputed images of the code's low and high halves of
digits (p^ceil(n/2) + p^floor(n/2) generic products in all, for n
digits), held one digit per bit lane: XOR in characteristic 2, else a
lane-wise conditional subtraction of p (`_lane_add`).  `_lane_layout`
is the package's one packed-word layout: the table walk, the odd-p
greedy span scan (`sdss._first_outside`; over F_2 it sieves blocks of
codes instead) and the codeword walk (`codes._min_weight`) all lay
their words out with it, and the last two count through base-p digits
with `_counting_steps`.

Everything is built in locals and published log first, exp next and
the Zech table last: a thread that finds exp set also finds log, and
one that finds the Zech table finds all three.
"""

from __future__ import annotations

from itertools import accumulate, count, islice

from . import config
from .errors import FormatError, ParameterError


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending (n fits desk scale)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


class _PrimeOps:
    """Raw arithmetic mod a prime p on 0..p-1: the digit field of F_p,
    of F_q and, when q = p, of F_{q^m}, and the coefficients of the
    irreducibility search."""

    __slots__ = ("size", "char")

    def __init__(self, p: int):
        self.size = p
        self.char = p

    def add(self, x, y):
        return (x + y) % self.size

    def sub(self, x, y):
        return (x - y) % self.size

    def mul(self, x, y):
        return (x * y) % self.size

    def inv(self, x):
        return pow(x, -1, self.size)


def _digits(code: int, base: int, length: int) -> list[int]:
    """The first `length` base-`base` digits of code, lowest first."""
    out = []
    for _ in range(length):
        code, d = divmod(code, base)
        out.append(d)
    return out


def _undigits(digits, base: int) -> int:
    """Inverse of `_digits`: the code of a digit sequence, lowest first."""
    code = 0
    for d in reversed(digits):
        code = code * base + d
    return code


def _lanes(code: int, p: int, w: int) -> int:
    """The base-p digits of code, one per w-bit lane, lowest first."""
    if w == 1:  # p = 2: the code itself
        return code
    out = shift = 0
    while code:
        code, d = divmod(code, p)
        out |= d << shift
        shift += w
    return out


def _digit_count(p: int, size: int) -> int:
    """n with size = p^n: the base-p digits of one element's code."""
    return next(n for n in count(1) if p**n >= size)


def _lane_layout(p: int, fields) -> tuple[int, list[int], int, int, int, int]:
    """The packed word: fields of base-p digits in one int.

    fields[f] is the number of digits of field f.  Each digit takes one
    w-bit lane (`_lanes`), lowest first; field f starts at bit
    offsets[f], and one guard bit above its lanes stays zero in every
    packed value.  Returns (w, offsets, ones, guards, tops, bias): ones
    has the lowest bit of every field and guards every guard bit, so
    ((v | guards) - ones) & guards keeps the guard bits of exactly the
    nonzero fields of v, since subtracting 1 from a field borrows from
    its guard only when the field is 0.  In characteristic 2 a lane is
    one bit and tops = bias = 0; otherwise tops has the top bit of every
    lane and bias 2^(w-1) - p in every lane (`_lane_add`).
    """
    w = 1 if p == 2 else (p - 1).bit_length() + 1
    offsets = []
    ones = guards = lanes = shift = 0
    for n in fields:
        offsets.append(shift)
        ones |= 1 << shift
        lanes |= ((1 << (w * n)) - 1) // ((1 << w) - 1) << shift  # 1 in every lane
        shift += w * n
        guards |= 1 << shift
        shift += 1
    if p == 2:
        return w, offsets, ones, guards, 0, 0
    return w, offsets, ones, guards, lanes << (w - 1), lanes * ((1 << (w - 1)) - p)


def _lane_add(x: int, y: int, p: int, w: int, tops: int, bias: int) -> int:
    """Lane-wise sum mod p of two words packed by `_lane_layout`.

    XOR in characteristic 2.  Otherwise every lane of the plain sum v
    is below 2p, and v - (((v + bias) & tops) >> (w-1)) * p reduces each
    lane mod p: 2^(w-1) >= p, so adding 2^(w-1) - p sets a lane's top bit
    exactly when it holds p or more.  Hot loops write this inline.
    """
    if p == 2:
        return x ^ y
    v = x + y
    return v - (((v + bias) & tops) >> (w - 1)) * p


def _counting_steps(images, p: int, w: int, tops: int, bias: int) -> list[int]:
    """The steps of a base-p counter on packed images, for one counting walk.

    images[i] is the packed image of the i-th unit digit vector under an
    F_p-linear map.  Going from c to c + 1 adds 1 to the lowest k + 1
    digits of c, where k counts its trailing p - 1 digits (they wrap to
    0, which is +1 mod p), so the image changes by steps[k] = images[0]
    + ... + images[k].  In characteristic 2, k is
    (c ^ (c + 1)).bit_length() - 1.  A last 0 is the step past the last
    code, never taken.
    """
    return [*accumulate(images, lambda x, y: _lane_add(x, y, p, w, tops, bias)), 0]


class Field:
    """One tower level: base[x]/(modulus) for a monic irreducible modulus
    over the digit field `base`; F_p is Field(_PrimeOps(p), (0, 1)).

    Elements are ints: base-`base.size` little-endian digit strings of
    the coefficient vector.  Multiplication and inversion go through
    log/exp tables once the field is small enough (config.TABLE_CAP),
    F_p included; otherwise they fall back to direct polynomial
    arithmetic.  Addition is XOR in characteristic 2.  In odd
    characteristic it runs digit by digit until the tables exist, and
    then on one period of Zech logarithms built with them
    (Lidl-Niederreiter, Finite Fields, ch. 9), as do subtraction and
    negation.  The six operations are plain methods of this class.

    `_ensure_tables` walks x -> x*g on lane-packed digit vectors (see
    the module docstring) and raises AssertionError if g's order is
    short of size - 1.  It publishes `_log` and `_half` before `_exp`,
    and `_zech` last, because `mul`, `inv`, `pow` and `tables` test
    `_exp`, and `add`, `sub` and `neg` test `_zech`, before they read
    the others.  `_mul_raw` serves fields above the cap, the generator
    search, the images of the half-digit codes and `FieldTower.frobenius`.
    Above the cap an extension of F_2 inverts by the extended Euclidean
    algorithm (`_inv_binary`), any other by x^(size-2).
    """

    __slots__ = (
        "base",
        "char",
        "deg",
        "base_size",
        "size",
        "modulus",
        "_mod_int",
        "_exp",
        "_log",
        "_zech",
        "_half",
    )

    def __init__(self, base, modulus):
        self.base = base
        self.char = base.char
        self.deg = len(modulus) - 1
        self.base_size = base.size
        self.size = base.size**self.deg
        self.modulus = tuple(modulus)
        # Bit-packed modulus for the binary fast path (base field F_2).
        self._mod_int = None
        if base.size == 2:
            self._mod_int = sum(c << i for i, c in enumerate(modulus))
        self._exp = None
        self._log = None
        self._zech = None
        self._half = None

    # -- ring operations ----------------------------------------------
    def _digitwise(self, op, x, y):
        """op applied to each pair of base-field digits of x and y."""
        s = self.base_size
        out = 0
        mult = 1
        while x or y:
            x, dx = divmod(x, s)
            y, dy = divmod(y, s)
            out += op(dx, dy) * mult
            mult *= s
        return out

    # With tables in odd characteristic, x + y = x (1 + y/x) and
    # 1 + alpha^d = alpha^Z(d) (Zech logarithms); -1 = alpha^(n1/2).
    def add(self, x, y):
        if self.char == 2:
            return x ^ y
        zech = self._zech
        if zech is None:
            return self._digitwise(self.base.add, x, y)
        if not x:
            return y
        if not y:
            return x
        log = self._log
        lx = log[x]
        z = zech[log[y] - lx]  # a negative index wraps: zech has period n1
        return self._exp[lx + z] if z >= 0 else 0

    def sub(self, x, y):
        if self.char == 2:
            return x ^ y
        zech = self._zech
        if zech is None:
            return self._digitwise(self.base.sub, x, y)
        if not y:
            return x
        log = self._log
        ly = log[y] + self._half
        if not x:
            return self._exp[ly]
        lx = log[x]
        d = ly - lx
        if d >= len(zech):
            d -= len(zech)
        z = zech[d]
        return self._exp[lx + z] if z >= 0 else 0

    def neg(self, x):
        if self.char == 2:
            return x
        if self._zech is None:
            return self._digitwise(self.base.sub, 0, x)
        return self._exp[self._log[x] + self._half] if x else 0

    def _mul_raw(self, x, y):
        if self._mod_int is not None:
            mod = self._mod_int
            top = 1 << self.deg
            acc = 0
            while y:
                if y & 1:
                    acc ^= x
                y >>= 1
                x <<= 1
                if x & top:
                    x ^= mod
            return acc
        b = self.base
        d = self.deg
        xs = _digits(x, self.base_size, d)
        ys = _digits(y, self.base_size, d)
        prod = [0] * (2 * d - 1)
        for i, xi in enumerate(xs):
            if xi:
                for j, yj in enumerate(ys):
                    if yj:
                        prod[i + j] = b.add(prod[i + j], b.mul(xi, yj))
        mod = self.modulus
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for t in range(d):
                    mt = mod[t]
                    if mt:
                        prod[k - d + t] = b.sub(prod[k - d + t], b.mul(c, mt))
        return _undigits(prod[:d], self.base_size)

    def _inv_binary(self, x):
        """x^-1 for a nonzero x over F_2, by the extended Euclidean
        algorithm on bit-packed polynomials (Hankerson, Menezes and
        Vanstone, Guide to Elliptic Curve Cryptography, Alg. 2.48):
        g1*x = u and g2*x = v modulo the modulus throughout."""
        u, v = x, self._mod_int
        g1, g2 = 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v = v, u
                g1, g2 = g2, g1
                j = -j
            u ^= v << j
            g1 ^= g2 << j
        return g1

    def _pow_raw(self, x, e):
        """x^e by square-and-multiply from the top bit of e down:
        e.bit_length() - 1 squarings and one product per further set bit."""
        if not e:
            return 1
        acc = x
        for bit in bin(e)[3:]:
            acc = self._mul_raw(acc, acc)
            if bit == "1":
                acc = self._mul_raw(acc, x)
        return acc

    def _has_full_order(self, x, factors):
        """True iff x^((size-1)/f) != 1 for every prime f in `factors`,
        the prime factors of size - 1: x generates the multiplicative
        group.  Products are `_mul_raw`, so no tables are needed."""
        n1 = self.size - 1
        return all(self._pow_raw(x, n1 // f) != 1 for f in factors)

    def _find_generator(self):
        factors = _prime_factors(self.size - 1)
        for c in range(1, self.size):
            if self._has_full_order(c, factors):
                return c
        raise AssertionError("no multiplicative generator found")

    def _ensure_tables(self):
        if self._exp is not None:
            return True
        if self.size > config.TABLE_CAP:
            return False
        g = self._find_generator()
        p = self.char
        size = self.size
        n1 = size - 1
        # x -> x*g is F_p-linear on the base-p digits of x's code (an F_q
        # digit is a group of base-p digits), so x*g is the sum of the
        # images of x's low k digits and of its high n - k digits.  The
        # walk keeps x lane-packed as one field of `_lane_layout`, and
        # takes `_lane_add` inline.
        n = _digit_count(p, size)
        w, _, _, _, tops, bias = _lane_layout(p, [n])
        k = n // 2
        split = p**k
        shift = w * k
        mask = (1 << shift) - 1
        lo_img = [0] * (mask + 1)
        lo_code = [0] * (mask + 1)
        for x in range(split):
            lane = _lanes(x, p, w)
            lo_img[lane] = _lanes(self._mul_raw(x, g), p, w)
            lo_code[lane] = x
        hi_img = [0] * (1 << (w * (n - k)))
        hi_code = [0] * len(hi_img)
        for x in range(0, size, split):
            lane = _lanes(x // split, p, w)
            hi_img[lane] = _lanes(self._mul_raw(x, g), p, w)
            hi_code[lane] = x
        exp = [0] * n1
        log = [0] * size
        v = c = 1  # lanes and code of g^i; one and the same in characteristic 2
        if p == 2:
            for i in range(n1):
                exp[i] = c
                log[c] = i
                c = lo_img[c & mask] ^ hi_img[c >> shift]
        else:
            for i in range(n1):
                exp[i] = c
                log[c] = i
                v = lo_img[v & mask] + hi_img[v >> shift]
                v -= (((v + bias) & tops) >> (w - 1)) * p
                c = lo_code[v & mask] + hi_code[v >> shift]
        # g^n1 = 1 for every nonzero g; g generates iff the walk did not
        # come back to 1 earlier, i.e. iff log[1] kept the 0 of step 0
        if c != 1 or log[1] != 0:
            raise AssertionError("generator order mismatch")
        # free before exp doubles and the Zech table is built: a lower peak
        del lo_img, lo_code, hi_img, hi_code
        exp *= 2
        zech = None
        if p != 2:
            # 1 + x only changes the constant F_p digit of x, which is the
            # code of x mod p at every level of the tower
            p1 = p - 1
            zech = [log[x - p1 if x % p == p1 else x + 1]
                    for x in islice(exp, n1)]
            zech[n1 // 2] = -1  # 1 + alpha^(n1/2) = 1 - 1 = 0
        # publish in the order the class docstring explains
        self._log = log
        self._half = n1 // 2
        self._exp = exp
        self._zech = zech
        return True

    def mul(self, x, y):
        exp = self._exp
        if exp is None:
            if not self._ensure_tables():
                return self._mul_raw(x, y)
            exp = self._exp
        if x == 0 or y == 0:
            return 0
        return exp[self._log[x] + self._log[y]]

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is None and not self._ensure_tables():
            if self._mod_int is not None:
                return self._inv_binary(x)
            return self._pow_raw(x, self.size - 2)
        return self._exp[self.size - 1 - self._log[x]]

    def pow(self, x, e):
        if e < 0:
            raise ParameterError("negative exponent")
        if x == 0:
            return 0 if e else 1
        if self._exp is None and not self._ensure_tables():
            return self._pow_raw(x, e)
        return self._exp[(self._log[x] * e) % (self.size - 1)]

    def tables(self):
        """(exp, log) lists for hot loops, or None above config.TABLE_CAP."""
        if self._ensure_tables():
            return self._exp, self._log
        return None

    def elements(self) -> range:
        """All elements in ascending code order."""
        return range(self.size)

    def is_generator(self, x) -> bool:
        """True iff x generates the multiplicative group."""
        return x != 0 and self._has_full_order(x, _prime_factors(self.size - 1))

    def __repr__(self):
        return f"Field(size={self.size}, modulus={self.modulus})"


# -- irreducibility search ---------------------------------------------


def _rem_gf2(num: int, den: int, den_deg: int) -> int:
    """num mod den for F_2 polynomials packed into ints, deg den = den_deg."""
    while num.bit_length() - 1 >= den_deg:
        num ^= den << (num.bit_length() - 1 - den_deg)
    return num


def _gcd_is_one_gf2(a: int, b: int) -> bool:
    """True iff gcd(a, b) = 1 for F_2 polynomials packed into ints (bit
    i is the coefficient of x^i), by Euclid's algorithm."""
    while b:
        a, b = b, _rem_gf2(a, b, b.bit_length() - 1)
    return a == 1


def _gcd_is_one(ops, a: list, b: list) -> bool:
    """True iff gcd(a, b) is a nonzero constant, for coefficient lists
    over `ops` (lowest first, trailing zeros allowed), by Euclid's
    algorithm."""
    sub, mul = ops.sub, ops.mul
    while b and not b[-1]:
        b = b[:-1]
    while b:
        db = len(b) - 1
        inv = ops.inv(b[-1])
        a = list(a)
        for k in range(len(a) - 1, db - 1, -1):
            c = a[k]
            if c:
                c = mul(c, inv)
                base = k - db
                for t in range(db):
                    if b[t]:
                        a[base + t] = sub(a[base + t], mul(c, b[t]))
        a = a[:db]
        while a and not a[-1]:
            a = a[:-1]
        a, b = b, a
    return len(a) == 1


def _times_x(ops, g: list, f) -> list:
    """x*g mod the monic f, for g of degree below deg f."""
    top = g[-1]
    g = [0] + g[:-1]
    if top:
        sub, mul = ops.sub, ops.mul
        g = [sub(c, mul(top, fc)) if fc else c for c, fc in zip(g, f)]
    return g


def _irreducible_gf2(f: int, deg: int) -> bool:
    """`_is_irreducible` over F_2, on f packed into an int: the
    Frobenius map is squaring, and h^2 the XOR of the x^(2j) mod f over
    the set bits j of h."""
    h = _rem_gf2(4, f, deg)  # x^2
    if not _gcd_is_one_gf2(f, h ^ 2):
        return False
    steps = deg // 2
    if steps == 1:
        return True
    squares = [1, h]  # x^(2j) mod f
    for _ in range(2, deg):
        squares.append(_rem_gf2(squares[-1] << 2, f, deg))
    for _ in range(1, steps):
        g = 0
        for j, sq in enumerate(squares):
            if h >> j & 1:
                g ^= sq
        h = g
        if not _gcd_is_one_gf2(f, h ^ 2):
            return False
    return True


def _is_irreducible(ops, poly) -> bool:
    """Ben-Or's test: a monic poly of degree d over F_q is irreducible
    iff gcd(poly, x^(q^i) - x) = 1 for i = 1 .. d/2 (Ben-Or,
    "Probabilistic algorithms in finite fields", FOCS 1981;
    Lidl-Niederreiter, Finite Fields, Thm 3.20: x^(q^i) - x is the
    product of the monic irreducibles of degree dividing i).

    h = x^(q^i) mod poly is carried from i to i + 1 by the Frobenius
    map h -> h^q, which is F_q-linear: h^q is the sum of h_j x^(qj)
    over the coefficients h_j of h.  So a table of x^(qj) mod poly,
    j < d, makes each step a matrix-vector product; it is built only
    when a step past the first is needed.  Over F_2 the polynomials
    are ints (`_irreducible_gf2`).
    """
    deg = len(poly) - 1
    steps = deg // 2
    if not steps:
        return True
    if ops.size == 2:
        return _irreducible_gf2(_undigits(poly, 2), deg)
    q = ops.size
    x = [0, 1] + [0] * (deg - 2)
    power = [1] + [0] * (deg - 1)
    for _ in range(q):
        power = _times_x(ops, power, poly)
    h = power  # x^q mod poly
    if not _gcd_is_one(ops, poly, [ops.sub(c, e) for c, e in zip(h, x)]):
        return False
    if steps == 1:
        return True
    table = [[1] + [0] * (deg - 1), h]  # x^(qj) mod poly
    for _ in range(2, deg):
        for _ in range(q):
            power = _times_x(ops, power, poly)
        table.append(power)
    add, mul = ops.add, ops.mul
    for _ in range(1, steps):
        g = [0] * deg
        for c, row in zip(h, table):
            if c:
                g = [add(gk, mul(c, rk)) if rk else gk for gk, rk in zip(g, row)]
        h = g
        if not _gcd_is_one(ops, poly, [ops.sub(c, e) for c, e in zip(h, x)]):
            return False
    return True


def _min_irreducible(ops, degree: int) -> tuple[int, ...]:
    """Monic irreducible of given degree with the smallest encoding."""
    for low in range(ops.size**degree):
        poly = _digits(low, ops.size, degree) + [1]
        if _is_irreducible(ops, poly):
            return tuple(poly)
    raise AssertionError("no irreducible polynomial found")


def _exceeds_cap(base: int, e: int) -> bool:
    """base^e > config.SIZE_CAP for base >= 2 and e >= 1, decided without
    a power past the cap: 2^e alone passes it once e reaches its bit length."""
    return e >= config.SIZE_CAP.bit_length() or base**e > config.SIZE_CAP


def base_size(p: int, a: int) -> int:
    """q = p^a, once p is checked to be prime and a to be at least 1.

    A p or a q above config.SIZE_CAP is refused first, so a huge p is
    never tested for primality and a huge power never computed."""
    if p > config.SIZE_CAP:
        raise ParameterError(f"p={p} exceeds cap {config.SIZE_CAP}")
    if not _is_prime(p):
        raise ParameterError(f"p={p} is not prime")
    if a < 1:
        raise ParameterError("extension degrees must be >= 1")
    if _exceeds_cap(p, a):
        raise ParameterError(f"field size q = p^a = {p}^{a} exceeds cap {config.SIZE_CAP}")
    return p**a


class FieldTower:
    """The nested fields F_p <= F_q <= F_{q^m} with fixed polynomials.

    Use :func:`make_tower` rather than constructing directly; it caches
    and guarantees the deterministic minimal-polynomial choice.  Each
    level is built once, and a field is one object however many levels
    it is.
    """

    __slots__ = ("p", "a", "m", "q", "base_poly", "ext_poly", "_levels")

    def __init__(self, p: int, a: int, m: int):
        q = base_size(p, a)
        if m < 1:
            raise ParameterError("extension degrees must be >= 1")
        if _exceeds_cap(q, m):
            raise ParameterError(
                f"tower size p^(a*m) = {p}^{a * m} exceeds cap {config.SIZE_CAP}"
            )
        self.p = p
        self.a = a
        self.m = m
        self.q = q
        digits = _PrimeOps(p)
        prime = Field(digits, (0, 1))
        if a == 1:
            self.base_poly = None
            mid = prime
        else:
            self.base_poly = _min_irreducible(digits, a)
            mid = digits = Field(digits, self.base_poly)
        if m == 1:
            self.ext_poly = None
            top = mid
        else:
            self.ext_poly = _min_irreducible(digits, m)
            top = Field(digits, self.ext_poly)
        self._levels = {"prime": prime, "mid": mid, "top": top}

    # -- level views ---------------------------------------------------
    def field(self, level: str) -> Field:
        f = self._levels.get(level)
        if f is None:
            raise ParameterError(f"unknown level {level!r}")
        return f

    def level_size(self, level: str) -> int:
        return self.field(level).size

    # -- top-level structure over F_q -----------------------------------
    def frobenius(self, x: int, i: int = 1) -> int:
        """x^(q^i) in the top field; i = 0 is the identity.

        The automorphism x -> x^q of F_{q^m} over F_q has order m
        (Lidl-Niederreiter, Finite Fields, ch. 2), so this is one
        `_pow_raw` to q^(i mod m): generic products only, no tables of
        the top field.
        """
        if i < 0:
            raise ParameterError("frobenius power must be >= 0")
        return self.field("top")._pow_raw(x, self.q ** (i % self.m))

    def fq_basis(self) -> list[int]:
        """The polynomial basis 1, y, ..., y^(m-1) as top-level codes."""
        return [self.q**j for j in range(self.m)]

    def top_to_vec(self, code: int) -> list[int]:
        """Coordinates of a top element over F_q, constant term first."""
        return _digits(code, self.q, self.m)

    def vec_to_top(self, coords) -> int:
        return _undigits(list(coords), self.q)

    # -- identity ------------------------------------------------------
    def _key(self):
        return (self.p, self.a, self.m, self.base_poly, self.ext_poly)

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"FieldTower(p={self.p}, a={self.a}, m={self.m})"


_TOWERS: dict = {}


def make_tower(p: int, a: int = 1, m: int = 1) -> FieldTower:
    """Build (or fetch) the tower for (p, a, m); fully deterministic.

    One tower per (p, a, m), however the arguments are spelled; when two
    threads build the same one, both get the tower stored first.
    ``make_tower.cache_clear()`` forgets every tower.
    """
    key = (p, a, m)
    t = _TOWERS.get(key)
    if t is None:
        t = _TOWERS.setdefault(key, FieldTower(p, a, m))
    return t


make_tower.cache_clear = _TOWERS.clear


# -- text form ---------------------------------------------------------


def tower_line(t: FieldTower) -> str:
    """One-line text form, e.g. ``p=2 a=1 m=2 ext_poly=1,1,1``."""
    parts = [f"p={t.p}", f"a={t.a}", f"m={t.m}"]
    if t.base_poly is not None:
        parts.append("base_poly=" + ",".join(map(str, t.base_poly)))
    if t.ext_poly is not None:
        parts.append("ext_poly=" + ",".join(map(str, t.ext_poly)))
    return " ".join(parts)


def parse_tower_line(line: str) -> FieldTower:
    fields = {}
    for token in line.split():
        if "=" not in token:
            raise FormatError(f"bad tower token {token!r}")
        key, val = token.split("=", 1)
        fields[key] = val
    try:
        p = int(fields["p"])
        a = int(fields["a"])
        m = int(fields["m"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad tower line {line!r}") from exc
    try:
        t = make_tower(p, a, m)
    except ParameterError as exc:
        raise FormatError(str(exc)) from exc
    for name, poly in (("base_poly", t.base_poly), ("ext_poly", t.ext_poly)):
        if name in fields:
            try:
                declared = tuple(int(c) for c in fields[name].split(","))
            except ValueError as exc:
                raise FormatError(f"bad {name} in tower line {line!r}") from exc
            if poly is None or declared != poly:
                raise FormatError(f"{name} in file does not match the deterministic choice")
        elif poly is not None:
            raise FormatError(f"missing {name} for degree > 1")
    return t
