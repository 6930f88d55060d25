"""Subspace direct sum systems: n subspaces of F_q^m, each of dimension
r, any h of which intersect only trivially so their sum has dimension
h*r.  Provides one certification walk (_walk: exhaustive in
verify_direct_sum, strided under the budget in _certify), three
deterministic constructions (greedy counting, MDS-based,
subfield-based), the equivalence with block codes, and the lower/upper
bounds on the least ambient dimension.
"""

# operator.mul is this function; importing operator would add to the
# start-up time of every mrlrc command
from _operator import mul
from itertools import combinations

from . import config
from .codes import BlockCode, LinearCode, block_min_distance, subfield_subcode
from .errors import BudgetError, ParameterError
from .gf import FieldTower, _counting_steps, _digits, _lane_add, _lane_layout, make_tower
from .linalg import (
    FieldMatrix,
    comb,
    first_dependent_subset,
    kernel,
    rref,
)
from .record import FrozenRecord


def check_parameters(n: int, r: int, h: int) -> None:
    """Refuse (n, r, h) for which no system of n subspaces of dimension
    r with every h of them summing directly can exist."""
    if n < 1 or r < 1 or h < 1:
        raise ParameterError("need n, r, h >= 1")
    if h > n:
        raise ParameterError("h cannot exceed the number of subspaces")


class SubspaceSystem:
    """n groups of r basis vectors in F_q^m (coordinates over F_q).

    `certified` records that every h-subset of subspaces has been checked
    to sum directly; `certified_sample` is None for an exhaustive check
    and the number of subsets tried otherwise.  MR constructors reject
    uncertified systems.
    """

    def __init__(self, tower: FieldTower, n: int, r: int, h: int, basis,
                 certified: bool = False, certified_sample: int | None = None):
        check_parameters(n, r, h)
        basis = [[tuple(v) for v in group] for group in basis]
        if len(basis) != n or any(len(g) != r for g in basis):
            raise ParameterError("basis must hold n groups of r vectors")
        m = tower.m
        q = tower.q
        for group in basis:
            for v in group:
                if len(v) != m or any(not 0 <= c < q for c in v):
                    raise ParameterError("basis vector does not live in F_q^m")
        self.tower = tower
        self.n = n
        self.r = r
        self.h = h
        self.basis = basis
        self.certified = certified
        self.certified_sample = certified_sample

    @property
    def m(self) -> int:
        return self.tower.m

    def parity_matrix(self) -> FieldMatrix:
        """m x (n*r) matrix whose column groups are the subspace bases."""
        cols = [v for group in self.basis for v in group]
        rows = [[cols[j][i] for j in range(len(cols))] for i in range(self.m)]
        return FieldMatrix.from_rows(self.tower, "mid", rows)

    def __repr__(self):
        flag = "certified" if self.certified else "uncertified"
        return f"SubspaceSystem(q={self.tower.q}, n={self.n}, m={self.m}, r={self.r}, h={self.h}, {flag})"


def _walk(S: SubspaceSystem, step: int = 1) -> tuple[bool, int]:
    """The one certification walk: every group must have rank r and each
    step-th h-subset of groups rank h*r.  Returns (verdict, h-subsets
    checked); for h = 1 the group ranks are those checks, so a passing
    system counts its step-th groups without ranking them again."""
    F = S.tower.field("mid")
    if first_dependent_subset(F, S.basis, 1)[0] is not None:
        return False, 0
    if S.h == 1:
        return True, len(range(0, S.n, step))
    bad, checked = first_dependent_subset(F, S.basis, S.h, step)
    return bad is None, checked


def verify_direct_sum(S: SubspaceSystem, budget: int | None = None,
                      stats: dict | None = None) -> bool:
    """True iff every group has rank r and every h-subset of groups
    stacks to rank h*r.  Exhausts all C(n, h) subsets, stopping at the
    first dependent one; when `stats` is given, its "subsets_checked"
    entry is set to the number of h-subsets rank-checked."""
    total = comb(S.n, S.h)
    if total > config.subset_budget(budget):
        raise BudgetError(f"{total} subsets exceed the enumeration budget")
    ok, checked = _walk(S)
    if stats is not None:
        stats["subsets_checked"] = checked
    return ok


def _certify(S: SubspaceSystem, budget: int | None = None) -> SubspaceSystem:
    """Certify a constructed system by the one walk, or raise
    AssertionError: through verify_direct_sum when all C(n, h) subsets
    fit the budget, else on every ceil(C(n, h) / cap)-th one (at most
    cap, counted in certified_sample).  Group ranks are always checked."""
    total = comb(S.n, S.h)
    cap = config.subset_budget(budget)
    if total <= cap:
        ok, sample = verify_direct_sum(S, budget), None
    else:
        ok, sample = _walk(S, -(-total // cap))
    if not ok:
        raise AssertionError("construction produced a non-direct system")
    S.certified = True
    S.certified_sample = sample
    return S


# -- bounds ------------------------------------------------------------


def _ceil_log(q: int, s: int) -> int:
    e = 0
    v = 1
    while v < s:
        e += 1
        v *= q
    return e


def gv_dimension(q: int, n: int, r: int, h: int) -> int:
    """Smallest ambient dimension the greedy counting argument certifies:
    r + floor(log_q s), s = sum_{i<h} C(n-1,i) (q^r-1)^i >= 1, taken in
    exact integers as ceil(log_q (s+1)) - 1."""
    check_parameters(n, r, h)
    if q < 2:
        raise ParameterError(f"field size q={q} is below 2")
    total = sum(comb(n - 1, i) * (q**r - 1) ** i for i in range(h))
    return r + _ceil_log(q, total + 1) - 1


class BoundsReport(FrozenRecord):
    __slots__ = ("gv_m", "hamming_lower", "singleton_lower")

    def __init__(self, gv_m: int, hamming_lower: int, singleton_lower: int):
        self._set(gv_m, hamming_lower, singleton_lower)


def bounds(q: int, n: int, r: int, h: int) -> BoundsReport:
    """Greedy upper bound and the packing/Singleton lower bounds on the
    least ambient dimension admitting a system with these parameters."""
    gv_m = gv_dimension(q, n, r, h)
    if h >= 2:
        total = sum(comb(n, i) * (q**r - 1) ** i for i in range(h // 2 + 1))
        hamming = _ceil_log(q, total)
    else:
        hamming = h * r
    return BoundsReport(gv_m=gv_m, hamming_lower=hamming, singleton_lower=h * r)


# -- constructions -----------------------------------------------------


def _fp_rows(t: FieldTower, vec) -> list:
    """F_p-expansions of b*vec for b in the basis 1, x, ..., x^(a-1) of
    F_q over F_p: the base-p digits of each product's top-level code.
    Their F_p-span is the F_q-span of vec; for a = 1 it is vec itself.
    For p = 2 a row is packed into an int, bit i its coordinate i: the
    code itself."""
    F = t.field("mid")
    p, n = t.p, t.a * t.m
    codes = [t.vec_to_top([F.mul(p**j, c) for c in vec]) for j in range(t.a)]
    return codes if p == 2 else [_digits(c, p, n) for c in codes]


def _identity(p: int, n: int) -> list:
    """Check basis of the zero span of F_p^n: every coordinate, packed
    into ints for p = 2 as `_fp_rows` packs rows."""
    if p == 2:
        return [1 << i for i in range(n)]
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _add_row(checks: list, row, p: int) -> list:
    """F_p parity-check basis of span + row from one of the span: x lies
    in the span iff y.x = 0 for every check y.

    When every check's syndrome on the row is 0 the row lies in the span
    and the basis is returned unchanged.  Otherwise the first check with
    a nonzero syndrome is eliminated from the others mod p and dropped,
    which leaves one check fewer, each with syndrome 0 on the row.  For
    p = 2 checks and row are packed ints (`_identity`): a syndrome is the
    parity of y & row, and the elimination y ^= pivot.
    """
    if p == 2:
        syndromes = [(y & row).bit_count() & 1 for y in checks]
    else:
        syndromes = [sum(map(mul, y, row)) % p for y in checks]
    for k, s in enumerate(syndromes):
        if s:
            break
    else:
        return checks
    pivot = checks[k]
    out = checks[:k]
    if p == 2:
        out += [y ^ pivot if t else y for y, t in zip(checks[k + 1:], syndromes[k + 1:])]
        return out
    inv = pow(s, -1, p)
    for y, t in zip(checks[k + 1:], syndromes[k + 1:]):
        if t:
            c = t * inv % p  # y - c*pivot has syndrome t - c*s = 0
            y = [(e - c * f) % p for e, f in zip(y, pivot)]
        out.append(y)
    return out


def _add_rows(checks: list, rows: list, p: int) -> list:
    """Check basis of span + every row, one `_add_row` per row."""
    for row in rows:
        checks = _add_row(checks, row, p)
    return checks


# The F_2 sieve splits a code as (block << b) | L with b = min(n, _SIEVE_BITS)
# and reads the L of one block as the bits of an int of 2^b bits.
_SIEVE_BITS = 10
_ODD: dict[int, list[int]] = {}  # b: _odd_masks(b), built on first use


def _odd_masks(b: int) -> list[int]:
    """odd[v] for every v < 2^b: the 2^b-bit int with bit L set exactly
    when v & L has odd parity.  It is the XOR of the masks of the bits
    of v, mask i holding the L with bit i set.  Threads that race here
    build equal tables, and all get the one stored first."""
    odd = _ODD.get(b)
    if odd is None:
        size = 1 << b
        every = (1 << size) - 1
        # mask i repeats 2^i zeros then 2^i ones
        bits = [every // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
                for i in range(b)]
        odd = [0] * size
        for v in range(1, size):
            lowest = v & -v
            odd[v] = odd[v ^ lowest] ^ bits[lowest.bit_length() - 1]
        odd = _ODD.setdefault(b, odd)
    return odd


def _first_outside(p: int, n: int, check_sets: list[list], start: int) -> int | None:
    """Smallest code in [start, p^n) whose base-p digits (lowest first)
    fail some check of every set, or None.

    For p = 2 the checks are packed ints (`_identity`) and the codes are
    sieved a block at a time: code c = (blk << b) | L, b = min(n,
    _SIEVE_BITS), has syndrome parity((y >> b) & blk) ^ parity(y & low &
    L) on check y, so the L of block blk inside one span are the AND over
    its checks of odd[y & low] (`_odd_masks`) or its complement, as the
    high part's parity is 1 or 0; a span that misses the block stops at
    the check that empties its mask.  The spans' masks are ORed until
    they cover the block, and the answer is the lowest bit they leave,
    at or above start.  This is the code the odd-p scan below would
    reach.

    For odd p each set is one field of `gf._lane_layout`, one lane per
    check, so the word holds all syndromes of the current code, and a
    set's guard bit survives the zero test exactly when the code lies
    outside its span.  The codes are counted through with
    `gf._counting_steps`: one lane-wise mod-p addition per code.
    """
    if p == 2:
        b = min(n, _SIEVE_BITS)
        low = (1 << b) - 1
        full = (1 << (1 << b)) - 1
        odd = _odd_masks(b)
        sieves = [[(y >> b, odd[y & low]) for y in checks] for checks in check_sets]
        skip = start & low
        for blk in range(start >> b, 1 << (n - b)):
            covered = 0
            for checks in sieves:
                inside = full
                for high, mask in checks:
                    if (high & blk).bit_count() & 1:
                        inside &= mask
                    else:
                        inside &= ~mask
                    if not inside:  # the span misses this block
                        break
                else:
                    covered |= inside
                    if covered == full:
                        break
            free = (full ^ covered) >> skip << skip
            if free:
                return (blk << b) | ((free & -free).bit_length() - 1)
            skip = 0
        return None
    w, offsets, ones, guards, tops, bias = _lane_layout(p, map(len, check_sets))
    cols = [0] * n
    for checks, shift in zip(check_sets, offsets):
        for j, y in enumerate(checks):
            lane = 1 << (shift + j * w)
            for i, d in enumerate(y):
                if d:
                    cols[i] |= d * lane
    steps = _counting_steps(cols, p, w, tops, bias)
    word = 0
    for col, d in zip(cols, _digits(start, p, n)):
        for _ in range(d):
            word = _lane_add(word, col, p, w, tops, bias)
    # the scan takes `_lane_add` inline: it is most of its time
    last = p - 1
    for c in range(start, p**n):
        if ((word | guards) - ones) & guards == guards:
            return c
        k, x = 0, c
        while x % p == last:
            x //= p
            k += 1
        word += steps[k]
        word -= (((word + bias) & tops) >> (w - 1)) * p
    return None


def gv_greedy(t: FieldTower, n: int, r: int, h: int,
              budget: int | None = None) -> SubspaceSystem:
    """Greedy construction backed by the counting argument.

    Seeds the first h groups with unit vectors, then fills every later
    slot with the first vector (ascending code order) outside the span
    of every (h-1)-subset of earlier groups joined with the partial
    group being built.  Refuses ambient dimensions below gv_dimension,
    where the guarantee of finding such a vector is void.

    Each slot scans the codes against an F_p parity-check basis of every
    span it must avoid (`_first_outside`: over F_2 a sieve of 2^b codes
    at a time on masks of odd syndromes, for odd p one packed word of
    all the syndromes per code).  A code's F_p coordinates are the
    base-p digits of the code itself.  The bases are updated, never
    recomputed: the base span of each (h-1)-subset of groups is folded
    once, row by row (`_add_row`), from its prefix subset's, and within
    a group each chosen vector's rows are folded into every current
    basis.  The scan resumes after the previous slot's vector: the spans
    only grow from slot to slot, so every code up to that vector is
    still inside one.
    """
    q, m = t.q, t.m
    need = gv_dimension(q, n, r, h)
    if m < need:
        raise ParameterError(
            f"ambient dimension {m} is below the greedy guarantee {need}"
        )
    p, width = t.p, t.a * m
    basis = []
    for i in range(h):
        group = []
        for j in range(r):
            v = [0] * m
            v[i * r + j] = 1
            group.append(tuple(v))
        basis.append(group)
    # F_p-expansion of every group
    expanded = [[row for v in group for row in _fp_rows(t, v)] for group in basis]
    # check basis of the span of each subset of groups, keyed by the subset
    bases = {(): _identity(p, width)}

    def base(subset):
        if subset not in bases:
            bases[subset] = _add_rows(base(subset[:-1]), expanded[subset[-1]], p)
        return bases[subset]

    for i in range(h, n):
        check_sets = [base(subset) for subset in combinations(range(i), h - 1)]
        group, partial = [], []
        code = -1
        for j in range(r):
            if j:
                check_sets = [_add_rows(checks, rows, p) for checks in check_sets]
            code = _first_outside(p, width, check_sets, code + 1)
            if code is None:
                raise AssertionError("greedy scan exhausted; counting bound violated")
            v = tuple(t.top_to_vec(code))
            group.append(v)
            rows = _fp_rows(t, v)
            partial += rows
        basis.append(group)
        expanded.append(partial)
    return _certify(SubspaceSystem(t, n, r, h, basis), budget)


def mds_construct(t: FieldTower, n: int, r: int, h: int,
                  budget: int | None = None) -> SubspaceSystem:
    """System with the optimal ambient dimension m = h*r, from the
    parity check of a q^r-ary [n, n-h, h+1] MDS code: group i is the
    F_q-expansion of the scalar multiples of the i-th parity column.
    The code needs more columns than its h parity rows, so for n = h it
    has h + 1 and the system keeps the first n groups."""
    from .codes import pi_rows, rs_parity_check

    q = t.q
    if not 1 <= h <= n:
        raise ParameterError("need 1 <= h <= n")
    width = max(n, h + 1)
    if width > q**r + 1:
        raise ParameterError(f"n={width} exceeds q^r+1={q ** r + 1}")
    if t.m != h * r:
        raise ParameterError(f"ambient tower must have extension degree h*r={h * r}")
    helper = make_tower(t.p, t.a, r)
    H = rs_parity_check(helper, "top", width, h)
    basis = [[tuple(v) for v in pi_rows(helper, H.column(i))] for i in range(n)]
    return _certify(SubspaceSystem(t, n, r, h, basis), budget)


def _subfield_inside(t: FieldTower, u: int):
    """F_q-basis of the subfield F_{q^u} inside the top field of t,
    as the fixed space of the u-th Frobenius power."""
    m = t.m
    F = t.field("mid")
    ybasis = t.fq_basis()
    rows = []
    for j in range(m):
        img = t.field("top").sub(t.frobenius(ybasis[j], u), ybasis[j])
        rows.append(t.top_to_vec(img))
    # kernel of z -> z^(q^u) - z, written on the polynomial basis
    M = FieldMatrix.from_rows(t, "mid", [[rows[j][i] for j in range(m)] for i in range(m)])
    K = kernel(M)
    if K.rows != u:
        raise AssertionError("fixed field has unexpected dimension")
    return [t.vec_to_top(K.row(i)) for i in range(K.rows)]


def _ell_basis(t: FieldTower, ell_basis_fq: list[int], r: int) -> list[int]:
    """Greedy F_{q^u}-basis of the top field, in ascending code order:
    each element is the first code outside the F_{q^u}-span of those
    chosen before it (the F_q-span of g * code over the F_q-basis g of
    F_{q^u}), found by gv_greedy's scan (_first_outside, the block sieve
    over F_2) against a check basis that each chosen element's rows are
    folded into (_add_row)."""
    F = t.field("top")
    p, width = t.p, t.a * t.m
    chosen: list[int] = []
    checks = _identity(p, width)
    code = 0
    for _ in range(r):
        code = _first_outside(p, width, [checks], code + 1)
        if code is None:
            raise AssertionError("top field too small for the requested basis")
        chosen.append(code)
        for g in ell_basis_fq:
            checks = _add_rows(checks, _fp_rows(t, t.top_to_vec(F.mul(g, code))), p)
    return chosen


def subfield_construct(t: FieldTower, u: int, r: int, h: int,
                       budget: int | None = None, n: int | None = None) -> SubspaceSystem:
    """System on the first n (default all) of the 1 + q^(u*r) groups
    got by cutting the MDS block construction over F_{q^u} down to F_q
    coordinates; only the n groups kept are certified.

    Only the base field of t (p, a) is used; the returned system lives
    in a tower whose extension degree is the parity rank of the whole
    construction, which is at most h*u*r, whatever n is.  _ell_basis
    gives the F_{q^u}-basis for every u; at u = 1 it is the polynomial
    basis 1, q, ..., q^(r-1).  An n above the count is refused before
    anything is built.
    """
    from .codes import rs_parity_check

    if u < 1 or r < 1:
        raise ParameterError("need u, r >= 1")
    q = t.q
    total = 1 + q ** (u * r)
    if not 1 <= h < total:
        raise ParameterError("need 1 <= h < n")
    if n is None:
        n = total
    if n > total:
        raise ParameterError(
            f"subfield construction yields n={total} groups, fewer than requested {n}"
        )
    big = make_tower(t.p, t.a, u * r)
    H = rs_parity_check(big, "top", total, h)
    Ftop = big.field("top")
    bvecs = _ell_basis(big, _subfield_inside(big, u), r)
    # row s is H[s][j]*b over the groups j and the basis vectors b
    rows = [[Ftop.mul(H.at(s, j), b) for j in range(total) for b in bvecs]
            for s in range(h)]
    Hq = subfield_subcode(FieldMatrix.from_rows(big, "top", rows))
    block = BlockCode(LinearCode.from_parity(Hq), r)
    return restrict(_dual_system(block, h, budget), n, budget)


def restrict(S: SubspaceSystem, n_new: int,
             budget: int | None = None) -> SubspaceSystem:
    """The system on the first n_new groups of S, certified on those
    groups alone; S itself need not be certified."""
    if not S.h <= n_new <= S.n:
        raise ParameterError("need h <= n_new <= n")
    sub = SubspaceSystem(S.tower, n_new, S.r, S.h, S.basis[:n_new])
    return _certify(sub, budget)


# -- block-code equivalence --------------------------------------------


def to_block_code(S: SubspaceSystem) -> BlockCode:
    """Block code whose parity check stacks the subspace bases as column
    groups; dimension >= n*r - m and block distance >= h+1."""
    if not S.certified:
        raise ParameterError("refusing to convert an uncertified system")
    return BlockCode(LinearCode.from_parity(S.parity_matrix()), S.r)


def from_block_code(B: BlockCode, h: int, budget: int | None = None) -> SubspaceSystem:
    """System spanned by the column groups of a dual generator matrix
    (`_dual_system`), certified on all of its groups."""
    return _certify(_dual_system(B, h, budget), budget)


def _dual_system(B: BlockCode, h: int, budget: int | None) -> SubspaceSystem:
    """The uncertified system spanned by the column groups of the rref
    of B's parity check, in the tower whose extension degree is its rank.

    The distance precondition d_B >= h+1 is checked exactly by
    `block_min_distance` (dependent parity-column blocks or a codeword
    walk, whichever costs less) when the codebook fits the budget, and
    otherwise left to the certification of the caller.
    """
    if h < 1:
        raise ParameterError("need h >= 1")
    n, r = B.n_blocks, B.block_size
    F = B.code.field()
    k = B.dim
    if F.size**k <= config.codebook_budget(budget) and k > 0:
        if block_min_distance(B, budget) < h + 1:
            raise ParameterError("block distance below h+1")
    H = B.code.parity_matrix()
    R, rk, _ = rref(H)
    m = rk
    if m == 0:
        raise ParameterError("code is the full space; no system exists")
    dual_rows = R.to_rows()[:rk]
    t = B.code.tower
    ambient = make_tower(t.p, t.a, m)
    basis = []
    for i in range(n):
        group = [tuple(dual_rows[w][i * r + j] for w in range(m)) for j in range(r)]
        basis.append(group)
    return SubspaceSystem(ambient, n, r, h, basis)
