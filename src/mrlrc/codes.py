"""Component linear codes: MDS parity checks, binary BCH, subfield
subcodes, and block codes over F_q^{nr} under the block Hamming metric.

The constructors rest on their theorems (a Vandermonde matrix on
distinct nodes is MDS; the BCH bound) and do not re-derive their
distance; the tests do, and a construction certifies what it writes.
One exact computation (`_distance`) serves Hamming and block distances
alike, by the cheaper of two exact routes for the code's sizes: the
least number of dependent parity-column blocks (`_parity_distance`), or
a walk over all codewords (`_min_weight`): the counting walk of the
greedy span scan, on codewords packed into one int by `gf._lane_layout`
with one field per block.
Top-level parity rows become F_q coordinate rows only in
`subfield_subcode`, and the multiples l*x, l in the F_q-basis of the
top field, only in `pi_rows`.  The pi-expansion of a whole code and the
block weight of one vector are test oracles (tests/oracles.py).
"""

from itertools import accumulate

from . import config
from .errors import BudgetError, ParameterError
from .gf import (
    Field,
    FieldTower,
    _counting_steps,
    _digit_count,
    _lane_layout,
    _lanes,
    make_tower,
)
from .linalg import FieldMatrix, comb, first_dependent_subset, kernel, matmul, rank, rref


class LinearCode:
    """A linear code presented by a generator and/or parity-check matrix."""

    def __init__(self, tower: FieldTower, level: str, length: int,
                 generator: FieldMatrix | None = None,
                 parity: FieldMatrix | None = None):
        if generator is None and parity is None:
            raise ParameterError("need a generator or a parity-check matrix")
        for M, name in ((generator, "generator"), (parity, "parity")):
            if M is None:
                continue
            if M.cols != length or M.level != level or M.tower != tower:
                raise ParameterError(f"{name} matrix does not match the code frame")
            if rank(M) != M.rows:
                raise ParameterError(f"{name} rows are dependent")
        self.tower = tower
        self.level = level
        self.length = length
        self._generator = generator
        self._parity = parity
        if generator is not None and parity is not None:
            self._check_duality()

    @classmethod
    def from_parity(cls, parity: FieldMatrix) -> "LinearCode":
        return cls(parity.tower, parity.level, parity.cols, parity=parity)

    @classmethod
    def from_generator(cls, generator: FieldMatrix) -> "LinearCode":
        return cls(generator.tower, generator.level, generator.cols, generator=generator)

    def _check_duality(self):
        if any(matmul(self._generator, self._parity.transpose()).data):
            raise ParameterError("generator and parity matrices disagree")

    def field(self) -> Field:
        return self.tower.field(self.level)

    @property
    def dim(self) -> int:
        if self._generator is not None:
            return self._generator.rows
        return self.length - self._parity.rows

    def generator_matrix(self) -> FieldMatrix:
        if self._generator is None:
            self._generator = kernel(self._parity)
        return self._generator

    def parity_matrix(self) -> FieldMatrix:
        if self._parity is None:
            self._parity = kernel(self._generator)
        return self._parity

    def __repr__(self):
        return f"LinearCode(n={self.length}, k={self.dim}, level={self.level})"


class BlockCode:
    """A linear code over F_q^{n*r} measured in the block Hamming metric."""

    def __init__(self, code: LinearCode, block_size: int):
        if block_size < 1 or code.length % block_size:
            raise ParameterError("length must be a multiple of the block size")
        self.code = code
        self.block_size = block_size
        self.n_blocks = code.length // block_size

    @property
    def dim(self) -> int:
        return self.code.dim

    def __repr__(self):
        return f"BlockCode(n={self.n_blocks}, r={self.block_size}, k={self.dim})"


def _check_codebook(q: int, k: int, budget: int | None):
    cap = config.codebook_budget(budget)
    if q**k > cap:
        raise BudgetError(f"codebook {q}^{k} exceeds the budget {cap}")


# One subset check of `_parity_distance` in steps of `_min_weight`.
# Measured in-process (2-core x86_64 Xeon, Python 3.11; best of 5, the
# checks of every size below the distance against the whole walk):
# 13.6 us per check against 0.35 us per step on the subfield code of
# the u = 1, r = 3, h = 3 construction (blocks of 3 columns of height
# 9), 38 steps; 53.6 us against 0.26 us on the pi-expansion of
# RS[10, 3] over F_16 (blocks of 4 columns of height 28), 204 steps.
# The value keeps the parity route to codes where it wins by a margin.
_CHECK_COST = 100


def _distance(code: LinearCode, block: int, budget: int | None) -> int:
    """Exact minimum block weight of the nonzero codewords, with blocks
    of `block` symbols; n+1 for the zero-dimensional code.

    The codebook budget applies to both routes, which are both exact:
    the parity-column route (`_parity_distance`) when its subset checks,
    up to the block Singleton bound s = n - ceil(k/block) + 1 and each
    weighted as `_CHECK_COST` walk steps, cost less than the q^k - 1
    steps of the codeword walk (`_min_weight`), and the walk otherwise.
    """
    n = code.length // block
    k = code.dim
    if k == 0:
        return n + 1
    F = code.field()
    _check_codebook(F.size, k, budget)
    s = n - -(-k // block) + 1
    steps = F.size**k - 1
    # partial sums of the subset counts, abandoned at the first too large
    checks = accumulate(comb(n, t) for t in range(1, s + 1))
    if all(_CHECK_COST * c < steps for c in checks):
        return _parity_distance(code.parity_matrix(), block, s)
    return _min_weight(F, code.generator_matrix().to_rows(), block)


def _column_blocks(H: FieldMatrix, block: int) -> list[list[list[int]]]:
    """The columns of H in consecutive groups of `block`."""
    return [[H.column(b + j) for j in range(block)]
            for b in range(0, H.cols, block)]


def _parity_distance(H: FieldMatrix, block: int, s: int) -> int:
    """Least t such that some t column blocks of the parity check H are
    dependent: a nonzero codeword supported on a set T of blocks exists
    iff the columns of T are, so this t is the minimum block weight.
    s is the block Singleton bound, which the distance cannot exceed.
    """
    F = H.field()
    blocks = _column_blocks(H, block)
    for t in range(1, s + 1):
        if first_dependent_subset(F, blocks, t)[0] is not None:
            return t
    raise AssertionError("no dependent column blocks within the Singleton bound")


def _min_weight(F: Field, gen_rows: list[list[int]], block: int) -> int:
    """Minimum block weight over the nonzero span of gen_rows.

    Counts through all q^k messages as base-p digit vectors, q = p^a,
    ascending: digit j*a + i is message symbol j's coefficient of the
    F_p-basis element p^i of F_q, and its image is p^i * row j.  The
    running codeword is one int with a field of `gf._lane_layout` per
    block, and takes one `gf._counting_steps` step per message, so every
    nonzero codeword is visited once; its block weight is the number of
    guard bits that survive the zero test.  Zero codewords from
    dependent rows are skipped.
    """
    q, p = F.size, F.char
    n = len(gen_rows[0])
    a = _digit_count(p, q)
    w, offsets, ones, guards, tops, bias = _lane_layout(p, [block * a] * (n // block))
    at = [offsets[t // block] + (t % block) * a * w for t in range(n)]
    images = [sum(_lanes(F.mul(p**i, e), p, w) << s for e, s in zip(row, at))
              for row in gen_rows for i in range(a)]
    steps = _counting_steps(images, p, w, tops, bias)
    best = n // block + 1
    cw = 0
    last = p - 1
    # the steps take `gf._lane_add` inline, as in `sdss._first_outside`
    for c in range(q ** len(gen_rows) - 1):
        if p == 2:
            cw ^= steps[(c ^ (c + 1)).bit_length() - 1]
        else:
            k, x = 0, c
            while x % p == last:
                x //= p
                k += 1
            cw += steps[k]
            cw -= (((cw + bias) & tops) >> (w - 1)) * p
        weight = (((cw | guards) - ones) & guards).bit_count()
        if 0 < weight < best:
            best = weight
            if best == 1:
                break
    return best


def rs_parity_check(t: FieldTower, level: str, r: int, delta: int) -> FieldMatrix:
    """delta x r parity check of an [r, r-delta, delta+1] MDS code.

    Vandermonde rows over the first r field elements in enumeration
    order; for r = field size + 1 the construction is extended by the
    extra column (0, ..., 0, 1)^T.  The nodes are distinct, so every
    delta columns are independent, with or without the extra column:
    the MDS property is the theorem's, not re-checked here.
    """
    F = t.field(level)
    s = F.size
    if not 1 <= delta <= r - 1:
        raise ParameterError("need 1 <= delta <= r-1")
    if r > s + 1:
        raise ParameterError(
            f"length {r} exceeds {s}+1; no MDS code of this shape is guaranteed"
        )
    nodes = list(range(min(r, s)))
    rows = [[F.pow(x, j) for x in nodes] for j in range(delta)]
    if r == s + 1:
        for j in range(delta):
            rows[j].append(1 if j == delta - 1 else 0)
    return FieldMatrix.from_rows(t, level, rows)


def bch_parity_check(t_exp: int, delta: int) -> FieldMatrix:
    """Binary parity check of the narrow-sense BCH code of length 2^t_exp - 1
    with designed distance 2*delta + 1, which the BCH bound guarantees
    and nothing here re-derives.

    It is the subfield subcode (`subfield_subcode`) of the code whose
    parity rows over F_{2^t_exp} are the power rows beta^(i*j) for the
    odd exponents i = 1, 3, ..., 2*delta-1, with beta a primitive
    element (the residue of the defining polynomial's variable when that
    happens to be primitive, else the first primitive element in code
    order).
    """
    n = 2**t_exp - 1
    if delta < 1:
        raise ParameterError("delta must be >= 1")
    if delta * t_exp >= n:
        raise ParameterError("designed distance too large for this length")
    t = make_tower(2, 1, t_exp)
    F = t.field("top")
    beta = 2
    if not F.is_generator(beta):
        beta = next(c for c in F.elements() if F.is_generator(c))
    rows = []
    for i in range(1, 2 * delta, 2):
        root = F.pow(beta, i)
        rows.append([F.pow(root, j) for j in range(n)])
    Hm = subfield_subcode(FieldMatrix.from_rows(t, "top", rows))
    # the same F_2 data, framed in the tower of F_2 itself
    return FieldMatrix(make_tower(2), "prime", Hm.rows, Hm.cols, Hm.data)


def subfield_subcode(H: FieldMatrix) -> FieldMatrix:
    """Parity check over F_q of the F_q-rational codewords of the code
    with parity check H over F_{q^u}.

    Each top-level parity row expands into u rows of coordinates over
    F_q; the stack is row-reduced and zero rows dropped.
    """
    if H.level != "top":
        raise ParameterError("parent parity check must live at the top level")
    t = H.tower
    data = []
    for i in range(H.rows):
        vecs = [t.top_to_vec(e) for e in H.row(i)]
        for coords in zip(*vecs):
            data.extend(coords)
    R, rk, _ = rref(FieldMatrix(t, "mid", H.rows * t.m, H.cols, data))
    return FieldMatrix(t, "mid", rk, H.cols, R.data[: rk * H.cols])


def pi_rows(t: FieldTower, syms) -> list[list[int]]:
    """For each l in t.fq_basis(), the F_q coordinates of l*x for every
    top-level x in syms, concatenated into one row."""
    F = t.field("top")
    return [[c for x in syms for c in t.top_to_vec(F.mul(l, x))]
            for l in t.fq_basis()]


def block_min_distance(B: BlockCode, budget: int | None = None) -> int:
    """Exact minimum block weight over nonzero codewords; n+1 for the
    zero-dimensional code.

    Both routes of `_distance` are exact, and the sizes alone pick one:
    the least t for which some t parity-column blocks are dependent, or
    a counting walk over all q^k codewords.  The codebook budget (BudgetError)
    applies to both."""
    return _distance(B.code, B.block_size, budget)
