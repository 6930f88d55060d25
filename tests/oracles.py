"""Reference functions that only the tests call.

Each is a plain, independent route to a fact the package decides by its
own means: the pi-expansion of a code over F_{q^r} into a block code
over F_q and the block Hamming metric (from `mrlrc.codes`), matrix
times vector, reduction against an echelon basis and the determinant
(from `mrlrc.linalg`), and the Moore determinant by its product formula
(from `mrlrc.mr`).  The package builds and verifies codes without them.
"""

from __future__ import annotations

from itertools import product
from math import comb

from mrlrc import config
from mrlrc.codes import BlockCode, LinearCode, _column_blocks, pi_rows
from mrlrc.errors import BudgetError, ParameterError
from mrlrc.gf import Field, FieldTower
from mrlrc.linalg import FieldMatrix, _echelonize, first_dependent_subset, rank
from mrlrc.mr import moore_matrix


# -- block codes (mrlrc.codes) ----------------------------------------------


def pi_expand(C: LinearCode) -> BlockCode:
    """Expand a code over F_{q^r} into a block code over F_q.

    Every codeword symbol becomes its r coordinates over F_q, so the
    dimension multiplies by r and block distance equals the parent
    Hamming distance.
    """
    if C.level != "top":
        raise ParameterError("parent code must live at the top level")
    t = C.tower
    r = t.m
    G = C.generator_matrix()
    rows = [row for gi in G.to_rows() for row in pi_rows(t, gi)]
    if not rows:
        empty = FieldMatrix(t, "mid", 0, C.length * r, [])
        return BlockCode(LinearCode.from_generator(empty), r)
    Gb = FieldMatrix.from_rows(t, "mid", rows)
    if rank(Gb) != G.rows * r:
        raise AssertionError("block expansion lost dimension")
    return BlockCode(LinearCode.from_generator(Gb), r)


def block_weight(v, r: int) -> int:
    """Number of nonzero length-r blocks of v."""
    v = list(v)
    if r < 1 or len(v) % r:
        raise ParameterError("vector length must be a multiple of r")
    return sum(1 for i in range(0, len(v), r) if any(v[i : i + r]))


def block_distance_at_least(B: BlockCode, t: int, budget: int | None = None) -> bool:
    """Exact test d_B(B) >= t+1 via parity-column ranks.

    Equivalent to the enumeration route: a nonzero codeword supported on
    some t blocks exists iff those t*r parity columns are dependent.
    Exhausts all C(n, t) block subsets.
    """
    if t < 0:
        raise ParameterError("t must be >= 0")
    if t == 0:
        return True
    n, r = B.n_blocks, B.block_size
    total = comb(n, t)
    if total > config.subset_budget(budget):
        raise BudgetError(f"{total} block subsets exceed the budget")
    blocks = _column_blocks(B.code.parity_matrix(), r)
    return first_dependent_subset(B.code.field(), blocks, t)[0] is None


# -- linear algebra (mrlrc.linalg) --------------------------------------------


def det(M: FieldMatrix) -> int:
    """Determinant: the product of the pivots of the unreduced
    elimination, negated when its row swaps make an odd permutation."""
    if M.rows != M.cols:
        raise ParameterError("determinant needs a square matrix")
    F = M.field()
    work = M.to_rows()
    start = [id(row) for row in work]
    if len(_echelonize(F, work, reduced=False)) < M.rows:
        return 0
    # the kernel moves row objects, so their identities give the permutation
    end = {id(row): i for i, row in enumerate(work)}
    perm = [end[x] for x in start]
    odd = False
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], j
            odd = not odd
    d = F.neg(1) if odd else 1
    for i, row in enumerate(work):
        d = F.mul(d, row[i])
    return d


def _reduce_against(F: Field, echelon, vec) -> list[int]:
    """Remainder of vec against (pivot column, row) pairs of an echelon
    basis with unit pivots, in pivot order; all zero iff vec lies in
    their span."""
    sub, mul = F.sub, F.mul
    v = list(vec)
    for pivot_col, row in echelon:
        c = v[pivot_col]
        if c:
            for t in range(pivot_col, len(v)):
                if row[t]:
                    v[t] = sub(v[t], mul(c, row[t]))
    return v


def mat_vec(M: FieldMatrix, v) -> list[int]:
    """Matrix times column vector."""
    v = list(v)
    if len(v) != M.cols:
        raise ParameterError("vector length mismatch")
    F = M.field()
    add, mul = F.add, F.mul
    out = []
    for i in range(M.rows):
        row = M.row(i)
        acc = 0
        for j, e in enumerate(row):
            if e and v[j]:
                acc = add(acc, mul(e, v[j]))
        out.append(acc)
    return out


# -- Moore matrices (mrlrc.mr) --------------------------------------------------


def moore_det(t: FieldTower, alphas) -> int:
    """Determinant of the square Moore matrix on alphas.

    Computed twice: as the product of c_1 a_1 + ... + c_i-1 a_i-1 + a_i
    over all direction vectors with last nonzero entry 1, and by
    det on the assembled matrix; the two must agree.
    """
    alphas = list(alphas)
    h = len(alphas)
    F = t.field("top")
    q = t.q
    prod = 1
    for i in range(h):
        for cs in product(range(q), repeat=i):
            acc = alphas[i]
            for c, a in zip(cs, alphas):
                if c:
                    acc = F.add(acc, F.mul(c, a))
            prod = F.mul(prod, acc)
    if prod != det(moore_matrix(t, alphas, h)):
        raise AssertionError(
            "Moore determinant formula disagrees with elimination"
        )
    return prod
