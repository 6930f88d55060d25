"""Finite-field arithmetic written apart from mrlrc, for checking its output.

Only prime base fields extended once are needed (GF(2^16) and GF(3^8) in
the codec workloads).  Elements use mrlrc's published encoding: the
coefficient vector over F_p in base p, constant term first, reduced by
the monic modulus that the artifact's tower line records.
"""

from __future__ import annotations


class OracleField:
    """GF(p^m) with log/exp tables built by schoolbook polynomial products."""

    def __init__(self, p: int, modulus):
        modulus = list(modulus)
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.p = p
        self.m = len(modulus) - 1
        self.size = p**self.m
        self._modulus = modulus
        # digit d_k of x sits in byte k, so sums of up to 255 // (p-1)
        # products add without carries between digits
        self._packed = None if p == 2 else [self._pack(x) for x in range(self.size)]
        self._mod_int = sum(c << i for i, c in enumerate(modulus))
        self._exp, self._log = self._tables()

    def _digits(self, x: int) -> list[int]:
        out = []
        for _ in range(self.m):
            x, d = divmod(x, self.p)
            out.append(d)
        return out

    def _pack(self, x: int) -> int:
        return sum(d << (8 * k) for k, d in enumerate(self._digits(x)))

    def _polymul(self, x: int, y: int) -> int:
        p, m, mod = self.p, self.m, self._modulus
        if p == 2:
            acc = 0
            while y:
                if y & 1:
                    acc ^= x
                y >>= 1
                x <<= 1
                if x >> m:
                    x ^= self._mod_int
            return acc
        a, b = self._digits(x), self._digits(y)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] = (prod[i + j] + ai * bj) % p
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k]
            if c:
                for t in range(m + 1):
                    prod[k - m + t] = (prod[k - m + t] - c * mod[t]) % p
        code = 0
        for d in reversed(prod[:m]):
            code = code * p + d
        return code

    def _power(self, g: int, e: int) -> int:
        acc = 1
        while e:
            if e & 1:
                acc = self._polymul(acc, g)
            g = self._polymul(g, g)
            e >>= 1
        return acc

    def _tables(self):
        n1 = self.size - 1
        factors = [q for q in range(2, n1 + 1)
                   if n1 % q == 0 and all(q % d for d in range(2, int(q**0.5) + 1))]
        for g in range(2, self.size):
            if any(self._power(g, n1 // q) == 1 for q in factors):
                continue
            exp = [1] * (2 * n1)
            log = [0] * self.size
            v = 1
            for i in range(n1):
                exp[i] = exp[i + n1] = v
                log[v] = i
                v = self._polymul(v, g)
            return exp, log
        raise ValueError("modulus is not irreducible")

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def dot_is_zero(self, row, vec) -> bool:
        """True iff sum_j row[j] * vec[j] == 0."""
        if len(row) > 255 // (self.p - 1):
            raise ValueError("row too long for carry-free packed sums")
        exp, log = self._exp, self._log
        if self.p == 2:
            acc = 0
            for a, b in zip(row, vec):
                if a and b:
                    acc ^= exp[log[a] + log[b]]
            return acc == 0
        packed = self._packed
        acc = 0
        for a, b in zip(row, vec):
            if a and b:
                acc += packed[exp[log[a] + log[b]]]
        while acc:
            acc, digit = divmod(acc, 256)
            if digit % self.p:
                return False
        return True


def parity_rows(P) -> list[list[int]]:
    """Rows of the MR parity check from its stored blocks: A on the
    diagonal of each group, the Moore blocks D_i along the bottom."""
    s = P.spec
    rows = [[0] * s.N for _ in range(s.n * s.delta + s.h)]
    for i in range(s.n):
        for u in range(s.delta):
            for j in range(s.r):
                rows[i * s.delta + u][i * s.r + j] = P.A.at(u, j)
        for u in range(s.h):
            for j in range(s.r):
                rows[s.n * s.delta + u][i * s.r + j] = P.D[i].at(u, j)
    return rows
