"""Text formats for every artifact the library and CLI exchange.

All files are line-oriented ASCII with integer element codes, so a
write/read round trip reproduces bitwise-identical in-memory values.
Formats:

matrix        %MRLRC-MATRIX v1 / tower line / level= rows= cols= / rows
code          %code n= k= r_block= / matrix
sdss          %MRLRC-SDSS v1 / tower line / n= r= h= m= certified= / vectors
mr parity     %MRLRC-MR v1 / tower line / n= r= h= delta= / A matrix / D_i matrices
codeword      one element code per line
"""

from __future__ import annotations

from .codes import BlockCode, LinearCode
from .errors import FormatError
from .gf import parse_tower_line, tower_line
from .linalg import FieldMatrix
from .mr import MrCodeSpec, MrParityCheck
from .sdss import SubspaceSystem

MATRIX_MAGIC = "%MRLRC-MATRIX v1"
SDSS_MAGIC = "%MRLRC-SDSS v1"
MR_MAGIC = "%MRLRC-MR v1"


def _parse_kv(line: str, keys: tuple[str, ...]) -> dict[str, str]:
    fields = {}
    for token in line.split():
        if "=" not in token:
            raise FormatError(f"bad token {token!r}")
        k, v = token.split("=", 1)
        fields[k] = v
    for k in keys:
        if k not in fields:
            raise FormatError(f"missing field {k!r} in {line!r}")
    return fields


def _int(fields: dict[str, str], key: str) -> int:
    try:
        return int(fields[key])
    except ValueError as exc:
        raise FormatError(f"field {key} is not an integer") from exc


def _ints(line: str, what: str) -> list[int]:
    try:
        return [int(token) for token in line.split()]
    except ValueError as exc:
        raise FormatError(f"{what} holds a non-integer entry: {line!r}") from exc


class _Lines:
    """Cursor over the lines of a text artifact."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> str:
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if line.strip():
                return line.strip()
        raise FormatError("unexpected end of file")

    def done(self) -> bool:
        return all(not l.strip() for l in self.lines[self.pos :])


# -- matrices ------------------------------------------------------------


def format_matrix(M: FieldMatrix) -> str:
    out = [MATRIX_MAGIC, tower_line(M.tower),
           f"level={M.level} rows={M.rows} cols={M.cols}"]
    for i in range(M.rows):
        out.append(" ".join(str(c) for c in M.row(i)))
    return "\n".join(out) + "\n"


def _read_matrix(cur: _Lines) -> FieldMatrix:
    if cur.next() != MATRIX_MAGIC:
        raise FormatError("not a matrix block")
    tower = parse_tower_line(cur.next())
    fields = _parse_kv(cur.next(), ("level", "rows", "cols"))
    level = fields["level"]
    rows = _int(fields, "rows")
    cols = _int(fields, "cols")
    data = []
    for _ in range(rows):
        row = _ints(cur.next(), "matrix row")
        if len(row) != cols:
            raise FormatError("matrix row has the wrong width")
        data.extend(row)
    try:
        return FieldMatrix(tower, level, rows, cols, data)
    except Exception as exc:
        raise FormatError(str(exc)) from exc


def parse_matrix(text: str) -> FieldMatrix:
    return _read_matrix(_Lines(text))


# -- codes ----------------------------------------------------------------


def format_code(C: LinearCode, r_block: int = 1) -> str:
    head = f"%code n={C.length} k={C.dim} r_block={r_block}\n"
    return head + format_matrix(C.parity_matrix())


def parse_code(text: str) -> BlockCode:
    cur = _Lines(text)
    head = cur.next()
    if not head.startswith("%code "):
        raise FormatError("not a code file")
    fields = _parse_kv(head[len("%code "):], ("n", "k", "r_block"))
    H = _read_matrix(cur)
    code = LinearCode.from_parity(H)
    if code.length != _int(fields, "n") or code.dim != _int(fields, "k"):
        raise FormatError("code header disagrees with the parity matrix")
    return BlockCode(code, _int(fields, "r_block"))


# -- subspace systems -------------------------------------------------------


def certified_flag(S: SubspaceSystem) -> int:
    """1 only for a system certified by an exhaustive check: the flag
    cannot say how many subsets a sampled certification tried."""
    return 1 if S.certified and S.certified_sample is None else 0


def format_sdss(S: SubspaceSystem) -> str:
    out = [SDSS_MAGIC, tower_line(S.tower),
           f"n={S.n} r={S.r} h={S.h} m={S.m} certified={certified_flag(S)}"]
    for group in S.basis:
        for v in group:
            out.append(" ".join(str(c) for c in v))
    return "\n".join(out) + "\n"


def parse_sdss(text: str) -> SubspaceSystem:
    cur = _Lines(text)
    if cur.next() != SDSS_MAGIC:
        raise FormatError("not a subspace system file")
    tower = parse_tower_line(cur.next())
    fields = _parse_kv(cur.next(), ("n", "r", "h", "m", "certified"))
    n = _int(fields, "n")
    r = _int(fields, "r")
    h = _int(fields, "h")
    m = _int(fields, "m")
    certified = _int(fields, "certified")
    if certified not in (0, 1):
        raise FormatError(f"field certified must be 0 or 1, not {certified}")
    if m != tower.m:
        raise FormatError("header m disagrees with the tower")
    basis = []
    for _ in range(n):
        group = []
        for _ in range(r):
            v = _ints(cur.next(), "basis vector")
            if len(v) != m:
                raise FormatError("basis vector has the wrong width")
            group.append(tuple(v))
        basis.append(group)
    try:
        return SubspaceSystem(tower, n, r, h, basis, certified=bool(certified))
    except Exception as exc:
        raise FormatError(str(exc)) from exc


# -- MR parity checks --------------------------------------------------------


def format_mr(P: MrParityCheck) -> str:
    s = P.spec
    out = [MR_MAGIC, tower_line(s.tower),
           f"n={s.n} r={s.r} h={s.h} delta={s.delta}", format_matrix(P.A).rstrip("\n")]
    for Di in P.D:
        out.append(format_matrix(Di).rstrip("\n"))
    return "\n".join(out) + "\n"


def parse_mr(text: str) -> MrParityCheck:
    cur = _Lines(text)
    if cur.next() != MR_MAGIC:
        raise FormatError("not an MR parity file")
    tower = parse_tower_line(cur.next())
    fields = _parse_kv(cur.next(), ("n", "r", "h", "delta"))
    try:
        spec = MrCodeSpec(n=_int(fields, "n"), r=_int(fields, "r"),
                          h=_int(fields, "h"), delta=_int(fields, "delta"),
                          tower=tower)
    except Exception as exc:
        raise FormatError(str(exc)) from exc
    A = _read_matrix(cur)
    D = [_read_matrix(cur) for _ in range(spec.n)]
    if not cur.done():
        raise FormatError("trailing content after the Moore blocks")
    if A.tower != tower or A.level != "mid":
        raise FormatError("local parity block must be mid-level in the same tower")
    for Di in D:
        if Di.tower != tower or Di.level != "top":
            raise FormatError("Moore blocks must be top-level in the same tower")
    try:
        # loaded blocks may be corrupt on purpose; let verification judge them
        return MrParityCheck(spec, A, D, check=False)
    except Exception as exc:
        raise FormatError(str(exc)) from exc


# -- codewords ----------------------------------------------------------------


def format_vector(v) -> str:
    return "\n".join(str(c) for c in v) + "\n"


def parse_vector(text: str) -> list[int]:
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            out.append(int(line))
        except ValueError as exc:
            raise FormatError(f"bad codeword line {line!r}") from exc
    return out


# -- kind sniffing --------------------------------------------------------------


def sniff_kind(text: str) -> str:
    for line in text.splitlines():
        line = line.strip()
        if line:
            if line == MR_MAGIC:
                return "mr"
            if line == SDSS_MAGIC:
                return "sdss"
            if line == MATRIX_MAGIC:
                return "matrix"
            if line.startswith("%code"):
                return "code"
            return "vector"
    raise FormatError("empty file")
