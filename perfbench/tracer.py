"""Spans and counters recorded around the public functions of mrlrc's layers.

The wrappers are installed from outside the package: every mrlrc module
that binds a target function under a global name gets the wrapper, so
names imported into another module (``mr.kernel``, ``mr.vec_mat``) and
re-exports (``mrlrc.encode``) are covered as well as the defining module.
Functions imported inside a function body (``from .linalg import solve``)
resolve through the defining module at call time and are covered too.
Field operations are counted by replacing the public ``Field`` methods.

Spans and counts stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import sys
from math import comb
from time import perf_counter

FIELD_OPS = ("add", "sub", "mul", "inv")

# span name -> (defining module, function name)
TARGETS = {
    "linalg.kernel": ("mrlrc.linalg", "kernel"),
    "linalg.solve": ("mrlrc.linalg", "solve"),
    "linalg.rref": ("mrlrc.linalg", "rref"),
    "linalg.rank": ("mrlrc.linalg", "rank"),
    "linalg.vec_mat": ("mrlrc.linalg", "vec_mat"),
    "linalg.is_mds_parity_check": ("mrlrc.linalg", "is_mds_parity_check"),
    "codes.bch_parity_check": ("mrlrc.codes", "bch_parity_check"),
    "codes.rs_parity_check": ("mrlrc.codes", "rs_parity_check"),
    "codes.block_min_distance": ("mrlrc.codes", "block_min_distance"),
    "sdss.gv_greedy": ("mrlrc.sdss", "gv_greedy"),
    "sdss.mds_construct": ("mrlrc.sdss", "mds_construct"),
    "sdss.subfield_construct": ("mrlrc.sdss", "subfield_construct"),
    "sdss.restrict": ("mrlrc.sdss", "restrict"),
    "sdss.verify_direct_sum": ("mrlrc.sdss", "verify_direct_sum"),
    "mr.verify_mr": ("mrlrc.mr", "verify_mr"),
    "mr.build_direct": ("mrlrc.mr", "build_direct"),
    "mr.build_concatenated": ("mrlrc.mr", "build_concatenated"),
    "mr.generator_from_parity": ("mrlrc.mr", "generator_from_parity"),
    "mr.encode": ("mrlrc.mr", "encode"),
    "mr.erase_decode": ("mrlrc.mr", "erase_decode"),
    "fileio.parse_mr": ("mrlrc.fileio", "parse_mr"),
    "fileio.format_mr": ("mrlrc.fileio", "format_mr"),
    "fileio.parse_sdss": ("mrlrc.fileio", "parse_sdss"),
    "fileio.format_sdss": ("mrlrc.fileio", "format_sdss"),
}


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def patterns_covered(spec, sample) -> int:
    """Erasure patterns a passing verify_mr walks, from its inputs alone:
    C(r, delta)^n * C(N - n*delta, h), or the evenly strided sample."""
    total = comb(spec.r, spec.delta) ** spec.n * comb(
        spec.n * spec.r - spec.n * spec.delta, spec.h
    )
    if sample is None:
        return total
    return len(range(0, total, max(1, total // sample)))


def _verify_work(args, kwargs, result):
    if not result.ok:
        return 0  # a FAIL stops early; only completed walks are counted
    return patterns_covered(args[0].spec, _arg(args, kwargs, 2, "sample"))


def _subsets_work(args, kwargs, result):
    S = args[0]
    return comb(S.n, S.h)


def _codewords_work(args, kwargs, result):
    B = args[0]
    return B.code.field().size ** B.dim - 1


def _undecodable_work(args, kwargs, result):
    return 0 if result.ok else 1


# per-span unit of work taken from the call's inputs (or verdict)
WORK = {
    "mr.verify_mr": _verify_work,
    "sdss.verify_direct_sum": _subsets_work,
    "codes.block_min_distance": _codewords_work,
    "mr.erase_decode": _undecodable_work,
}


class Tracer:
    """Records spans (name, start, end, parent, op, work) and field-op counts.

    `op` labels every span recorded until it is changed; the caller sets
    it to the operation (command, set-up or stripe batch) being run.
    """

    def __init__(self, op: str = ""):
        self.op = op
        self.spans: list[tuple] = []
        self.counts = dict.fromkeys(FIELD_OPS, 0)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        work = WORK.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                w = work(args, kwargs, result) if work and result is not None else 0
                spans[idx] = (name, t0, t1, parent, self.op, w)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target under every name the package binds it to."""
        import mrlrc  # noqa: F401  (loads gf, linalg, codes, sdss, mr)
        import mrlrc.cli  # noqa: F401  (loads fileio)

        modules = [m for k, m in sys.modules.items()
                   if k == "mrlrc" or k.startswith("mrlrc.")]
        for name, (modname, fname) in TARGETS.items():
            orig = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        Field = sys.modules["mrlrc.gf"].Field
        counts = self.counts
        for op in FIELD_OPS:
            orig = Field.__dict__[op]
            self._undo.append((Field, op, orig))
            setattr(Field, op, _counting(counts, op, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def _counting(counts, op, orig):
    if op == "inv":
        def inv(self, x):
            counts["inv"] += 1
            return orig(self, x)
        return inv

    def binary(self, x, y):
        counts[op] += 1
        return orig(self, x, y)
    return binary


def summarize(groups) -> dict:
    """Per phase ("setup" or "pass") and span name: calls, total seconds,
    self seconds and work.

    `groups` holds (phase, spans) pairs, one per traced process; parent
    indices are local to each span list.  Self time is a span's duration
    minus the durations of its direct children.
    """
    out: dict[str, dict] = {"setup": {}, "pass": {}}
    for phase, group in groups:
        child_time = [0.0] * len(group)
        for _name, t0, t1, parent, _op, _w in group:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for i, (name, t0, t1, _parent, _op, w) in enumerate(group):
            s = out[phase].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
            s["calls"] += 1
            s["s"] += t1 - t0
            s["self_s"] += t1 - t0 - child_time[i]
            s["work"] += w
    return out
