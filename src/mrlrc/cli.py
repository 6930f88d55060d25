"""Command-line front end.

Subcommands: construct, verify, bounds, encode, decode, sdss.
Exit codes are a stable contract: 0 success, 1 domain-level negative
result (verification FAIL, UNDECODABLE), 2 usage, file format or
file access error, 3 enumeration budget exceeded, 4 internal error (a
broken invariant of the package or any other unexpected exception,
reported in one line).  Every construction is
deterministic, so repeated runs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys

from . import fileio, mr, sdss
from .codes import bch_parity_check, rs_parity_check
from .errors import BudgetError, FormatError, MrlrcError, ParameterError
from .gf import base_size, make_tower, tower_line

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _add_tower_args(p):
    p.add_argument("--p", type=int, required=True, help="field characteristic (prime)")
    p.add_argument("--a", type=int, default=1, help="degree of F_q over F_p (q = p^a)")


def _add_common(p):
    p.add_argument("--budget", type=int, default=None,
                   help="override the enumeration budgets")
    p.add_argument("--seedless", action="store_true",
                   help="accepted for compatibility; constructions are always deterministic")
    p.add_argument("-v", "--verbose", action="store_true")


def _add_system_args(p, out_help):
    """Options of a system build, shared by construct and sdss; one a
    method never reads is refused (_sdss_builder), never ignored."""
    _add_tower_args(p)
    p.add_argument("--n", type=int, required=True, help="number of local groups")
    p.add_argument("--r", type=int, required=True, help="local group size")
    p.add_argument("--h", type=int, required=True, help="global parities")
    p.add_argument("--sdss", choices=("gv", "mds", "subfield"), default="mds")
    p.add_argument("--u", type=int, default=None,
                   help="subfield construction degree (--sdss subfield only; default 1)")
    p.add_argument("--m", type=int, default=None,
                   help="ambient dimension for --sdss gv or mds (default: the method's value)")
    p.add_argument("--out", required=True, help=out_help)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mrlrc",
        description="Construct, verify and run maximally recoverable local reconstruction codes.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build an MR code (and its subspace system)")
    _add_system_args(c, "MR parity file path")
    c.add_argument("--delta", type=int, required=True, help="local parities per group")
    c.add_argument("--method", choices=("direct", "concat"), default="direct")
    c.add_argument("--inner", default=None,
                   help="inner code for --method concat: bch:<r>:<delta> or rs:<r>:<s>")
    c.add_argument("--sdss-out", default=None,
                   help="subspace system file path (default: <out>.sdss)")
    _add_common(c)

    s = sub.add_parser("sdss", help="build a subspace direct sum system alone")
    _add_system_args(s, "subspace system file path")
    _add_common(s)

    v = sub.add_parser("verify", help="re-verify a stored artifact by enumeration")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--sample", type=int, default=None,
                   help="check an evenly strided sample instead of everything")
    _add_common(v)

    b = sub.add_parser("bounds", help="ambient-dimension bounds for given parameters")
    _add_tower_args(b)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--r", type=int, required=True)
    b.add_argument("--h", type=int, required=True)
    b.add_argument("--achieved", default=None,
                   help="subspace system file to compare against the bounds")
    _add_common(b)

    e = sub.add_parser("encode", help="encode a message file")
    e.add_argument("--in", dest="infile", required=True, help="MR parity file")
    e.add_argument("message", help="message file, one element code per line")
    e.add_argument("--out", required=True)
    _add_common(e)

    d = sub.add_parser("decode", help="fill erased positions of a received word")
    d.add_argument("--in", dest="infile", required=True, help="MR parity file")
    d.add_argument("received", help="received file, one element code per line")
    d.add_argument("--erasures", default="",
                   help="comma-separated erased positions (values at them are ignored)")
    d.add_argument("--out", required=True)
    _add_common(d)
    return ap


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _sdss_builder(args, s_dim: int, h: int, n: int):
    """Check the parameters of the requested system and size its tower;
    returns the step that builds it at subspace dimension s_dim."""
    if args.u is not None and args.sdss != "subfield":
        raise ParameterError(f"--u applies only to --sdss subfield, not {args.sdss}")
    if args.m is not None and args.sdss == "subfield":
        raise ParameterError("--m does not apply to --sdss subfield")
    q_args = (args.p, args.a)
    q = base_size(*q_args)  # a bad p or a is named before a bad n, r or h
    sdss.check_parameters(n, s_dim, h)
    budget = args.budget
    if args.sdss == "mds":
        m = args.m if args.m is not None else h * s_dim
        t = make_tower(*q_args, m)
        if n > h:
            return lambda: sdss.mds_construct(t, n, s_dim, h, budget)
        # the MDS construction needs more groups than h; build one spare
        # group and drop it so n = h still works
        return lambda: sdss.restrict(
            sdss.mds_construct(t, h + 1, s_dim, h, budget), n, budget)
    if args.sdss == "gv":
        need = sdss.gv_dimension(q, n, s_dim, h)
        t = make_tower(*q_args, args.m if args.m is not None else need)
        return lambda: sdss.gv_greedy(t, n, s_dim, h, budget)
    t = make_tower(*q_args)

    def build():
        S = sdss.subfield_construct(t, 1 if args.u is None else args.u, s_dim, h, budget)
        if S.n < n:
            raise ParameterError(
                f"subfield construction yields n={S.n} groups, fewer than requested {n}"
            )
        return sdss.restrict(S, n, budget) if S.n > n else S

    return build


def _parse_inner(spec: str, tower, budget: int | None = None):
    """Inner code spec: bch:<r>:<delta> or rs:<r>:<s>; returns (s, parity)."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParameterError("inner code must be bch:<r>:<delta> or rs:<r>:<s>")
    kind, r_txt, x_txt = parts
    try:
        r = int(r_txt)
        x = int(x_txt)
    except ValueError as exc:
        raise ParameterError("inner code parameters must be integers") from exc
    if kind == "bch":
        if tower.p != 2 or tower.a != 1:
            raise ParameterError("bch inner codes require q = 2")
        t_exp = (r + 1).bit_length() - 1
        if 2**t_exp - 1 != r:
            raise ParameterError("bch inner length must be 2^t - 1")
        H = bch_parity_check(t_exp, x, budget)
        return H.rows, H
    if kind == "rs":
        H = rs_parity_check(make_tower(tower.p, tower.a), "mid", r, x, budget)
        return x, H
    raise ParameterError(f"unknown inner code kind {kind!r}")


def _summary(spec: mr.MrCodeSpec, args, S) -> str:
    return (
        f"N={spec.N} r={spec.r} h={spec.h} delta={spec.delta} "
        f"ell={spec.tower.q}^{spec.tower.m} method={args.method} "
        f"certified={fileio.certified_flag(S)}"
    )


def cmd_construct(args) -> int:
    n, r, h, delta = args.n, args.r, args.h, args.delta
    t_q = make_tower(args.p, args.a)
    inner = None
    s_dim = r
    if args.inner is not None and args.method != "concat":
        raise ParameterError("--inner applies only to --method concat")
    if args.method == "concat":
        if not args.inner:
            raise ParameterError("concat construction needs --inner")
        s_dim, inner = _parse_inner(args.inner, t_q, args.budget)
        if inner.cols != r:
            raise ParameterError(
                f"inner code length {inner.cols} does not match --r {r}"
            )
    build = _sdss_builder(args, s_dim, h, n)
    # a code that cannot exist over F_q fails here, before the system build
    mr.MrCodeSpec(n=n, r=r, h=h, delta=delta, tower=t_q)
    mr.local_parity_check(t_q, r, delta)
    S = build()
    spec = mr.MrCodeSpec(n=n, r=r, h=h, delta=delta, tower=S.tower)
    if inner is None:
        P = mr.build_direct(spec, S)
    else:
        P = mr.build_concatenated(spec, S, inner, args.budget)
    sdss_path = args.sdss_out or (args.out + ".sdss")
    _write(sdss_path, fileio.format_sdss(S))
    _write(args.out, fileio.format_mr(P))
    print(_summary(spec, args, S))
    print(f"# tower {tower_line(spec.tower)}")
    if args.verbose:
        print(f"# wrote {args.out} and {sdss_path}")
    return EXIT_OK


def cmd_sdss(args) -> int:
    S = _sdss_builder(args, args.r, args.h, args.n)()
    _write(args.out, fileio.format_sdss(S))
    print(
        f"n={S.n} r={S.r} h={S.h} m={S.m} q={S.tower.q} "
        f"certified={fileio.certified_flag(S)}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    text = _read(args.infile)
    kind = fileio.sniff_kind(text)
    if kind == "mr":
        P = fileio.parse_mr(text)
        if args.sample is None:
            report = mr.verify_mr_structured(P, budget=args.budget)
        else:
            report = mr.verify_mr(P, budget=args.budget, sample=args.sample)
        line = "ok" if report.ok else "FAIL"
        line += f" patterns_checked={report.patterns_checked}"
        if report.sampled is not None:
            line += f" sampled={report.sampled}"
        line += f" elapsed={report.elapsed:.3f}s"
        print(line)
        if args.verbose:
            # a counterexample always comes from the dense walk
            dense = args.sample is not None or report.first_failure is not None
            checks = report.patterns_checked if report.checks is None else report.checks
            print(f"# verify mode={'dense' if dense else 'structured'} "
                  f"checks={checks} patterns_covered={report.patterns_checked}",
                  file=sys.stderr)
        if not report.ok:
            print(f"reason: {report.reason}")
            if report.first_failure is not None:
                pat = report.first_failure
                print(f"counterexample: per_group={pat.per_group} extra={pat.extra}")
            return EXIT_NEGATIVE
        return EXIT_OK
    if kind == "sdss":
        if args.sample is not None:
            raise ParameterError("--sample applies to .mr files; a subspace "
                                 "system is always verified exhaustively")
        S = fileio.parse_sdss(text)
        from time import perf_counter

        t0 = perf_counter()
        stats = {}
        ok = sdss.verify_direct_sum(S, budget=args.budget, stats=stats)
        print(f"{'ok' if ok else 'FAIL'} patterns_checked={stats['subsets_checked']} "
              f"elapsed={perf_counter() - t0:.3f}s")
        return EXIT_OK if ok else EXIT_NEGATIVE
    raise FormatError(f"cannot verify a file of kind {kind!r}")


def cmd_bounds(args) -> int:
    rep = sdss.bounds(base_size(args.p, args.a), args.n, args.r, args.h)
    line = (
        f"gv_m={rep.gv_m} hamming_lower={rep.hamming_lower} "
        f"singleton_lower={rep.singleton_lower}"
    )
    if args.achieved:
        S = fileio.parse_sdss(_read(args.achieved))
        got = (S.tower.q, S.n, S.r, S.h)
        want = (base_size(args.p, args.a), args.n, args.r, args.h)
        if got != want:
            raise ParameterError(
                "achieved system has q={} n={} r={} h={}, not q={} n={} r={} h={}"
                .format(*got, *want)
            )
        # the file's certified= flag is not evidence: check the system
        if not sdss.verify_direct_sum(S, budget=args.budget):
            print("FAIL achieved system is not a direct sum")
            return EXIT_NEGATIVE
        line += f" achieved_m={S.m}"
    print(line)
    return EXIT_OK


def cmd_encode(args) -> int:
    P = fileio.parse_mr(_read(args.infile))
    msg = fileio.parse_vector(_read(args.message))
    G = mr.generator_from_parity(P)
    if len(msg) != G.rows:
        raise ParameterError(f"message must have k={G.rows} symbols, got {len(msg)}")
    cw = mr.encode(G, msg)
    _write(args.out, fileio.format_vector(cw))
    print(f"encoded N={len(cw)} k={G.rows}")
    return EXIT_OK


def cmd_decode(args) -> int:
    P = fileio.parse_mr(_read(args.infile))
    rx = fileio.parse_vector(_read(args.received))
    try:
        erased = [int(tok) for tok in args.erasures.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParameterError(
            f"--erasures must be comma-separated integers, got {args.erasures!r}"
        ) from exc
    result = mr.erase_decode(P, rx, erased)
    if not result.ok:
        print("UNDECODABLE")
        print(f"reason: {result.reason}")
        if result.certificate is not None:
            print("certificate: " + " ".join(map(str, result.certificate)))
        return EXIT_NEGATIVE
    _write(args.out, fileio.format_vector(result.codeword))
    print(f"decoded erasures={len(erased)}")
    return EXIT_OK


_HANDLERS = {
    "construct": cmd_construct,
    "sdss": cmd_sdss,
    "verify": cmd_verify,
    "bounds": cmd_bounds,
    "encode": cmd_encode,
    "decode": cmd_decode,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.budget is not None and args.budget < 1:
            raise ParameterError("--budget must be positive")
        return _HANDLERS[args.cmd](args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (MrlrcError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a broken invariant, AssertionError included
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
