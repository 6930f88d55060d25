"""Command-line front end.

Subcommands: construct, verify, bounds, encode, decode, sdss.
Exit codes are a stable contract: 0 success, 1 domain-level negative
result (verification FAIL, UNDECODABLE), 2 usage, file format or
file access error, 3 enumeration budget exceeded, 4 internal error (a
broken invariant of the package or any other unexpected exception).
An error is reported as one ``error: ...`` line on stderr; a usage
error (no or an unknown command, an unknown or ambiguous option, a
missing or malformed value, an extra positional) also prints nothing
on stdout.  ``--help`` prints a listing on stdout and exits 0.  Every
construction is deterministic, so repeated runs produce byte-identical
files.

The options of every command are one table, ``_COMMANDS``, read by
``_parse`` as argparse read them, without argparse: its imports would
be most of the start-up of a command.
"""

from __future__ import annotations

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

# types.SimpleNamespace, without importing types at the start of every command
_Namespace = type(sys.implementation)


# One row per option: (option strings, dest, type, default, help).  The type
# is int, str, a tuple of choices, bool for a flag or None for help; a row
# named without dashes is a positional.
_REQUIRED = object()
_HELP = ("-h --help", "help", None, None, "show this listing and exit")
_TOWER = (("--p", "p", int, _REQUIRED, "field characteristic (prime)"),
          ("--a", "a", int, 1, "degree of F_q over F_p (q = p^a)"))
_NRH = (("--n", "n", int, _REQUIRED, "number of local groups"),
        ("--r", "r", int, _REQUIRED, "local group size"),
        ("--h", "h", int, _REQUIRED, "global parities"))
# options of a system build; one a method never reads is refused (_sdss_builder)
_SYSTEM = _TOWER + _NRH + (
    ("--sdss", "sdss", ("gv", "mds", "subfield"), "mds", "subspace system construction"),
    ("--u", "u", int, None, "subfield construction degree (--sdss subfield only; default 1)"),
    ("--m", "m", int, None, "ambient dimension for --sdss gv or mds (default: the method's)"))
_COMMON = (
    ("--budget", "budget", int, None, "override the enumeration budgets"),
    ("--seedless", "seedless", bool, False, "accepted; constructions are always deterministic"),
    ("-v --verbose", "verbose", bool, False, "report more"))
_MR_IN = ("--in", "infile", str, _REQUIRED, "MR parity file")
_COMMANDS = {  # command: (help, option rows)
    "construct": ("build an MR code (and its subspace system)", _SYSTEM + (
        ("--out", "out", str, _REQUIRED, "MR parity file path"),
        ("--delta", "delta", int, _REQUIRED, "local parities per group"),
        ("--method", "method", ("direct", "concat"), "direct", "construction method"),
        ("--inner", "inner", str, None, "concat inner code: bch:<r>:<delta> or rs:<r>:<s>"),
        ("--sdss-out", "sdss_out", str, None, "subspace system file path (default: <out>.sdss)"),
    ) + _COMMON),
    "sdss": ("build a subspace direct sum system alone", _SYSTEM + (
        ("--out", "out", str, _REQUIRED, "subspace system file path"),) + _COMMON),
    "verify": ("re-verify a stored artifact by enumeration", (
        ("--in", "infile", str, _REQUIRED, "MR parity or subspace system file"),
        ("--sample", "sample", int, None, "check an evenly strided sample, not everything"),
    ) + _COMMON),
    "bounds": ("ambient-dimension bounds for given parameters", _TOWER + _NRH + (
        ("--achieved", "achieved", str, None, "subspace system file to compare"),) + _COMMON),
    "encode": ("encode a message file", (
        _MR_IN, ("message", "message", str, _REQUIRED, "message file, one element code per line"),
        ("--out", "out", str, _REQUIRED, "codeword file path")) + _COMMON),
    "decode": ("fill erased positions of a received word", (
        _MR_IN, ("received", "received", str, _REQUIRED, "received file, one code per line"),
        ("--erasures", "erasures", str, "", "comma-separated erased positions"),
        ("--out", "out", str, _REQUIRED, "decoded codeword file path")) + _COMMON),
}


def _usage(row, message: str) -> ParameterError:
    return ParameterError(f"argument {row[0].replace(' ', '/')}: {message}")


def _value(row, text: str):
    """text read as the value of row's option, checked as argparse checks it."""
    try:
        value = int(text) if row[2] is int else text
    except ValueError:
        raise _usage(row, f"invalid int value: {text!r}") from None
    if isinstance(row[2], tuple) and value not in row[2]:
        raise _usage(row, f"invalid choice: {text!r} (choose from {', '.join(map(repr, row[2]))})")
    return value


def _match(tok: str, names: dict):
    """tok read against the option strings in names as argparse reads it:
    None for a value or a positional, else (row, explicit value), row None
    for an unknown option."""
    if tok[:1] != "-" or tok == "-":
        return None
    name, eq, explicit = tok.partition("=")
    if name in names:
        return names[name], explicit if eq else None
    if tok[1] == "-":  # a unique prefix names a long option
        hits, explicit = [n for n in names if n.startswith(name)], explicit if eq else None
    else:  # -vx is -v with the value x
        hits, explicit = [n for n in names if n == tok[:2]], tok[2:]
    if len(hits) > 1:
        raise ParameterError(f"ambiguous option: {tok!r} could match {', '.join(hits)}")
    if hits:
        return names[hits[0]], explicit
    whole, dot, frac = tok[1:].partition(".")
    number = frac.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()
    return None if number or " " in tok else (None, None)  # a negative number is a value


def _listing(cmds) -> str:
    """The --help listing of the options of each command in cmds."""
    lines = [f"usage: mrlrc {cmds[0] if len(cmds) == 1 else '<command>'} [options]"]
    for cmd in cmds:
        lines += ["", f"{cmd}  {_COMMANDS[cmd][0]}"]
        for names, dest, kind, default, text in (_HELP,) + _COMMANDS[cmd][1]:
            if isinstance(kind, tuple):
                names += " {" + ",".join(kind) + "}"
            elif kind in (int, str) and names[0] == "-":
                names += " " + dest.upper()
            lines.append(f"  {names:<26}{text}" + (" (required)" if default is _REQUIRED else ""))
    return "\n".join(lines)


def _parse(argv: list):
    """argv read against the command table as argparse read it: the namespace
    of cmd and every option of the command, or None once a --help listing
    is printed.  A usage error raises ParameterError."""
    cmd, names, values, positional = None, {"-h": _HELP, "--help": _HELP}, {}, None
    dashes = at = None  # where a "--" and the positional were read
    j = 0
    while j < len(argv):
        tok, j = argv[j], j + 1
        if tok == "--" and cmd is not None and dashes is None:
            dashes = j - 1  # only values follow
            continue
        hit = None if tok == "--" or dashes is not None else _match(tok, names)
        row, explicit = hit or (None, None)
        if hit is None and cmd is None:
            cmd = _value(("cmd", "cmd", tuple(_COMMANDS)), tok)
            rows = _COMMANDS[cmd][1]
            names = {n: row for row in (_HELP,) + rows for n in row[0].split() if n[0] == "-"}
            values = {row[1]: row[3] for row in rows}
            positional = next((row for row in rows if row[0][0] != "-"), None)
        elif hit is None and positional and at is None:
            values[positional[1]], at = _value(positional, tok), j - 1
        elif row is None:
            raise ParameterError(f"unrecognized arguments: {tok!r}")
        elif row[2] in (bool, None):  # flags and --help; -vh is -v, then -h
            flags = [row]
            while explicit is not None and tok[1] != "-" and "-" + explicit[:1] in names:
                flags.append(names["-" + explicit[0]])
                explicit = explicit[1:] or None
            if explicit is not None:
                raise _usage(flags[-1], f"ignored explicit argument {explicit!r}")
            for flag in flags:
                if flag[2] is None:
                    return print(_listing([cmd] if cmd else list(_COMMANDS)))
                values[flag[1]] = True
        elif explicit is not None:
            values[row[1]] = _value(row, explicit)
        elif j < len(argv) and argv[j] != "--" and _match(argv[j], names) is None:
            values[row[1]], j = _value(row, argv[j]), j + 1
        else:
            raise _usage(row, "expected one argument")
    if dashes is not None and at not in (dashes - 1, dashes + 1):
        raise ParameterError("unrecognized arguments: '--'")  # kept only beside the positional
    missing = [row[0] for row in rows if values[row[1]] is _REQUIRED] if cmd else ["cmd"]
    if missing:
        raise ParameterError(f"the following arguments are required: {', '.join(missing)}")
    return _Namespace(cmd=cmd, **values)


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
    u = 1 if args.u is None else args.u
    return lambda: sdss.subfield_construct(t, u, s_dim, h, budget, n)


def _parse_inner(spec: str, tower):
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
        H = bch_parity_check(t_exp, x)
        return H.rows, H
    if kind == "rs":
        H = rs_parity_check(make_tower(tower.p, tower.a), "mid", r, x)
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
        s_dim, inner = _parse_inner(args.inner, t_q)
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
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args is None:  # --help printed its listing
            return EXIT_OK
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
