"""The construct and certify workloads: mrlrc commands, one child process
at a time, each timed inside the child (see child.py).

A fresh process per command is deliberate: a user pays tower search,
table building and certification on every call, and an in-process
``make_tower`` cache would hide that.
"""

from __future__ import annotations

import ast
import random
import re
from pathlib import Path

from common import Checks, PassResult, check_construct_output, construct_in_process, run_child
from speed import SpeedMeter

_COUNTEREXAMPLE = re.compile(r"counterexample: per_group=(.*) extra=(.*)")


class CliWorkload:
    """Runs a fixed command set in a seeded order, one child per command."""

    def __init__(self, root: Path, tmp: Path, seed: int, spec: dict, meter: SpeedMeter):
        self.root = root
        self.tmp = tmp
        self.seed = seed
        self.spec = spec
        self.meter = meter
        self.rng = random.Random(f"{self.name}-{seed}")
        self.checks = Checks()
        self.child_traces: list[tuple[str, dict]] = []  # (phase, child result)

    def _child(self, args: list[str], trace: bool, phase: str):
        result, stdout, stderr = run_child(self.root, self.tmp, args, trace)
        if result is not None:
            self.meter.factors.append(result["factor"])
            if trace:
                self.child_traces.append((phase, result))
        return result, stdout, stderr

    def shares(self) -> dict:
        return {"repeat_share": 0.0, "local_share": 0.0}  # no stripes here

    def commands(self) -> list[dict]:
        raise NotImplementedError

    def check(self, cmd: dict, rc: int, stdout: str) -> str | None:
        raise NotImplementedError

    def run_pass(self, trace: bool) -> list[PassResult]:
        res = PassResult()
        cmds = self.commands()
        self.rng.shuffle(cmds)
        for cmd in cmds:
            result, stdout, stderr = self._child(["cli"] + cmd["argv"], trace, "pass")
            if result is None:
                self.checks.record(f"child failed: {stderr}", cmd["label"])
                continue
            error = self.check(cmd, result["rc"], stdout)
            if error and stderr:
                error += f" (stderr: {stderr})"
            self.checks.record(error, cmd["label"])
            f = result["factor"]
            res.raw_seconds += result["elapsed"]
            res.seconds += result["elapsed"] * f
            res.ops += 1
            res.op_s.append(result["elapsed"] * f)
            res.raw_op_s.append(result["elapsed"])
            res.labels.append(cmd["label"])
            res.import_s.append(result["import_s"] * f)
        return [res]


class Construct(CliWorkload):
    """The fixed set of construct commands in spec.json."""

    name = "construct"
    command = "construct"

    def setup(self, trace: bool = False) -> tuple[float, float]:
        """One child on a cheap command, so byte-compiling and the first
        import are paid before timing; returns its scaled and raw time."""
        warm = self.spec["warmup"]
        result, stdout, stderr = self._child(["cli"] + warm["args"], trace, "setup")
        ok = result is not None and result["rc"] == 0 and stdout.splitlines() == warm["stdout"]
        self.checks.record(None if ok else f"warm-up failed: {stderr}", "warmup")
        return (result["elapsed"] * result["factor"], result["elapsed"]) if result else (0.0, 0.0)

    def commands(self) -> list[dict]:
        return [{"label": c["label"], "argv": c["args"] + ["--out", c["label"] + ".mr"],
                 "recorded": c} for c in self.spec["construct"]]

    def check(self, cmd, rc, stdout):
        out_mr = self.tmp / (cmd["label"] + ".mr")
        error = check_construct_output(cmd["recorded"], rc, stdout, out_mr)
        out_mr.unlink(missing_ok=True)
        Path(str(out_mr) + ".sdss").unlink(missing_ok=True)
        return error


class Certify(CliWorkload):
    """verify on stored artifacts; the corrupted code is drawn from the seed."""

    name = "certify"
    command = "verify"

    def setup(self, trace: bool = False) -> tuple[float, float]:
        """Build the artifacts in a child (certify_setup); returns its
        scaled and raw time."""
        from mrlrc import fileio

        result, _stdout, stderr = self._child(["setup", "certify", str(self.seed)],
                                              trace, "setup")
        if result is None:
            self.checks.record(f"set-up failed: {stderr}", "setup")
            return 0.0, 0.0
        self.checks.merge(result["checks"])
        self.corrupt = fileio.parse_mr((self.tmp / "corrupt.mr").read_text())
        return result["elapsed"] * result["factor"], result["elapsed"]

    def commands(self) -> list[dict]:
        return [dict(c, argv=c["args"]) for c in self.spec["certify"]]

    def check(self, cmd, rc, stdout):
        words = stdout.split()
        verdict = words[0] if words else ""
        if cmd["verdict"] == "ok":
            return None if rc == 0 and verdict == "ok" else f"exit {rc}, verdict {verdict!r}"
        if rc != 1 or verdict != "FAIL":
            return f"expected FAIL with exit 1, got exit {rc}, verdict {verdict!r}"
        return check_counterexample(self.corrupt, stdout)


def certify_setup(spec: dict, seed: int) -> dict:
    """Child side of Certify.setup: write the certify artifacts into the
    working directory, checked against their recorded digests, and the
    code whose Moore block is copied into another group."""
    from mrlrc import fileio, mr

    checks = Checks()
    by_label = {c["label"]: c for c in spec["construct"]}
    for label in spec["certify_artifacts"]:
        checks.record(construct_in_process(by_label[label], Path(f"{label}.mr")),
                      f"setup {label}")
    base = fileio.parse_mr(Path(f"{spec['corrupt_base']}.mr").read_text())
    # two groups with equal Moore blocks have equal global columns, so some
    # maximal pattern must be dependent
    i, j = random.Random(f"corrupt-{seed}").sample(range(base.spec.n), 2)
    D = list(base.D)
    D[j] = D[i]
    Path("corrupt.mr").write_text(fileio.format_mr(mr.MrParityCheck(base.spec, base.A, D)))
    return {"checks": checks.export()}


def check_counterexample(P, stdout: str) -> str | None:
    """The printed counterexample must be a maximal erasure pattern whose
    columns are dependent (checked with linalg.columns_independent)."""
    from mrlrc.linalg import columns_independent

    match = None
    for line in stdout.splitlines():
        match = _COUNTEREXAMPLE.fullmatch(line.strip()) or match
    if match is None:
        return "FAIL without a counterexample line"
    try:
        per_group = ast.literal_eval(match[1])
        extra = ast.literal_eval(match[2])
    except (ValueError, SyntaxError):
        return "unparsable counterexample"
    s = P.spec
    cols = [c for g in per_group for c in g] + list(extra)
    shape_ok = (
        len(per_group) == s.n
        and all(len(g) == s.delta and all(i * s.r <= c < (i + 1) * s.r for c in g)
                for i, g in enumerate(per_group))
        and len(extra) == s.h
        and len(set(cols)) == len(cols)
        and all(0 <= c < s.N for c in cols)
    )
    if not shape_ok:
        return f"counterexample {match[0]!r} is not a maximal erasure pattern"
    if columns_independent(P.H, sorted(cols)):
        return "counterexample columns are independent"
    return None
