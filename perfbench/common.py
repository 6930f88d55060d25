"""Pieces shared by the workloads and the runner."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path


@dataclass
class PassResult:
    """One pass over a workload's fixed set of operations.

    `seconds` is the time spent inside the program (child-timed commands,
    or encode plus erase_decode calls); `op_s` holds each operation's
    latency (one command, or one erase_decode call).  These and the
    import and encode times are scaled to the reference speed (see
    speed.SpeedMeter); `raw_seconds` and `raw_op_s` are not.
    """

    seconds: float = 0.0
    raw_seconds: float = 0.0
    ops: int = 0
    op_s: list[float] = field(default_factory=list)
    raw_op_s: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)  # command or code per op_s entry
    import_s: list[float] = field(default_factory=list)
    encode_s: list[float] = field(default_factory=list)

    def unscaled(self) -> PassResult:
        return replace(self, seconds=self.raw_seconds, op_s=self.raw_op_s)


class Checks:
    """Counts checked operations and failures, keeping the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, error: str | None, what: str) -> bool:
        self.attempted += 1
        if error is None:
            return True
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(f"{what}: {error}")
        return False

    def export(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.errors += other["errors"][: max(0, 20 - len(self.errors))]


CHILD_TIMEOUT_S = 150


def run_child(root: Path, tmp: Path, args: list[str], trace: bool):
    """Run child.py with `args` in `tmp`, in a clean environment: no
    MRLRC_BUDGET, only the checkout's src on PYTHONPATH, and no site
    module (-S), whose start-up imports vary by installation and would
    pre-pay some of mrlrc's.  Returns
    (its result dict or None, its stdout, the tail of its stderr)."""
    result_path = tmp / "child-result.json"
    result_path.unlink(missing_ok=True)
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "PYTHONPATH": str(root / "src"), "TMPDIR": str(tmp)}
    proc = subprocess.run(
        [sys.executable, "-S", str(root / "perfbench" / "child.py"), str(result_path),
         "1" if trace else "0", *args],
        cwd=tmp, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    stderr = proc.stderr.strip()[-500:]
    if proc.returncode != 0 or not result_path.is_file():
        return None, proc.stdout, stderr or f"exit code {proc.returncode}"
    return json.loads(result_path.read_text()), proc.stdout, stderr


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_construct_output(cmd: dict, rc: int, stdout: str, out_mr: Path) -> str | None:
    """Exit code, exact summary and tower lines, and the digests of the
    written .mr and .sdss files against the recorded ones."""
    if rc != 0:
        return f"exit code {rc}"
    if stdout.splitlines() != cmd["stdout"]:
        return f"stdout {stdout.splitlines()!r} differs from the recorded lines"
    for kind, path in (("mr", out_mr), ("sdss", Path(str(out_mr) + ".sdss"))):
        if not path.is_file():
            return f"{path.name} was not written"
        if sha256(path) != cmd["sha256"][kind]:
            return f"{path.name} digest differs from the recorded one"
    return None


def construct_in_process(cmd: dict, out_mr: Path) -> str | None:
    """Run a recorded construct command through ``mrlrc.cli.main`` in this
    process and check it like a child's output."""
    import mrlrc.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = mrlrc.cli.main(cmd["args"] + ["--out", str(out_mr)])
    return check_construct_output(cmd, rc, buf.getvalue(), out_mr)
