"""Byte-identical artifacts: every recorded construct command of the
benchmark specification, run through the CLI, must print the recorded
summary lines and write files with the recorded SHA-256 digests."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import pytest

from mrlrc.cli import main

SPEC = Path(__file__).resolve().parents[1] / "perfbench" / "spec.json"
CONSTRUCT = json.loads(SPEC.read_text())["construct"]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("cmd", CONSTRUCT, ids=[c["label"] for c in CONSTRUCT])
def test_construct_matches_recorded_output(cmd, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MRLRC_BUDGET", raising=False)
    out = tmp_path / f"{cmd['label']}.mr"
    assert main(cmd["args"] + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == cmd["stdout"]
    assert _sha256(out) == cmd["sha256"]["mr"]
    assert _sha256(Path(f"{out}.sdss")) == cmd["sha256"]["sdss"]


# `mrlrc verify` stdout (with elapsed= removed), recorded before the
# sampled walk was folded into enumerate_patterns(spec, step)
VERIFY_CONCAT_BCH_SAMPLE_2000 = ["ok patterns_checked=2002 sampled=2002"]
# the README code with group 1's Moore block copied into group 3
VERIFY_README_COPY_1_TO_3_SAMPLE_500 = [
    "FAIL patterns_checked=43 sampled=43",
    "reason: dependent erasure pattern",
    "counterexample: per_group=((0,), (3,), (8,), (9,), (13,)) extra=(5, 11)",
]


def _construct(label: str, tmp_path: Path) -> Path:
    cmd = next(c for c in CONSTRUCT if c["label"] == label)
    out = tmp_path / f"{label}.mr"
    assert main(cmd["args"] + ["--out", str(out)]) == 0
    return out


def _verify_stdout(path: Path, sample: int, capsys) -> tuple[int, list[str]]:
    capsys.readouterr()
    code = main(["verify", "--in", str(path), "--sample", str(sample)])
    return code, re.sub(r" elapsed=\S+", "", capsys.readouterr().out).splitlines()


def test_sampled_verify_matches_recorded_output(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MRLRC_BUDGET", raising=False)
    out = _construct("concat-bch", tmp_path)
    assert _verify_stdout(out, 2000, capsys) == (0, VERIFY_CONCAT_BCH_SAMPLE_2000)


def test_sampled_verify_counterexample_matches_recorded_output(tmp_path, capsys,
                                                               monkeypatch):
    from mrlrc import fileio
    from mrlrc.mr import MrParityCheck

    monkeypatch.delenv("MRLRC_BUDGET", raising=False)
    base = fileio.parse_mr(_construct("readme", tmp_path).read_text())
    D = list(base.D)
    D[3] = D[1]
    corrupt = tmp_path / "corrupt.mr"
    corrupt.write_text(fileio.format_mr(MrParityCheck(base.spec, base.A, D)))
    assert _verify_stdout(corrupt, 500, capsys) == (1, VERIFY_README_COPY_1_TO_3_SAMPLE_500)
