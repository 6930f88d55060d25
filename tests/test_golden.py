"""Byte-identical artifacts: every recorded construct command of the
benchmark specification, run through the CLI, must print the recorded
summary lines and write files with the recorded SHA-256 digests."""

from __future__ import annotations

import hashlib
import json
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
