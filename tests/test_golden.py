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


# `mrlrc sdss ... --sdss gv` outside the benchmark's q = 2 and q = 3:
# (arguments, stdout, SHA-256 of the system file), recorded before the
# greedy scan moved to packed syndrome words
GV_SDSS = [
    (["--p", "2", "--a", "2", "--n", "8", "--r", "2", "--h", "3"],
     ["n=8 r=2 h=3 m=8 q=4 certified=1"],
     "9ccb835c7907b21cd90596afd23c2ef33eec5749315acae44aed67fac0beebb3"),
    (["--p", "2", "--a", "2", "--n", "7", "--r", "3", "--h", "2"],
     ["n=7 r=3 h=2 m=7 q=4 certified=1"],
     "79513b2c49c2aed2be402f6734031a6b3650a73cd47b84d0c49b4472888109c2"),
    (["--p", "5", "--n", "8", "--r", "2", "--h", "3"],
     ["n=8 r=2 h=3 m=7 q=5 certified=1"],
     "7f7c2f4d54fe48bf6acd41a1541703344ddb75a035c4470e3864e3043f805a44"),
    (["--p", "5", "--n", "5", "--r", "3", "--h", "2"],
     ["n=5 r=3 h=2 m=6 q=5 certified=1"],
     "3faab6cc0dcc82ae8c5f38fd593306b68fa9ea4f17d2920b2636a3ed314099d4"),
]


@pytest.mark.parametrize("args,stdout,sha256", GV_SDSS,
                         ids=["-".join(a[1::2]) for a, _, _ in GV_SDSS])
def test_gv_sdss_matches_recorded_output(args, stdout, sha256, tmp_path, capsys,
                                         monkeypatch):
    monkeypatch.delenv("MRLRC_BUDGET", raising=False)
    out = tmp_path / "gv.sdss"
    assert main(["sdss", *args, "--sdss", "gv", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == stdout
    assert _sha256(out) == sha256


# `mrlrc sdss --sdss subfield --u 1` over F_3 and F_4: (arguments,
# stdout, SHA-256 of the system file), recorded while u = 1 still took
# the top field's polynomial basis directly instead of _ell_basis
SUBFIELD_U1_SDSS = [
    (["--p", "3", "--n", "10", "--r", "2", "--h", "2"],
     ["n=10 r=2 h=2 m=4 q=3 certified=1"],
     "034aa16c18190604aa8b0dcc7cd94bff124b42afb6b7fc66944feb9ba824fc68"),
    (["--p", "2", "--a", "2", "--n", "17", "--r", "2", "--h", "2"],
     ["n=17 r=2 h=2 m=4 q=4 certified=1"],
     "9e6ff43b9095804f274900a266a371b21d440ef6bb83d86c9c0ea47dbf371d32"),
]


@pytest.mark.parametrize("args,stdout,sha256", SUBFIELD_U1_SDSS,
                         ids=["q3", "q4"])
def test_subfield_u1_sdss_matches_recorded_output(args, stdout, sha256, tmp_path,
                                                  capsys, monkeypatch):
    monkeypatch.delenv("MRLRC_BUDGET", raising=False)
    out = tmp_path / "subfield.sdss"
    assert main(["sdss", *args, "--sdss", "subfield", "--u", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == stdout
    assert _sha256(out) == sha256


# `mrlrc sdss --sdss subfield` kept to fewer groups than it yields:
# (arguments, stdout, SHA-256 of the system file), recorded while every
# group was built and certified before the first n were kept
SUBFIELD_RESTRICTED_SDSS = [
    (["--p", "2", "--r", "2", "--h", "3", "--n", "12", "--u", "2"],
     ["n=12 r=2 h=3 m=10 q=2 certified=1"],
     "7d98e6b12d12ac383fe81f9e44d6c52c88c46e52282811f4c6530cff245873f9"),
    (["--p", "3", "--r", "2", "--h", "2", "--n", "7", "--u", "1"],
     ["n=7 r=2 h=2 m=4 q=3 certified=1"],
     "e9e35b3db7f6710b5fcb078ca75755fa240d7e34ca91addeaa32b210d11600fb"),
    (["--p", "2", "--a", "2", "--r", "2", "--h", "3", "--n", "65", "--u", "2"],
     ["n=65 r=2 h=3 m=10 q=4 certified=1"],
     "1a394b51054464fc6df2d19d0de6854e6158c69c8b022ddd1621ff786461fc22"),
]


@pytest.mark.parametrize("args,stdout,sha256", SUBFIELD_RESTRICTED_SDSS,
                         ids=["q2-n12", "q3-n7", "q4-n65"])
def test_restricted_subfield_sdss_matches_recorded_output(args, stdout, sha256, tmp_path,
                                                          capsys, monkeypatch):
    monkeypatch.delenv("MRLRC_BUDGET", raising=False)
    out = tmp_path / "subfield.sdss"
    assert main(["sdss", *args, "--sdss", "subfield", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == stdout
    assert _sha256(out) == sha256


# `mrlrc construct --method concat` with Reed-Solomon inner codes over
# F_3 and F_4: (arguments, stdout, SHA-256 of the code and system files)
CONCAT_RS = [
    (["--p", "3", "--r", "4", "--h", "2", "--delta", "1", "--n", "4",
      "--inner", "rs:4:3"],
     ["N=16 r=4 h=2 delta=1 ell=3^6 method=concat certified=1",
      "# tower p=3 a=1 m=6 ext_poly=2,1,0,0,0,0,1"],
     ("de338dd9fdd56b9939969871ad0af742d7007f4cceed61d2e69451a56d5d1aed",
      "67309b32d27bef58c0f6d1894bad444e124e2aa3995abb82fe1074713c498b54")),
    (["--p", "2", "--a", "2", "--r", "5", "--h", "2", "--delta", "1", "--n", "4",
      "--inner", "rs:5:3"],
     ["N=20 r=5 h=2 delta=1 ell=4^6 method=concat certified=1",
      "# tower p=2 a=2 m=6 base_poly=1,1,1 ext_poly=2,1,1,0,0,0,1"],
     ("49622c491b3ccdca8284c4b3ee14ca8f5a9cfa8feefd164430b6766bbc443e93",
      "93c873f0e0ed42a194dd074a04be643bfde0d6ba4dd2fdeb3d159e3216bfc340")),
]


@pytest.mark.parametrize("args,stdout,sha256", CONCAT_RS,
                         ids=[a[-1] for a, _, _ in CONCAT_RS])
def test_concat_rs_matches_recorded_output(args, stdout, sha256, tmp_path, capsys,
                                           monkeypatch):
    monkeypatch.delenv("MRLRC_BUDGET", raising=False)
    out = tmp_path / "rs.mr"
    assert main(["construct", *args, "--method", "concat", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == stdout
    assert (_sha256(out), _sha256(Path(f"{out}.sdss"))) == sha256


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


# `mrlrc verify -v` stdout (with elapsed= removed) and stderr, recorded
# before the sampled walk reduced each pattern to an h x h rank check
VERIFY_CONCAT_BCH_SAMPLE_100000 = (
    ["ok patterns_checked=100203 sampled=100203"],
    ["# verify mode=dense checks=100203 patterns_covered=100203"],
)
# construct --p 3 --r 4 --h 3 --delta 2 --n 3 with group 1's Moore block
# copied into group 2
VERIFY_P3_R4_COPY_1_TO_2_SAMPLE_100 = (
    ["FAIL patterns_checked=7 sampled=7",
     "reason: dependent erasure pattern",
     "counterexample: per_group=((0, 1), (4, 7), (8, 9)) extra=(5, 10, 11)"],
    ["# verify mode=dense checks=7 patterns_covered=7"],
)


def _verify_verbose(path: Path, sample: int, capsys) -> tuple[int, tuple]:
    capsys.readouterr()
    code = main(["verify", "--in", str(path), "--sample", str(sample), "-v"])
    out, err = capsys.readouterr()
    return code, (re.sub(r" elapsed=\S+", "", out).splitlines(), err.splitlines())


def test_sampled_verify_100000_matches_recorded_output(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("MRLRC_BUDGET", raising=False)
    out = _construct("concat-bch", tmp_path)
    assert _verify_verbose(out, 100000, capsys) == (0, VERIFY_CONCAT_BCH_SAMPLE_100000)


def test_sampled_verify_odd_characteristic_counterexample(tmp_path, capsys,
                                                          monkeypatch):
    from mrlrc import fileio
    from mrlrc.mr import MrParityCheck

    monkeypatch.delenv("MRLRC_BUDGET", raising=False)
    out = tmp_path / "p3.mr"
    assert main(["construct", "--p", "3", "--r", "4", "--h", "3", "--delta", "2",
                 "--n", "3", "--out", str(out)]) == 0
    base = fileio.parse_mr(out.read_text())
    D = list(base.D)
    D[2] = D[1]
    corrupt = tmp_path / "corrupt.mr"
    corrupt.write_text(fileio.format_mr(MrParityCheck(base.spec, base.A, D)))
    assert _verify_verbose(corrupt, 100, capsys) == (1, VERIFY_P3_R4_COPY_1_TO_2_SAMPLE_100)
