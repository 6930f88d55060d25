from __future__ import annotations

import pytest

from mrlrc import fileio
from mrlrc.errors import FormatError
from mrlrc.gf import make_tower
from mrlrc.linalg import FieldMatrix
from mrlrc.mr import MrCodeSpec, build_direct
from mrlrc.sdss import mds_construct


def test_matrix_round_trip():
    t = make_tower(2, 2, 2)
    M = FieldMatrix.from_rows(t, "top", [[0, 5, 15], [7, 1, 9]])
    M2 = fileio.parse_matrix(fileio.format_matrix(M))
    assert M2 == M
    assert fileio.format_matrix(M2) == fileio.format_matrix(M)


def test_sdss_round_trip():
    S = mds_construct(make_tower(2, 1, 4), 5, 2, 2)
    text = fileio.format_sdss(S)
    S2 = fileio.parse_sdss(text)
    assert (S2.n, S2.r, S2.h, S2.m) == (S.n, S.r, S.h, S.m)
    assert S2.basis == S.basis
    assert S2.certified == S.certified
    assert fileio.format_sdss(S2) == text


def test_mr_round_trip():
    t = make_tower(2, 1, 4)
    S = mds_construct(t, 3, 2, 2)
    spec = MrCodeSpec(n=3, r=2, h=2, delta=1, tower=t)
    P = build_direct(spec, S)
    text = fileio.format_mr(P)
    P2 = fileio.parse_mr(text)
    assert P2.H == P.H and P2.A == P.A and P2.spec == spec
    assert fileio.format_mr(P2) == text


def test_vector_round_trip():
    v = [0, 5, 63, 1]
    assert fileio.parse_vector(fileio.format_vector(v)) == v


def test_sniff_kind():
    t = make_tower(2, 1, 4)
    S = mds_construct(t, 3, 2, 2)
    spec = MrCodeSpec(n=3, r=2, h=2, delta=1, tower=t)
    P = build_direct(spec, S)
    assert fileio.sniff_kind(fileio.format_sdss(S)) == "sdss"
    assert fileio.sniff_kind(fileio.format_mr(P)) == "mr"
    assert fileio.sniff_kind("1\n2\n") == "vector"
    with pytest.raises(FormatError):
        fileio.sniff_kind("   \n \n")


def test_malformed_inputs():
    with pytest.raises(FormatError):
        fileio.parse_matrix("%MRLRC-MATRIX v1\np=2 a=1 m=1\nlevel=prime rows=1 cols=2\n1\n")
    with pytest.raises(FormatError):
        fileio.parse_matrix("not a matrix\n")
    with pytest.raises(FormatError):
        fileio.parse_sdss("%MRLRC-SDSS v1\np=2 a=1 m=2 ext_poly=1,1,1\nn=1 r=1 h=1 m=3 certified=1\n0 1\n")
    with pytest.raises(FormatError):
        fileio.parse_vector("1\nx\n")


def test_mr_parse_rejects_truncation_and_extras():
    t = make_tower(2, 1, 4)
    S = mds_construct(t, 3, 2, 2)
    spec = MrCodeSpec(n=3, r=2, h=2, delta=1, tower=t)
    text = fileio.format_mr(build_direct(spec, S))
    lines = text.splitlines()
    with pytest.raises(FormatError):
        fileio.parse_mr("\n".join(lines[:-2]))
    with pytest.raises(FormatError):
        fileio.parse_mr(text + text.split("\n", 3)[3])


@pytest.mark.parametrize("flag", ["7", "-1", "2"])
def test_sdss_certified_flag_other_than_0_or_1(tmp_path, capsys, flag):
    from mrlrc.cli import main

    text = fileio.format_sdss(mds_construct(make_tower(2, 1, 4), 5, 2, 2))
    assert "certified=1\n" in text
    bad_text = text.replace("certified=1\n", f"certified={flag}\n", 1)
    with pytest.raises(FormatError):
        fileio.parse_sdss(bad_text)
    bad = tmp_path / "bad.sdss"
    bad.write_text(bad_text)
    code = main(["verify", "--in", str(bad)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "internal" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1
