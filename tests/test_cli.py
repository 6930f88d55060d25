from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import pytest

import mrlrc
from mrlrc import fileio, sdss
from mrlrc.cli import main
from mrlrc.gf import make_tower


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_direct_summary(tmp_path, capsys):
    out = tmp_path / "code.mr"
    code, stdout, _ = run(
        capsys, "construct", "--p", "2", "--a", "1", "--r", "3", "--h", "2",
        "--delta", "1", "--n", "5", "--method", "direct", "--sdss", "mds",
        "--out", str(out),
    )
    assert code == 0
    assert stdout.splitlines()[0] == "N=15 r=3 h=2 delta=1 ell=2^6 method=direct certified=1"
    assert out.exists() and (tmp_path / "code.mr.sdss").exists()
    P = fileio.parse_mr(out.read_text())
    assert P.spec.N == 15


def test_construct_then_verify_ok(tmp_path, capsys):
    out = tmp_path / "c.mr"
    run(capsys, "construct", "--p", "2", "--r", "2", "--h", "2", "--delta", "1",
        "--n", "4", "--out", str(out))
    code, stdout, _ = run(capsys, "verify", "--in", str(out))
    assert code == 0
    assert stdout.startswith("ok patterns_checked=")


def test_verify_corrupted_moore_block_fails(tmp_path, capsys):
    out = tmp_path / "c.mr"
    run(capsys, "construct", "--p", "2", "--r", "2", "--h", "2", "--delta", "1",
        "--n", "4", "--out", str(out))
    text = out.read_text()
    # duplicate the first Moore block over the second: still well-formed,
    # but two groups now share a subspace
    blocks = text.split("%MRLRC-MATRIX v1")
    blocks[3] = blocks[2].replace("level=mid", "level=top") if False else blocks[2]
    corrupted = "%MRLRC-MATRIX v1".join(blocks[:3] + [blocks[2]] + blocks[4:])
    bad = tmp_path / "bad.mr"
    bad.write_text(corrupted)
    code, stdout, _ = run(capsys, "verify", "--in", str(bad))
    assert code == 1
    assert stdout.startswith("FAIL")
    assert "counterexample" in stdout


def test_verify_sample_labeling(tmp_path, capsys):
    out = tmp_path / "c.mr"
    run(capsys, "construct", "--p", "2", "--r", "3", "--h", "2", "--delta", "1",
        "--n", "5", "--out", str(out))
    code, stdout, _ = run(capsys, "verify", "--in", str(out), "--sample", "200")
    assert code == 0
    assert "sampled=" in stdout


def test_verify_budget_exit_code(tmp_path, capsys):
    out = tmp_path / "c.mr"
    run(capsys, "construct", "--p", "2", "--r", "3", "--h", "2", "--delta", "1",
        "--n", "5", "--out", str(out))
    code, _, err = run(capsys, "verify", "--in", str(out), "--budget", "10")
    assert code == 3
    assert "budget" in err


def test_construct_budget_flag_acts_like_the_environment(tmp_path, capsys,
                                                         monkeypatch):
    # C(5, 2) = 10 subsets: a budget of 3 leaves only a sampled certification
    args = ["construct", "--p", "2", "--r", "2", "--h", "2", "--delta", "1",
            "--n", "5"]
    monkeypatch.delenv("MRLRC_BUDGET", raising=False)
    flag = run(capsys, *args, "--budget", "3", "--out", str(tmp_path / "a.mr"))
    monkeypatch.setenv("MRLRC_BUDGET", "3")
    env = run(capsys, *args, "--out", str(tmp_path / "b.mr"))
    assert flag == env
    assert flag[0] == 0 and "certified=0" in flag[1].splitlines()[0]
    monkeypatch.delenv("MRLRC_BUDGET")
    code, stdout, _ = run(capsys, "sdss", "--p", "2", "--r", "2", "--h", "2",
                          "--n", "5", "--budget", "3", "--out", str(tmp_path / "s.sdss"))
    assert code == 0 and stdout.rstrip().endswith("certified=0")
    # the concatenated build gates its C(15, 3) inner column subsets on it
    code, _, err = run(capsys, "construct", "--p", "2", "--r", "15", "--h", "2",
                       "--delta", "1", "--n", "3", "--method", "concat",
                       "--inner", "bch:15:2", "--budget", "100",
                       "--out", str(tmp_path / "c.mr"))
    assert code == 3 and "455 column subsets exceed the budget" in err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_budget_below_1_is_a_usage_error(tmp_path, capsys, budget):
    out = tmp_path / "c.mr"
    run(capsys, "construct", "--p", "2", "--r", "2", "--h", "2", "--delta", "1",
        "--n", "4", "--out", str(out))
    for argv in (["verify", "--in", str(out)],
                 ["construct", "--p", "2", "--r", "2", "--h", "2", "--delta", "1",
                  "--n", "5", "--out", str(tmp_path / "d.mr")]):
        code, stdout, err = run(capsys, *argv, "--budget", budget)
        assert (code, stdout) == (2, "")
        assert err.splitlines() == ["error: --budget must be positive"]


def test_verify_sdss_file(tmp_path, capsys):
    out = tmp_path / "s.sdss"
    code, stdout, _ = run(capsys, "sdss", "--p", "2", "--r", "2", "--h", "2",
                          "--n", "5", "--out", str(out))
    assert code == 0 and "m=4" in stdout
    code, stdout, _ = run(capsys, "verify", "--in", str(out))
    assert code == 0 and stdout.startswith("ok")


def test_construct_gv_below_bound_exits_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "construct", "--p", "2", "--r", "2", "--h", "2", "--delta", "1",
        "--n", "5", "--sdss", "gv", "--m", "4", "--out", str(tmp_path / "x.mr"),
    )
    assert code == 2
    assert "greedy guarantee" in err


def test_construct_invalid_params_exit_2(tmp_path, capsys):
    code, _, err = run(
        capsys, "construct", "--p", "2", "--r", "2", "--h", "2", "--delta", "1",
        "--n", "6", "--sdss", "mds", "--out", str(tmp_path / "x.mr"),
    )
    assert code == 2  # n > q^r + 1


def test_construct_concat_bch(tmp_path, capsys):
    out = tmp_path / "big.mr"
    code, stdout, _ = run(
        capsys, "construct", "--p", "2", "--r", "15", "--h", "2", "--delta", "1",
        "--n", "2", "--method", "concat", "--inner", "bch:15:2", "--out", str(out),
    )
    assert code == 0
    assert stdout.splitlines()[0] == "N=30 r=15 h=2 delta=1 ell=2^16 method=concat certified=1"


@pytest.mark.parametrize("extra,message", [
    (["--inner", "bch:15"], "inner code must be bch:<r>:<delta> or rs:<r>:<s>"),
    (["--inner", "bch:x:2"], "inner code parameters must be integers"),
    (["--inner", "bch:14:2"], "bch inner length must be 2^t - 1"),
    (["--inner", "bch:15:2", "--p", "3"], "bch inner codes require q = 2"),
    (["--inner", "foo:3:1"], "unknown inner code kind 'foo'"),
    ([], "concat construction needs --inner"),
    (["--inner", "bch:7:1"], "inner code length 7 does not match --r 15"),
], ids=["bch-two-fields", "bch-not-integer", "bch-length", "bch-odd-p", "unknown-kind",
        "no-inner", "length-mismatch"])
def test_construct_concat_bad_inner_exits_2(tmp_path, capsys, extra, message):
    argv = ["construct", "--p", "2", "--r", "15", "--h", "2", "--delta", "1", "--n", "3",
            "--method", "concat", *extra, "--out", str(tmp_path / "x.mr")]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err.splitlines()) == (2, "", [f"error: {message}"])
    assert not any(tmp_path.iterdir())


def test_bounds_output(capsys):
    code, stdout, _ = run(capsys, "bounds", "--p", "2", "--n", "5", "--r", "2", "--h", "2")
    assert code == 0
    assert stdout.strip() == "gv_m=5 hamming_lower=4 singleton_lower=4"


@pytest.mark.parametrize("argv,message", [
    (["bounds", "--p", "1", "--n", "5", "--r", "3", "--h", "2"], "p=1 is not prime"),
    (["bounds", "--p", "2", "--a", "0", "--n", "5", "--r", "3", "--h", "2"],
     "extension degrees must be >= 1"),
    (["bounds", "--p", "0", "--n", "5", "--r", "3", "--h", "2"], "p=0 is not prime"),
    (["bounds", "--p", "-3", "--n", "5", "--r", "3", "--h", "2"], "p=-3 is not prime"),
    (["bounds", "--p", "4", "--n", "5", "--r", "3", "--h", "2"], "p=4 is not prime"),
    (["bounds", "--p", "2", "--a", "-1", "--n", "5", "--r", "3", "--h", "2"],
     "extension degrees must be >= 1"),
    (["sdss", "--p", "1", "--r", "3", "--h", "2", "--n", "5", "--sdss", "gv",
      "--out", "x.sdss"], "p=1 is not prime"),
    (["construct", "--p", "1", "--r", "3", "--h", "2", "--delta", "1", "--n", "5",
      "--sdss", "gv", "--out", "x.mr"], "p=1 is not prime"),
    (["construct", "--p", "4", "--r", "3", "--h", "2", "--delta", "1", "--n", "5",
      "--sdss", "gv", "--out", "x.mr"], "p=4 is not prime"),
])
def test_bad_base_field_exits_2(tmp_path, argv, message):
    # in a child process with a timeout, so that a hang fails the test
    src = Path(mrlrc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "mrlrc.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert not any(tmp_path.iterdir())


M61 = 2**61 - 1  # prime: trial division up to its square root would not end


@pytest.mark.parametrize("argv,message", [
    (["bounds", "--p", str(M61), "--n", "5", "--r", "3", "--h", "2"],
     f"p={M61} exceeds cap 16777216"),
    (["bounds", "--p", "2", "--a", "100000000", "--n", "5", "--r", "3", "--h", "2"],
     "field size q = p^a = 2^100000000 exceeds cap 16777216"),
    (["verify", "--in", "huge.mr"], f"p={M61} exceeds cap 16777216"),
], ids=["bounds-p", "bounds-a", "verify-p"])
def test_huge_field_parameters_exit_2_at_once(tmp_path, capsys, argv, message):
    # an .mr file whose tower line names the prime 2^61 - 1
    run(capsys, "construct", "--p", "2", "--r", "2", "--h", "2", "--delta", "1",
        "--n", "4", "--out", str(tmp_path / "c.mr"))
    lines = (tmp_path / "c.mr").read_text().splitlines(keepends=True)
    assert lines[1].startswith("p=2 ")
    lines[1] = f"p={M61} " + lines[1][len("p=2 "):]
    (tmp_path / "huge.mr").write_text("".join(lines))
    # in a child process with a timeout first, so that a hang fails the test
    src = Path(mrlrc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "mrlrc.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {message}"]
    argv = [str(tmp_path / "huge.mr") if a == "huge.mr" else a for a in argv]
    t0 = perf_counter()
    code, stdout, err = run(capsys, *argv)
    assert perf_counter() - t0 < 1
    assert (code, stdout, err.splitlines()) == (2, "", [f"error: {message}"])


@pytest.mark.parametrize("argv,message", [
    (["sdss", "--p", "2", "--r", "3", "--h", "2", "--n", "-5", "--sdss", "gv"],
     "need n, r, h >= 1"),
    (["construct", "--p", "2", "--r", "3", "--h", "2", "--delta", "1", "--n", "0",
      "--sdss", "gv"], "need n, r, h >= 1"),
    (["sdss", "--p", "2", "--r", "0", "--h", "2", "--n", "5", "--sdss", "gv"],
     "need n, r, h >= 1"),
    (["bounds", "--p", "2", "--n", "5", "--r", "3", "--h", "9"],
     "h cannot exceed the number of subspaces"),
    (["sdss", "--p", "2", "--r", "3", "--h", "0", "--n", "5", "--sdss", "mds"],
     "need n, r, h >= 1"),
    (["sdss", "--p", "2", "--r", "0", "--h", "2", "--n", "5", "--sdss", "mds"],
     "need n, r, h >= 1"),
    (["sdss", "--p", "2", "--r", "3", "--h", "2", "--n", "0", "--sdss", "mds"],
     "need n, r, h >= 1"),
    (["construct", "--p", "2", "--r", "3", "--h", "3", "--delta", "1", "--n", "2",
      "--sdss", "mds"], "h cannot exceed the number of subspaces"),
    (["sdss", "--p", "2", "--r", "3", "--h", "3", "--n", "2", "--sdss", "mds"],
     "h cannot exceed the number of subspaces"),
    (["sdss", "--p", "2", "--r", "3", "--h", "3", "--n", "2", "--sdss", "subfield",
      "--u", "1"], "h cannot exceed the number of subspaces"),
    (["sdss", "--p", "2", "--r", "2", "--h", "2", "--n", "6", "--sdss", "subfield",
      "--u", "1"], "subfield construction yields n=5 groups, fewer than requested 6"),
])
def test_bad_system_parameters_exit_2(tmp_path, capsys, argv, message):
    if argv[0] != "bounds":
        argv = argv + ["--out", str(tmp_path / "x")]
    code, stdout, err = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert err.splitlines() == [f"error: {message}"]
    assert not any(tmp_path.iterdir())


def test_subfield_n_above_its_count_exits_2_at_once(tmp_path, capsys):
    # q = 4, u = 2, r = 2 yields 1 + 4^4 = 257 groups: 258 is refused
    # before the 257 groups are built and certified
    argv = ["sdss", "--p", "2", "--a", "2", "--r", "2", "--h", "3", "--n", "258",
            "--sdss", "subfield", "--u", "2", "--out", str(tmp_path / "x")]
    message = "error: subfield construction yields n=257 groups, fewer than requested 258"
    t0 = perf_counter()
    code, stdout, err = run(capsys, *argv)
    assert perf_counter() - t0 < 1
    assert (code, stdout, err.splitlines()) == (2, "", [message])
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv,message", [
    (["construct", "--p", "2", "--r", "3", "--h", "2", "--delta", "1", "--n", "5",
      "--sdss", "subfield", "--u", "1", "--m", "40"], "--m does not apply to --sdss subfield"),
    (["sdss", "--p", "2", "--r", "2", "--h", "2", "--n", "5", "--sdss", "subfield",
      "--m", "4"], "--m does not apply to --sdss subfield"),
    (["construct", "--p", "2", "--r", "3", "--h", "2", "--delta", "1", "--n", "5",
      "--u", "2"], "--u applies only to --sdss subfield, not mds"),
    (["sdss", "--p", "2", "--r", "3", "--h", "2", "--n", "5", "--sdss", "gv",
      "--u", "1"], "--u applies only to --sdss subfield, not gv"),
    (["construct", "--p", "2", "--r", "15", "--h", "2", "--delta", "1", "--n", "3",
      "--inner", "bch:15:2"], "--inner applies only to --method concat"),
    (["construct", "--p", "2", "--r", "15", "--h", "2", "--delta", "1", "--n", "3",
      "--method", "direct", "--inner", "bch:15:2"], "--inner applies only to --method concat"),
], ids=["construct-subfield-m", "sdss-subfield-m", "construct-mds-u", "sdss-gv-u",
        "default-method-inner", "direct-inner"])
def test_options_the_method_never_reads_exit_2(tmp_path, capsys, argv, message):
    code, stdout, err = run(capsys, *argv, "--out", str(tmp_path / "x"))
    assert (code, stdout, err.splitlines()) == (2, "", [f"error: {message}"])
    assert not any(tmp_path.iterdir())


def test_subfield_without_u_is_u_1(tmp_path, capsys):
    outs = []
    for extra in ([], ["--u", "1"]):
        out = tmp_path / f"s{len(extra)}.sdss"
        code, stdout, _ = run(capsys, "sdss", "--p", "2", "--r", "2", "--h", "2", "--n", "5",
                              "--sdss", "subfield", *extra, "--out", str(out))
        assert code == 0
        outs.append((stdout, out.read_bytes()))
    assert outs[0] == outs[1]


def test_bounds_achieved(tmp_path, capsys):
    out = tmp_path / "c.mr"
    run(capsys, "construct", "--p", "2", "--r", "2", "--h", "2", "--delta", "1",
        "--n", "5", "--out", str(out))
    code, stdout, _ = run(capsys, "bounds", "--p", "2", "--n", "5", "--r", "2",
                          "--h", "2", "--achieved", str(out) + ".sdss")
    assert code == 0
    assert stdout.strip().endswith("achieved_m=4")


@pytest.mark.parametrize("argv,message", [
    (["construct", "--p", "2", "--r", "4", "--h", "3", "--delta", "4", "--n", "8",
      "--sdss", "gv"], "need 1 <= delta <= r-1"),
    (["construct", "--p", "2", "--r", "6", "--h", "3", "--delta", "2", "--n", "16",
      "--sdss", "gv"],
     "local group length 6 over F_2 needs r <= q+1 unless delta is 1 or r-1"),
])
def test_construct_rejects_impossible_code_before_building(tmp_path, monkeypatch,
                                                          argv, message):
    # in a child process with a timeout, so that a long build fails the test
    src = Path(mrlrc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "mrlrc.cli", *argv, "--out", "x.mr"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert not any(tmp_path.iterdir())

    # and in this process, no system is built at all
    def no_build(*args):
        raise AssertionError("the system was built")

    monkeypatch.setattr(sdss, "gv_greedy", no_build)
    assert main([*argv, "--out", str(tmp_path / "x.mr")]) == 2


def test_bounds_achieved_rejects_other_parameters(tmp_path, capsys):
    system = tmp_path / "q4.sdss"
    run(capsys, "sdss", "--p", "2", "--a", "2", "--n", "6", "--r", "2", "--h", "2",
        "--sdss", "gv", "--out", str(system))
    code, stdout, _ = run(capsys, "bounds", "--p", "2", "--a", "2", "--n", "6",
                          "--r", "2", "--h", "2", "--achieved", str(system))
    assert code == 0
    assert stdout.strip().endswith("achieved_m=5")
    for argv, want in [
        (["--p", "2", "--n", "8", "--r", "4", "--h", "3"], "q=2 n=8 r=4 h=3"),
        (["--p", "2", "--n", "6", "--r", "2", "--h", "2"], "q=2 n=6 r=2 h=2"),
    ]:
        code, stdout, err = run(capsys, "bounds", *argv, "--achieved", str(system))
        assert code == 2
        assert stdout == ""
        assert err.splitlines() == [
            f"error: achieved system has q=4 n=6 r=2 h=2, not {want}"
        ]


def test_bounds_achieved_rechecks_the_system(tmp_path, capsys):
    # a file that claims certified=1 for two equal subspaces of F_2^2
    group = [(1, 0), (0, 1)]
    system = tmp_path / "equal.sdss"
    system.write_text(fileio.format_sdss(sdss.SubspaceSystem(
        make_tower(2, 1, 2), 2, 2, 2, [group, group], certified=True)))
    code, stdout, err = run(capsys, "bounds", "--p", "2", "--n", "2", "--r", "2",
                            "--h", "2", "--achieved", str(system))
    assert code == 1
    assert stdout.splitlines() == ["FAIL achieved system is not a direct sum"]
    assert err == ""
    # the check runs under --budget: C(5, 2) = 10 subsets exceed 9
    out = tmp_path / "c.mr"
    run(capsys, "construct", "--p", "2", "--r", "2", "--h", "2", "--delta", "1",
        "--n", "5", "--out", str(out))
    argv = ["bounds", "--p", "2", "--n", "5", "--r", "2", "--h", "2",
            "--achieved", str(out) + ".sdss", "--budget"]
    code, stdout, err = run(capsys, *argv, "9")
    assert (code, stdout) == (3, "")
    assert err.splitlines() == ["error: 10 subsets exceed the enumeration budget"]
    code, stdout, _ = run(capsys, *argv, "10")
    assert code == 0
    assert stdout.strip().endswith("achieved_m=4")


def test_encode_decode_round_trip(tmp_path, capsys):
    out = tmp_path / "c.mr"
    run(capsys, "construct", "--p", "2", "--r", "3", "--h", "2", "--delta", "1",
        "--n", "4", "--out", str(out))
    msg = tmp_path / "msg.txt"
    msg.write_text("\n".join(str(i % 64) for i in range(1, 7)) + "\n")
    cw = tmp_path / "cw.txt"
    code, _, _ = run(capsys, "encode", "--in", str(out), str(msg), "--out", str(cw))
    assert code == 0
    rec = tmp_path / "rec.txt"
    code, _, _ = run(capsys, "decode", "--in", str(out), str(cw),
                     "--erasures", "0,3,6,9,1,11", "--out", str(rec))
    assert code == 0
    assert rec.read_text() == cw.read_text()


def test_encode_wrong_message_length_exits_2(tmp_path, capsys):
    out = tmp_path / "c.mr"
    run(capsys, "construct", "--p", "2", "--r", "2", "--h", "1", "--delta", "1",
        "--n", "3", "--out", str(out))
    msg = tmp_path / "msg.txt"
    msg.write_text("1\n0\n1\n")
    before = sorted(tmp_path.iterdir())
    code, stdout, err = run(capsys, "encode", "--in", str(out), str(msg),
                            "--out", str(tmp_path / "cw.txt"))
    assert (code, stdout) == (2, "")
    assert err.splitlines() == ["error: message must have k=2 symbols, got 3"]
    assert sorted(tmp_path.iterdir()) == before


def test_encode_zero_message(tmp_path, capsys):
    out = tmp_path / "c.mr"
    run(capsys, "construct", "--p", "2", "--r", "2", "--h", "1", "--delta", "1",
        "--n", "3", "--out", str(out))
    msg = tmp_path / "msg.txt"
    msg.write_text("0\n0\n")
    cw = tmp_path / "cw.txt"
    code, _, _ = run(capsys, "encode", "--in", str(out), str(msg), "--out", str(cw))
    assert code == 0
    assert fileio.parse_vector(cw.read_text()) == [0] * 6


def test_decode_no_erasures_identity(tmp_path, capsys):
    out = tmp_path / "c.mr"
    run(capsys, "construct", "--p", "2", "--r", "2", "--h", "1", "--delta", "1",
        "--n", "3", "--out", str(out))
    msg = tmp_path / "msg.txt"
    msg.write_text("1\n2\n")
    cw = tmp_path / "cw.txt"
    run(capsys, "encode", "--in", str(out), str(msg), "--out", str(cw))
    rec = tmp_path / "rec.txt"
    code, _, _ = run(capsys, "decode", "--in", str(out), str(cw), "--out", str(rec))
    assert code == 0
    assert rec.read_bytes() == cw.read_bytes()


def test_decode_undecodable_exit_1(tmp_path, capsys):
    out = tmp_path / "c.mr"
    run(capsys, "construct", "--p", "2", "--r", "2", "--h", "1", "--delta", "1",
        "--n", "3", "--out", str(out))
    msg = tmp_path / "msg.txt"
    msg.write_text("1\n2\n")
    cw = tmp_path / "cw.txt"
    run(capsys, "encode", "--in", str(out), str(msg), "--out", str(cw))
    code, stdout, _ = run(capsys, "decode", "--in", str(out), str(cw),
                          "--erasures", "0,1,2,3", "--out", str(tmp_path / "r.txt"))
    assert code == 1
    assert stdout.startswith("UNDECODABLE")
    assert "certificate" in stdout


def test_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.mr"
    bad.write_text("%MRLRC-MR v1\nnot a tower\n")
    code, _, err = run(capsys, "verify", "--in", str(bad))
    assert code == 2


@pytest.mark.parametrize("suffix, old, new", [
    (".mr", "\n1 1\n", "\n1 x\n"),
    (".mr.sdss", "\n1 0 0 0\n", "\n1 0 y 0\n"),
    (".mr", "ext_poly=1,1,", "ext_poly=z,1,"),
], ids=["matrix-row", "sdss-basis-vector", "tower-polynomial"])
def test_non_integer_entry_exit_2(tmp_path, capsys, suffix, old, new):
    out = tmp_path / "c.mr"
    run(capsys, "construct", "--p", "2", "--r", "2", "--h", "2", "--delta", "1",
        "--n", "4", "--out", str(out))
    good = Path(str(out)[: -len(".mr")] + suffix)
    text = good.read_text()
    assert old in text
    bad = tmp_path / ("bad" + suffix)
    bad.write_text(text.replace(old, new, 1))
    code, stdout, err = run(capsys, "verify", "--in", str(bad))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and "internal" not in err
    assert len(err.strip().splitlines()) == 1


def test_missing_file_exit_2(tmp_path, capsys):
    code, _, _ = run(capsys, "verify", "--in", str(tmp_path / "nope.mr"))
    assert code == 2


def test_construct_is_deterministic(tmp_path, capsys):
    args = ["construct", "--p", "3", "--r", "2", "--h", "2", "--delta", "1", "--n", "4"]
    a1, a2 = tmp_path / "one.mr", tmp_path / "two.mr"
    run(capsys, *args, "--out", str(a1))
    run(capsys, *args, "--out", str(a2))
    assert a1.read_bytes() == a2.read_bytes()
    assert (tmp_path / "one.mr.sdss").read_bytes() == (tmp_path / "two.mr.sdss").read_bytes()


def test_seedless_flag_accepted(tmp_path, capsys):
    code, _, _ = run(capsys, "construct", "--p", "2", "--r", "2", "--h", "1",
                     "--delta", "1", "--n", "3", "--seedless",
                     "--out", str(tmp_path / "c.mr"))
    assert code == 0


def _corrupt_copy(tmp_path, capsys):
    """A README-shaped code whose second Moore block copies the first."""
    from mrlrc.mr import MrParityCheck

    out = tmp_path / "c.mr"
    run(capsys, "construct", "--p", "2", "--r", "3", "--h", "2", "--delta", "1",
        "--n", "5", "--out", str(out))
    P = fileio.parse_mr(out.read_text())
    bad = tmp_path / "bad.mr"
    bad.write_text(fileio.format_mr(MrParityCheck(P.spec, P.A, [P.D[0], P.D[0]] + P.D[2:])))
    return out, bad


def _without_elapsed(text):
    return [line.rsplit(" elapsed=", 1)[0] for line in text.splitlines()]


def test_verify_verbose_reports_mode_on_stderr(tmp_path, capsys):
    out, bad = _corrupt_copy(tmp_path, capsys)
    cases = (
        ((), 0, "# verify mode=structured checks=95 patterns_covered=10935"),
        (("--sample", "200"), 0, "# verify mode=dense checks=203 patterns_covered=203"),
    )
    for extra, want, line in cases:
        code, quiet, err = run(capsys, "verify", "--in", str(out), *extra)
        assert (code, err) == (want, "")
        code, loud, err = run(capsys, "verify", "--in", str(out), *extra, "-v")
        assert code == want
        assert _without_elapsed(loud) == _without_elapsed(quiet)
        assert err.splitlines() == [line]
    code, quiet, _ = run(capsys, "verify", "--in", str(bad))
    code, loud, err = run(capsys, "verify", "--in", str(bad), "-v")
    assert code == 1 and loud.startswith("FAIL patterns_checked=2 ")
    assert _without_elapsed(loud) == _without_elapsed(quiet)
    # the structured checks that found the failure plus the dense walk's 2
    [line] = err.splitlines()
    assert line.startswith("# verify mode=dense checks=")
    assert line.endswith(" patterns_covered=2")
    assert int(line.split("checks=")[1].split()[0]) > 2


def test_verify_internal_error_exit_4(tmp_path, capsys, monkeypatch):
    from mrlrc import mr

    _, bad = _corrupt_copy(tmp_path, capsys)
    # a dense walk that wrongly accepts trips the disagreement assertion
    monkeypatch.setattr(mr, "verify_mr", lambda P, budget=None, sample=None:
                        mr.VerifyReport(True, 1, None, None, 0.0))
    code, stdout, err = run(capsys, "verify", "--in", str(bad))
    assert code == 4
    assert stdout == ""
    assert err.startswith("error: internal: ") and len(err.splitlines()) == 1


def test_verify_sdss_counts_subsets_until_failure(tmp_path, capsys):
    from mrlrc.sdss import SubspaceSystem

    out = tmp_path / "s.sdss"
    run(capsys, "sdss", "--p", "2", "--r", "2", "--h", "2", "--n", "5", "--out", str(out))
    code, stdout, _ = run(capsys, "verify", "--in", str(out))
    assert code == 0 and stdout.startswith("ok patterns_checked=10 ")
    S = fileio.parse_sdss(out.read_text())
    basis = list(S.basis)
    basis[2] = basis[1]  # (0,1), (0,2), (0,3), (0,4) pass; (1,2) is dependent
    bad = tmp_path / "bad.sdss"
    bad.write_text(fileio.format_sdss(
        SubspaceSystem(S.tower, S.n, S.r, S.h, basis, certified=True)))
    code, stdout, _ = run(capsys, "verify", "--in", str(bad))
    assert code == 1 and stdout.startswith("FAIL patterns_checked=5 ")


def test_verify_sdss_rejects_sample(tmp_path, capsys):
    out = tmp_path / "s.sdss"
    run(capsys, "sdss", "--p", "2", "--r", "2", "--h", "2", "--n", "5", "--out", str(out))
    code, stdout, err = run(capsys, "verify", "--in", str(out), "--sample", "3")
    assert code == 2 and stdout == ""
    assert err.startswith("error: --sample") and len(err.splitlines()) == 1


def test_verify_directory_exit_2(tmp_path, capsys):
    code, stdout, err = run(capsys, "verify", "--in", str(tmp_path))
    assert code == 2 and stdout == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_unexpected_exception_exit_4(capsys, monkeypatch):
    from mrlrc import cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._HANDLERS, "bounds", broken)
    code, stdout, err = run(capsys, "bounds", "--p", "2", "--n", "5", "--r", "3", "--h", "2")
    assert code == 4 and stdout == ""
    assert err == "error: internal: boom\n"


def test_sampled_certification_is_not_reported_as_certified(tmp_path, capsys, monkeypatch):
    from math import comb

    from mrlrc import sdss
    from mrlrc.gf import make_tower

    monkeypatch.setenv("MRLRC_BUDGET", "3")  # C(5, 2) = 10 subsets, so every 4th
    S = sdss.mds_construct(make_tower(2, 1, 4), 5, 2, 2)
    assert S.certified and S.certified_sample == len(range(0, comb(5, 2), 4)) == 3
    out = tmp_path / "c.mr"
    code, stdout, _ = run(capsys, "construct", "--p", "2", "--r", "2", "--h", "2",
                          "--delta", "1", "--n", "5", "--out", str(out))
    assert code == 0
    assert stdout.splitlines()[0] == "N=10 r=2 h=2 delta=1 ell=2^4 method=direct certified=0"
    assert (tmp_path / "c.mr.sdss").read_text().splitlines()[2] == "n=5 r=2 h=2 m=4 certified=0"
    code, stdout, _ = run(capsys, "sdss", "--p", "2", "--r", "2", "--h", "2", "--n", "5",
                          "--out", str(tmp_path / "s.sdss"))
    assert code == 0 and stdout.rstrip().endswith("certified=0")
    monkeypatch.delenv("MRLRC_BUDGET")
    code, stdout, _ = run(capsys, "sdss", "--p", "2", "--r", "2", "--h", "2", "--n", "5",
                          "--out", str(tmp_path / "s.sdss"))
    assert code == 0 and stdout.rstrip().endswith("certified=1")


def _encoded(tmp_path, capsys, p):
    """A small code over characteristic p and one encoded word: (code, cw)."""
    code_path = tmp_path / "c.mr"
    run(capsys, "construct", "--p", str(p), "--r", "2", "--h", "2", "--delta", "1",
        "--n", "4", "--out", str(code_path))
    P = fileio.parse_mr(code_path.read_text())
    msg = tmp_path / "msg.txt"
    msg.write_text("\n".join("1" for _ in range(P.spec.k)) + "\n")
    cw = tmp_path / "cw.txt"
    assert run(capsys, "encode", "--in", str(code_path), str(msg), "--out", str(cw))[0] == 0
    return code_path, fileio.parse_vector(cw.read_text())


def test_decode_malformed_erasures_exit_2(tmp_path, capsys):
    code_path, cw = _encoded(tmp_path, capsys, 2)
    rx = tmp_path / "rx.txt"
    rx.write_text(fileio.format_vector(cw))
    code, stdout, err = run(capsys, "decode", "--in", str(code_path), str(rx),
                            "--erasures", "1,x", "--out", str(tmp_path / "r.txt"))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and "internal" not in err
    assert len(err.strip().splitlines()) == 1


def test_codec_symbols_outside_the_field_exit_2(tmp_path, capsys):
    for p in (2, 3):
        code_path, cw = _encoded(tmp_path, capsys, p)
        P = fileio.parse_mr(code_path.read_text())
        msg = tmp_path / "big-msg.txt"
        msg.write_text("\n".join(["1000000"] + ["1"] * (P.spec.k - 1)) + "\n")
        code, _, err = run(capsys, "encode", "--in", str(code_path), str(msg),
                           "--out", str(tmp_path / "o.txt"))
        assert code == 2 and "internal" not in err
        for bad in (1000000, P.spec.ell, -1):
            rx = tmp_path / "rx.txt"
            rx.write_text(fileio.format_vector([bad] + cw[1:]))
            for erasures in ("", "0", "1"):
                code, stdout, err = run(capsys, "decode", "--in", str(code_path), str(rx),
                                        "--erasures", erasures,
                                        "--out", str(tmp_path / "r.txt"))
                assert code == 2, (p, bad, erasures)
                assert "UNDECODABLE" not in stdout and "internal" not in err


def _child(args, cwd, **kwargs):
    src = Path(mrlrc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=60, **kwargs)


def test_python_m_mrlrc_runs_the_cli(tmp_path, capsys):
    run(capsys, "construct", "--p", "2", "--r", "3", "--h", "2", "--delta", "1",
        "--n", "5", "--out", str(tmp_path / "c.mr"))
    lines = []
    for module in ("mrlrc", "mrlrc.cli"):
        proc = _child(["-m", module, "verify", "--in", "c.mr"], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, "")
        lines.append(_without_elapsed(proc.stdout))
    assert lines[0] == lines[1] == ["ok patterns_checked=10935"]


def test_cli_import_leaves_out_dataclasses_and_pathlib(tmp_path):
    # each command starts a fresh interpreter: these modules and what
    # they import would add tens of milliseconds to every one of them
    heavy = ["dataclasses", "pathlib", "inspect", "ast", "dis", "tokenize"]
    code = f"import sys, mrlrc.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = _child(["-S", "-c", code], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"


def test_cli_import_loads_only_these_standard_modules(tmp_path):
    # each command starts a fresh interpreter: functools, collections,
    # operator and types (with keyword and reprlib) once took about as
    # long to import as mrlrc's own modules
    code = (f"import sys; sys.path.insert(0, {str(Path(mrlrc.__file__).parents[1])!r}); "
            "before = set(sys.modules); import mrlrc.cli; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.partition('.')[0] != 'mrlrc'))")
    proc = _child(["-I", "-S", "-c", code], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == str(sorted([
        "os", "os.path", "posixpath", "genericpath", "stat", "_stat", "_collections_abc",
        "itertools", "math", "bisect", "_bisect", "_operator", "__future__",
    ])) + "\n"


def test_parse_returns_a_simple_namespace():
    import types

    from mrlrc import cli

    args = cli._parse(["verify", "--in", "x.mr"])
    assert type(args) is types.SimpleNamespace
    assert args == types.SimpleNamespace(**vars(args)) and vars(args)["cmd"] == "verify"


def test_file_errors_print_the_os_message(tmp_path, capsys):
    missing = tmp_path / "nope.mr"
    code, stdout, err = run(capsys, "verify", "--in", str(missing))
    assert (code, stdout) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"
    out = tmp_path / "no-dir" / "c.mr"
    code, stdout, err = run(capsys, "sdss", "--p", "2", "--r", "2", "--h", "2", "--n", "5",
                            "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"


def test_verify_sample_below_one_exits_2_before_the_local_gate(tmp_path, capsys):
    from mrlrc.linalg import FieldMatrix
    from mrlrc.mr import MrParityCheck

    out, _ = _corrupt_copy(tmp_path, capsys)
    P = fileio.parse_mr(out.read_text())
    A = FieldMatrix(P.A.tower, P.A.level, 1, 3, [1, 1, 0])  # column 2 is zero
    bad = tmp_path / "non-mds.mr"
    bad.write_text(fileio.format_mr(MrParityCheck(P.spec, A, P.D)))
    code, stdout, _ = run(capsys, "verify", "--in", str(bad))
    assert code == 1 and "reason: local parity block is not MDS" in stdout
    for path in (out, bad):
        for sample in ("0", "-3"):
            code, stdout, err = run(capsys, "verify", "--in", str(path), "--sample", sample)
            assert (code, stdout) == (2, "")
            assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_decode_without_erasures_checks_the_word(tmp_path, capsys):
    code_path, cw = _encoded(tmp_path, capsys, 2)
    for word, want in ((cw, 0), ([cw[0] ^ 1] + cw[1:], 1)):
        rx = tmp_path / "rx.txt"
        rx.write_text(fileio.format_vector(word))
        rec = tmp_path / "rec.txt"
        rec.unlink(missing_ok=True)
        code, stdout, err = run(capsys, "decode", "--in", str(code_path), str(rx),
                                "--erasures", "", "--out", str(rec))
        assert (code, err) == (want, "")
        if want:
            assert stdout.splitlines() == [
                "UNDECODABLE", "reason: known coordinates are inconsistent"]
            assert not rec.exists()
        else:
            assert stdout == "decoded erasures=0\n"
            assert fileio.parse_vector(rec.read_text()) == cw


def test_sample_past_2_63_counts_by_ceiling_division(tmp_path, capsys):
    from mrlrc.mr import pattern_count

    out = tmp_path / "gv32.mr"
    run(capsys, "construct", "--p", "2", "--r", "4", "--h", "2", "--delta", "1",
        "--n", "32", "--sdss", "gv", "--out", str(out))
    total = pattern_count(fileio.parse_mr(out.read_text()).spec)
    sample = 10**19
    step = total // sample
    want = -(-total // step)
    assert want > 2**63
    code, stdout, err = run(capsys, "verify", "--in", str(out), "--sample", str(sample))
    assert (code, err) == (0, "")
    assert _without_elapsed(stdout) == [f"ok patterns_checked={want} sampled={want}"]


def _wide_code(path, h):
    """A hand-built code over F_{2^16} with delta = 1, n = h and r = h + 1,
    its alphas drawn from a seeded generator."""
    import random

    from mrlrc.mr import MrCodeSpec, MrParityCheck, local_parity_check, moore_matrix

    t = make_tower(2, 1, 16)
    spec = MrCodeSpec(n=h, r=h + 1, h=h, delta=1, tower=t)
    rnd = random.Random(h)
    D = [moore_matrix(t, [rnd.randrange(1, 2**16) for _ in range(spec.r)], h)
         for _ in range(spec.n)]
    path.write_text(fileio.format_mr(MrParityCheck(spec, local_parity_check(t, spec.r, 1), D)))


def test_sampled_verify_of_a_wide_h10_code_returns_a_verdict(tmp_path):
    # the code has 2^9 compositions of h = 10 and about 10^18 supports:
    # counting them must not list the 10^10 tuples of parts up to 10
    _wide_code(tmp_path / "w10.mr", 10)
    proc = _child(["-m", "mrlrc", "verify", "--in", "w10.mr", "--sample", "100"], tmp_path)
    assert proc.returncode in (0, 1) and proc.stderr == ""
    assert proc.stdout.startswith(("ok patterns_checked=", "FAIL patterns_checked="))


# -- the option table against the argparse parser it replaced -----------------
#
# _build_parser and its helpers are the argparse front end mrlrc used
# before the option table, kept verbatim as the reference: every valid
# argv must give the same attributes, and every argv it refuses must make
# main return 2.


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


def _reference(argv):
    """argparse's reading of argv: the attributes it sets, or its exit code."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


def _subcommands():
    """command -> its actions in the reference parser, --help left out."""
    ap = _build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return {cmd: [a for a in p._actions if a.dest != "help"] for cmd, p in sub.choices.items()}


SUBCOMMANDS = _subcommands()


def _names(cmd):
    """option string -> every string that names it in cmd: itself and, for
    a long option, each prefix no other option string of cmd starts with."""
    strings = ["-h", "--help"] + [s for a in SUBCOMMANDS[cmd] for s in a.option_strings]

    def names(s):
        prefixes = [s[:k] for k in range(3, len(s))] if s.startswith("--") else []
        return [s] + [p for p in prefixes
                      if p not in strings and [t for t in strings if t.startswith(p)] == [s]]

    return {s: names(s) for s in strings}


def _ambiguous(cmd):
    strings = ["--help"] + [s for a in SUBCOMMANDS[cmd] for s in a.option_strings]
    return sorted({s[:k] for s in strings for k in range(3, len(s))
                   if s[:k] not in strings and sum(t.startswith(s[:k]) for t in strings) > 1})


def _argv_strategy(st):
    """Valid argv for every subcommand, as (command, items): each item is
    the tokens of one option or of the positional, in command-line order."""
    word = st.text(max_size=8).filter(lambda s: not s.startswith("-") and s not in SUBCOMMANDS)
    dashed = st.sampled_from(["-1", "-25", "-.5", "-2.5", "-x y", "-", ""])
    integer = st.one_of(st.integers(-10**6, 10**6).map(str),
                        st.sampled_from([" 7", "+7", "1_000", "-0", "007"]))

    def value(action):
        if action.choices:
            return st.sampled_from(action.choices)
        return integer if action.type is int else st.one_of(word, dashed)

    @st.composite
    def items(draw, cmd):
        names = _names(cmd)
        out, positional = [], None
        for action in SUBCOMMANDS[cmd]:
            if not action.option_strings:
                positional = [draw(st.one_of(word, dashed))]
                continue
            times = draw(st.integers(1 if action.required else 0, 2))
            for _ in range(times):
                name = draw(st.sampled_from([n for s in action.option_strings
                                             for n in names[s]]))
                if action.nargs == 0:
                    out.append([name])
                elif draw(st.booleans()):
                    out.append([f"{name}={draw(value(action))}"])
                else:
                    out.append([name, draw(value(action))])
        out = draw(st.permutations(out))
        if positional is not None:
            if draw(st.booleans()):  # after "--" it may look like an option
                out.append(["--", draw(st.sampled_from(["-m.txt", "--out", "-v", "x"]))])
            else:
                out.insert(draw(st.integers(0, len(out))), positional)
        return cmd, out

    return st.sampled_from(sorted(SUBCOMMANDS)).flatmap(items)


def _flat(cmd, items):
    return [cmd] + [tok for item in items for tok in item]


def test_option_table_reads_valid_argv_as_argparse_did():
    hyp = pytest.importorskip("hypothesis")
    from mrlrc import cli

    @hyp.settings(max_examples=600, deadline=None)
    @hyp.given(_argv_strategy(hyp.strategies))
    def check(case):
        argv = _flat(*case)
        want = _reference(argv)
        assert isinstance(want, dict), (argv, want)
        assert vars(cli._parse(argv)) == want

    check()


def _malformed(st):
    """An argv that argparse refused, made from a valid one: (kind, argv)."""

    @st.composite
    def spoil(draw, case):
        cmd, items = case
        actions = SUBCOMMANDS[cmd]
        at = draw(st.integers(0, len(items)))
        kinds = ["no command", "unknown command", "unknown option", "missing required",
                 "non-integer", "missing value", "value on a flag", "extra positional"]
        if _ambiguous(cmd):
            kinds.append("ambiguous option")
        if any(a.choices for a in actions):
            kinds.append("bad choice")
        kind = draw(st.sampled_from(kinds))
        if kind == "no command":  # the options alone could name --help
            return kind, draw(st.sampled_from([[], ["-v"], ["--budget=3"], ["--", "x"]]))
        if kind == "unknown command":
            return kind, _flat(draw(st.sampled_from(["build", "verif", "Verify", "-3", "--"])),
                               items)
        if kind == "missing required":
            gone = draw(st.sampled_from([a.option_strings[0] for a in actions
                                         if a.required and a.option_strings]))
            items = [i for i in items if i[0].split("=")[0] not in _names(cmd)[gone]]
        elif kind == "missing value":  # before the positional, it leaves that missing
            takes = [s for a in actions if a.option_strings and a.nargs != 0
                     for s in a.option_strings]
            items = items[:at] + [[draw(st.sampled_from(takes))]] + items[at:]
        else:
            new = {
                "unknown option": st.sampled_from([["--bogus"], ["--bogus", "1"],
                                                   ["--bogus=1"], ["-x"], ["---in", "x"]]),
                "non-integer": st.tuples(
                    st.sampled_from([s for a in actions if a.type is int
                                     for s in a.option_strings]),
                    st.sampled_from(["x", "1.5", "", "0x10", "1e3", "-1.5"])).map(list),
                "value on a flag": st.sampled_from([["--verbose=1"], ["--seedless="], ["-v=1"],
                                                    ["-vx"], ["--verb=yes"]]),
                "extra positional": st.sampled_from([["extra"], ["-1"], [""]]),
                "ambiguous option": st.tuples(st.sampled_from(_ambiguous(cmd) or ["-"]),
                                              st.just("1")).map(list),
                "bad choice": st.tuples(
                    st.sampled_from([s for a in actions if a.choices for s in a.option_strings]),
                    st.sampled_from(["best", "MDS", "direct "])).map(list),
            }[kind]
            items = items[:at] + [draw(new)] + items[at:]
        return kind, _flat(cmd, items)

    return _argv_strategy(st).flatmap(spoil)


def test_option_table_refuses_what_argparse_refused():
    hyp = pytest.importorskip("hypothesis")
    from mrlrc import cli

    @hyp.settings(max_examples=600, deadline=None)
    @hyp.given(_malformed(hyp.strategies))
    def check(case):
        kind, argv = case
        assert _reference(argv) == 2, (kind, argv)
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
            # a handler that ran would leave a 0 behind
            mp.setattr(cli, "_HANDLERS", dict.fromkeys(cli._HANDLERS, lambda args: 0))
            code = main(argv)
        assert (code, out.getvalue()) == (2, ""), (kind, argv)
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (kind, argv, lines)

    check()


BOUNDS = ["bounds", "--p", "2", "--n", "5", "--r", "3", "--h", "2"]


@pytest.mark.parametrize("argv", [
    [],
    ["build", "--p", "2"],
    [*BOUNDS, "--bogus"],
    ["construct", "--s", "gv"],
    BOUNDS[:-2],
    ["construct", "--p", "2", "--r", "x"],
    ["sdss", "--p", "2", "--r", "2", "--h", "2", "--n", "5", "--sdss", "best", "--out", "s"],
    ["verify", "--in"],
    ["verify", "--in", "c.mr", "--verbose=1"],
    ["encode", "--in", "c.mr", "m.txt", "n.txt", "--out", "cw.txt"],
], ids=["no-command", "unknown-command", "unknown-option", "ambiguous-option",
        "missing-required", "non-integer", "bad-choice", "missing-value", "value-on-flag",
        "extra-positional"])
@pytest.mark.parametrize("module", ["mrlrc.cli", "mrlrc"])
def test_usage_errors_are_one_line_and_exit_2(tmp_path, module, argv):
    proc = _child(["-m", module, *argv], tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("cmd", [None, *SUBCOMMANDS])
def test_help_lists_every_option(capsys, cmd):
    for flag in ("--help", "-h"):
        code, stdout, err = run(capsys, *([cmd] if cmd else []), flag)
        assert (code, err) == (0, "")
        words = stdout.split()
        for name in [cmd] if cmd else SUBCOMMANDS:
            assert name in words
            for action in SUBCOMMANDS[name]:
                assert (action.option_strings or [action.dest])[-1] in words


def test_cli_import_leaves_out_argparse_and_what_it_loads(tmp_path):
    heavy = ["argparse", "re", "gettext", "locale", "shutil", "enum"]
    code = (f"import sys; sys.path.insert(0, {str(Path(mrlrc.__file__).parents[1])!r}); "
            f"import mrlrc.cli; print([m for m in {heavy!r} if m in sys.modules])")
    proc = _child(["-I", "-S", "-c", code], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"
