"""Tests of the benchmark itself: negative controls for every check and
for the timing, the tracer's coverage, the oracle field, and
BENCHMARK.json against the code.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from cli_work import Certify, Construct, check_counterexample  # noqa: E402
from codec_work import Code, Stripes, _build_codes, run_batch  # noqa: E402
from common import Checks, check_construct_output, construct_in_process, run_child  # noqa: E402
from oracle import OracleField, parity_rows  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracer import TARGETS, Tracer, summarize  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text())
BY_LABEL = {c["label"]: c for c in SPEC["construct"]}


def _spec_with(**changes):
    spec = copy.deepcopy(SPEC)
    spec.update(changes)
    return spec


# -- negative controls: each wrong output is counted as a failure -----------


def test_wrong_digest_is_a_failure(tmp_path):
    out = tmp_path / "readme.mr"
    assert construct_in_process(BY_LABEL["readme"], out) is None
    out.write_text(out.read_text() + "0\n")
    assert "digest" in check_construct_output(BY_LABEL["readme"], 0, "\n".join(
        BY_LABEL["readme"]["stdout"]) + "\n", out)


def test_wrong_digest_counted_by_construct_pass(tmp_path):
    cmd = copy.deepcopy(BY_LABEL["readme"])
    cmd["sha256"]["mr"] = "0" * 64
    w = Construct(ROOT, tmp_path, 1, _spec_with(construct=[cmd]), SpeedMeter())
    w.run_pass(False)
    assert (w.checks.attempted, w.checks.failed) == (1, 1)


def test_wrong_summary_line_is_a_failure(tmp_path):
    out = tmp_path / "readme.mr"
    assert construct_in_process(BY_LABEL["readme"], out) is None
    assert "stdout" in check_construct_output(BY_LABEL["readme"], 0, "certified=1\n", out)
    assert "exit code" in check_construct_output(BY_LABEL["readme"], 1, "", out)


def test_wrong_verdict_counted_by_certify_pass(tmp_path):
    cheap = [c for c in SPEC["certify"] if c["label"] in ("readme-n7-sdss", "corrupt")]
    flipped = copy.deepcopy(cheap)
    for c in flipped:
        c["verdict"] = "FAIL" if c["verdict"] == "ok" else "ok"
    w = Certify(ROOT, tmp_path, 1, _spec_with(certify=cheap), SpeedMeter())
    w.setup()
    w.run_pass(False)
    assert w.checks.failed == 0
    w_bad = Certify(ROOT, tmp_path, 1, _spec_with(certify=flipped), SpeedMeter())
    w_bad.setup()
    before = w_bad.checks.attempted
    w_bad.run_pass(False)
    assert w_bad.checks.attempted - before == 2
    assert w_bad.checks.failed == 2


def test_independent_counterexample_is_a_failure(tmp_path):
    from mrlrc import fileio

    out = tmp_path / "readme.mr"
    construct_in_process(BY_LABEL["readme"], out)
    P = fileio.parse_mr(out.read_text())
    # a maximal pattern of a certified MR code is never dependent
    stdout = "FAIL\ncounterexample: per_group=((0,), (3,), (6,), (9,), (12,)) extra=(1, 4)\n"
    assert check_counterexample(P, stdout) == "counterexample columns are independent"
    assert "not a maximal" in check_counterexample(
        P, "counterexample: per_group=((0,),) extra=(1, 4)\n")
    assert check_counterexample(P, "FAIL\n") == "FAIL without a counterexample line"


@pytest.mark.parametrize("name", ["repair", "degraded"])
def test_wrong_word_counted_by_codec_batch(tmp_path, monkeypatch, name):
    import mrlrc

    monkeypatch.chdir(tmp_path)
    checks = Checks()
    codes = {label: Code(P, G) for label, (P, G) in _build_codes(SPEC, checks).items()}
    stripes = Stripes(name, codes, random.Random(1))
    meter = SpeedMeter()
    meter.burst()
    run_batch(stripes, meter, checks)
    assert checks.failed == 0 and checks.attempted > 2
    real = mrlrc.erase_decode

    def corrupting(P, received, erased):
        result = real(P, received, erased)
        if result.ok:
            result.codeword = list(result.codeword)
            result.codeword[erased[0]] ^= 1
        elif result.certificate is not None:
            result.certificate = [0] * len(result.certificate)
        return result

    monkeypatch.setattr(mrlrc, "erase_decode", corrupting)
    before = checks.attempted
    res = run_batch(stripes, meter, checks)
    assert checks.attempted - before == res.ops
    assert checks.failed == res.ops


# -- timing: nothing is pre-paid, and an injected slowdown shows in full ------


def _busy(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_child_loads_nothing_mrlrc_imports_before_the_clock(tmp_path):
    result, _stdout, stderr = run_child(ROOT, tmp_path, ["cli"] + SPEC["warmup"]["args"], False)
    assert result is not None, stderr
    assert result["rc"] == 0 and 0 < result["import_s"] < result["elapsed"]
    early = set(result["preloaded"])
    for name in ("mrlrc", "dataclasses", "pathlib", "argparse", "inspect", "json", "re",
                 "os", "enum", "functools", "itertools", "math"):
        assert name not in early, name


def test_injected_decode_delay_shows_after_scaling(tmp_path, monkeypatch):
    import mrlrc

    monkeypatch.chdir(tmp_path)
    checks = Checks()
    codes = {label: Code(P, G) for label, (P, G) in _build_codes(SPEC, checks).items()}
    stripes = Stripes("degraded", codes, random.Random(1))
    meter = SpeedMeter()
    meter.burst()
    delay = 0.002
    real = mrlrc.erase_decode

    def slowed(*args):
        _busy(delay)
        return real(*args)

    grown, expected = [], []
    for _ in range(3):
        base = run_batch(stripes, meter, checks)
        monkeypatch.setattr(mrlrc, "erase_decode", slowed)
        slow = run_batch(stripes, meter, checks)
        monkeypatch.setattr(mrlrc, "erase_decode", real)
        grown.append(statistics.median(slow.op_s) - statistics.median(base.op_s))
        expected.append(delay * meter.factors[-1])  # the delay at the reference speed
    grown, expected = statistics.median(grown), statistics.median(expected)
    assert abs(grown - expected) < 0.25 * expected, (grown, expected)
    assert checks.failed == 0


def test_injected_command_delay_shows_after_scaling(tmp_path):
    slowed_root = tmp_path / "slowed"
    shutil.copytree(ROOT / "perfbench", slowed_root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src" / "mrlrc", slowed_root / "src" / "mrlrc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    delay = 0.2
    with open(slowed_root / "src" / "mrlrc" / "cli.py", "a") as fh:
        fh.write(f"""

_unslowed_main = main


def main(argv=None):
    from time import perf_counter

    end = perf_counter() + {delay}
    while perf_counter() < end:
        pass
    return _unslowed_main(argv)
""")
    work = tmp_path / "work"
    work.mkdir()
    argv = ["cli"] + SPEC["warmup"]["args"]

    def scaled(root):
        result, _stdout, stderr = run_child(root, work, argv, False)
        assert result is not None and result["rc"] == 0, stderr
        return result["elapsed"] * result["factor"], result["factor"]

    runs = [(scaled(ROOT), scaled(slowed_root)) for _ in range(3)]
    grown = statistics.median(s[0] - b[0] for b, s in runs)
    expected = delay * statistics.median(s[1] for _, s in runs)
    assert abs(grown - expected) < 0.25 * expected, (grown, expected)


# -- the tracer patches the names callers use ---------------------------------


def test_tracer_covers_names_imported_elsewhere(tmp_path):
    import mrlrc
    from mrlrc import fileio, linalg, mr

    out = tmp_path / "readme.mr"
    construct_in_process(BY_LABEL["readme"], out)
    originals = {name: getattr(sys.modules[m], f) for name, (m, f) in TARGETS.items()}
    tracer = Tracer(op="pass")
    tracer.install()
    try:
        assert mr.kernel is linalg.kernel
        assert mr.kernel.__wrapped__ is originals["linalg.kernel"]
        assert mrlrc.encode is mr.encode
        P = fileio.parse_mr(out.read_text())
        G = mrlrc.generator_from_parity(P)
        cw = mrlrc.encode(G, [1] * G.rows)
        assert mrlrc.erase_decode(P, cw, [0, 3]).codeword == cw
    finally:
        tracer.uninstall()
    for name, (m, f) in TARGETS.items():
        assert getattr(sys.modules[m], f) is originals[name]
    names = summarize([("pass", tracer.spans)])["pass"]
    for name in ("fileio.parse_mr", "mr.generator_from_parity", "mr.encode",
                 "linalg.vec_mat", "mr.erase_decode", "linalg.kernel",
                 "linalg.rref", "linalg.solve"):
        assert names[name]["calls"] >= 1, name
    assert tracer.counts["mul"] > 0


# -- the oracle field agrees with mrlrc on random products --------------------


@pytest.mark.parametrize("p,m", [(2, 16), (3, 8), (2, 6)])
def test_oracle_field_matches_mrlrc(p, m):
    from mrlrc.gf import make_tower

    t = make_tower(p, 1, m)
    F = t.field("top")
    O = OracleField(p, t.ext_poly)
    rng = random.Random(0)
    for _ in range(500):
        x, y = rng.randrange(F.size), rng.randrange(F.size)
        assert O.mul(x, y) == F.mul(x, y)
        assert O.dot_is_zero([x, 1], [1, F.neg(x)])


def test_parity_rows_match_assembled_matrix(tmp_path):
    from mrlrc import fileio

    out = tmp_path / "mds-3-8.mr"
    construct_in_process(BY_LABEL["mds-3-8"], out)
    P = fileio.parse_mr(out.read_text())
    assert parity_rows(P) == P.H.to_rows()


# -- BENCHMARK.json matches what the benchmark prints -------------------------


def test_benchmark_json_lists_every_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = layers.build([c["label"] for c in SPEC["construct"]],
                           [c["label"] for c in SPEC["certify"]])
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (m.name, m.unit, m.better) for m in metrics]
    assert [w["name"] for w in bench["workloads"]] == list(layers.ALL)
    names = [m["name"] for m in bench["end_to_end"]]
    assert names == ["setup_s", "pass_s", "ops_per_s", "op_p50_ms", "op_p99_ms",
                     "peak_rss_mb"]
