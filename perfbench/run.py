"""Benchmark of mrlrc: four workloads, end-to-end metrics or a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload construct|certify|repair|degraded \
        --seed N --seconds S --trace 0|1

All work on mrlrc runs in child processes (child.py), one at a time.
With --trace 0 the last line of stdout is a JSON object with every
end-to-end metric; with --trace 1 it holds every per-layer metric
instead, measured by wrapping the public functions of each layer (see
tracer.py and layers.py).  Lines before it, prefixed with '#', give the
environment, the sample counts and the first failed checks.  Times are
scaled to a fixed reference speed (see speed.SpeedMeter); with --trace 0
the '#' lines also give every end-to-end metric unscaled.  Each run
works in a fresh directory under .bench_build/perfbench, removed at the
end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from cli_work import Certify, Construct  # noqa: E402
from codec_work import CodecWorkload  # noqa: E402
from common import percentile  # noqa: E402
import layers  # noqa: E402
from speed import SpeedMeter  # noqa: E402
from tracer import summarize  # noqa: E402

SETUP_REPEATS = 3
PROBE_SAMPLES = 20000


def make_workload(name: str, tmp: Path, seed: int, spec: dict, meter: SpeedMeter):
    if name == "construct":
        return Construct(ROOT, tmp, seed, spec, meter)
    if name == "certify":
        return Certify(ROOT, tmp, seed, spec, meter)
    return CodecWorkload(ROOT, tmp, seed, spec, meter, name)


def measure(w, seconds: float, trace: bool) -> list:
    """Rounds of work (a CLI pass, or one codec worker's batches) while
    one more round of average length would end nearer to `seconds`."""
    passes = []
    rounds = 0
    start = perf_counter()
    while True:
        passes += w.run_pass(trace)
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / rounds / 2 >= seconds:
            return passes


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def by_label(passes: list, attr: str = "op_s") -> dict[str, list[float]]:
    """Per command (CLI workloads) or per code (codec workloads), the
    times in `attr` of every pass."""
    out = {}
    for p in passes:
        for label, t in zip(p.labels, getattr(p, attr)):
            out.setdefault(label, []).append(t)
    return out


def latency_ms(passes: list, q: float, per_command: bool) -> float:
    """On the CLI workloads, the q-th percentile over the commands of each
    command's mean over the run's passes (the commands differ by two
    orders of magnitude, and pooled runs of neighbouring commands would
    interleave around a percentile; with three or four passes a run, the
    mean varies less between runs than the median).  On the codec
    workloads, the mean over the codes of each code's q-th percentile
    over its erase_decode calls, so that every code weighs the same."""
    groups = by_label(passes).values()
    if per_command:
        return 1000 * percentile([statistics.mean(v) for v in groups], q)
    return 1000 * statistics.mean(percentile(v, q) for v in groups)


def end_to_end(setups: list[float], passes: list, per_command: bool) -> dict:
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (statistics.median(p.seconds for p in passes), "s"),
        "ops_per_s": (sum(p.ops for p in passes) / sum(p.seconds for p in passes), "1/s"),
        "op_p50_ms": (latency_ms(passes, 0.50, per_command), "ms"),
        "op_p99_ms": (latency_ms(passes, 0.99, per_command), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def gf_probe(seed: int) -> tuple[dict, dict]:
    """Tower build time from a cleared cache (make_tower plus the first
    Field.tables()) and ns per add/sub/mul/inv on each tower's top field,
    through the public Field methods on seeded operands.  Unscaled."""
    from mrlrc.gf import make_tower

    rng = random.Random(f"probe-{seed}")
    tower_s, probe = {}, {}
    for tw in layers.TOWERS:
        p, a, m = map(int, tw.split("-"))
        make_tower.cache_clear()
        t0 = perf_counter()
        F = make_tower(p, a, m).field("top")
        F.tables()
        tower_s[tw] = perf_counter() - t0
        pairs = [(rng.randrange(F.size), rng.randrange(1, F.size))
                 for _ in range(PROBE_SAMPLES)]
        row = {"samples": len(pairs)}
        for op in ("add", "sub", "mul"):
            f = getattr(F, op)
            t0 = perf_counter()
            for x, y in pairs:
                f(x, y)
            row[op] = (perf_counter() - t0) / len(pairs) * 1e9
        inv = F.inv
        t0 = perf_counter()
        for _, y in pairs:
            inv(y)
        row["inv"] = (perf_counter() - t0) / len(pairs) * 1e9
        probe[tw] = row
    return tower_s, probe


def write_trace(w, path: Path) -> None:
    """Every span of the traced run, one JSON object per line."""
    with open(path, "w") as fh:
        for proc, (phase, result) in enumerate(w.child_traces):
            for name, t0, t1, parent, op, work in result["spans"]:
                fh.write(json.dumps({"process": proc, "phase": phase, "op": op,
                                     "name": name, "start": t0, "end": t1,
                                     "parent": parent, "work": work}) + "\n")


def traced_run(w, args, spec) -> tuple[dict, list[str], str]:
    """Untraced passes for half the time, then a traced set-up and traced
    passes for the rest.  Span and count figures are per traced set-up
    plus one average traced pass; the per-command times come from the
    untraced passes."""
    w.setup(False)
    untraced = measure(w, args.seconds / 2, False)
    w.setup(True)
    traced = measure(w, args.seconds / 2, True)
    n = len(traced)

    phases = summarize([(phase, r["spans"]) for phase, r in w.child_traces])
    spans = {}
    for phase, scale in (("setup", 1.0), ("pass", 1.0 / n)):
        for name, s in phases[phase].items():
            acc = spans.setdefault(name, dict.fromkeys(s, 0))
            for key, v in s.items():
                acc[key] += v * scale
    counts = {op: 0.0 for op in ("add", "sub", "mul", "inv")}
    for phase, r in w.child_traces:
        for op in counts:
            counts[op] += r["counts"][op] / (n if phase == "pass" else 1)

    decodes = phases["pass"].get("mr.erase_decode", {}).get("calls", 0)
    kernels = phases["pass"].get("linalg.kernel", {}).get("calls", 0)
    codec_run = w.command == "codec"
    labelled = {} if codec_run else {f"{w.command}.{label}": v
                                     for label, v in by_label(untraced).items()}
    imports = [t for p in untraced for t in p.import_s]
    encode_s = by_label(untraced, "encode_s").values() if codec_run else []
    tower_s, probe = gf_probe(args.seed)
    codec = w.shares()
    codec["encode_p50_ms"] = (1000 * statistics.mean(percentile(v, 0.5) for v in encode_s)
                              if encode_s else 0.0)
    agg = {
        "spans": spans,
        "counts": counts,
        "probe": probe,
        "tower_s": tower_s,
        "kernel_per_decode": kernels / decodes if decodes else 0.0,
        "cli": {k: statistics.mean(v) for k, v in labelled.items()},
        "cli_import_s": statistics.median(imports) if imports else 0.0,
        "cli_runs": len(imports),
        "codec": codec,
        "overhead": statistics.median(p.seconds for p in traced)
        / statistics.median(p.seconds for p in untraced) - 1.0,
        "traced_passes": n,
    }
    metrics = layers.build([c["label"] for c in spec["construct"]],
                           [c["label"] for c in spec["certify"]])
    values = {m.name: {"value": m.value(agg), "unit": m.unit} for m in metrics}
    samples = (f"untraced_passes={len(untraced)} traced_passes={n} "
               f"traced_processes={len(w.child_traces)} probe_samples={PROBE_SAMPLES}")
    return values, layers.missing(metrics, agg, w.name), samples


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=layers.ALL, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mrlrc" / "__init__.py").is_file():
        print(f"error: no mrlrc sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mrlrc

    if Path(mrlrc.__file__).resolve().parent != (src / "mrlrc").resolve():
        print(f"error: mrlrc imported from {mrlrc.__file__}, not {src}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    work_root = ROOT / ".bench_build" / "perfbench"
    work_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        meter = SpeedMeter()  # collects the children's scale factors
        w = make_workload(args.workload, Path(tmp), args.seed, spec, meter)
        if args.trace:
            metrics, missing, samples = traced_run(w, args, spec)
            unscaled = {}
            trace_path = work_root / f"trace-{args.workload}-{args.seed}.jsonl"
            write_trace(w, trace_path)
        else:
            setups = [w.setup() for _ in range(SETUP_REPEATS)]
            passes = measure(w, args.seconds, False)
            per_command = w.command != "codec"
            metrics, missing = end_to_end([s for s, _ in setups], passes, per_command), []
            unscaled = end_to_end([r for _, r in setups], [p.unscaled() for p in passes],
                                  per_command)
            samples = (f"setups={len(setups)} passes={len(passes)} "
                       f"ops={sum(p.ops for p in passes)} "
                       f"latency_samples={sum(map(len, by_label(passes).values()))} "
                       f"speed_factor_median={statistics.median(meter.factors):.4f}")
    checks = w.checks
    print(f"# env python={platform.python_version()} nproc={os.cpu_count()} "
          f"cpu={_cpu_model()!r} workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# samples {samples}")
    if args.trace:
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    print(f"# error_rate={checks.failed}/{checks.attempted}")
    for err in checks.errors:
        print(f"# failed {err}")
    for name in missing:
        print(f"# self-check: {name} recorded no call on {args.workload}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for name, m in unscaled.items():  # the same run without the speed scaling
        print(f"# unscaled {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": checks.failed == 0 and not missing,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
