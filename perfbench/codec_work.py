"""The repair and degraded workloads: the library codec (mrlrc.encode and
mrlrc.erase_decode), run by worker processes one after another.

Both use the README BCH N=45 code over 2^16 and the p=3 (N=24, r=4,
h=2, delta=1) code over 3^8, the same message generator and the same
encode path.  Every batch holds as many stripes of one code as of the
other.  No source gives a traffic mix or a job size, so the even mix and
JOB_STRIPES are assumptions; the latency metrics weight the two codes
equally whatever the mix (see run.latency_ms).

repair: node-failure jobs.  Every stripe of a job loses the same one or
two positions, at most delta per group, so erasure sets repeat and each
group can be repaired locally.
degraded: every stripe gets a fresh maximal pattern (delta per group
plus h anywhere); one in ten gets one erasure more and must come back
UNDECODABLE.  Sets almost never repeat and none is locally repairable.

A run is spread over several worker processes because a process's speed
depends on how its memory happens to be laid out; a median over
processes evens that out, as the CLI workloads do with one process per
command.
"""

from __future__ import annotations

import random
from pathlib import Path
from time import perf_counter

from common import Checks, PassResult, construct_in_process, run_child
from oracle import OracleField, parity_rows
from speed import SpeedMeter

WORKER_SECONDS = 3.5
# stripes per node-failure job: an assumption, which puts the floor of
# codec.repeat_share at 7/8 on repair
JOB_STRIPES = 8
REPAIR_JOBS = ("mds-3-8", "concat-bch")
# (code, stripes, of which over-erased) per degraded batch
DEGRADED_MIX = (("mds-3-8", 10, 1), ("concat-bch", 10, 1))


class CodecWorkload:
    """Parent side: one child per set-up, one worker child per round."""

    command = "codec"

    def __init__(self, root: Path, tmp: Path, seed: int, spec: dict, meter: SpeedMeter,
                 name: str):
        self.name = name
        self.root = root
        self.tmp = tmp
        self.seed = seed
        self.meter = meter
        self.checks = Checks()
        self.child_traces: list[tuple[str, dict]] = []
        self.workers = 0
        self.counts = {"stripes": 0, "repeats": 0, "local": 0}

    def setup(self, trace: bool = False) -> tuple[float, float]:
        """Build the codes in a child; returns its scaled and raw time."""
        result, _stdout, stderr = run_child(self.root, self.tmp,
                                              ["setup", self.name, str(self.seed)], trace)
        if result is None:
            self.checks.record(f"set-up failed: {stderr}", "setup")
            return 0.0, 0.0
        self.meter.factors.append(result["factor"])
        self.checks.merge(result["checks"])
        if trace:
            self.child_traces.append(("setup", result))
        return result["elapsed"] * result["factor"], result["elapsed"]

    def run_pass(self, trace: bool) -> list[PassResult]:
        args = ["codec", self.name, str(self.seed), str(WORKER_SECONDS), str(self.workers)]
        self.workers += 1
        result, _stdout, stderr = run_child(self.root, self.tmp, args, trace)
        if result is None:
            self.checks.record(f"worker failed: {stderr}", "worker")
            return []
        self.checks.merge(result["checks"])
        for key in self.counts:
            self.counts[key] += result["counts_shares"][key]
        self.meter.factors += result["factors"]
        if trace:
            self.child_traces.append(("pass", result))
        return [PassResult(**p) for p in result["passes"]]

    def shares(self) -> dict:
        n = max(self.counts["stripes"], 1)
        return {"repeat_share": self.counts["repeats"] / n,
                "local_share": self.counts["local"] / n}


# -- child side ------------------------------------------------------------


def _build_codes(spec: dict, checks: Checks) -> dict:
    """label -> (parity check, generator), built through the CLI's
    construct path and read back from the written artifact."""
    import mrlrc
    from mrlrc import fileio

    by_label = {c["label"]: c for c in spec["construct"]}
    codes = {}
    for label in spec["codec_codes"]:
        out = Path(f"{label}.mr")
        checks.record(construct_in_process(by_label[label], out), f"setup {label}")
        P = fileio.parse_mr(out.read_text())
        codes[label] = (P, mrlrc.generator_from_parity(P))
    return codes


def codec_setup(spec: dict) -> dict:
    """Build both codes and their generators; the timed set-up."""
    checks = Checks()
    _build_codes(spec, checks)
    return {"checks": checks.export()}


class Code:
    """One code of the workload with its oracle (the benchmark's own field)."""

    def __init__(self, P, G):
        self.P = P
        self.G = G
        self.spec = P.spec
        t = P.spec.tower
        self.size = t.q**t.m
        self.oracle = OracleField(t.p, t.ext_poly)
        self.rows = parity_rows(P)


class Stripes:
    """Seeded erasure sets and messages, with the shares they have."""

    def __init__(self, name: str, codes: dict[str, Code], rng: random.Random):
        self.name = name
        self.codes = codes
        self.rng = rng
        self.seen: set = set()
        self.counts = {"stripes": 0, "repeats": 0, "local": 0}

    def _local_set(self, spec) -> list[int]:
        groups = self.rng.sample(range(spec.n), self.rng.choice((1, 2)))
        return sorted(g * spec.r + self.rng.randrange(spec.r) for g in groups)

    def _maximal_set(self, spec, over: bool) -> list[int]:
        erased = []
        for i in range(spec.n):
            erased += [i * spec.r + j for j in self.rng.sample(range(spec.r), spec.delta)]
        taken = set(erased)
        rest = [c for c in range(spec.N) if c not in taken]
        erased += self.rng.sample(rest, spec.h + (1 if over else 0))
        return sorted(erased)

    def batch(self) -> list[tuple[str, list[int], bool]]:
        """(code, erased positions, expect UNDECODABLE) for one batch."""
        out = []
        if self.name == "repair":
            for label in REPAIR_JOBS:
                erased = self._local_set(self.codes[label].spec)
                out += [(label, erased, False)] * JOB_STRIPES
        else:
            for label, count, over in DEGRADED_MIX:
                spec = self.codes[label].spec
                out += [(label, self._maximal_set(spec, i < over), i < over)
                        for i in range(count)]
            self.rng.shuffle(out)
        for label, erased, _over in out:
            self._count(label, erased)
        return out

    def _count(self, label, erased):
        spec = self.codes[label].spec
        key = (label, tuple(erased))
        self.counts["repeats"] += key in self.seen
        self.seen.add(key)
        per_group = [0] * spec.n
        for e in erased:
            per_group[e // spec.r] += 1
        self.counts["local"] += max(per_group) <= spec.delta
        self.counts["stripes"] += 1


def run_batch(stripes: Stripes, meter: SpeedMeter, checks: Checks) -> PassResult:
    """One batch of encode, erase, erase_decode round trips, each checked."""
    import mrlrc  # encode and erase_decode are looked up per call, so the
    # span wrappers of a traced run are the ones called

    res = PassResult()
    start = perf_counter()
    for label, erased, over in stripes.batch():
        code = stripes.codes[label]
        msg = [stripes.rng.randrange(code.size) for _ in range(code.G.rows)]
        t0 = perf_counter()
        cw = mrlrc.encode(code.G, msg)
        t1 = perf_counter()
        received = list(cw)
        for e in erased:
            received[e] = stripes.rng.randrange(code.size)
        t2 = perf_counter()
        result = mrlrc.erase_decode(code.P, received, erased)
        t3 = perf_counter()
        checks.record(check_stripe(code, cw, erased, over, result), label)
        encode_s, decode_s = meter.net(t0, t1), meter.net(t2, t3)
        res.raw_seconds += encode_s + decode_s
        res.ops += 1
        res.raw_op_s.append(decode_s)
        res.labels.append(label)
        res.encode_s.append(encode_s)
    meter.burst(1)  # the sample after this batch, before the next one
    f = meter.factor(start, perf_counter())
    res.seconds = res.raw_seconds * f
    res.op_s = [t * f for t in res.raw_op_s]
    res.encode_s = [t * f for t in res.encode_s]
    return res


def worker(name: str, spec: dict, seed: int, seconds: float, index: int,
           meter: SpeedMeter, tracer) -> dict:
    """Build the codes (untimed), then run batches for `seconds`."""
    checks = Checks()
    codes = {label: Code(P, G) for label, (P, G) in _build_codes(spec, checks).items()}
    stripes = Stripes(name, codes, random.Random(f"{name}-{seed}-{index}"))
    if tracer is not None:
        tracer.install()
    passes = []
    start = perf_counter()
    while perf_counter() - start < seconds:
        if tracer is not None:
            tracer.op = f"batch-{len(passes)}"
        passes.append(run_batch(stripes, meter, checks).__dict__)
    return {"passes": passes, "checks": checks.export(), "counts_shares": stripes.counts,
            "factors": meter.factors}


def check_stripe(code: Code, cw, erased, over: bool, result) -> str | None:
    """Checks that use only the oracle field: the encoded word satisfies
    every parity row, a decoded word equals it, and an UNDECODABLE
    certificate c is nonzero with H_E c = 0."""
    O = code.oracle
    if len(cw) != code.spec.N or not all(O.dot_is_zero(row, cw) for row in code.rows):
        return "encoded word fails the parity check"
    if not over:
        if not result.ok:
            return f"decodable pattern reported UNDECODABLE ({result.reason})"
        if result.codeword != cw:
            return "decoded word differs from the encoded word"
        return None
    if result.ok:
        return "over-erased pattern was decoded"
    c = result.certificate
    if c is None or len(c) != len(erased) or not any(c):
        return "UNDECODABLE without a nonzero certificate"
    if not all(O.dot_is_zero([row[e] for e in erased], c) for row in code.rows):
        return "certificate is not in the kernel of the erased columns"
    return None
