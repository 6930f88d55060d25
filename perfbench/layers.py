"""Per-layer metrics of the traced run, with the end-to-end metric each
one should move and the workloads on which it must record work.

Every metric is computed from one aggregate (see ``run.py``) whose span
and count figures are per traced set-up plus one average traced pass.
The self-check (``missing``) fails a traced run when a metric records
no call on a workload listed in its ``required`` tuple: a wrapper on a
name the program no longer calls would otherwise read as zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

ALL = ("construct", "certify", "repair", "degraded")
CLI = ("construct", "certify")
CODEC = ("repair", "degraded")

# top levels of the towers the workloads' codes live in, as p-a-m
TOWERS = ("2-1-6", "2-1-16", "2-2-6", "3-1-6", "3-1-8", "3-1-10")


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    value: Callable[[dict], float]
    calls: Callable[[dict], float]  # work recorded; must be > 0 on `required`
    required: tuple[str, ...]
    moves: str  # the end-to-end metric and workload it should move


def _span(agg, name, key):
    return agg["spans"].get(name, {}).get(key, 0)


def _rate(agg, name):
    s = _span(agg, name, "s")
    return _span(agg, name, "work") / s if s else 0.0


def build(construct_labels, certify_labels) -> list[LayerMetric]:
    out = []

    def add(name, unit, better, value, calls, required, moves):
        out.append(LayerMetric(name, unit, better, value, calls, required, moves))

    def span_time(layer_name, required, moves, names=None, key="s"):
        names = names or (layer_name,)
        add(f"{layer_name}.{key}", "s", "lower",
            lambda a: sum(_span(a, n, key) for n in names),
            lambda a: sum(_span(a, n, "calls") for n in names), required, moves)

    def span_calls(layer_name, required, moves):
        add(f"{layer_name}.calls", "count", "lower",
            lambda a: _span(a, layer_name, "calls"),
            lambda a: _span(a, layer_name, "calls"), required, moves)

    gf_moves = ("ops_per_s and op_p50_ms on repair and degraded through their "
                "3^8 share; pass_s on certify unchanged")
    for op in ("add", "sub", "mul", "inv"):
        for tw in TOWERS:
            add(f"gf.{op}.ns.{tw}", "ns", "lower",
                lambda a, op=op, tw=tw: a["probe"][tw][op],
                lambda a, tw=tw: a["probe"][tw]["samples"], ALL, gf_moves)
    required_calls = {"add": ("construct",) + CODEC, "sub": ALL,
                      "mul": ALL, "inv": ALL}
    for op in ("add", "sub", "mul", "inv"):
        add(f"gf.{op}.calls", "count", "lower",
            lambda a, op=op: a["counts"][op], lambda a, op=op: a["counts"][op],
            required_calls[op], gf_moves)
    for tw in TOWERS:
        add(f"gf.tower.s.{tw}", "s", "lower",
            lambda a, tw=tw: a["tower_s"][tw], lambda a, tw=tw: a["tower_s"][tw],
            ALL, "pass_s on construct; setup_s on every workload")

    codec_decode = "op_p50_ms, op_p99_ms and ops_per_s on repair and degraded"
    for fn, required, moves in (
        ("kernel", ("construct",) + CODEC, codec_decode),
        ("solve", CODEC, codec_decode),
        ("rref", ("construct",) + CODEC, codec_decode),
        ("rank", ("construct",), "pass_s on construct"),
        ("vec_mat", CODEC, "ops_per_s on repair and degraded (the write path)"),
        ("is_mds_parity_check", CLI, "pass_s on construct and certify"),
    ):
        span_calls(f"linalg.{fn}", required, moves)
        span_time(f"linalg.{fn}", required, moves)
    add("linalg.kernel.calls_per_decode", "count", "lower",
        lambda a: a["kernel_per_decode"], lambda a: a["kernel_per_decode"], CODEC,
        "kernel calls per erase_decode: plan caching should cut it on repair only")

    for fn in ("bch_parity_check", "rs_parity_check", "block_min_distance"):
        span_time(f"codes.{fn}", ("construct",), "pass_s on construct")
    add("codes.codewords_per_s", "1/s", "higher",
        lambda a: _rate(a, "codes.block_min_distance"),
        lambda a: _span(a, "codes.block_min_distance", "work"), ("construct",),
        "pass_s on construct")

    for fn in ("gv_greedy", "mds_construct", "subfield_construct", "restrict"):
        span_time(f"sdss.{fn}", ("construct",), "pass_s on construct")
    span_time("sdss.verify_direct_sum", CLI, "pass_s on construct and certify")
    add("sdss.subsets_per_s", "1/s", "higher",
        lambda a: _rate(a, "sdss.verify_direct_sum"),
        lambda a: _span(a, "sdss.verify_direct_sum", "work"), CLI,
        "pass_s on construct and certify")

    span_time("mr.verify_mr", ("certify",), "pass_s on certify only")
    add("mr.patterns", "count", "higher",
        lambda a: _span(a, "mr.verify_mr", "work"),
        lambda a: _span(a, "mr.verify_mr", "work"), ("certify",),
        "pass_s on certify only")
    add("mr.patterns_per_s", "1/s", "higher",
        lambda a: _rate(a, "mr.verify_mr"), lambda a: _span(a, "mr.verify_mr", "work"),
        ("certify",), "pass_s on certify only")
    span_time("mr.build", ("construct",), "pass_s on construct",
              names=("mr.build_direct", "mr.build_concatenated"))
    span_time("mr.generator_from_parity", CODEC, "setup_s on repair and degraded")
    span_time("mr.encode", CODEC, "ops_per_s on repair and degraded")
    span_calls("mr.erase_decode", CODEC, codec_decode)
    span_time("mr.erase_decode", CODEC, codec_decode)
    span_time("mr.erase_decode", CODEC, codec_decode, key="self_s")
    add("mr.erase_decode.undecodable", "count", "lower",
        lambda a: _span(a, "mr.erase_decode", "work"),
        lambda a: _span(a, "mr.erase_decode", "work"), ("degraded",),
        "none: the share of maximal-plus-one patterns is fixed by the workload")

    span_time("fileio.parse_mr", ("certify",), "pass_s on certify (small share)")
    span_time("fileio.format_mr", ("construct",), "pass_s on construct (small share)")
    span_time("fileio.parse_sdss", ("certify",), "pass_s on certify (small share)")
    span_time("fileio.format_sdss", ("construct",), "pass_s on construct (small share)")

    add("cli.import_s", "s", "lower", lambda a: a["cli_import_s"],
        lambda a: a["cli_runs"], CLI, "pass_s on construct and certify")
    for cmd, labels, wl in (("construct", construct_labels, "construct"),
                            ("verify", certify_labels, "certify")):
        for label in labels:
            key = f"{cmd}.{label}"
            add(f"cli.{key}.s", "s", "lower",
                lambda a, key=key: a["cli"].get(key, 0.0),
                lambda a, key=key: a["cli"].get(key, 0.0), (wl,),
                f"pass_s on {wl}; shows which input a change hits")

    add("codec.repeat_share", "share", "higher", lambda a: a["codec"]["repeat_share"],
        lambda a: a["codec"]["repeat_share"], ("repair",),
        "share of stripes whose erasure set was seen before (what a plan cache uses)")
    add("codec.local_share", "share", "higher", lambda a: a["codec"]["local_share"],
        lambda a: a["codec"]["local_share"], ("repair",),
        "share of stripes with at most delta erasures per group (what local repair uses)")
    add("codec.encode_p50_ms", "ms", "lower", lambda a: a["codec"]["encode_p50_ms"],
        lambda a: a["codec"]["encode_p50_ms"], CODEC,
        "ops_per_s on repair and degraded (the write path)")
    add("trace.overhead", "ratio", "lower", lambda a: a["overhead"],
        lambda a: a["traced_passes"], ALL,
        "none: median traced pass over median untraced pass, minus one")
    return out


def missing(metrics: list[LayerMetric], agg: dict, workload: str) -> list[str]:
    """Metrics that should record work on this workload but recorded none."""
    return [m.name for m in metrics if workload in m.required and not m.calls(agg) > 0]
