"""One unit of benchmark work in a fresh interpreter.

Usage: python child.py <result.json> <trace 0|1> <mode> <args...>

  cli <mrlrc arguments...>          one mrlrc command through cli.main
  setup <workload> <seed>           the set-up of certify, repair or degraded
  codec <workload> <seed> <seconds> <worker>
                                    encode/erase/decode batches for <seconds>

The clock of cli and setup starts before ``import mrlrc.cli``, so
interpreter start-up is left out but work done at import time is
counted.  The child runs under ``python -S`` (see common.run_child) and
loads only builtin modules and speed.py until then, so that no module
mrlrc imports is loaded before the clock; the benchmark's own modules
load after the import, outside the timed intervals.  A speed.SpeedMeter
samples before the clock and, from the end of the import, on a timer:
measured times leave its loops out and come with its scale factor (codec
workers sample it between batches instead, so that no decode is
interrupted).  With trace 1 the span wrappers are installed after the
import, also outside the timed intervals.  A command's own output goes
to stdout and stderr as usual; timing, checks and the trace go to the
result file.
"""

import sys
from time import perf_counter

from speed import SpeedMeter


def run_cli(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 2


def main() -> int:
    out_path, trace, mode, args = sys.argv[1], sys.argv[2] == "1", sys.argv[3], sys.argv[4:]
    meter = SpeedMeter()
    meter.burst()
    preloaded = sorted(sys.modules)
    t0 = perf_counter()
    import mrlrc.cli

    t1 = perf_counter()
    import json
    from pathlib import Path

    from tracer import Tracer

    spec = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())
    tracer = Tracer(op=mode) if trace else None
    if mode == "cli":
        def work():
            return {"rc": run_cli(mrlrc.cli.main, args)}
    elif mode == "setup" and args[0] == "certify":
        from cli_work import certify_setup

        def work():
            return certify_setup(spec, int(args[1]))
    elif mode == "setup":
        from codec_work import codec_setup

        def work():
            return codec_setup(spec)
    elif mode == "codec":
        from codec_work import worker

        def work():
            return worker(args[0], spec, int(args[1]), float(args[2]), int(args[3]),
                          meter, tracer)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer is not None and mode != "codec":  # workers install it after their set-up
        tracer.install()
    if mode != "codec":
        meter.start()
    try:
        t2 = perf_counter()
        result = work()
        t3 = perf_counter()
    finally:
        meter.stop()
    sys.stdout.flush()
    meter.burst()
    if mode != "codec":
        result["import_s"] = meter.net(t0, t1)
        result["elapsed"] = result["import_s"] + meter.net(t2, t3)
        result["factor"] = meter.factor(t0, t3)
    result["preloaded"] = preloaded
    if tracer is not None:
        tracer.uninstall()
        result.update(tracer.export())
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
