"""Benchmark passes in a fresh interpreter.

    python3 bench/worker.py SRC_DIR PLAN_JSON SPAWN_MONOTONIC

Imports ``gaugeport.cli`` from SRC_DIR, then repeats passes of the plan's
commands through ``gaugeport.cli.main`` until the plan's time budget is
spent (at least ``min_passes``).  Pass i runs in ``WORKDIR/pass-i`` so each
pass keeps its own reports for checking.  Timings (and, in a traced mode,
per-layer metrics per pass) go to the plan's result file.  Set-up time is
measured from the parent's spawn timestamp on the system-wide monotonic
clock, so it includes interpreter start-up.
"""

import sys
import time


def main() -> int:
    src, plan_path, spawn = sys.argv[1], sys.argv[2], float(sys.argv[3])
    sys.path.insert(0, src)
    import gaugeport.cli as cli

    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import json
    import os
    import resource
    import traceback

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"gaugeport imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    tracer = None
    if plan["mode"] in ("spans", "alloc"):
        import spans

        tracer = spans.Tracer(alloc=plan["mode"] == "alloc")
        tracer.install()

    passes = []
    start = time.perf_counter()
    while len(passes) < plan["min_passes"] or time.perf_counter() - start < plan["seconds"]:
        pass_dir = os.path.join(plan["workdir"], f"pass-{len(passes)}")
        os.mkdir(pass_dir)
        os.chdir(pass_dir)  # reports are written to relative --out paths
        first_span = len(tracer.spans) if tracer else 0
        commands = []
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        for argv in plan["commands"]:
            c0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception:  # a traceback is a failed command, not a failed pass
                traceback.print_exc()
                rc = -1
            commands.append({"rc": rc, "wall_s": time.perf_counter() - c0})
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        record = {
            "wall_s": wall,
            "cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
            # ru_maxrss is in KiB on Linux; the process's peak so far
            "peak_rss_mb": ru1.ru_maxrss * 1024 / 1e6,
            "commands": commands,
        }
        if tracer is not None:
            pass_spans = tracer.spans[first_span:]
            if tracer.alloc:
                record["layers"] = spans.peak_alloc_metrics(pass_spans)
            else:
                record["layers"] = spans.layer_metrics(pass_spans)
        passes.append(record)

    if tracer is not None and not tracer.alloc:
        with open(plan["spans_out"], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    result = {"setup_s": ready - spawn, "passes": passes}
    with open(plan["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
