"""One repetition of one workload, in a fresh process.

Started by ``run.py`` with the monotonic clock reading taken just before
the process was spawned; set-up time runs from there until numpy, scipy
and the clinewave CLI are imported. The result goes to a JSON file.

    python3 perfbench/child.py --workload fronts --variant 0 --trace 0 \
        --t0 <time.monotonic()> --outdir DIR --result FILE
"""

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--variant", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    import numpy
    import scipy
    import clinewave.cli  # noqa: F401 - imports every layer the CLI uses

    setup_s = time.monotonic() - args.t0

    import platform
    import resource
    from pathlib import Path

    import probe
    import spans
    import workloads

    result = {
        "setup_s": setup_s,
        "env": {"python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__},
    }
    if args.workload != "none":
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
        wl = workloads.BY_NAME[args.workload](args.variant, Path(args.outdir))
        probe.probe()  # first call pays one-time costs
        outcome = workloads.run_ops(wl, tracer, probe.probe)
        result.update(wall_s=outcome.wall_s, probe_s=outcome.probes,
                      wall_cal_s=probe.calibrated(outcome.wall_s, outcome.probes),
                      setup_cal_s=probe.calibrated(setup_s, outcome.probes),
                      attempted=outcome.attempted,
                      failures=outcome.failures, digests=outcome.digests,
                      cell_steps=wl.cell_steps, measures=wl.measures)
        if tracer is not None:
            summary = spans.summarize(tracer.spans, outcome.wall_s)
            total = sum(summary["layer_self_s"].values()) + summary["unattributed_s"]
            if abs(total - outcome.wall_s) > 1e-6:
                raise RuntimeError(f"layer self times + unattributed = {total}, "
                                   f"traced wall = {outcome.wall_s}")
            summary["counts"] = dict(tracer.counts)
            summary["absent"] = sorted(tracer.absent)
            result["trace"] = summary
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
