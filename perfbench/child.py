"""One benchmark sample: a fresh interpreter that imports heckeseries and runs one job.

Usage (normally started by run.py, with src/ on PYTHONPATH):

    python3 perfbench/child.py --spawned <perf_counter at spawn> --setup-only
    python3 perfbench/child.py --spawned <t> --workload <name> --trace <0|1> \
        --scratch <dir> [--spans <file>]   < requests.json

The job's requests arrive as JSON on stdin.  One JSON object is written to
stdout: the set-up time, the job's wall and CPU time, peak RSS, each
request's latency and gate result, and with --trace 1 the per-layer values.
"""

import time

import heckeseries  # noqa: F401  -- the import is the set-up being timed

IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from heckeseries.errors import HeckeError  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_job(workload, requests, scratch, tracer=None):
    """Prepare every request, then serve each one, then gate every output.

    Returns (wall, cpu, latencies, oks).  Preparation is not timed, and a
    tracer is installed only after it, so spans and counters cover exactly
    the timed region.  A raised HeckeError is an output that fails the gate.
    """
    job = workloads.job(workload, scratch)
    items = []
    for req in requests:
        try:
            items.append(job.prepare(req))
        except HeckeError as exc:
            items.append(exc)
    if tracer is not None:
        tracing.install(tracer)
    outputs, latencies = [], []
    try:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for i, item in enumerate(items):
            if tracer is not None:
                tracer.request = i
            t0 = time.perf_counter()
            try:
                outputs.append(item if isinstance(item, HeckeError) else job.serve(item))
            except HeckeError as exc:
                outputs.append(exc)
            latencies.append(time.perf_counter() - t0)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if tracer is not None:
            tracer.uninstall()
    oks = [not isinstance(out, HeckeError) and job.check(item, out) for item, out in zip(items, outputs)]
    return wall, cpu, latencies, oks


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    report = {"setup_s": IMPORTED - args.spawned}
    if not args.setup_only:
        requests = json.load(sys.stdin)
        tracer = tracing.Tracer() if args.trace else None
        wall, cpu, latencies, oks = run_job(args.workload, requests, args.scratch, tracer)
        report.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            latencies_s=latencies,
            ok=oks,
        )
        if tracer is not None:
            report["layers"] = tracing.layer_metrics(tracer)
            report["dominant_share"] = tracing.dominant_share(tracer, args.workload, wall)
            if args.spans:
                tracing.write_spans(tracer.spans, args.spans)
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
