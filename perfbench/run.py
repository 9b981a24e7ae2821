"""heckeseries benchmark: run one workload, gate its outputs, print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Every timed sample is a fresh
interpreter (perfbench/child.py) started from this process, one at a time,
because the library memoizes its heavy functions: an in-process repeat
would time cache lookups instead of what a command-line user pays.

Set-up: one untimed import (it compiles the bytecode), then SETUP_SPAWNS
timed spawns that only import heckeseries; setup_s is the median of
their import times and those of every trial.
Measurement: trials, each a child serving the whole seeded request list,
until another trial would overrun --seconds, but never fewer than
MIN_TRIALS (so a genus3-cli run, ~17 s a trial, takes ~36 s).  Wall and
CPU time are the 90th percentile (nearest rank) of the run's trials; see
README.md for why not the median or the minimum.  With --trace 1 the
children alternate untraced and traced (at least MIN_TRACED pairs), the
per-layer metrics are medians over the traced ones, and the deterministic
counters must repeat exactly between them.

Every output is gated exactly (see workloads.py).  Information lines go
to stdout first; the last stdout line is the result object.  Full records,
and the span files of traced children, go to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SPAWNS = 10
MIN_TRIALS = 2
MIN_TRACED = 2
CHILD_TIMEOUT_S = 150

#: end-to-end metrics: name -> unit
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class ChildFailed(RuntimeError):
    pass


def spawn(extra, stdin_bytes=b""):
    """Run one child to completion and return its report."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    spawned = time.perf_counter()
    cmd = [sys.executable, str(HERE / "child.py"), "--spawned", repr(spawned)] + extra
    try:
        proc = subprocess.run(
            cmd, input=stdin_bytes, capture_output=True, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {extra} timed out after {CHILD_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"child {extra} exited {proc.returncode}:\n{proc.stderr.decode()[-2000:]}")
    return json.loads(proc.stdout)


def percentile(values, q):
    """Nearest-rank q-th percentile: the smallest value with q% of values at or below it."""
    ranked = sorted(values)
    return ranked[max(math.ceil(q / 100 * len(ranked)), 1) - 1]


def environment():
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "--no-optional-locks", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    return {
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def measure(workload, payload, seconds, trace, scratch, tag):
    """Set-up spawns, then trials until the time budget is spent."""
    spawn(["--setup-only"])  # compiles bytecode; not timed
    setups = [spawn(["--setup-only"])["setup_s"] for _ in range(SETUP_SPAWNS)]
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        for is_traced in ((False, True) if trace else (False,)):
            extra = ["--workload", workload, "--trace", str(int(is_traced)), "--scratch", scratch]
            if is_traced:
                extra += ["--spans", str(OUT / f"{tag}-spans{len(traced)}.json")]
            report = spawn(extra, payload)
            setups.append(report["setup_s"])
            (traced if is_traced else plain).append(report)
        now = time.perf_counter()
        enough = len(traced) >= MIN_TRACED if trace else len(plain) >= MIN_TRIALS
        if enough and now + (now - round_start) > deadline:
            return setups, plain, traced


def end_to_end(setups, plain):
    return {
        "wall_s": percentile([r["wall_s"] for r in plain], 90),
        "cpu_s": percentile([r["cpu_s"] for r in plain], 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
    }


def request_latencies(plain):
    """Nearest-rank p50 and p90 in ms; every trial serves the same requests, and
    each request counts with its fastest latency across the trials."""
    fastest = [min(per_trial) for per_trial in zip(*(r["latencies_s"] for r in plain))]
    return {"req_p50_ms": 1000 * percentile(fastest, 50), "req_p90_ms": 1000 * percentile(fastest, 90)}


def per_layer(plain, traced):
    """Medians over traced children, and whether their counters repeat exactly
    (None when fewer than two traced children could be compared)."""
    layers = [r["layers"] for r in traced]
    out = {name: statistics.median(layer[name] for layer in layers) for name in tracing.TIMED}
    out["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in plain
    )
    counters = [name for name in layers[0] if name not in tracing.TIMED]
    out.update((name, layers[0][name]) for name in counters)
    repeat = None
    if len(layers) >= 2:
        repeat = all(layer[name] == layers[0][name] for layer in layers for name in counters)
    return out, repeat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "heckeseries" / "__init__.py").is_file():
        print(f"error: no heckeseries sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    requests = workloads.generate(args.workload, args.seed)
    payload = json.dumps(requests, sort_keys=True, separators=(",", ":")).encode()
    env = environment()
    env.update(seed=args.seed, input_sha256=hashlib.sha256(payload).hexdigest(), requests=len(requests))
    env["loadavg_before"] = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT)
    try:
        setups, plain, traced = measure(args.workload, payload, args.seconds, args.trace, scratch, tag)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    env["loadavg_after"] = os.getloadavg()

    oks = [ok for r in plain + traced for ok in r["ok"]]
    failed = oks.count(False)
    if args.trace:
        metrics, repeat = per_layer(plain, traced)
        if repeat is False:
            print("warning: deterministic counters differ between traced children", file=sys.stderr)
        units = tracing.PER_LAYER
    else:
        metrics, repeat, units = end_to_end(setups, plain), None, END_TO_END
    info = {
        "workload": args.workload,
        "env": env,
        "children": len(plain) + len(traced),
        "traced_children": len(traced),
        **request_latencies(plain),
        "failed_ratio": failed / len(oks),
        "counters_repeat": repeat,
        "setup_samples_s": setups,
        "wall_samples_s": [r["wall_s"] for r in plain],
        "cpu_samples_s": [r["cpu_s"] for r in plain],
    }
    if traced:
        info["dominant_span"] = tracing.DOMINANT[args.workload]
        info["dominant_share"] = statistics.median(r["dominant_share"] for r in traced)
        info["traced_wall_samples_s"] = [r["wall_s"] for r in traced]
        info["span_files"] = [f"{tag}-spans{i}.json" for i in range(len(traced))]
    result = {
        "correct": failed == 0,
        "attempted": len(oks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (OUT / f"{tag}.json").write_text(json.dumps({"info": info, "result": result}, indent=1))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
