"""geodlab benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload spectrum --seed 1 --seconds 5 --trace 0

Run from the root of a checkout.  The workload runs in a fresh Python
process (workload.py) with BLAS/OpenMP threads pinned to 1, `src/` of the
checkout on its import path, $GEODLAB_CACHE removed and its spectrum cache
in a temporary directory that is deleted afterwards.  This process times
the child from start to exit and reads its peak RSS.

Step times, rates and wall time are in seconds of the reference machine
(see workload.Ledger); per-layer self times are measured seconds.

--trace 1 runs the workload twice with the same seed and rounds: once
untraced, once with the layer wrappers of spans.py installed.  It reports
the per-layer self times and counts of the traced child, plus
trace.overhead_s, the traced minus the untraced wall time in reference
seconds.

The last line of standard output is the result object.  A copy of it goes
to .perfbench_out/ in the checkout, with every figure also in measured
seconds under "measured"; span files go there too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD = Path(__file__).resolve().parent / "workload.py"
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 175.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("GEODLAB_CACHE", None)
    env.update({k: "1" for k in PINNED})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline, extra=()):
    """Run workload.py once; returns (its result object, wall seconds)."""
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    cmd = [sys.executable, str(WORKLOAD), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--work-dir", str(work), *extra]
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = proc.communicate(
                timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed("workload exceeded the time limit") from None
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(f"workload exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise ChildFailed("workload printed no result")
    return json.loads(lines[-1]), wall


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["spectrum", "knieper", "dynamics"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=5.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        res, wall = run_child(args, deadline)
        if args.trace:
            span_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            res_t, wall_t = run_child(
                args, deadline,
                ["--rounds", str(res["rounds"]), "--trace-file", str(span_file)])
            metrics = res_t["metrics"]
            metrics["trace.overhead_s"] = (wall_t * res_t["wall_scale"]
                                           - wall * res["wall_scale"])
            if res_t["absent"]:
                print("absent layers (reported as 0): "
                      + ", ".join(res_t["absent"]))
            attempted = res["attempted"] + res_t["attempted"]
            failed = res["failed"] + res_t["failed"]
            wanted = spec["per_layer"]
            alt = {}
        else:
            metrics = dict(res["metrics"])
            # scaled by the mean of every probe the child ran
            metrics["wall_s"] = wall * res["wall_scale"]
            # Linux reports ru_maxrss in KiB; this process has one child
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
            attempted, failed = res["attempted"], res["failed"]
            wanted = spec["end_to_end"]
            alt = res["alt"]
            alt["measured"].update(wall_s=wall,
                                   peak_rss_mb=metrics["peak_rss_mb"])
    except ChildFailed as exc:
        sys.exit(f"perfbench: {exc}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"perfbench: no value for {', '.join(missing)}")
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    (OUT / f"result-{tag}.json").write_text(
        json.dumps(dict(result, **alt)) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
