"""Benchmark entry point.

    python3 perfbench/run.py --workload {sweep,big_counts,enumerate} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from any directory; the package is always imported from the ``src``
next to this directory.  The command starts, one after the other:

* ``SETUP_RUNS`` set-up processes, each timed from its start until its
  inputs are built and written (``setup_s`` is the median over them and the
  measuring process);
* one measuring process, which sets up, then with ``--trace 0`` repeats
  timed passes until ``--seconds`` of passes and at least ``MIN_PASSES``
  passes have gone by, and with ``--trace 1`` runs
  one untraced and one traced pass for the per-layer metrics.  It checks
  every output and reports its peak RSS.

stdout ends with a summary, one JSON line of details (failures by reason,
samples, and the machine, Python, commit, seed and input digest) and, as
the last line, the result: ``{"correct", "attempted", "failed", "metrics"}``.
The exit status is 0 when every output checked out, 1 on a mismatch or a
failed run, and 2 when there is no package to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
# A big_counts pass takes most of --seconds; never report a single pass.
MIN_PASSES = 2
TIME_LIMIT_S = 170

# Name and unit of the end-to-end metrics, as in BENCHMARK.json.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("trees_per_s", "1/s"),
              ("vertices_per_s", "1/s"), ("peak_rss_mib", "MiB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="domcount benchmark")
    parser.add_argument("--workload", required=True, choices=("sweep", "big_counts", "enumerate"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's own tests")
    parser.add_argument("--role", choices=("main", "setup", "measure"), default="main", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- child processes

def child(args) -> int:
    from workloads import WORKLOADS, PackageMissing

    work = Path(args.work)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, work)
        workload.setup()
        ready = time.monotonic()
        result = {"ready": ready, "digest": workload.input_digest()}
        if args.role == "measure":
            result.update(measure(workload, args))
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(workload, args) -> dict:
    out: dict = {}
    reasons: Counter = Counter()
    attempted = 0
    if args.trace:
        ops, out["layers"], out["spans"] = workload.layer_run()
        attempted = len(ops)
        reasons.update(op.reason for op in ops if not op.ok)
    else:
        walls: list[float] = []
        rates: dict[str, list[float]] = {"trees": [], "vertices": []}
        while len(walls) < MIN_PASSES or sum(walls) < args.seconds:
            p = workload.run_pass()
            walls.append(p.wall_s)
            for unit, values in rates.items():
                values.append(sum(getattr(op, unit) for op in p.ops if op.ok) / p.wall_s)
            attempted += len(p.ops)
            reasons.update(op.reason for op in p.ops if not op.ok)
            workload.note_pass(p)
            # Keep no per-operation records: peak RSS would grow with the pass count.
            del p
        out["walls"] = walls
        out.update({f"{unit}_per_s": statistics.median(values) for unit, values in rates.items()})
        out.update(workload.extra_e2e())
    # Peak RSS of set-up and passes; the final checks below build their own copies.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workload.final_checks()
    out.update(
        problems=workload.problems,
        attempted=attempted,
        failed=sum(reasons.values()),
        reasons=reasons,
        peak_rss_mib=(own + workers) / 1024,
    )
    return out


# ---------------------------------------------------------------- orchestration

class ChildFailed(RuntimeError):
    pass


_running: list[subprocess.Popen] = []


def _stop_children(signum, _frame):
    for proc in _running:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    sys.exit(128 + signum)


def spawn(args, role: str, work: Path, deadline: float) -> tuple[float, dict]:
    """Run one child to completion; return its start time and its JSON line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", str(work)] + (["--smoke"] if args.smoke else [])
    # The package's default guards are part of the workload.
    env = {k: v for k, v in os.environ.items() if k != "DOMCOUNT_MAX_ORDER"}
    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True)
    _running.append(proc)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"{role} process exceeded the {TIME_LIMIT_S} s limit") from None
    finally:
        _running.remove(proc)
    if proc.returncode != 0:
        raise ChildFailed(f"{role} process exited with status {proc.returncode}")
    return started, json.loads(out.strip().splitlines()[-1])


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def report(args, setup_samples, digest, res) -> tuple[dict, bool]:
    """Print the summary and the details; return the metrics and correctness."""
    correct = not res["problems"]
    if args.trace:
        from workloads import PER_LAYER
        metrics = {name: {"value": res["layers"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values = {"setup_s": statistics.median(setup_samples), "wall_s": statistics.median(res["walls"]),
                  "trees_per_s": res["trees_per_s"], "vertices_per_s": res["vertices_per_s"],
                  "peak_rss_mib": res["peak_rss_mib"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}: {'correct' if correct else 'OUTPUT MISMATCH'}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        print(f"  (setup_s: median of {len(setup_samples)} set-ups; "
              f"timings: median of {len(res['walls'])} passes)")
        if "sets_per_s" in res:
            print(f"  {'sets_per_s':36s} {res['sets_per_s']:14.6g} 1/s")
            print(f"  {'first_set_s':36s} {res['first_set_s']:14.6g} s"
                  f"  (median of {res['first_set_samples']} --limit 1 runs, order <= 25)")
    print(f"  {'ops_failed_frac':36s} {res['failed'] / res['attempted']:14.6g} ratio"
          f"  ({res['failed']} of {res['attempted']} ops)")
    for reason, count in sorted(res["reasons"].items()):
        print(f"    failed {count:6d} x {reason}")
    for problem in res["problems"]:
        print(f"  mismatch: {problem}")

    detail = {k: v for k, v in res.items() if k not in ("ready", "digest")}
    detail.update(setup_samples=setup_samples, record={
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke, "seconds": args.seconds,
        "inputs_sha256": digest, "machine": platform.machine(), "cpu": cpu_model(),
        "nproc": os.cpu_count(), "python": platform.python_version(), "git_commit": git_commit(),
    })
    print(json.dumps({"perfbench_detail": detail}))
    return metrics, correct


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role != "main":
        return child(args)
    if not (ROOT / "src" / "domcount" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop_children)
    deadline = time.monotonic() + TIME_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_samples, digests = [], set()
    try:
        for i in range(0 if args.trace else SETUP_RUNS):
            started, out = spawn(args, "setup", work / f"setup{i}", deadline)
            setup_samples.append(out["ready"] - started)
            digests.add(out["digest"])
        started, res = spawn(args, "measure", work / "measure", deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    setup_samples.append(res["ready"] - started)
    digests.add(res["digest"])
    if len(digests) != 1:
        res["problems"].append("the same seed gave different inputs in different set-up runs")
    metrics, correct = report(args, setup_samples, res["digest"], res)
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
