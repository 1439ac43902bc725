"""Layered benchmark of the Elmore-bound STA library.

Run from the root of a source checkout::

    python3 layerbench/run.py --workload ssta-4x500 --seed 1 --seconds 32 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is the run record (environment, sample counts, checks).  The exit
code is 0 only when every correctness check passed.

This script only orchestrates: it starts ``worker.py`` a few times (each
start is one set-up sample; the last one also runs the timed calls),
checks that nothing is left running, and prints the figures.  It uses the
standard library only, so it runs before the program is importable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
import uuid
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402

#: The workloads of ``BENCHMARK.json``, then ``sta-4x1k``: the routing-
#: dominated STA control, run by hand (see README.md).
WORKLOADS = ("ssta-4x500", "mc-sweep", "serve-stats", "sta-4x1k")

END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "workloads.random_design_s": "s",
    "routing.route_net_s": "s",
    "routing.route_net_calls": "count",
    "routing.pins_per_net_mean": "count",
    "sta.interconnect.elaborate_net_self_s": "s",
    "core.batch.compile_forest_s": "s",
    "core.batch.forest_nodes": "count",
    "core.batch.transfer_moments_s": "s",
    "sta.timing.analyze_self_s": "s",
    "sta.timing.nets_evaluated": "count",
    "sta.ssta.nominal_analyze_s": "s",
    "sta.ssta.analyze_ssta_self_s": "s",
    "core.canonical.max_many_s": "s",
    "core.canonical.max_ops": "count",
    "core.canonical.resid_terms_mean": "count",
    "core.canonical.resid_terms_max": "count",
    "sta.ssta.oracle_mean_err": "ratio",
    "sta.ssta.oracle_sigma_err": "ratio",
    "core.variation.mc_self_s": "s",
    "parallel.run_sharded_s": "s",
    "parallel.shard_busy_s": "s",
    "parallel.worker_utilization": "ratio",
    "parallel.shards": "count",
    "parallel.shm_bytes": "B",
    "parallel.pool_forks": "count",
    "parallel.fallbacks": "count",
    "parallel.serial_reference_s": "s",
    "parallel.speedup_vs_serial": "ratio",
    "core.batch.rows_per_sweep": "count",
    "serve.schemas.parse_ms": "ms",
    "serve.engine.evaluate_ms": "ms",
    "serve.app.encode_ms": "ms",
    "serve.echo_floor_ms": "ms",
    "serve.queue_and_window_ms": "ms",
    "serve.c1.batch_size_mean": "count",
    "serve.c2.batch_size_mean": "count",
    "serve.c2.coalesced_ratio": "ratio",
    "serve.batches": "count",
    "serve.rejected": "count",
    "serve.deadline_expired": "count",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "trace.call_s": "s",
}

#: Set-up samples per untraced run (each a fresh process).
SETUP_SAMPLES = 3
#: Whole-run wall budget; the runner stops its children past it.
BUDGET_S = 170.0
RUNS_DIR = os.path.join(HERE, "_runs")


class BenchError(Exception):
    """The run could not produce figures (not a correctness failure)."""


def source_digest(root: str) -> str:
    """sha256 over the program's sources (the checkout is not a git
    repository, so this stands in for the revision)."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


class Child:
    """One ``worker.py`` process, read line by line with deadlines."""

    def __init__(self, args: List[str], env: Dict[str, str],
                 root: str) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env,
            cwd=root, start_new_session=True,
        )
        self._buffer = b""

    def next_event(self, deadline: float) -> Tuple[dict, float]:
        """The next ``@layerbench`` event and when it arrived."""
        stream = self.proc.stdout
        while True:
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                text = line.decode(errors="replace")
                if text.startswith("@layerbench "):
                    return json.loads(text[len("@layerbench "):]), \
                        time.perf_counter()
                sys.stderr.write(text + "\n")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise BenchError("worker timed out")
            ready, _, _ = select.select([stream], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(stream.fileno(), 65536)
            if not chunk:
                raise BenchError(
                    f"worker exited early (code {self.proc.wait()})")
            self._buffer += chunk

    def finish(self, deadline: float) -> None:
        try:
            code = self.proc.wait(timeout=max(deadline - time.monotonic(),
                                              0.1))
        except subprocess.TimeoutExpired:
            raise BenchError("worker did not exit") from None
        finally:
            self.proc.stdout.close()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.wait()
        if not self.proc.stdout.closed:
            self.proc.stdout.close()


def run_workload(args, root: str, token: str, deadline: float) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    name, value = token.split("=", 1)
    env[name] = value
    os.makedirs(RUNS_DIR, exist_ok=True)
    spans_out = os.path.join(
        RUNS_DIR, f"{args.workload}-seed{args.seed}-spans.json")
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size, "--spans-out", spans_out]
    starts = 1 if args.trace else SETUP_SAMPLES
    setups: List[float] = []
    phases: List[dict] = []
    result = None
    for index in range(starts):
        role = "measure" if index == starts - 1 else "setup"
        child = Child(base + ["--role", role], env, root)
        try:
            event, when = child.next_event(deadline)
            if event.get("event") != "ready":
                raise BenchError(f"unexpected event {event!r}")
            setups.append(when - child.started)
            phases.append(event["phases"])
            if role == "measure":
                result, _ = child.next_event(deadline)
            child.finish(deadline)
        except BaseException:
            child.kill()
            raise
    if result is None or result.get("event") != "result":
        raise BenchError("worker reported no result")
    result["setup_samples"] = setups
    result["setup_phases"] = phases
    return result


def settle_teardown(token: str, shm_before: List[str]):
    """The teardown check, after giving exiting processes a moment; what
    is still left after that is killed (and the check fails)."""
    for _ in range(30):
        ok, detail = checks.check_teardown(token, shm_before)
        if ok:
            break
        time.sleep(0.1)
    kill_leftovers(token)
    return ok, detail


def kill_leftovers(token: str) -> None:
    for pid in checks.processes_with_token(token):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size (tiny: the self-test's)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro",
                                       "__init__.py")):
        print("error: run from the root of a source checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    token = f"LAYERBENCH_RUN={uuid.uuid4().hex}"
    shm_before = checks.shm_segments()
    try:
        result = run_workload(args, root, token, deadline)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        kill_leftovers(token)
        return 1
    teardown = settle_teardown(token, shm_before)

    figures = dict(result["figures"])
    samples = dict(result["samples"])
    if args.trace:
        names = PER_LAYER
    else:
        names = END_TO_END
        figures["setup_s"] = statistics.median(result["setup_samples"])
        samples["setup_s"] = len(result["setup_samples"])
    unknown = sorted(set(figures) - set(names))
    if unknown:
        print(f"error: worker reported undeclared metrics {unknown}",
              file=sys.stderr)
        return 1
    if not args.trace and set(figures) != set(names):
        print(f"error: missing metrics {sorted(set(names) - set(figures))}",
              file=sys.stderr)
        return 1
    metrics = {
        name: {"value": float(figures.get(name, 0.0)), "unit": unit}
        for name, unit in names.items()
    }

    all_checks = result["checks"] + [
        {"name": "no process or shm segment left behind",
         "ok": teardown[0], "detail": teardown[1]}]
    failed_checks = [c for c in all_checks if not c["ok"]]
    attempted = int(result["operations"]) + len(all_checks)
    failed = int(result["failed_operations"]) + len(failed_checks)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "size": args.size,
        "env": {
            "cores_affinity": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": result.get("numpy"),
            "source_digest": source_digest(root),
            "machine": platform.machine(),
        },
        "samples": {name: samples.get(name, 0) for name in names},
        "setup_samples_s": result["setup_samples"],
        "setup_phases": result["setup_phases"],
        "call_times_s": result.get("call_times"),
        "checks": all_checks,
    }
    os.makedirs(RUNS_DIR, exist_ok=True)
    with open(os.path.join(
            RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      "-record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for check in failed_checks:
        print(f"check failed: {check['name']}: {check['detail']}",
              file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
