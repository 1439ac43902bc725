"""Self-test of the benchmark itself.

Run from the root of a source checkout::

    python3 layerbench/selftest.py

It checks that

* tiny-size untraced and traced runs of every workload (the declared
  ones and the supplementary ``sta-4x1k``) pass and print exactly the
  metric names and units declared in ``BENCHMARK.json``;
* every correctness check fails on a deliberately corrupted result;
* the teardown check catches a planted leaked child process and a
  planted leaked shared-memory segment;
* ``run.py`` exits non-zero without printing a result when the program's
  sources are absent.

Exit code 0 when everything holds; each failure is printed.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import uuid
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402

FAILURES = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what, flush=True)
    if not condition:
        FAILURES.append(what)


def declared(kind: str):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}, spec


def tiny_runs() -> None:
    end_to_end, spec = declared("end_to_end")
    per_layer, _ = declared("per_layer")
    declared_names = [w["name"] for w in spec["workloads"]]
    extra = [w for w in run.WORKLOADS if w not in declared_names]
    for workload in declared_names + extra:
        for trace, names in ((0, end_to_end), (1, per_layer)):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
            printed = {k: v.get("unit") for k, v in
                       result.get("metrics", {}).items()}
            label = f"{workload} --trace {trace} (tiny)"
            expect(proc.returncode == 0 and result.get("correct") is True
                   and set(result) == {"correct", "attempted", "failed",
                                       "metrics"},
                   f"{label}: exit 0 and correct"
                   + ("" if proc.returncode == 0 else
                      f" [stderr: {proc.stderr[-500:]}]"))
            expect(printed == names,
                   f"{label}: metric names and units match BENCHMARK.json")


def corrupted_checks() -> None:
    import numpy as np

    from repro.core.variation import VariationModel, \
        monte_carlo_delay_matrix
    from repro.circuit.builders import balanced_tree
    from repro.core.verification import verify_tree
    from repro.serve.app import ReproServer
    from repro.serve.engine import StatsEngine
    from repro.serve.schemas import parse_stats_request
    from repro.sta import ProcessModel, analyze, analyze_ssta
    from repro.sta.ssta import monte_carlo_arrivals
    from repro.workloads import random_design

    # STA: bit-identity and the bound check.
    design = random_design(4, 10, seed=3)
    result = analyze(design, "elmore")
    digest = checks.arrival_digest(result)
    expect(checks.check_identical([digest, digest], "arrivals")[0],
           "arrival identity passes on identical results")
    names = sorted(result.nets)[:4]
    expect(checks.check_net_bounds(result, design, names, verify_tree)[0],
           "net bound check passes on the real result")
    net = design.nets[names[0]]
    result.arrival[net.sinks[0]] += 1e-12
    expect(not checks.check_identical(
        [digest, checks.arrival_digest(result)], "arrivals")[0],
        "arrival identity fails on a corrupted arrival")
    expect(not checks.check_net_bounds(result, design, names,
                                       verify_tree)[0],
           "net bound check fails on a corrupted arrival")

    # SSTA against the oracle.
    model = ProcessModel(variation=VariationModel(0.08, 0.08),
                         rho_r=0.5, rho_c=0.5, cell_sigma=0.05,
                         rho_cell=0.5)
    small = random_design(4, 6, seed=3)
    report = analyze_ssta(small, model)
    ports, matrix = monte_carlo_arrivals(small, model, 4000, seed=1,
                                         nominal=report.nominal)
    oracle = {p: (float(matrix[:, j].mean()), float(matrix[:, j].std()))
              for j, p in enumerate(ports)}
    canonical = {p: (f.mu, f.sigma) for p, f in report.outputs.items()}
    expect(checks.check_ssta(canonical, oracle)[0],
           "SSTA check passes on the real result")
    port = ports[0]
    for label, (mu, sigma) in (
            ("mean +2%", (canonical[port][0] * 1.02, canonical[port][1])),
            ("sigma +10%", (canonical[port][0], canonical[port][1] * 1.1))):
        bad = dict(canonical, **{port: (mu, sigma)})
        expect(not checks.check_ssta(bad, oracle)[0],
               f"SSTA check fails on a corrupted output ({label})")
    digest = checks.ssta_digest(report)
    expect(checks.check_identical(
        [digest, checks.ssta_digest(analyze_ssta(small, model))],
        "outputs")[0],
        "SSTA output identity passes on a repeated call")
    forms = {p: SimpleNamespace(mu=f.mu, sigma=f.sigma)
             for p, f in report.outputs.items()}
    forms[port].mu = math.nextafter(forms[port].mu, math.inf)
    expect(not checks.check_identical(
        [digest, checks.ssta_digest(SimpleNamespace(outputs=forms))],
        "outputs")[0],
        "SSTA output identity fails on a one-ulp corrupted mean")

    # Monte-Carlo matrix against the serial backend.
    tree = balanced_tree(4, 2, 100.0, 1e-14)
    default = monte_carlo_delay_matrix(tree, VariationModel(0.1, 0.1), 300,
                                       seed=1, jobs=2)
    serial = monte_carlo_delay_matrix(tree, VariationModel(0.1, 0.1), 300,
                                      seed=1, backend="serial")
    pair = [checks.array_digest(default), checks.array_digest(serial)]
    expect(checks.check_identical(pair, "matrices")[0],
           "matrix identity passes on the real result")
    default[3, 2] = np.nextafter(default[3, 2], np.inf)
    expect(not checks.check_identical(
        [checks.array_digest(default), pair[1]], "matrices")[0],
        "matrix identity fails on a one-ulp corruption")

    # HTTP bodies against direct evaluation.
    request = parse_stats_request({"workload": "balanced:4x2",
                                   "rscale": [1.0, 1.1]})
    body = ReproServer._json(
        StatsEngine().evaluate(request.key, [request])[0])[0]
    expect(checks.check_bodies([(200, body)], [body])[0],
           "body check passes on the real body")
    flipped = body.replace(b"1", b"2", 1)
    expect(not checks.check_bodies([(200, flipped)], [body])[0],
           "body check fails on a corrupted byte")
    expect(not checks.check_bodies([(500, body)], [body])[0],
           "body check fails on a non-200 status")
    expect(checks.check_exit_code(0)[0] and not checks.check_exit_code(1)[0]
           and not checks.check_exit_code(-15)[0],
           "exit-code check fails on 1 and on death by signal")


def planted_leaks() -> None:
    from multiprocessing import shared_memory

    token = f"LAYERBENCH_RUN={uuid.uuid4().hex}"
    before = checks.shm_segments()
    expect(checks.check_teardown(token, before)[0],
           "teardown check passes when nothing leaked")
    name, value = token.split("=", 1)
    child = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"],
        env={**os.environ, name: value})
    try:
        ok, detail = checks.check_teardown(token, before)
        expect(not ok and str(child.pid) in detail,
               "teardown check catches a planted leaked child process")
    finally:
        child.kill()
        child.wait()
    segment = shared_memory.SharedMemory(
        name=f"repro_shm_selftest_{os.getpid()}", create=True, size=64)
    try:
        ok, detail = checks.check_teardown(token, before)
        expect(not ok and segment.name in detail,
               "teardown check catches a planted leaked shm segment")
    finally:
        segment.close()
        segment.unlink()
    expect(checks.check_teardown(token, before)[0],
           "teardown check passes again after cleanup")


def bare_directory() -> None:
    bare = os.path.join(HERE, "_runs", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "layerbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name),
                        os.path.join(bare, "layerbench"))
    proc = subprocess.run(
        [sys.executable, "layerbench/run.py", "--workload", "sta-4x1k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "run.py exits non-zero without a result when src/ is absent")


def main() -> int:
    bare_directory()
    planted_leaks()
    corrupted_checks()
    tiny_runs()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
