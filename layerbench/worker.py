"""One benchmark process: set up a workload, time it, trace it, check it.

``run.py`` starts this script several times per run.  Every start sets
the workload up from scratch (import, input generation, first call) and
announces ``ready``; the runner times that as one ``setup_s`` sample.
Only the last start goes on to the timed calls (``--role measure``) and
reports its figures as one JSON event on stdout.

Usage (normally through ``run.py``)::

    PYTHONPATH=src python3 layerbench/worker.py --workload sta-4x1k \
        --seed 1 --seconds 15 --trace 0 --role measure
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterator, List, Optional, Tuple

import checks
from spans import Patch, Recorder, Traced, layer_totals

EVENT = "@layerbench "

#: Input sizes.  ``tiny`` exists for the self-test only.
SIZES = {
    "full": {
        "sta-4x1k": {"designs": 4, "layers": 20, "width": 50,
                     "nets_checked": 8},
        "ssta-4x500": {"designs": 4, "layers": 20, "width": 25,
                       "oracle_chunks": 4, "oracle_chunk": 1000},
        "mc-sweep": {"depth": 8, "samples": 10000},
        "serve-stats": {"depth": 9, "rows": 16, "payloads": 8,
                        "nodes": 4},
    },
    "tiny": {
        "sta-4x1k": {"designs": 2, "layers": 4, "width": 10,
                     "nets_checked": 2},
        "ssta-4x500": {"designs": 2, "layers": 4, "width": 6,
                       "oracle_chunks": 2, "oracle_chunk": 2000},
        "mc-sweep": {"depth": 5, "samples": 400},
        "serve-stats": {"depth": 5, "rows": 4, "payloads": 2, "nodes": 3},
    },
}

#: Worker processes / client connections used by the parallel workloads
#: (the reference host has two cores).
JOBS = 2
MIN_CALLS = 3


def emit(event: str, **fields) -> None:
    sys.stdout.write(EVENT + json.dumps({"event": event, **fields}) + "\n")
    sys.stdout.flush()


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def p90(values) -> float:
    values = sorted(values)
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=10,
                                      method="inclusive")[-1])


def registry_value(name: str) -> float:
    """Current value of a counter, or a histogram's sum, in the
    library's metrics registry (0 when the series does not exist)."""
    from repro.obs.metrics import get_registry

    metric = get_registry().get(name)
    if metric is None:
        return 0.0
    return float(getattr(metric, "value", getattr(metric, "sum", 0.0)))


def registry_delta(names, fn):
    before = {n: registry_value(n) for n in names}
    result = fn()
    return result, {n: registry_value(n) - before[n] for n in names}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer_medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    keys = sorted({k for row in rows for k in row})
    return {k: median(row.get(k, 0.0) for row in rows) for k in keys}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Common driver: untraced timed calls, traced calls, checks."""

    name = ""
    unit_work = 1.0     # work items per call, for throughput

    def __init__(self, seed: int, size: Dict) -> None:
        self.seed = seed
        self.size = size
        self.checks: List[Dict] = []
        self.samples: Dict[str, int] = {}
        self.rec = Recorder()
        self.operations = 0
        self.failed_operations = 0

    def add_check(self, name: str, result) -> None:
        ok, detail = result
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    # -- subclass hooks ---------------------------------------------------
    def setup(self) -> Dict[str, float]:
        raise NotImplementedError

    def call(self):
        raise NotImplementedError

    def after_call(self, result) -> None:
        """Digest a result outside the timed region."""

    def next_input(self) -> None:
        """Move on to the next call's input, outside the timed region."""

    def warm_up(self) -> None:
        """Untimed calls before the timed ones."""

    def patches(self) -> List[Patch]:
        return []

    def traced_call(self):
        """One call with the patches installed: ``(per-layer row, result)``."""
        raise NotImplementedError

    def run_checks(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    # -- timed loops ------------------------------------------------------
    def timed_calls(self, seconds: float) -> List[float]:
        times: List[float] = []
        deadline = time.perf_counter() + seconds
        while len(times) < MIN_CALLS or time.perf_counter() < deadline:
            self.last = None    # keep at most one result alive
            self.next_input()
            start = time.perf_counter()
            result = self.call()
            times.append(time.perf_counter() - start)
            self.operations += 1
            self.after_call(result)
            self.last = result
        return times

    def measure(self, seconds: float) -> Dict[str, float]:
        self.warm_up()
        times = self.call_times = self.timed_calls(seconds)
        rss = peak_rss_mb()
        p50 = median(times)
        self.samples.update({"latency_p50_ms": len(times),
                             "latency_p90_ms": len(times),
                             "throughput_per_s": len(times),
                             "peak_rss_mb": 1})
        return {
            "latency_p50_ms": p50 * 1e3,
            "latency_p90_ms": p90(times) * 1e3,
            "throughput_per_s": self.unit_work / p50,
            "peak_rss_mb": rss,
        }

    def trace(self, seconds: float) -> Dict[str, float]:
        """Alternate untraced and traced calls; per-layer medians."""
        plain: List[float] = []
        traced: List[float] = []
        rows: List[Dict[str, float]] = []
        self.warm_up()
        deadline = time.perf_counter() + seconds
        while len(traced) < MIN_CALLS or time.perf_counter() < deadline:
            self.last = None
            self.next_input()
            start = time.perf_counter()
            result = self.call()
            plain.append(time.perf_counter() - start)
            self.after_call(result)
            self.last = result = None
            self.span_start = len(self.rec.spans)
            with Traced(self.rec, self.patches()):
                row, self.last = self.traced_call()
            self.operations += 2
            traced.append(row["trace.call_s"])
            row["trace.spans"] = len(self.rec.spans) - self.span_start
            rows.append(row)
        layers = per_layer_medians(rows)
        self.plain_median = median(plain)
        layers["trace.overhead_ratio"] = median(traced) / self.plain_median
        self.samples.update({k: len(rows) for k in layers})
        self.samples["trace.overhead_ratio"] = min(len(plain), len(traced))
        return layers

    def root_totals(self, root_name: str):
        """Layer totals under this traced call's root span; the root's
        own duration becomes the row's ``trace.call_s``."""
        spans = self.rec.spans[self.span_start:]
        root = next(s for s in spans if s[2] == root_name)
        return layer_totals(spans, root[0])


def _route_observe(rec: Recorder, args, kwargs, result) -> None:
    sinks = kwargs.get("sink_positions", args[1] if len(args) > 1 else ())
    rec.count("route_net_calls")
    rec.count("route_pins", 1 + len(sinks))


def _forest_observe(rec: Recorder, args, kwargs, result) -> None:
    rec.count("forest_nodes", result[0].num_nodes)


def _max_observe(rec: Recorder, args, kwargs, result) -> None:
    terms = len(getattr(result[0], "resid", ()))
    rec.count("resid_forms")
    rec.count("resid_terms", terms)
    rec.counts["resid_max"] = max(rec.counts.get("resid_max", 0), terms)


STA_PATCHES = [
    Patch("repro.sta.interconnect.route_net", "routing.route_net",
          _route_observe),
    Patch("repro.sta.timing.elaborate_net", "sta.interconnect.elaborate_net"),
    Patch("repro.sta.timing.compile_forest", "core.batch.compile_forest",
          _forest_observe),
    Patch("repro.sta.timing.batch_transfer_moments",
          "core.batch.transfer_moments"),
]
SSTA_PATCHES = [
    Patch("repro.sta.ssta.analyze", "sta.ssta.nominal_analyze"),
    Patch("repro.sta.ssta.canonical_max_many", "core.canonical.max_many",
          _max_observe),
]


def sta_layers(totals, counts):
    """Per-layer figures shared by the STA and SSTA workloads."""
    def total(name, field="total"):
        return totals.get(name, {}).get(field, 0.0)

    calls = counts.get("route_net_calls", 0.0)
    return {
        "routing.route_net_s": total("routing.route_net"),
        "routing.route_net_calls": calls,
        "routing.pins_per_net_mean":
            counts.get("route_pins", 0.0) / calls if calls else 0.0,
        "sta.interconnect.elaborate_net_self_s":
            total("sta.interconnect.elaborate_net", "self"),
        "core.batch.compile_forest_s": total("core.batch.compile_forest"),
        "core.batch.forest_nodes": counts.get("forest_nodes", 0.0),
        "core.batch.transfer_moments_s":
            total("core.batch.transfer_moments"),
        "core.canonical.max_many_s": total("core.canonical.max_many"),
    }


class DesignWorkload(Workload):
    """A workload on ``random_design``.

    The seed makes ``designs`` designs (seeds ``seed * designs + i``) and
    successive calls cycle through them, so the median call does not
    rest on one design's cost, which varies by up to a third from seed
    to seed.  The traced run also times the input generator.
    """

    def make_designs(self) -> None:
        count = self.size["designs"]
        self.designs = [
            self.random_design(self.size["layers"], self.size["width"],
                               seed=self.seed * count + i)
            for i in range(count)]
        self.index = 0
        self.design = self.designs[0]
        self.unit_work = float(median(len(d.instances)
                                      for d in self.designs))
        self.digests: Dict[int, List[str]] = {
            i: [] for i in range(count)}

    def next_input(self) -> None:
        self.index = (self.index + 1) % len(self.designs)
        self.design = self.designs[self.index]

    def warm_up(self) -> None:
        """One call on each design the set-up did not call."""
        for _ in self.designs[1:]:
            self.next_input()
            self.last = None
            self.last = self.call()
            self.after_call(self.last)

    def after_call(self, result) -> None:
        self.digests[self.index].append(self.digest(result))

    def check_repeatable(self, what: str) -> Iterator[Tuple[int, object,
                                                              object]]:
        """Recompute every design once more: each design's results must
        be bit-identical over all its calls.  Yields ``(index, design,
        result)`` of each recomputation for further checks."""
        for index, design in enumerate(self.designs):
            self.index, self.design = index, design
            self.last = None
            self.last = self.call()
            self.after_call(self.last)
            yield index, design, self.last
        results = [checks.check_identical(self.digests[i],
                                          f"design {i} {what}")
                   for i in sorted(self.digests)]
        failed = [r for r in results if not r[0]]
        self.add_check(f"{what} bit-identical across calls",
                       failed[0] if failed else
                       (True, "; ".join(r[1] for r in results)))

    def trace(self, seconds):
        layers = super().trace(seconds)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self.random_design(self.size["layers"], self.size["width"],
                               seed=self.seed * len(self.designs))
            times.append(time.perf_counter() - start)
        layers["workloads.random_design_s"] = median(times)
        self.samples["workloads.random_design_s"] = len(times)
        return layers


class StaWorkload(DesignWorkload):
    """``repro.sta.analyze(design, "elmore")`` on four random 1k-gate
    designs in turn."""

    name = "sta-4x1k"

    def setup(self):
        start = time.perf_counter()
        from repro.core.verification import verify_tree
        from repro.sta import analyze
        from repro.workloads import random_design
        imported = time.perf_counter()
        self.analyze, self.verify_tree = analyze, verify_tree
        self.random_design = random_design
        self.make_designs()
        generated = time.perf_counter()
        self.last = None
        self.after_call(self.call())
        return {"import_s": imported - start,
                "inputs_s": generated - imported,
                "first_call_s": time.perf_counter() - generated}

    def call(self):
        return self.analyze(self.design, "elmore")

    digest = staticmethod(checks.arrival_digest)

    def patches(self):
        return STA_PATCHES + SSTA_PATCHES

    def traced_call(self):
        def run():
            with self.rec.span("sta.timing.analyze"):
                return self.analyze(self.design, "elmore")
        self.rec.counts.clear()
        result, delta = registry_delta(["sta_nets_total"], run)
        self.after_call(result)
        totals = self.root_totals("sta.timing.analyze")
        row = sta_layers(totals, self.rec.counts)
        row["sta.timing.analyze_self_s"] = totals["sta.timing.analyze"]["self"]
        row["trace.call_s"] = totals["sta.timing.analyze"]["total"]
        row["sta.timing.nets_evaluated"] = delta["sta_nets_total"]
        return row, result

    def run_checks(self):
        import numpy as np

        rng = np.random.default_rng(self.seed)
        bounds = []
        for index, design, result in self.check_repeatable("arrivals"):
            names = sorted(result.nets)
            picked = rng.choice(len(names),
                                min(self.size["nets_checked"], len(names)),
                                replace=False)
            bounds.append(checks.check_net_bounds(
                result, design, [names[i] for i in sorted(picked)],
                self.verify_tree))
        failed = [b for b in bounds if not b[0]]
        self.add_check("paper bounds on sampled nets",
                       failed[0] if failed else
                       (True, "; ".join(b[1] for b in bounds)))


class SstaWorkload(DesignWorkload):
    """``analyze_ssta`` on four random 500-gate designs in turn."""

    name = "ssta-4x500"

    def setup(self):
        start = time.perf_counter()
        from repro.core.variation import VariationModel
        from repro.sta import ProcessModel, analyze_ssta
        from repro.sta.ssta import monte_carlo_arrivals
        from repro.workloads import random_design
        imported = time.perf_counter()
        self.analyze_ssta = analyze_ssta
        self.monte_carlo_arrivals = monte_carlo_arrivals
        self.random_design = random_design
        self.make_designs()
        # The process model of benchmarks/bench_ssta.py.
        self.model = ProcessModel(
            variation=VariationModel(resistance_sigma=0.08,
                                     capacitance_sigma=0.08),
            rho_r=0.5, rho_c=0.5, cell_sigma=0.05, rho_cell=0.5,
        )
        generated = time.perf_counter()
        self.last = None
        self.last = self.call()
        self.after_call(self.last)
        return {"import_s": imported - start,
                "inputs_s": generated - imported,
                "first_call_s": time.perf_counter() - generated}

    def call(self):
        return self.analyze_ssta(self.design, self.model)

    digest = staticmethod(checks.ssta_digest)

    def patches(self):
        return STA_PATCHES + SSTA_PATCHES

    def traced_call(self):
        def run():
            with self.rec.span("sta.ssta.analyze_ssta"):
                return self.analyze_ssta(self.design, self.model)
        self.rec.counts.clear()
        result, delta = registry_delta(
            ["ssta_max_operations_total", "sta_nets_total"], run)
        totals = self.root_totals("sta.ssta.analyze_ssta")
        counts = self.rec.counts
        forms = counts.get("resid_forms", 0.0)
        row = sta_layers(totals, counts)
        row.update({
            "sta.timing.analyze_self_s":
                totals.get("sta.ssta.nominal_analyze", {}).get("self", 0.0),
            "sta.timing.nets_evaluated": delta["sta_nets_total"],
            "sta.ssta.nominal_analyze_s":
                totals.get("sta.ssta.nominal_analyze", {}).get("total", 0.0),
            "sta.ssta.analyze_ssta_self_s":
                totals["sta.ssta.analyze_ssta"]["self"],
            "trace.call_s": totals["sta.ssta.analyze_ssta"]["total"],
            "core.canonical.max_ops": delta["ssta_max_operations_total"],
            "core.canonical.resid_terms_mean":
                counts.get("resid_terms", 0.0) / forms if forms else 0.0,
            "core.canonical.resid_terms_max": counts.get("resid_max", 0.0),
        })
        self.after_call(result)
        return row, result

    def trace(self, seconds):
        layers = super().trace(seconds)
        self.run_checks()
        layers["sta.ssta.oracle_mean_err"] = self.oracle_errors[0]
        layers["sta.ssta.oracle_sigma_err"] = self.oracle_errors[1]
        self.samples["sta.ssta.oracle_mean_err"] = self.oracle_samples
        self.samples["sta.ssta.oracle_sigma_err"] = self.oracle_samples
        return layers

    def run_checks(self):
        if self.checks:     # already run by trace()
            return
        canonical, oracle = {}, {}
        chunks = self.size["oracle_chunks"]
        for index, design, report in self.check_repeatable("outputs"):
            pooled = checks.PooledMoments()
            ports = None
            for chunk in range(chunks):
                ports, matrix = self.monte_carlo_arrivals(
                    design, self.model, self.size["oracle_chunk"],
                    seed=(self.seed * len(self.designs) + index) * chunks
                    + chunk,
                    nominal=report.nominal)
                pooled.add(matrix)
                del matrix
            means, sigmas = pooled.mean_sigma()
            oracle.update({(index, p): (float(m), float(s))
                           for p, m, s in zip(ports, means, sigmas)})
            canonical.update({(index, p): (f.mu, f.sigma)
                              for p, f in report.outputs.items()})
        self.oracle_samples = pooled.n
        self.oracle_errors = checks.ssta_errors(canonical, oracle)
        self.add_check("SSTA within 1% mean / 5% sigma of Monte Carlo",
                       checks.check_ssta(canonical, oracle))


class McWorkload(Workload):
    """``monte_carlo_delay_matrix(..., jobs=2)`` with the default backend."""

    name = "mc-sweep"

    def setup(self):
        start = time.perf_counter()
        import numpy as np
        from repro.circuit.builders import balanced_tree
        from repro.core.variation import VariationModel, \
            monte_carlo_delay_matrix
        imported = time.perf_counter()
        self.mc = monte_carlo_delay_matrix
        rng = np.random.default_rng(self.seed)
        self.tree = balanced_tree(
            self.size["depth"], 2,
            resistance=float(rng.uniform(20.0, 200.0)),
            capacitance=float(rng.uniform(5e-15, 50e-15)),
            driver_resistance=float(rng.uniform(50.0, 500.0)),
            leaf_load=float(rng.uniform(1e-15, 20e-15)),
        )
        self.model = VariationModel(0.1, 0.1)
        self.samples_per_call = self.size["samples"]
        self.mc_seed = int(rng.integers(0, 2**31))
        generated = time.perf_counter()
        self.unit_work = float(self.samples_per_call)
        self.digests: List[str] = []
        self.last = None
        self.after_call(self.call())
        return {"import_s": imported - start,
                "inputs_s": generated - imported,
                "first_call_s": time.perf_counter() - generated}

    def call(self, **kwargs):
        if not kwargs:
            kwargs = {"jobs": JOBS}
        return self.mc(self.tree, self.model, self.samples_per_call,
                       seed=self.mc_seed, **kwargs)

    def after_call(self, result) -> None:
        self.digests.append(checks.array_digest(result))

    def patches(self):
        return [
            Patch("repro.core.variation.run_sharded", "parallel.run_sharded"),
            Patch("repro.parallel.executor.ProcessPoolExecutor",
                  "parallel.pool_create", _pool_observe),
            Patch("repro.parallel.pool.ProcessPoolExecutor",
                  "parallel.pool_create", _pool_observe),
        ]

    COUNTERS = ["parallel_shard_seconds", "parallel_shards_total",
                "parallel_shm_bytes_total", "parallel_degraded_total",
                "parallel_shm_fallback_total", "parallel_retries_total"]

    def traced_call(self):
        def run():
            with self.rec.span("core.variation.monte_carlo_delay_matrix"):
                return self.call()
        self.rec.counts.clear()
        result, delta = registry_delta(self.COUNTERS, run)
        self.after_call(result)
        totals = self.root_totals("core.variation.monte_carlo_delay_matrix")
        sharded = totals.get("parallel.run_sharded", {}).get("total", 0.0)
        busy = delta["parallel_shard_seconds"]
        shards = delta["parallel_shards_total"]
        row = {
            "core.variation.mc_self_s":
                totals["core.variation.monte_carlo_delay_matrix"]["self"],
            "trace.call_s":
                totals["core.variation.monte_carlo_delay_matrix"]["total"],
            "parallel.run_sharded_s": sharded,
            "parallel.shard_busy_s": busy,
            "parallel.worker_utilization":
                busy / (sharded * JOBS) if sharded else 0.0,
            "parallel.shards": shards,
            "parallel.shm_bytes": delta["parallel_shm_bytes_total"],
            "parallel.pool_forks": self.rec.counts.get("pool_creates", 0.0),
            "parallel.fallbacks": delta["parallel_degraded_total"]
            + delta["parallel_shm_fallback_total"]
            + delta["parallel_retries_total"],
            "core.batch.rows_per_sweep":
                self.samples_per_call / shards if shards else 0.0,
        }
        return row, result

    def trace(self, seconds):
        layers = super().trace(seconds * 0.8)
        serial = []
        for _ in range(5):
            start = time.perf_counter()
            result = self.call(backend="serial")
            serial.append(time.perf_counter() - start)
            self.serial_digest = checks.array_digest(result)
            del result
        layers["parallel.serial_reference_s"] = median(serial)
        self.samples["parallel.serial_reference_s"] = len(serial)
        # Against the untraced jobs=2 median call of this same run.
        layers["parallel.speedup_vs_serial"] = \
            median(serial) / self.plain_median
        self.samples["parallel.speedup_vs_serial"] = len(serial)
        return layers

    def run_checks(self):
        if not hasattr(self, "serial_digest"):
            result = self.call(backend="serial")
            self.serial_digest = checks.array_digest(result)
            del result
        self.add_check("jobs=2 matrices bit-identical across calls",
                       checks.check_identical(self.digests, "matrices"))
        self.add_check("jobs=2 matrix bit-identical to serial backend",
                       checks.check_identical(
                           [self.digests[-1], self.serial_digest],
                           "default vs serial"))


def _pool_observe(rec: Recorder, args, kwargs, result) -> None:
    rec.count("pool_creates")


# ---------------------------------------------------------------------------
# HTTP serving
# ---------------------------------------------------------------------------

SERVE_SERIES = ["serve_batches_total", "serve_batch_size_sum",
                "serve_batch_size_count", "serve_coalesced_total",
                "serve_rejected_total", "serve_deadline_expired_total"]


def scrape(text: str) -> Dict[str, float]:
    """Prometheus text -> {name: value}; a name with labeled series
    counts the sum of those series (some counters are labeled only)."""
    base: Dict[str, float] = {}
    labeled: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        name, brace, _ = key.partition("{")
        target = labeled if brace else base
        target[name] = target.get(name, 0.0) + float(value)
    return {n: labeled.get(n, base.get(n, 0.0)) for n in SERVE_SERIES}


def delta(after: Dict[str, float], before: Dict[str, float]):
    return {k: after[k] - before[k] for k in after}


def batch_mean(d: Dict[str, float]) -> float:
    count = d["serve_batch_size_count"]
    return d["serve_batch_size_sum"] / count if count else 0.0


class ServeWorkload(Workload):
    """``python -m repro serve`` with its default config, driven by one
    client thread in a closed loop over one (c1) or two (c2) keep-alive
    connections."""

    name = "serve-stats"

    def setup(self):
        start = time.perf_counter()
        rng = random.Random(self.seed)
        depth = self.size["depth"]
        workload = f"balanced:{depth}x2"
        self.bodies: List[bytes] = []
        for _ in range(self.size["payloads"]):
            nodes = sorted({
                "t" + "".join(f".{rng.randrange(2)}"
                              for _ in range(rng.randrange(depth)))
                for _ in range(self.size["nodes"])
            })
            payload = {
                "workload": workload,
                "rscale": [round(rng.uniform(0.8, 1.2), 6)
                           for _ in range(self.size["rows"])],
                "nodes": nodes,
            }
            self.bodies.append(json.dumps(payload).encode())
        self.responses = set()
        generated = time.perf_counter()
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        port = self._await_port(60.0)
        started = time.perf_counter()
        self.conns = [http.client.HTTPConnection("127.0.0.1", port,
                                                 timeout=60)
                      for _ in range(2)]
        for i in range(20):
            self.post(0, i)
        for i in range(10):
            self.pair(i)
        return {"inputs_s": generated - start,
                "server_start_s": started - generated,
                "warmup_s": time.perf_counter() - started}

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        stream = self.server.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 1.0)
            if not ready:
                continue
            line = stream.readline().decode(errors="replace")
            if not line:
                break
            if line.startswith("serving on "):
                return int(line.strip().rsplit(":", 1)[1])
        raise RuntimeError("server did not announce its port")

    # -- client -----------------------------------------------------------
    def post(self, conn: int, i: int) -> None:
        index = i % len(self.bodies)
        c = self.conns[conn]
        c.request("POST", "/v1/stats", self.bodies[index],
                  {"Content-Type": "application/json"})
        self._record(index, c.getresponse())

    def pair(self, i: int) -> None:
        """Two requests in flight at once from this one thread."""
        a, b = i % len(self.bodies), (i + 1) % len(self.bodies)
        for conn, index in ((0, a), (1, b)):
            self.conns[conn].request("POST", "/v1/stats", self.bodies[index],
                                     {"Content-Type": "application/json"})
        for conn, index in ((0, a), (1, b)):
            self._record(index, self.conns[conn].getresponse())

    def _record(self, index: int, response) -> None:
        body = response.read()
        self.operations += 1
        if response.status != 200:
            self.failed_operations += 1
        self.responses.add((index, response.status, body))

    def get(self, path: str) -> bytes:
        c = self.conns[0]
        c.request("GET", path)
        return c.getresponse().read()

    def metrics(self) -> Dict[str, float]:
        return scrape(self.get("/metrics").decode())

    def server_peak_rss_mb(self) -> float:
        with open(f"/proc/{self.server.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    # -- phases -----------------------------------------------------------
    def c1(self, seconds: float, traced: bool = False) -> List[float]:
        times: List[float] = []
        deadline = time.perf_counter() + seconds
        i = 0
        while len(times) < 20 or time.perf_counter() < deadline:
            start = time.perf_counter()
            if traced:
                with self.rec.span("serve.client.request"):
                    self.post(0, i)
            else:
                self.post(0, i)
            times.append(time.perf_counter() - start)
            i += 1
        return times

    def c2(self, seconds: float) -> List[float]:
        times: List[float] = []
        deadline = time.perf_counter() + seconds
        i = 0
        while len(times) < 20 or time.perf_counter() < deadline:
            start = time.perf_counter()
            self.pair(i)
            times.append(time.perf_counter() - start)
            i += 2
        return times

    def measure(self, seconds: float) -> Dict[str, float]:
        c1 = self.c1(seconds / 2)
        c2 = self.c2(seconds / 2)
        self.call_times = c1
        rss = self.server_peak_rss_mb()
        self.stop_server()
        self.samples.update({"latency_p50_ms": len(c1),
                             "latency_p90_ms": len(c1),
                             "throughput_per_s": len(c2),
                             "peak_rss_mb": 1})
        return {
            "latency_p50_ms": median(c1) * 1e3,
            "latency_p90_ms": p90(c1) * 1e3,
            "throughput_per_s": 2.0 / median(c2),
            "peak_rss_mb": rss,
        }

    def trace(self, seconds: float) -> Dict[str, float]:
        echo = []
        for _ in range(300):
            with self.rec.span("serve.client.healthz") as sp:
                self.get("/healthz")
            echo.append(time.perf_counter() - sp.start)
        m0 = self.metrics()
        plain = self.c1(seconds * 0.3)
        spans_before = len(self.rec.spans)
        traced = self.c1(seconds * 0.3, traced=True)
        spans = len(self.rec.spans) - spans_before
        m1 = self.metrics()
        pairs = self.c2(seconds * 0.3)
        m2 = self.metrics()
        self.stop_server()
        d1, d2, d_all = delta(m1, m0), delta(m2, m1), delta(m2, m0)
        direct = self.direct_calls(min(seconds * 0.1, 2.0))
        echo_ms = median(echo) * 1e3
        c1_ms = median(plain) * 1e3
        layers = {
            "serve.echo_floor_ms": echo_ms,
            **direct,
            "serve.queue_and_window_ms":
                c1_ms - echo_ms - sum(direct.values()),
            "serve.c1.batch_size_mean": batch_mean(d1),
            "serve.c2.batch_size_mean": batch_mean(d2),
            "serve.c2.coalesced_ratio":
                d2["serve_coalesced_total"] / d2["serve_batch_size_sum"]
                if d2["serve_batch_size_sum"] else 0.0,
            "serve.batches": d_all["serve_batches_total"],
            "serve.rejected": d_all["serve_rejected_total"],
            "serve.deadline_expired": d_all["serve_deadline_expired_total"],
            "trace.overhead_ratio": median(traced) / median(plain),
            "trace.call_s": median(traced),
            "trace.spans": spans / len(traced),
        }
        self.samples.update({k: 1 for k in layers})
        self.samples.update({
            "serve.echo_floor_ms": len(echo),
            "serve.queue_and_window_ms": len(plain),
            "serve.c1.batch_size_mean": len(plain) + len(traced),
            "serve.c2.batch_size_mean": 2 * len(pairs),
            "serve.c2.coalesced_ratio": 2 * len(pairs),
            "trace.overhead_ratio": min(len(plain), len(traced)),
            "trace.call_s": len(traced),
            "trace.spans": len(traced),
        })
        self.samples.update({k: self.direct_samples for k in direct})
        return layers

    def direct_calls(self, seconds: float) -> Dict[str, float]:
        """Parse, evaluate and encode the same payloads in this process,
        as the server does for one request."""
        from repro.serve.app import ReproServer
        from repro.serve.engine import StatsEngine
        from repro.serve.schemas import parse_stats_request

        engine = StatsEngine()
        names = ("serve.schemas.parse", "serve.engine.evaluate",
                 "serve.app.encode")
        times: Dict[str, List[float]] = {n: [] for n in names}
        deadline = time.perf_counter() + seconds
        i = 0
        while i < 30 or time.perf_counter() < deadline:
            body = self.bodies[i % len(self.bodies)]
            with self.rec.span(names[0]) as sp:
                request = parse_stats_request(json.loads(body))
            times[names[0]].append(time.perf_counter() - sp.start)
            with self.rec.span(names[1]) as sp:
                response = engine.evaluate(request.key, [request])[0]
            times[names[1]].append(time.perf_counter() - sp.start)
            with self.rec.span(names[2]) as sp:
                ReproServer._json(response)
            times[names[2]].append(time.perf_counter() - sp.start)
            i += 1
        self.direct_samples = i
        return {f"{n}_ms": median(t) * 1e3 for n, t in times.items()}

    def stop_server(self) -> None:
        for conn in getattr(self, "conns", ()):
            conn.close()
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGTERM)
        try:
            code = self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            code = self.server.wait()
        self.server.stdout.close()
        self.exit_code = code

    def close(self) -> None:
        if self.server.poll() is None:
            self.stop_server()

    def run_checks(self) -> None:
        from repro.serve.app import ReproServer
        from repro.serve.engine import StatsEngine
        from repro.serve.schemas import parse_stats_request

        engine = StatsEngine()
        expected = {}
        for index, body in enumerate(self.bodies):
            request = parse_stats_request(json.loads(body))
            expected[index] = [
                ReproServer._json(
                    engine.evaluate(request.key, [request] * k)[0])[0]
                for k in (1, 2)
            ]
        received = sorted(self.responses)
        ok, detail = True, ""
        for index, status, body in received:
            ok, detail = checks.check_bodies([(status, body)],
                                             expected[index])
            if not ok:
                break
        if ok:
            detail = (f"{self.operations} responses, "
                      f"{len(received)} distinct bodies, all byte-identical "
                      "to direct evaluation")
        self.add_check("HTTP bodies equal the library's direct evaluation",
                       (ok, detail))
        self.add_check("server exits 0 on SIGTERM",
                       checks.check_exit_code(self.exit_code))


WORKLOADS = {cls.name: cls for cls in
             (StaWorkload, SstaWorkload, McWorkload, ServeWorkload)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"),
                        default="measure")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed,
                                        SIZES[args.size][args.workload])
    try:
        phases = workload.setup()
        emit("ready", phases=phases)
        if args.role == "setup":
            return 0
        if args.trace:
            figures = workload.trace(args.seconds)
        else:
            figures = workload.measure(args.seconds)
        workload.run_checks()
    finally:
        workload.close()
    if args.trace and args.spans_out:
        workload.rec.write(args.spans_out)
    import numpy

    emit("result", figures=figures, samples=workload.samples,
         numpy=numpy.__version__,
         call_times=getattr(workload, "call_times", None),
         checks=workload.checks, operations=workload.operations,
         failed_operations=workload.failed_operations)
    return 0


if __name__ == "__main__":
    sys.exit(main())
