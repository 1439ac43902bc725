"""Correctness checks, run after the timed calls.

Each check returns ``(ok, detail)`` and counts as one operation in the
result's ``attempted``/``failed``.  A failing check is reported as it
is; tolerances here are the repository's documented ones and are never
widened to make a run pass.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Iterable, List, Sequence, Tuple

#: Canonical SSTA against the Monte-Carlo oracle (ROADMAP, ssta docs).
SSTA_MEAN_TOL = 0.01
SSTA_SIGMA_TOL = 0.05
#: STA wire delay against the independently computed Elmore delay.
ELMORE_REL_TOL = 1e-9

Check = Tuple[bool, str]


def arrival_digest(result) -> str:
    """Digest of every arrival time of an STA result, bit for bit."""
    h = hashlib.sha256()
    for pin, value in sorted(result.arrival.items(),
                             key=lambda kv: str(kv[0])):
        h.update(f"{pin}={float(value).hex()};".encode())
    return h.hexdigest()


def ssta_digest(report) -> str:
    """Digest of every output's canonical mean and sigma, bit for bit."""
    h = hashlib.sha256()
    for port, form in sorted(report.outputs.items(),
                             key=lambda kv: str(kv[0])):
        h.update(f"{port}={float(form.mu).hex()},"
                 f"{float(form.sigma).hex()};".encode())
    return h.hexdigest()


def array_digest(array) -> str:
    """Digest of an ndarray's shape, dtype and bytes (without a copy)."""
    import numpy as np

    h = hashlib.sha256()
    h.update(f"{array.shape}{array.dtype}".encode())
    h.update(memoryview(np.ascontiguousarray(array)).cast("B"))
    return h.hexdigest()


def check_identical(digests: Sequence[str], what: str) -> Check:
    if not digests:
        return False, f"{what}: nothing to compare"
    distinct = sorted(set(digests))
    if len(distinct) != 1:
        return False, f"{what}: {len(distinct)} distinct digests " \
                      f"over {len(digests)} results"
    return True, f"{what}: {len(digests)} identical"


def check_net_bounds(result, design, net_names: Iterable[str],
                     verify_tree) -> Check:
    """The paper's bounds on sampled nets of an STA result.

    For every sink of every sampled net, the library's ``verify_tree``
    finds ``max(mu - sigma, 0) <= t50 <= T_D`` (its lower-bound,
    upper-bound and ordering claims), and the wire delay the STA
    propagated equals that node's Elmore delay ``T_D``, so the STA
    arrival is the certified upper bound.  ``verify_tree``'s other
    claims (unimodality and skew of the sampled impulse response) are
    counted in the detail, not gated: they are not the bound.
    """
    checked = 0
    other_claims = 0
    for name in net_names:
        elaborated = result.nets[name]
        driver = design.nets[name].driver
        verdict = verify_tree(elaborated.tree,
                              nodes=list(elaborated.sink_nodes.values()))
        by_node = {v.node: v for v in verdict.nodes}
        for sink, node in elaborated.sink_nodes.items():
            v = by_node[node]
            if not (v.lower_bound_holds and v.upper_bound_holds
                    and v.ordering_holds):
                return False, (f"net {name} sink {sink}: bound claims fail "
                               f"(lower {v.lower_bound_holds}, upper "
                               f"{v.upper_bound_holds}, ordering "
                               f"{v.ordering_holds})")
            wire = result.arrival[sink] - result.arrival[driver]
            if abs(wire - v.elmore) > ELMORE_REL_TOL * abs(v.elmore):
                return False, (f"net {name} sink {sink}: STA wire delay "
                               f"{wire!r} != Elmore {v.elmore!r}")
            if not (v.lower_bound <= v.actual_delay <= wire * (1 + 1e-12)):
                return False, (f"net {name} sink {sink}: t50 "
                               f"{v.actual_delay!r} outside "
                               f"[{v.lower_bound!r}, {wire!r}]")
            other_claims += not v.all_hold
            checked += 1
    if checked == 0:
        return False, "no sink checked"
    return True, (f"{checked} sinks within max(mu-sigma,0) <= t50 <= T_D; "
                  f"{other_claims} with another verify_tree claim false")


class PooledMoments:
    """Per-column mean and population sigma over stacked sample blocks."""

    def __init__(self) -> None:
        self.n = 0
        self.s1 = None
        self.s2 = None

    def add(self, matrix) -> None:
        import numpy as np

        block = np.asarray(matrix, dtype=np.float64)
        mean = block.mean(axis=0)
        centered = ((block - mean) ** 2).sum(axis=0)
        if self.s1 is None:
            self.n, self.s1, self.s2 = block.shape[0], mean, centered
            return
        # Chan et al. pairwise update of mean and sum of squares.
        n_a, n_b = self.n, block.shape[0]
        delta = mean - self.s1
        total = n_a + n_b
        self.s1 = self.s1 + delta * (n_b / total)
        self.s2 = self.s2 + centered + delta ** 2 * (n_a * n_b / total)
        self.n = total

    def mean_sigma(self):
        import numpy as np

        return self.s1, np.sqrt(self.s2 / self.n)


def ssta_errors(canonical: Dict[str, Tuple[float, float]],
                oracle: Dict[str, Tuple[float, float]]) -> Tuple[float, float]:
    """Worst relative mean and sigma error over all outputs (same
    definitions as ``repro.sta.ssta.validate_against_monte_carlo``)."""
    worst_mean = worst_sigma = 0.0
    for port, (mu, sigma) in canonical.items():
        mc_mean, mc_sigma = oracle[port]
        worst_mean = max(worst_mean,
                         abs(mu - mc_mean) / max(abs(mc_mean), 1e-300))
        scale = mc_sigma if mc_sigma > 0.0 else max(abs(mc_mean), 1e-300)
        worst_sigma = max(worst_sigma, abs(sigma - mc_sigma) / scale)
    return worst_mean, worst_sigma


def check_ssta(canonical, oracle) -> Check:
    if set(canonical) != set(oracle) or not canonical:
        return False, "SSTA and oracle disagree on the output set"
    mean_err, sigma_err = ssta_errors(canonical, oracle)
    ok = mean_err <= SSTA_MEAN_TOL and sigma_err <= SSTA_SIGMA_TOL
    return ok, (f"max mean err {mean_err:.4%} (<= {SSTA_MEAN_TOL:.0%}), "
                f"max sigma err {sigma_err:.4%} (<= {SSTA_SIGMA_TOL:.0%})")


def check_bodies(received: Sequence[Tuple[int, bytes]],
                 expected: Sequence[bytes]) -> Check:
    """Every 200 body equals one of the library's direct encodings."""
    allowed = set(expected)
    if not received:
        return False, "no responses"
    for status, body in received:
        if status != 200:
            return False, f"HTTP {status}: {body[:120]!r}"
        if body not in allowed:
            return False, f"body differs from direct evaluation " \
                          f"({len(body)} bytes)"
    return True, f"{len(received)} bodies byte-identical"


def check_exit_code(code) -> Check:
    return code == 0, f"server exit code {code!r} on SIGTERM"


# -- teardown ------------------------------------------------------------

#: Name prefixes of shared-memory segments the library (``repro_shm``)
#: and Python's ``multiprocessing.shared_memory`` (``psm_``) create.
SHM_PREFIXES = ("repro_shm", "psm_")
SHM_DIR = "/dev/shm"


def shm_segments() -> List[str]:
    try:
        names = os.listdir(SHM_DIR)
    except OSError:
        return []
    return sorted(n for n in names if n.startswith(SHM_PREFIXES))


def processes_with_token(token: str) -> List[int]:
    """Live processes whose environment carries ``token``; the runner
    puts it in every child's environment, and forked or spawned
    descendants inherit it even after they are re-parented."""
    needle = token.encode()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as fh:
                environ = fh.read()
            with open(f"/proc/{entry}/stat", "rb") as fh:
                state = fh.read().rsplit(b")", 1)[1].split()[0]
        except OSError:
            continue
        if needle in environ.split(b"\0") and state != b"Z":
            found.append(int(entry))
    return found


def check_teardown(token: str, shm_before: Sequence[str]) -> Check:
    leaked_procs = processes_with_token(token)
    leaked_shm = sorted(set(shm_segments()) - set(shm_before))
    if leaked_procs or leaked_shm:
        return False, (f"leaked processes {leaked_procs}, "
                       f"leaked shm segments {leaked_shm}")
    return True, "no child process or shm segment left behind"
