"""Micro-benchmarks of the struct-of-arrays peer state at scale.

``test_scale_artifact`` runs the churn/liveness transition workload for
both layouts (:class:`~repro.core.peerstate.PeerState` columns vs the
object-per-peer ``PeerStateReference`` of ``tests/peerstate_oracle.py``) at
N = 10^3 / 10^4 / 10^5 hosts, each measurement in a **forked child
process** so peak RSS (``getrusage.ru_maxrss``) is attributable to that
(impl, N) cell, and records events/sec + peak RSS in ``BENCH_scale.json``
at the repo root.  The headline claim — >= 3x state transitions/sec over
the object layout at N = 10^4 — is asserted on every run.

Run from the repository root (the oracle is imported as ``tests``)::

    PYTHONPATH=src python -m pytest -q benchmarks/test_microbench_scale.py
"""

from __future__ import annotations

import json
import multiprocessing
import pathlib
import resource
import time

from repro.core.peerstate import ONLINE, OFFLINE, PeerState

from tests.peerstate_oracle import PeerStateReference

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SIZES = (1_000, 10_000, 100_000)


def _rss_now_kb() -> int:
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1])
    return 0


def _liveness_workload(impl: str, n: int) -> dict:
    """Admit ``n`` hosts, then drive 10n liveness transitions in rotating
    cohorts of n/10 (the churn hot path: mark a cohort online, scan the
    online population, mark it offline).

    Each layout runs its natural steady-state calling convention: the
    SoA arm resolves cohorts to slot vectors once and then issues
    vectorised column writes; the object arm's handle *is* the host key,
    so every transition walks key -> record -> attribute — that per-peer
    pointer chase is precisely the layout cost being measured."""
    state = PeerState(initial_capacity=n) if impl == "soa" else PeerStateReference()
    hosts = list(range(n))
    rss_before_kb = _rss_now_kb()
    for h in hosts:
        state.admit(h, region=h % 64)

    block = max(1, n // 10)
    rounds = 50
    cohorts = [
        hosts[(r * block) % n : (r * block) % n + block] for r in range(rounds)
    ]
    if impl == "soa":
        cohorts = [state.slots_of(c) for c in cohorts]

    events = 0
    t0 = time.perf_counter()
    for cohort in cohorts:
        if impl == "soa":
            state.set_status_slots(cohort, ONLINE)
            state.online_count()
            state.set_status_slots(cohort, OFFLINE)
        else:
            state.set_status_many(cohort, ONLINE)
            state.online_count()
            state.set_status_many(cohort, OFFLINE)
        events += 2 * len(cohort)
    elapsed = time.perf_counter() - t0

    out = {
        "n_hosts": n,
        "events": events,
        "events_per_sec": round(events / elapsed),
        "elapsed_ms": round(elapsed * 1e3, 3),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
        "state_rss_delta_mb": round(max(0, _rss_now_kb() - rss_before_kb) / 1024, 1),
    }
    if impl == "soa":
        out["column_bytes"] = state.memory_bytes()
    return out


def _measure_in_child(impl: str, n: int) -> dict:
    """Fork one child per (impl, N) cell so ru_maxrss is per-measurement."""
    ctx = multiprocessing.get_context("fork")
    rx, tx = ctx.Pipe(duplex=False)

    def run() -> None:
        tx.send(_liveness_workload(impl, n))
        tx.close()

    proc = ctx.Process(target=run)
    proc.start()
    result = rx.recv()
    proc.join()
    assert proc.exitcode == 0
    return result


def test_liveness_transitions_soa_10k(benchmark):
    state = PeerState(initial_capacity=10_000)
    hosts = list(range(10_000))
    for h in hosts:
        state.admit(h)

    def transitions():
        state.set_status_many(hosts, ONLINE)
        state.set_status_many(hosts, OFFLINE)

    benchmark(transitions)
    assert state.online_count() == 0


def test_scale_artifact():
    """Record events/sec + peak RSS vs N for both layouts in
    BENCH_scale.json and hold the headline claim: >= 3x state
    transitions/sec over the object reference at N = 10^4."""
    artifact: dict = {"liveness": {"soa": {}, "reference": {}}}
    for impl in ("soa", "reference"):
        for n in SIZES:
            artifact["liveness"][impl][f"n_{n}"] = _measure_in_child(impl, n)

    soa_10k = artifact["liveness"]["soa"]["n_10000"]["events_per_sec"]
    ref_10k = artifact["liveness"]["reference"]["n_10000"]["events_per_sec"]
    artifact["headline"] = {
        "transitions_speedup_n10000": round(soa_10k / ref_10k, 2),
        "claim": "SoA liveness transitions >= 3x the object layout at N=10^4",
    }

    (REPO_ROOT / "BENCH_scale.json").write_text(
        json.dumps(artifact, indent=2) + "\n"
    )
    assert soa_10k >= 3.0 * ref_10k, artifact["headline"]
    # memory scales sub-linearly in hosts for the columns themselves
    assert artifact["liveness"]["soa"]["n_100000"]["column_bytes"] < 8 * 2**20
