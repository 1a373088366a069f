"""Micro-benchmarks of the selection engine (batch ranking + top-k).

``test_selection_artifact`` times the batched rank/top-k paths against
the retained scalar reference paths (``rank_scalar`` /
``rank_reference`` — the exact per-candidate implementations the batch
engine replaced) on a warm substrate and records the numbers in
``BENCH_selection.json`` at the repo root.  The headline claim — >= 3x
on 1000-candidate latency ranking — is asserted on every run, so the
speedup is measured, not remembered.
"""

import json
import pathlib
import time

import numpy as np

from repro.collection.oracle import ISPOracle
from repro.core.selection import LatencySelection
from repro.underlay import Underlay, UnderlayConfig

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_UNDERLAY = None


def _underlay() -> Underlay:
    """Warm shared substrate: 1100 hosts, latency matrix prebuilt."""
    global _UNDERLAY
    if _UNDERLAY is None:
        _UNDERLAY = Underlay.generate(
            UnderlayConfig(n_hosts=1100, seed=9)
        ).precompute()
    return _UNDERLAY


def _candidates(underlay, n, seed=0):
    rng = np.random.default_rng(seed)
    ids = underlay.host_ids()
    cand = [int(c) for c in rng.choice(ids[1:], size=n, replace=False)]
    return ids[0], cand


def _best_of(fn, repeats=5):
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_latency_rank_batch_1000(benchmark):
    sel = LatencySelection.from_underlay(_underlay())
    querier, cand = _candidates(_underlay(), 1000)

    out = benchmark(sel.rank, querier, cand)
    assert len(out) == 1000


def test_latency_top1_1000(benchmark):
    sel = LatencySelection.from_underlay(_underlay())
    querier, cand = _candidates(_underlay(), 1000)

    out = benchmark(sel.top_k, querier, cand, 1)
    assert out == sel.rank(querier, cand)[:1]


def test_oracle_rank_batch_1000(benchmark):
    underlay = _underlay()
    oracle = ISPOracle(underlay)
    querier, cand = _candidates(underlay, 1000)

    out = benchmark(oracle.rank, querier, cand)
    assert len(out) == 1000


def test_selection_artifact():
    """Record scalar-vs-batch timings in BENCH_selection.json and hold
    the headline claim: >= 3x on 1000-candidate latency ranking."""
    underlay = _underlay()
    artifact = {}

    sel = LatencySelection.from_underlay(underlay)
    for n in (100, 1000):
        querier, cand = _candidates(underlay, n)
        # comparing like with like: both paths produce the same ordering
        assert sel.rank(querier, cand) == sel.rank_scalar(querier, cand)
        scalar_s = _best_of(lambda: sel.rank_scalar(querier, cand), repeats=9)
        batch_s = _best_of(lambda: sel.rank(querier, cand), repeats=9)
        artifact[f"latency_rank_n{n}"] = {
            "scalar_ms": round(scalar_s * 1e3, 4),
            "batch_ms": round(batch_s * 1e3, 4),
            "speedup": round(scalar_s / batch_s, 2),
        }

    querier, cand = _candidates(underlay, 1000)
    full_s = _best_of(lambda: sel.rank(querier, cand))
    top1_s = _best_of(lambda: sel.top_k(querier, cand, 1))
    artifact["top_k_n1000"] = {
        "full_sort_ms": round(full_s * 1e3, 4),
        "top1_ms": round(top1_s * 1e3, 4),
        "full_over_top1": round(full_s / top1_s, 2),
    }

    oracle = ISPOracle(underlay)
    assert oracle.rank(querier, cand) == oracle.rank_reference(querier, cand)
    oracle_ref_s = _best_of(lambda: oracle.rank_reference(querier, cand))
    oracle_batch_s = _best_of(lambda: oracle.rank(querier, cand))
    artifact["oracle_rank_n1000"] = {
        "scalar_ms": round(oracle_ref_s * 1e3, 4),
        "batch_ms": round(oracle_batch_s * 1e3, 4),
        "speedup": round(oracle_ref_s / oracle_batch_s, 2),
    }

    (REPO_ROOT / "BENCH_selection.json").write_text(
        json.dumps(artifact, indent=2) + "\n"
    )
    assert artifact["latency_rank_n1000"]["speedup"] >= 3.0, artifact
    assert artifact["top_k_n1000"]["full_over_top1"] >= 1.0, artifact
