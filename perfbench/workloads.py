"""The benchmark's four workloads: pinned configs, the timed pass, and
the output checks.

Every workload runs serially in the calling process.  The seed given on
the command line is the experiment seed; everything else is pinned here
(``paper`` scale, or the ``tiny`` scale the self-test uses).  A pass
returns its rows -- the simulated statistics, which a host-speed change
must leave bit-identical -- plus the operations it attempted and the
check failures it found.  An operation is one experiment arm, or one
simulated store/retrieve on ``kad_service``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

Row = dict[str, Any]


@dataclass
class PassResult:
    rows: list[Row]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict[str, dict[str, Any]]  # scale -> pinned config
    #: (seed, config) -> state: the build step that precedes the timed
    #: phase and counts as set-up (None: nothing beyond imports)
    prepare: Optional[Callable[[int, dict], Any]]
    #: (state, seed, config) -> PassResult: the timed phase
    run_pass: Callable[[Any, int, dict], PassResult]
    #: state -> None: release what ``prepare`` built
    release: Optional[Callable[[Any], None]] = None


def rows_digest(rows: list[Row]) -> str:
    """Canonical digest of a pass's rows (sorted keys, exact float repr)."""
    blob = json.dumps(rows, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def _expect(problems: list[str], ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# -- fig5_gnutella -----------------------------------------------------------

def _fig5_pass(_state: Any, seed: int, cfg: dict) -> PassResult:
    # the arm runner behind run_fig5, which always runs all four arms
    # (~60 s, more than one benchmark run can spend).  The unbiased arm
    # carries most of the FIG5 traffic; the biased arms add ~0.1 s of
    # oracle ranking to half the traffic.
    from repro.experiments.fig5_gnutella_oracle import _run_arm
    from repro.overlay.gnutella import NeighborPolicy

    arm = _run_arm(
        name="unbiased", policy=NeighborPolicy.UNBIASED, oracle_list_limit=None,
        biased_download=False, n_hosts=cfg["n_hosts"],
        cache_fill=cfg["cache_fill"], seed=seed,
    )
    row = {
        "arm": arm.name, **arm.counts,
        "intra_edges": arm.intra_edge_fraction,
        "modularity": arm.modularity,
        "success": arm.search_success,
        "intra_downloads": arm.intra_download_fraction,
        "downloads": arm.downloads,
    }
    # the unbiased-arm shape benchmarks/test_fig5_gnutella_messages.py asserts
    problems: list[str] = []
    _expect(problems, row["QUERY"] > 0, "no QUERY traffic")
    _expect(problems, row["success"] > 0.9, "search success <= 0.9")
    _expect(problems, row["intra_edges"] < 0.1, "intra-AS edges >= 0.1")
    _expect(problems, row["intra_downloads"] < 0.2, "intra-AS downloads >= 0.2")
    return PassResult([row], 1, int(bool(problems)), problems)


FIG5 = Workload(
    name="fig5_gnutella",
    configs={"paper": {"n_hosts": 300, "cache_fill": 250},
             "tiny": {"n_hosts": 40, "cache_fill": 30}},
    prepare=None,
    run_pass=_fig5_pass,
)


# -- ispbill_spread ----------------------------------------------------------

def _ispbill_pass(_state: Any, seed: int, cfg: dict) -> PassResult:
    from repro.experiments import run_isp_bill

    rows = run_isp_bill(n_hosts=cfg["n_hosts"], seed=seed).rows
    unb, bia = rows
    # the shape benchmarks/test_isp_bill.py asserts, arm by arm
    arm_problems = [[], []]
    _expect(arm_problems[0], unb["total_transit_mb"] > 0, "unbiased: no transit traffic")
    _expect(arm_problems[0], unb["mean_stub_bill_usd"] > 0, "unbiased: no stub bill")
    mine = arm_problems[1]
    _expect(mine, bia["intra_as_fraction"] > 3 * unb["intra_as_fraction"],
            "biased: intra-AS fraction not > 3x unbiased")
    _expect(mine, bia["total_transit_mb"] < 0.5 * unb["total_transit_mb"],
            "biased: transit MB not < 0.5x unbiased")
    _expect(mine, bia["mean_stub_bill_usd"] < 0.6 * unb["mean_stub_bill_usd"],
            "biased: mean stub bill not < 0.6x unbiased")
    _expect(mine, bia["max_stub_bill_usd"] < unb["max_stub_bill_usd"],
            "biased: max stub bill not below unbiased")
    problems = arm_problems[0] + arm_problems[1]
    return PassResult(rows, 2, sum(bool(p) for p in arm_problems), problems)


ISPBILL = Workload(
    name="ispbill_spread",
    # 512 hosts: the smallest population on the frontier-batched flood
    # kernel (QUERY_AUTO_NODE_THRESHOLD)
    configs={"paper": {"n_hosts": 512}, "tiny": {"n_hosts": 80}},
    prepare=None,
    run_pass=_ispbill_pass,
)


# -- locality_swarm ----------------------------------------------------------

def _locality_pass(_state: Any, seed: int, cfg: dict) -> PassResult:
    from repro.experiments import run_locality_swarm

    rows = run_locality_swarm(
        n_hosts=cfg["n_hosts"], seed=seed, smoke=True, workers=1
    ).rows
    problems: list[str] = []
    failed = 0
    base = rows[0]
    for row in rows:
        mine: list[str] = []
        bias = row["bias"]
        _expect(mine, row["completion_rate"] > 0.9, f"bias {bias}: completion <= 0.9")
        if row is not base:
            # Cuevas' shape: stub transit bills and transit share fall with bias
            _expect(mine, row["stub_transit_bill_usd"] < base["stub_transit_bill_usd"],
                    f"bias {bias}: stub transit bill not below the random tracker")
            _expect(mine, row["transit_fraction"] < base["transit_fraction"],
                    f"bias {bias}: transit fraction not below the random tracker")
        problems += mine
        failed += bool(mine)
    return PassResult(rows, len(rows), failed, problems)


LOCALITY = Workload(
    name="locality_swarm",
    configs={"paper": {"n_hosts": 2000}, "tiny": {"n_hosts": 150}},
    prepare=None,
    run_pass=_locality_pass,
)


# -- kad_service -------------------------------------------------------------

def _kad_prepare(seed: int, cfg: dict) -> Any:
    from repro.service.bootstrap import Bootstrapper, ServiceConfig

    boot = Bootstrapper(
        ServiceConfig(overlay="kademlia", n_hosts=cfg["n_hosts"], seed=seed)
    )
    boot.build()
    return boot


def _kad_pass(boot: Any, _seed: int, cfg: dict) -> PassResult:
    rows, problems = [], []
    attempted = failed = 0
    for rate in cfg["rates_per_s"]:
        # open loop: seeded Poisson arrivals, latency from the scheduled
        # arrival, default 70/30 retrieve/store mix
        report = boot.drive_sync(
            mode="open", process="poisson", rate_per_s=rate,
            duration_ms=cfg["duration_ms"], drain_ms=cfg["drain_ms"],
            timeout_ms=cfg["timeout_ms"],
        ).as_dict()
        rows.append({"rate_per_s": rate, **report})
        attempted += report["offered"]
        failed += report["offered"] - report["succeeded"]
        outcomes = (report["succeeded"] + report["failed"]
                    + report["timed_out"] + report["unfinished"])
        _expect(problems, outcomes == report["offered"],
                f"{rate}/s: {report['offered']} offered but {outcomes} outcomes")
    lowest = rows[0]
    _expect(problems, lowest["succeeded"] == lowest["offered"],
            f"{lowest['rate_per_s']}/s: not every operation succeeded")
    return PassResult(rows, attempted, failed, problems)


KAD = Workload(
    name="kad_service",
    configs={
        # ~2 s per pass, so a 10 s run reports the median of about four
        "paper": {"n_hosts": 256, "rates_per_s": [50, 100, 200],
                  "duration_ms": 2_500.0, "drain_ms": 20_000.0,
                  "timeout_ms": 10_000.0},
        "tiny": {"n_hosts": 32, "rates_per_s": [10, 20],
                 "duration_ms": 2_000.0, "drain_ms": 20_000.0,
                 "timeout_ms": 10_000.0},
    },
    prepare=_kad_prepare,
    run_pass=_kad_pass,
    release=lambda boot: boot.stop_sync(),
)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (FIG5, ISPBILL, KAD, LOCALITY)}
