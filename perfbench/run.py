"""End-to-end benchmark of the paper experiments, with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload fig5_gnutella --seed 1 --seconds 10 --trace 0

Workloads (``perfbench/workloads.py``): ``fig5_gnutella``,
``ispbill_spread``, ``kad_service``, ``locality_swarm``.  Everything runs
serially in this process against ``src/`` of the same checkout.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: process start to workload ready (interpreter, ``import
  repro``, the workload's build step); the median of this process and
  two fresh set-up processes;
- ``run_s``: one timed pass, the median over passes;
- ``peak_rss_mb``: peak resident memory of this process.

``setup_s`` and ``run_s`` are in reference seconds: wall time scaled by
the host speed that probes interleaved with the measured code observe
(``perfbench/hostspeed.py``), because the shared hosts this runs on
drift in speed by tens of per cent over tens of seconds.  The raw wall
times and probe unit times are in the artifact.

``--seconds`` is the least time the timed phase measures: another pass
starts only while it is expected to end within it, so a pass longer than
``--seconds`` runs exactly once.

``--trace 1`` runs one untraced pass, then the same build and pass again
with every layer wrapped in spans (``perfbench/layers.py``), and reports
the per-layer metrics, including ``trace.overhead_s``.

Outputs are checked on every pass (``correct``); failed operations are
counted against attempted ones.  The line before the last is the run's
artifact (manifest, rows digest, per-pass detail), also written to
``perfbench/results/``; the last line is the result object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from hostspeed import HostSpeedProbe
from workloads import WORKLOADS, PassResult, Workload, rows_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 2
LAYER_SUM_TOLERANCE = 0.05


def process_age_s() -> float:
    """Seconds since this process started (Linux ``/proc``)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22, starttime, in clock ticks since boot
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def import_repro() -> None:
    """Import the program from this checkout's ``src/`` and nowhere else."""
    # one BLAS thread: the host has few cores, and the timed work is serial
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not from {SRC}")
    import repro.experiments  # noqa: F401  (the experiment entry points)
    import repro.service.bootstrap  # noqa: F401


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # e.g. an exported checkout
    out = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                         text=True, timeout=60)
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over ``src/`` (path and bytes of every file), so an artifact
    identifies its code without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def manifest(args: argparse.Namespace, cfg: dict) -> dict[str, Any]:
    import numpy

    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "config": cfg,
        "config_sha256": hashlib.sha256(
            json.dumps(cfg, sort_keys=True).encode()).hexdigest(),
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def probe_setup(args: argparse.Namespace) -> tuple[float, float]:
    """Set-up time of a fresh process, as that process measures it:
    (reference seconds, wall seconds)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--probe-setup"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    line = json.loads(out.stdout.splitlines()[-1])
    return float(line["setup_s"]), float(line["setup_wall_s"])


def timed_passes(wl: Workload, state: Any, seed: int, cfg: dict, seconds: float,
                 probe: HostSpeedProbe) -> list[tuple[float, float, PassResult]]:
    """Passes until the next one would end past ``seconds``: (reference
    seconds, wall seconds, result) each."""
    passes: list[tuple[float, float, PassResult]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = wl.run_pass(state, seed, cfg)
        t1 = time.perf_counter()
        passes.append((probe.reference_s(t0, t1), t1 - t0, result))
        if t1 - start + (t1 - t0) > seconds:
            return passes


def untraced_run(args, wl, cfg, state, setup_own, probe, detail) -> dict[str, Any]:
    passes = timed_passes(wl, state, args.seed, cfg, args.seconds, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if wl.release is not None:
        wl.release(state)
    results = [r for _ref, _wall, r in passes]
    digests = [rows_digest(r.rows) for r in results]
    failures = list(dict.fromkeys(p for r in results for p in r.problems))
    harness: list[str] = []
    # passes of a stateless workload repeat the same experiment exactly
    if wl.prepare is None and len(set(digests)) > 1:
        harness.append(f"passes disagree: rows digests {sorted(set(digests))}")
    probe.stop()
    setups = [setup_own] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    detail.update(
        rows=results[0].rows, rows_sha256=digests[0],
        pass_s=[ref for ref, _wall, _r in passes],
        pass_wall_s=[wall for _ref, wall, _r in passes],
        probe_unit_s=probe.median_unit_s(),
        setup_samples_s=[ref for ref, _wall in setups],
        setup_wall_samples_s=[wall for _ref, wall in setups],
        check_failures=failures, harness_failures=harness,
    )
    return {
        "correct": not failures and not harness,
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {
            "setup_s": (statistics.median(ref for ref, _wall in setups), "s"),
            "run_s": (statistics.median(ref for ref, _wall, _r in passes), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        },
    }


def traced_run(args, wl, cfg, state, build_s, detail) -> dict[str, Any]:
    from layers import PER_LAYER, LayerTracer

    # reference: the set-up build plus one untraced pass
    t0 = time.perf_counter()
    reference = wl.run_pass(state, args.seed, cfg)
    untraced_s = build_s + time.perf_counter() - t0
    if wl.release is not None:
        wl.release(state)
    state = None
    gc.collect()

    tracer = LayerTracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        state = wl.prepare(args.seed, cfg) if wl.prepare is not None else None
        traced = wl.run_pass(state, args.seed, cfg)
        wall_s = time.perf_counter() - t0
        if wl.release is not None:
            wl.release(state)
        metrics = tracer.metrics(wall_s, untraced_s)
    finally:
        tracer.uninstall()

    failures = list(dict.fromkeys(reference.problems + traced.problems))
    harness: list[str] = []
    digest, traced_digest = rows_digest(reference.rows), rows_digest(traced.rows)
    if digest != traced_digest:
        harness.append(f"tracing changed the rows: {digest} != {traced_digest}")
    error = tracer.layer_sum_error(wall_s)
    if error > LAYER_SUM_TOLERANCE:
        harness.append(f"layers + other differ from the traced wall time by {error:.1%}")
    negative = [name for name, stats in tracer.layers.items() if stats.self_s < 0]
    if negative or metrics["other.self_s"] < 0:
        harness.append(f"negative self time: {negative or ['other']}")
    detail.update(
        rows=reference.rows, rows_sha256=digest, untraced_s=untraced_s,
        layer_sum_error=error, check_failures=failures, harness_failures=harness,
        parents={name: dict(stats.parents) for name, stats in tracer.layers.items()},
    )
    units = {name: unit for name, unit, _better in PER_LAYER}
    return {
        "correct": not failures and not harness,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "metrics": {name: (value, units[name]) for name, value in metrics.items()},
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="least time the timed phase measures (default 10)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                   help="pinned config; 'tiny' is the self-test's seconds-scale size")
    p.add_argument("--probe-setup", action="store_true",
                   help="set up, print this process's set-up time and exit")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # the traced run reports no times that are compared across runs, and
    # probes there would land in whichever layer's span they interrupt
    probe = HostSpeedProbe() if not args.trace else None
    if probe is not None:
        probe.start()
    try:
        return measure(args, probe)
    finally:
        if probe is not None:
            probe.stop()


def measure(args: argparse.Namespace, probe: HostSpeedProbe | None) -> int:
    wl = WORKLOADS[args.workload]
    cfg = wl.configs[args.scale]
    import_repro()
    t0 = time.perf_counter()
    state = wl.prepare(args.seed, cfg) if wl.prepare is not None else None
    ready = time.perf_counter()
    build_s = ready - t0
    setup_wall = process_age_s()
    if args.probe_setup:
        if wl.release is not None:
            wl.release(state)
        probe.stop()
        print(json.dumps({"setup_s": probe.reference_s(ready - setup_wall, ready),
                          "setup_wall_s": setup_wall}))
        return 0

    detail: dict[str, Any] = {"manifest": manifest(args, cfg)}
    if args.trace:
        result = traced_run(args, wl, cfg, state, build_s, detail)
    else:
        setup_own = (probe.reference_s(ready - setup_wall, ready), setup_wall)
        result = untraced_run(args, wl, cfg, state, setup_own, probe, detail)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    detail.update(correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"], metrics=metrics)

    RESULTS.mkdir(exist_ok=True)
    artifact = RESULTS / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    artifact.write_text(json.dumps(detail, indent=1, sort_keys=True, default=repr) + "\n")
    print(json.dumps({"artifact": detail}, sort_keys=True, default=repr))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
