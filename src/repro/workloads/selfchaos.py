"""Self-chaos harness (X16): crash-safety proven on the real stack.

Every other exhibit models a system; this one attacks the reproduction
stack itself. The harness drives the *actual* runner, journal, cache
and service through a deterministic kill schedule and reports whether
the crash-recovery invariants documented in ``DESIGN.md`` held:

- **Containment** -- a pool worker SIGKILLed mid-shard is respawned
  and its shard retried; a shard that kills its worker twice is
  quarantined as ``crashed``; sibling shards are untouched
  (:func:`repro.runner.run_shards`).
- **Worker-kill byte identity** -- a grid whose workers each die once
  to SIGKILL merges to the byte-identical ``results.json`` of an
  undisturbed run (crash respawns are infrastructure noise, not shard
  verdicts, so they never leak into ``attempts``).
- **Parent-kill resume** -- a ``python -m repro run`` subprocess is
  SIGKILLed after the write-ahead journal records its first completed
  shard; ``run_grid(resume=True)`` on the same cache replays the
  journal and merges to the byte-identical document.
- **Service recovery** -- a ``python -m repro serve`` subprocess is
  SIGKILLed right after accepting a job; a restart on the same cache
  directory re-admits the journaled job and completes it, and
  resubmitting already-completed work is fully cache-served (zero pool
  spawns, zero recomputes).

The harness submits *itself* as the inner workload: ``X16`` with
``probe=True`` is a trivial deterministic shard (optionally sleeping,
optionally SIGKILLing its own worker once via a marker directory), so
the chaos grids exercise the registry path end to end without
recursion. All reported metrics are deterministic booleans and counts;
wall-clock timing influences *when* kills land, never the verdict.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.errors import ServiceError
from repro.reporting.experiments import CHAOS_DEFAULTS
from repro.runner.journal import read_journal
from repro.runner.pool import ShardSpec, run_shards
from repro.runner.results import GridResult, RunResult


def probe_metrics(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """The X16 *probe* shard: trivial, deterministic, optionally lethal.

    ``sleep_s`` stretches the shard so kill schedules have a window to
    land in. ``crash_marker_dir`` arms crash-once mode: the first
    execution per seed drops a marker file and SIGKILLs its own worker
    process; the retry finds the marker and completes normally. The
    returned metrics depend only on ``seed``.
    """
    marker_dir = config.get("crash_marker_dir")
    if marker_dir:
        marker = Path(marker_dir) / f"seed-{seed}.crashed"
        if not marker.exists():
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.write_text("crashed once\n")
            os.kill(os.getpid(), signal.SIGKILL)
    sleep_s = float(config.get("sleep_s") or 0.0)
    if sleep_s > 0:
        time.sleep(sleep_s)
    digest = hashlib.sha256(f"x16-probe:{seed}".encode("utf-8")).hexdigest()
    return {"probe": 1, "checksum": int(digest[:8], 16)}


def _chaos_shard(config: Dict[str, Any], seed: int) -> RunResult:
    """Containment-phase shard entrypoint (resolved by dotted path).

    ``mode`` selects the behaviour: ``crash-always`` SIGKILLs the
    worker on every attempt, ``crash-once`` only until its marker file
    exists, ``fine`` completes immediately.
    """
    mode = config.get("mode", "fine")
    if mode == "crash-always":
        os.kill(os.getpid(), signal.SIGKILL)
    if mode == "crash-once":
        marker = Path(config["marker_dir"]) / f"shard-{seed}.crashed"
        if not marker.exists():
            marker.write_text("crashed once\n")
            os.kill(os.getpid(), signal.SIGKILL)
    return RunResult(
        experiment_id="X16", seed=seed, config=dict(config),
        metrics={"mode": mode, "survived": 1},
    )


def _canonical(grid: GridResult) -> str:
    """The exact bytes ``GridResult.write_json`` would produce."""
    return json.dumps(grid.to_dict(), indent=2, sort_keys=True) + "\n"


def _subprocess_env() -> Dict[str, str]:
    """Environment for ``python -m repro`` children.

    Prepends this package's ``src`` directory to ``PYTHONPATH`` so the
    harness works both installed and straight from a checkout.
    """
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


def _phase_containment(tmp: Path) -> Dict[str, Any]:
    """Worker-crash containment on the raw pool (no cache, no journal)."""
    marker_dir = tmp / "contain-markers"
    marker_dir.mkdir(parents=True, exist_ok=True)
    entry = f"{__name__}:_chaos_shard"
    shards = [
        ShardSpec(index=0, experiment_id="X16", entrypoint=entry, seed=0,
                  config={"mode": "crash-once",
                          "marker_dir": str(marker_dir)}),
        ShardSpec(index=1, experiment_id="X16", entrypoint=entry, seed=1,
                  config={"mode": "crash-always"}),
        ShardSpec(index=2, experiment_id="X16", entrypoint=entry, seed=2,
                  config={"mode": "fine"}),
    ]
    crashes = []
    results = run_shards(
        shards, jobs=3, retries=3,
        on_crash=lambda spec, attempt: crashes.append(spec.index),
    )
    recovered, lethal, sibling = results
    return {
        # crash-once: respawned, retried, and the respawn is excluded
        # from the recorded attempts (infrastructure noise).
        "contained_crash_recovered": bool(
            recovered.ok and recovered.attempts == 1
        ),
        # crash-always: quarantined as `crashed` after its second kill,
        # with retry budget left over.
        "contained_quarantined": bool(
            lethal.status == "crashed" and lethal.attempts == 2
        ),
        "contained_sibling_ok": bool(sibling.ok),
        "contained_worker_crashes": len(crashes),  # 1 + 2
    }


def _phase_worker_kill(tmp: Path, cfg: Mapping[str, Any]) -> Dict[str, Any]:
    """Byte identity of a grid whose workers each die once to SIGKILL."""
    from repro.runner.api import run_grid

    seeds = int(cfg["inner_seeds"])
    jobs = max(2, int(cfg["jobs"]))  # crash-once inline would kill *us*
    marker_dir = tmp / "kill-markers"
    marker_dir.mkdir(parents=True, exist_ok=True)
    probe = {
        "probe": True, "sleep_s": 0.0,
        "crash_marker_dir": str(marker_dir),
    }
    chaos = run_grid("X16", seeds=seeds, overrides=[probe], jobs=jobs,
                     cache_dir=None, use_cache=False)
    calm = run_grid("X16", seeds=seeds, overrides=[probe], jobs=jobs,
                    cache_dir=None, use_cache=False)
    return {
        "worker_kill_crashes": chaos.stats["worker_crashes"],  # one/seed
        "worker_kill_all_ok": bool(chaos.all_ok),
        "worker_kill_byte_identical": _canonical(chaos) == _canonical(calm),
    }


def _count_journalled_done(journal_dir: Path) -> int:
    """Completed-shard records across every grid journal in the dir."""
    if not journal_dir.exists():
        return 0
    done = 0
    for path in journal_dir.glob("*.jsonl"):
        done = max(done, len(read_journal(path).of_kind("shard-done")))
    return done


def _phase_parent_kill(tmp: Path, cfg: Mapping[str, Any]) -> Dict[str, Any]:
    """SIGKILL a real ``repro run`` mid-grid; resume to identical bytes."""
    from repro.runner.api import run_grid

    seeds = int(cfg["inner_seeds"])
    jobs = max(2, int(cfg["jobs"]))
    sleep_s = float(cfg["probe_sleep_s"])
    kill_after = int(cfg["kill_after_done"])
    deadline_s = float(cfg["deadline_s"])
    probe = {"probe": True, "sleep_s": sleep_s}

    clean = run_grid("X16", seeds=seeds, overrides=[probe], jobs=jobs,
                     cache_dir=None, use_cache=False)

    cache_dir = tmp / "run-cache"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", "X16",
         "--seeds", str(seeds), "--jobs", str(jobs),
         "--cache-dir", str(cache_dir),
         "--out-dir", str(tmp / "run-out"),
         "--set", "probe=true", "--set", f"sleep_s={sleep_s}"],
        env=_subprocess_env(),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    killed = False
    deadline = time.monotonic() + deadline_s
    journal_dir = cache_dir / "journal"
    while time.monotonic() < deadline and proc.poll() is None:
        if _count_journalled_done(journal_dir) >= kill_after:
            proc.kill()
            killed = True
            break
        time.sleep(0.02)
    if proc.poll() is None and not killed:
        proc.kill()  # watchdog: never leak the child
    proc.wait(timeout=30)

    resumed = run_grid("X16", seeds=seeds, overrides=[probe], jobs=jobs,
                       cache_dir=str(cache_dir), resume=True)
    return {
        "parent_killed_mid_grid": killed,
        "parent_kill_replayed_from_journal": bool(
            resumed.stats["journal_replayed"] >= kill_after
        ),
        "parent_kill_byte_identical": _canonical(resumed) == _canonical(clean),
    }


def _start_serve(
    cache_dir: Path, deadline_s: float
) -> "tuple[subprocess.Popen, int]":
    """Launch ``python -m repro serve --port 0``; return (proc, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--cache-dir", str(cache_dir)],
        env=_subprocess_env(),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    deadline = time.monotonic() + deadline_s
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if record.get("event") == "ready":
            return proc, int(record["port"])
    proc.kill()
    proc.wait(timeout=30)
    raise ServiceError(
        "serve subprocess never printed its ready line", code="connection"
    )


def _phase_service_kill(tmp: Path, cfg: Mapping[str, Any]) -> Dict[str, Any]:
    """SIGKILL a real service mid-job; restart, recover, resubmit."""
    from repro.client import ServiceClient

    deadline_s = float(cfg["deadline_s"])
    cache_dir = tmp / "svc-cache"
    metrics: Dict[str, Any] = {}

    first, port = _start_serve(cache_dir, deadline_s)
    second: Optional[subprocess.Popen] = None
    try:
        client = ServiceClient(f"http://127.0.0.1:{port}", client_id="x16")
        client.wait_until_ready(timeout_s=deadline_s)
        done_env = client.submit("X16", seeds=1, overrides=[{"probe": True}])
        done_res = client.result(done_env["job_id"], timeout_s=deadline_s)
        metrics["service_first_job_ok"] = bool(done_res.ok)

        # Submit a slow job and SIGKILL the service right after its 202:
        # the job-accepted record is fsync'd before the response, so the
        # restart MUST re-admit it.
        lost_env = client.submit("X16", seeds=1, overrides=[{
            "probe": True, "sleep_s": float(cfg["service_sleep_s"]),
        }])
        first.kill()
        first.wait(timeout=30)

        second, port = _start_serve(cache_dir, deadline_s)
        client = ServiceClient(f"http://127.0.0.1:{port}", client_id="x16")
        client.wait_until_ready(timeout_s=deadline_s)
        lost_res = client.result(lost_env["job_id"], timeout_s=deadline_s)
        counters = client.metrics().get("metrics", {}).get("counters", {})
        metrics["service_job_recovered"] = (
            int(counters.get("service.jobs_recovered", 0)) == 1
        )
        metrics["service_recovered_job_ok"] = bool(lost_res.ok)

        # Resubmitting the already-completed first job must be fully
        # cache-served: zero pool spawns, zero recomputes.
        again_env = client.submit("X16", seeds=1,
                                  overrides=[{"probe": True}])
        again_res = client.result(again_env["job_id"], timeout_s=deadline_s)
        metrics["service_resubmit_cache_served"] = bool(
            again_res.ok
            and again_res.stats.get("pool_spawns") == 0
            and again_res.stats.get("recomputed") == 0
        )
        try:
            client.shutdown()
        except ServiceError:
            pass  # the socket may drop as the server stops: that's a stop
        second.wait(timeout=30)
    finally:
        for proc in (first, second):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
    return metrics


def self_chaos_exhibit(
    seed: int = 0, overrides: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """Run the full X16 kill schedule; return the invariant verdicts.

    ``overrides`` updates :data:`CHAOS_DEFAULTS`. The headline metric is
    ``byte_identical`` -- both SIGKILL scenarios (worker and parent)
    merged to the canonical document of an undisturbed run. ``seed`` is
    accepted for grid-protocol uniformity; the verdicts are seed-
    independent by design.
    """
    import tempfile

    cfg = dict(CHAOS_DEFAULTS)
    cfg.update(overrides or {})
    metrics: Dict[str, Any] = {"chaos_seed": int(seed)}
    with tempfile.TemporaryDirectory(prefix="repro-x16-") as scratch:
        tmp = Path(scratch)
        metrics.update(_phase_containment(tmp))
        metrics.update(_phase_worker_kill(tmp, cfg))
        metrics.update(_phase_parent_kill(tmp, cfg))
        metrics.update(_phase_service_kill(tmp, cfg))
    metrics["byte_identical"] = bool(
        metrics["worker_kill_byte_identical"]
        and metrics["parent_kill_byte_identical"]
    )
    return metrics
