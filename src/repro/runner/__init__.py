"""Parallel experiment runner with result caching.

Turns the experiment registry into an execution API: every E-series
exhibit has a registered ``entrypoint(config, seed) -> RunResult``, and
this package fans ``(experiment x seed x config-override)`` grids out
over a process pool with deterministic per-shard seeding, an on-disk
content-hash result cache, per-run timeouts, bounded retries, and
progress heartbeats through the engine's metrics registry.

The package is crash-safe end to end: a write-ahead job journal
(:mod:`repro.runner.journal`) records every grid transition with
fsync'd, checksummed records, hard worker death is contained and
quarantined by the pool instead of poisoning the sweep, and
``run_grid(resume=True)`` / ``repro run --resume`` continue a killed
run to the byte-identical canonical results document.

Headline entry points:

- :func:`run_experiment` -- one experiment, inline, no cache.
- :func:`run_grid` -- the full sweep, parallel, cached and resumable.
- :func:`execute_job` -- the shared ``SubmitRequest -> JobResult``
  core the two above, the CLI and the experiment service all route
  through.
- ``python -m repro run <ids|all>`` -- the same from the CLI.
"""

from repro.runner.api import (
    DEFAULT_TIMEOUT_S,
    build_shards,
    execute_job,
    resolve_experiments,
    run_experiment,
    run_grid,
    runnable_experiments,
)
from repro.runner.cache import ResultCache, cache_key, code_fingerprint
from repro.runner.journal import (
    JOURNAL_SCHEMA,
    JournalReplay,
    JournalWriter,
    journal_path,
    read_journal,
    replay_grid,
)
from repro.runner.pool import (
    ShardSpec,
    execute_shard,
    resolve_entrypoint,
    run_shards,
)
from repro.runner.results import GridResult, RunResult

__all__ = [
    "DEFAULT_TIMEOUT_S",
    "GridResult",
    "JOURNAL_SCHEMA",
    "JournalReplay",
    "JournalWriter",
    "ResultCache",
    "RunResult",
    "ShardSpec",
    "build_shards",
    "cache_key",
    "code_fingerprint",
    "execute_job",
    "execute_shard",
    "journal_path",
    "read_journal",
    "replay_grid",
    "resolve_entrypoint",
    "resolve_experiments",
    "run_experiment",
    "run_grid",
    "run_shards",
    "runnable_experiments",
]
