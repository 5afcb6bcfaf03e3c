"""Content-addressed on-disk cache for experiment results.

A cache entry is keyed by the SHA-256 of the run's full identity:
experiment id, grid seed, the effective config (the registry's declared
defaults merged with ``--quick`` sizes and overrides), and a *code
fingerprint* -- a hash over the source files of the experiment's
implementing modules, its entrypoint module and the library version.
Editing any implementing module therefore invalidates exactly the
experiments that depend on it; changing a config override -- or a
declared default in the registry, which the fingerprint does not hash
-- invalidates exactly the shards whose config it changes.

Only ``ok`` results are ever stored: errors and timeouts always
recompute, so a transient failure cannot poison future sweeps.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path
from typing import Any, Dict, Optional

from repro.core.atomicio import atomic_write_text
from repro.errors import RegistryError
from repro.runner.results import RunResult

#: Memoized module-name -> source-hash entries (source files do not
#: change within a process lifetime).
_MODULE_HASHES: Dict[str, str] = {}


def _module_source_hash(module_name: str) -> str:
    """SHA-256 hex digest of ``module_name``'s source file."""
    cached = _MODULE_HASHES.get(module_name)
    if cached is not None:
        return cached
    spec = importlib.util.find_spec(module_name)
    if spec is None or spec.origin is None:
        raise RegistryError(
            f"cannot fingerprint module {module_name!r}: no source file"
        )
    digest = hashlib.sha256(Path(spec.origin).read_bytes()).hexdigest()
    _MODULE_HASHES[module_name] = digest
    return digest


def code_fingerprint(experiment: "Any") -> str:
    """Fingerprint of the code an experiment's result depends on.

    Hashes the library version, the experiment's implementing modules
    (from the registry) and its entrypoint's defining module, so cached
    results survive unrelated edits but never stale ones.
    """
    import repro

    parts = [f"version={repro.__version__}"]
    modules = set(experiment.modules)
    if experiment.entrypoint:
        modules.add(experiment.entrypoint.split(":", 1)[0])
    for module_name in sorted(modules):
        parts.append(f"{module_name}={_module_source_hash(module_name)}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


def cache_key(
    experiment: "Any", seed: int, config: Dict[str, Any]
) -> str:
    """The content-hash key identifying one shard's result."""
    identity = json.dumps(
        {
            "experiment": experiment.experiment_id,
            "seed": seed,
            "config": config,
            "code": code_fingerprint(experiment),
        },
        sort_keys=True,
    )
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


class ResultCache:
    """A directory of content-addressed :class:`RunResult` records.

    Entries live at ``<root>/<key[:2]>/<key>.json`` (fanned out so huge
    sweeps do not produce a single million-entry directory). Corrupt or
    partially written entries read as misses and are *quarantined*:
    renamed to ``<key>.corrupt`` so the evidence survives for forensics
    instead of being silently shadowed, with the
    ``runner.cache_corrupt`` counter incremented on the optional
    ``registry``. The next ``put`` for the key writes a fresh entry.
    """

    def __init__(
        self, root: "str | Path", registry: Optional[Any] = None
    ) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        self.registry = registry

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside as ``.corrupt`` and count it.

        Concurrent readers race here: both can read the same corrupt
        bytes, but only one rename can win. The loser's
        ``FileNotFoundError`` means the entry is *already* quarantined
        -- that is success, not failure, so it must neither raise nor
        count the quarantine twice.
        """
        try:
            path.replace(path.with_suffix(".corrupt"))
        except FileNotFoundError:
            # Another reader quarantined this entry first.
            return
        except OSError:  # unwritable parent: the read still misses
            return
        self.quarantined += 1
        if self.registry is not None:
            self.registry.counter("runner.cache_corrupt").inc()

    def get(self, key: str) -> Optional[RunResult]:
        """The cached result for ``key``, or None on a miss.

        A present-but-undecodable entry is quarantined (renamed to
        ``<key>.corrupt``) rather than left in place or deleted, then
        reported as a miss.
        """
        path = self._path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            record = json.loads(text)
            result = RunResult.from_dict(record)
        except (ValueError, KeyError, TypeError):
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        result.cached = True
        return result

    def put(self, key: str, result: RunResult) -> None:
        """Store an ``ok`` result; failed shards are never cached.

        Written via :func:`repro.core.atomicio.atomic_write_text`
        (pid-unique temp + fsync + rename), so concurrent writers of
        the same key cannot collide on a scratch file and a crash
        mid-write can never leave a truncated entry.
        """
        if not result.ok:
            return
        atomic_write_text(self._path(key), result.canonical_json() + "\n")

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
