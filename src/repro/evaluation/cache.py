"""Persistent, content-addressed cache for evaluation stage artifacts.

Every figure of the paper re-runs the same compile -> profile -> select ->
transform -> execute pipeline, and the expensive parts (the three
interpretation stages) are fully deterministic functions of

* the benchmark source text (per input scale),
* the :class:`~repro.core.loopinfo.HelixOptions` of the transformation,
* the :class:`~repro.runtime.machine.MachineConfig` (of which the
  interpretation stages read the cost model only),
* the version of this package's own source code.

Stage outputs are stored as JSON files, one directory per artifact
kind.  A key hashes exactly what the stage that produced the artifact
reads -- never more, or configurations that cannot change the artifact
would recompute it -- on top of the code version and the benchmark
sources at the scales the stage consumed
(:data:`repro.artifacts.KEY_INPUTS` declares the inputs per kind)::

    <root>/module/<key>.json       {"ir": <printed IR>}
        one scale's source
    <root>/profile/<key>.json      ProfileData.to_dict()
        train source + cost model (all the profiler reads of a machine)
    <root>/sequential/<key>.json   ExecutionResult.to_dict()
        ref source + cost model (all the interpreter reads of a machine)
    <root>/recording/<key>.json    {result, pack_traces(traces), load_count}
        printed transformed module + cost model + the blocks of each
        loop record the recording run watches (no source, no machine
        shape, no configuration: whatever ends in that module shares it)
    <root>/run/<key>.json          the ``run`` job answer (eight fields)
        both sources + whole machine + pipeline configuration
    <root>/codegen/<key>.json      generated interpreter code
        function IR + hook flags + watched edges
        (:func:`repro.runtime.codegen.artifact_key`)

Any change to a hashed input -- editing a benchmark, flipping an option,
retuning the cost model, or touching any ``repro`` source file -- changes
the key, so stale entries are never read; they are simply left behind
(the cache is append-only and safe to delete wholesale).

Writes go through a temporary file followed by :func:`os.replace`, so
concurrent writers (the process-parallel suite runner) can share one
cache directory without readers ever observing a half-written entry.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import tempfile
from dataclasses import asdict, is_dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.analysis.loopnest import LoopId
from repro.core.loopinfo import HelixOptions
from repro.obs.metrics import REGISTRY
from repro.runtime.machine import PrefetchMode

#: Cache payload schema generation, folded into :func:`code_version`.
#: Bump on incompatible payload-shape changes that a pure source hash
#: would not capture (e.g. readers in other processes interpreting the
#: same bytes differently).  2: recorded traces are serialized in the
#: versioned compact format and carry the run's ``load_count``.
CACHE_SCHEMA_VERSION = 2

_code_version: Optional[str] = None


def code_version() -> str:
    """Fingerprint of the ``repro`` package sources (and the cache
    payload schema generation).

    Hashed into every cache key: any edit to the simulator, the
    transformation, or the benchmarks' build machinery invalidates all
    previously cached artifacts.
    """
    global _code_version
    if _code_version is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        digest.update(f"schema:{CACHE_SCHEMA_VERSION}".encode())
        digest.update(b"\0")
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _code_version = digest.hexdigest()[:16]
    return _code_version


def _jsonable(obj: Any) -> Any:
    """Canonical JSON-compatible form of key components (deterministic)."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(asdict(obj))
    if isinstance(obj, dict):
        return {str(_jsonable(k)): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"unhashable cache-key component: {obj!r}")


def fingerprint(components: Any) -> str:
    """Stable content hash of an arbitrary nest of key components."""
    canon = json.dumps(_jsonable(components), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:32]


def pipeline_fingerprint(
    options: HelixOptions,
    prefetch: PrefetchMode,
    signal_cost: Optional[float],
    unoptimized_signals: bool,
    loop_ids: Optional[Sequence[LoopId]],
) -> str:
    """Canonical identity of one pipeline configuration request.

    Used both as the in-memory memo key (alongside the user's string
    ``cache_key``, which only namespaces it) and inside disk keys.
    Covers *all* transformation options (``asdict``, not a curated
    subset), so a new knob can never silently alias cache entries.
    """
    return json.dumps(
        _jsonable(
            {
                "options": asdict(options),
                "prefetch": prefetch,
                "signal_cost": signal_cost,
                "unoptimized_signals": unoptimized_signals,
                "loop_ids": (
                    None if loop_ids is None else [list(l) for l in loop_ids]
                ),
            }
        ),
        sort_keys=True,
    )


class EvaluationCache:
    """Disk-backed artifact store shared by evaluation runners.

    The cache never interprets keys -- callers build them with
    :func:`fingerprint` from the content listed in the module docstring.
    ``hits``/``misses``/``stores`` tally disk traffic per artifact kind.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.stores: Dict[str, int] = {}

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.json"

    def load(self, kind: str, key: str) -> Optional[dict]:
        """The stored payload, or ``None`` on a miss (including corrupt
        or half-written files, which are treated as absent)."""
        try:
            payload = json.loads(self._path(kind, key).read_bytes())
        except (OSError, ValueError):
            # ValueError: not JSON, or not even UTF-8.
            payload = None
        if not isinstance(payload, dict):
            self._miss(kind)
            return None
        self.hits[kind] = self.hits.get(kind, 0) + 1
        REGISTRY.inc(f"evalcache.hits.{kind}")
        return payload

    def _miss(self, kind: str) -> None:
        self.misses[kind] = self.misses.get(kind, 0) + 1
        REGISTRY.inc(f"evalcache.misses.{kind}")

    def store(self, kind: str, key: str, payload: dict) -> None:
        """Atomically persist one artifact (last writer wins)."""
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                # ``dumps`` runs the C encoder in one shot; ``json.dump``
                # would walk the payload in Python, ~5x slower on traces.
                handle.write(json.dumps(payload, separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores[kind] = self.stores.get(kind, 0) + 1
        REGISTRY.inc(f"evalcache.stores.{kind}")

    def traffic(self) -> Dict[str, Dict[str, int]]:
        """Per-kind disk traffic counters (for the JSON report)."""
        kinds = set(self.hits) | set(self.misses) | set(self.stores)
        return {
            kind: {
                "hits": self.hits.get(kind, 0),
                "misses": self.misses.get(kind, 0),
                "stores": self.stores.get(kind, 0),
            }
            for kind in sorted(kinds)
        }
