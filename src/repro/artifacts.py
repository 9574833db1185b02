"""The content-addressed artifact store of the evaluation stack.

One class, :class:`ArtifactStore`, is the disk cache, its keys and its
traffic tally:

* **Keys.**  :meth:`ArtifactStore.key` hashes what :data:`KEY_INPUTS`
  declares for an artifact kind -- exactly what the producing stage
  reads -- on top of the code version (:func:`code_version`) and the
  benchmark sources at the scales the stage consumed.  A profile or a
  sequential baseline is keyed on the cost model alone, so every core
  count, latency and prefetch mode of a bench shares one of each; a
  recording is keyed on the transformed IR it ran, and so is shared by
  every request whose transformation ends in the same module.
* **Disk.**  Artifacts are JSON files, one directory per kind::

      <root>/profile/<key>.json      ProfileData.to_dict()
      <root>/sequential/<key>.json   ExecutionResult.to_dict()
      <root>/plan/<key>.json         {chosen, loops, recording}
      <root>/recording/<key>.json    {result, pack_traces(recording), load_count}
      <root>/run/<key>.json          the ``run`` job answer (eight fields)

  Every entry is keyed by :meth:`ArtifactStore.key`.  A ``plan`` is
  what selection and Steps 1-9 decided for one pipeline configuration:
  the chosen loops, the :class:`~repro.core.loopinfo.LoopRecord` of
  each parallelized loop and the key of the recording of the module
  they produced.  A :class:`~repro.runtime.trace.Recording` is stored
  as its tables (:func:`~repro.runtime.trace.pack_traces`, format 5):
  each shape's event columns once, each distinct invocation's stamp
  columns once, one row per invocation, in one compressed block that
  reads back as the same tables, so a warm restore groups nothing.  Modules are not artifacts (compiling from source is
  a few milliseconds), and neither is generated interpreter code (each
  interpreter compiles its own).  Writes go through a temporary file and
  :func:`os.replace`, so processes and threads sharing one directory
  (``suite --jobs``, the daemon's workers) never read a half-written
  entry; an unreadable entry is a miss and is overwritten by the
  recomputation.  Stale entries are never read, because any change to a
  hashed input changes the key; they are left behind (the directory is
  append-only and safe to delete wholesale).
* **Tally.**  Every load and store is counted per kind (hits, misses,
  stores) in one table, read by :meth:`ArtifactStore.traffic` and
  mirrored into the metrics registry as ``evalcache.<what>.<kind>``.
  It is the one count of the store's traffic across every runner and
  job that shares it.  A hit is a payload its reader accepted: a stage
  that cannot decode what it loaded calls :meth:`ArtifactStore.reject`,
  and the load counts as a miss.
  :meth:`ArtifactStore.counters` adds the occupancy of the schedule
  memos the store handed out (:class:`ScheduleMemo`, one per executor,
  held weakly).

A store without a root keeps nothing on disk: its loads miss and its
stores are dropped, and its schedule memos still work.  One store is
shared by every runner of an orchestrator (and by all the daemon's
worker threads): artifacts travel between them by key, as they travel
between the suite runner's worker processes through the directory.  So
do compiled benchmark modules, in memory only
(:attr:`ArtifactStore.modules`): each build is compiled once per store
(about 2 MB for the suite's 26 builds) and read-only from then on
(Steps 1-9 transform a clone).
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import tempfile
import threading
import weakref
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.bench import benchmark_fingerprint
from repro.ir.printer import module_to_str
from repro.obs.metrics import REGISTRY

if TYPE_CHECKING:
    from repro.analysis.loopnest import LoopId
    from repro.core.loopinfo import HelixOptions
    from repro.ir import Module
    from repro.runtime.machine import PrefetchMode


#: Payload schema generation, folded into :func:`code_version`.  Bump on
#: incompatible payload-shape changes that a pure source hash would not
#: capture (e.g. readers in other processes interpreting the same bytes
#: differently).  2: recorded traces are serialized in the versioned
#: compact format and carry the run's ``load_count``.
CACHE_SCHEMA_VERSION = 2

_code_version: Optional[str] = None


def code_version() -> str:
    """Fingerprint of the ``repro`` package sources (and the payload
    schema generation).

    Hashed into every key: any edit to the simulator, the
    transformation, or the benchmarks' build machinery invalidates all
    previously stored artifacts.
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
    """Canonical JSON-compatible form of key components (deterministic).
    A dataclass reads as the dict of its fields, walked in place rather
    than deep-copied first (``dataclasses.asdict``)."""
    if isinstance(obj, enum.Enum):
        return obj.value
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
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
    options: "HelixOptions",
    prefetch: "PrefetchMode",
    signal_cost: Optional[float],
    unoptimized_signals: bool,
    loop_ids: Optional[Sequence["LoopId"]],
) -> str:
    """Canonical identity of one pipeline configuration request.

    Used both as the in-memory memo key and inside ``plan`` and ``run``
    keys.
    Covers *all* transformation options (every dataclass field, not a
    curated subset), so a new knob can never silently alias stored
    entries.
    """
    return json.dumps(
        _jsonable(
            {
                "options": options,
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


#: What the key of each stage-artifact kind hashes on top of the code
#: version: the stage's inputs map to the benchmark source scales and
#: the components that go into the key.  A key hashes exactly what the
#: producing stage reads.  The interpreter and the profiler read nothing
#: of a :class:`~repro.runtime.machine.MachineConfig` but its cost model
#: (core count, latencies and prefetch mode only enter where traces are
#: scheduled), so ``profile`` and ``sequential`` are shared by every
#: machine shape.  The recording run is an interpreter too: it reads the
#: transformed module, the cost model and, of each loop record, the
#: blocks where an invocation begins, iterates and ends, so ``recording``
#: hashes the printed module and those fields -- no source, nothing else
#: of the machine or of the request that led to the module.  Selection
#: and Steps 1-9 read the whole machine, so ``plan`` and ``run`` hash all
#: of it; ``config`` is a :func:`pipeline_fingerprint`.  Selection reads
#: the ref build and the profile, so ``plan`` hashes the ref source and
#: ``profile``, a digest of the profile's content (``None`` for a
#: request that names its loops and selects nothing), the way
#: ``recording`` hashes the module it ran.
KEY_INPUTS: Dict[str, Callable[..., Tuple[Tuple[str, ...], dict]]] = {
    "profile": lambda machine: (
        ("train",), {"cost_model": machine.cost_model}
    ),
    "sequential": lambda machine: (
        ("ref",), {"cost_model": machine.cost_model}
    ),
    "recording": lambda module, machine, infos: (
        (),
        {
            "ir": module_to_str(module),
            "cost_model": machine.cost_model,
            "loops": [
                [list(i.loop_id), i.func_name, i.par_preheader,
                 i.par_header, sorted(i.exit_stubs)]
                for i in infos
            ],
        },
    ),
    "plan": lambda machine, config, profile: (
        ("ref",), {"machine": machine, "config": config, "profile": profile}
    ),
    "run": lambda machine, config: (
        ("train", "ref"), {"machine": machine, "config": config}
    ),
}


class ScheduleMemo(Dict[str, List[Any]]):
    """One executor's schedule-column namespace.

    A dict of machine fingerprint -> schedule columns (aligned with the
    owning executor's trace list), handed out and tracked by an
    :class:`ArtifactStore` so schedule memoization shows up in the same
    accounting as stored artifacts.  A subclass only because a plain
    dict cannot be weakly referenced.
    """


class ArtifactStore:
    """Content-addressed artifact store: disk layer, keys and tally.

    ``root`` is the directory artifacts persist under, or ``None`` for a
    store that keeps nothing on disk.  The store is safe to share across
    threads and, through its directory, across processes.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root: Optional[Path] = None if root is None else Path(root)
        self._lock = threading.Lock()
        #: kind -> {"hits", "misses", "stores"}.
        self._traffic: Dict[str, Dict[str, int]] = {}
        #: Handed-out schedule memos, held weakly: a memo lives as long
        #: as its executor, not as long as the store (a daemon's store
        #: outlives every job's executors).
        self._memos: "weakref.WeakValueDictionary[int, ScheduleMemo]" = (
            weakref.WeakValueDictionary()
        )
        #: ``(bench, scale)`` -> the benchmark compiled from source, for
        #: every runner on this store.
        self.modules: Dict[Tuple[str, str], "Module"] = {}

    # -- keys ----------------------------------------------------------------

    def stage_key(
        self,
        bench: str,
        scales: Sequence[str],
        extra: dict,
        source: Callable[[str, str], str] = benchmark_fingerprint,
    ) -> str:
        """Key of one stage artifact: code version + program sources
        at the scales the stage consumed + stage-specific components.

        The formula under :meth:`key`, which supplies ``scales`` and
        ``extra`` per artifact kind.  ``source`` hashes ``bench`` at one
        scale: a benchmark's MiniC source by default, or, for a program
        a runner holds, its printed IR the same way.
        """
        return fingerprint(
            {
                "code": code_version(),
                "bench": bench,
                "sources": {scale: source(bench, scale) for scale in scales},
                **extra,
            }
        )

    def key(
        self,
        kind: str,
        bench: str,
        source: Callable[[str, str], str] = benchmark_fingerprint,
        **inputs: Any,
    ) -> str:
        """Key of ``bench``'s artifact of ``kind``, from the stage
        inputs :data:`KEY_INPUTS` declares for that kind."""
        scales, components = KEY_INPUTS[kind](**inputs)
        return self.stage_key(
            bench, scales, {"kind": kind, **components}, source
        )

    # -- disk ----------------------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.json"

    def load(self, kind: str, key: str) -> Optional[dict]:
        """The stored payload, or ``None`` on a miss (no root, no entry,
        or a corrupt or half-written one)."""
        payload = None
        if self.root is not None:
            try:
                payload = json.loads(self._path(kind, key).read_bytes())
            except (OSError, ValueError):
                # ValueError: not JSON, or not even UTF-8.
                pass
        if not isinstance(payload, dict):
            self._count(kind, "misses")
            return None
        self._count(kind, "hits")
        return payload

    def has(self, kind: str, key: str) -> bool:
        """Whether an entry is stored under ``key``.  Nothing is read or
        decoded, so nothing is counted."""
        return self.root is not None and self._path(kind, key).is_file()

    def store(self, kind: str, key: str, payload: dict) -> bool:
        """Atomically persist one artifact (last writer wins); returns
        whether it was written (False for a store without a root)."""
        if self.root is None:
            return False
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
        self._count(kind, "stores")
        return True

    # -- schedule columns ----------------------------------------------------

    def schedule_memo(self) -> ScheduleMemo:
        """A fresh schedule-column namespace (one per executor)."""
        memo = ScheduleMemo()
        with self._lock:
            self._memos[id(memo)] = memo
        return memo

    # -- accounting ----------------------------------------------------------

    def reject(self, kind: str) -> None:
        """Count the last :meth:`load` of ``kind`` a miss, not a hit: its
        reader rejected the payload (fields missing or mistyped)."""
        self._count(kind, "hits", -1)
        self._count(kind, "misses")

    def _count(self, kind: str, what: str, delta: int = 1) -> None:
        with self._lock:
            row = self._traffic.setdefault(
                kind, {"hits": 0, "misses": 0, "stores": 0}
            )
            row[what] += delta
        REGISTRY.inc(f"evalcache.{what}.{kind}", delta)

    def traffic(self) -> Dict[str, Dict[str, int]]:
        """Per-kind hit/miss/store counts (sorted by kind)."""
        with self._lock:
            return {
                kind: dict(row) for kind, row in sorted(self._traffic.items())
            }

    def counters(self) -> Dict[str, Any]:
        """One snapshot of everything this store has served: the
        per-kind ``artifacts`` traffic and the occupancy of every
        handed-out schedule memo that is still alive."""
        with self._lock:
            memos = list(self._memos.values())
        return {
            "artifacts": self.traffic(),
            "schedules": {
                "memos": len(memos),
                "machines": sum(len(memo) for memo in memos),
                "columns": sum(
                    len(column) for memo in memos for column in memo.values()
                ),
            },
        }
