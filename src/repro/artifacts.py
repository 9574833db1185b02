"""Unified, content-addressed artifact store for the evaluation stack.

The :class:`ArtifactStore` keeps everything the evaluation caches
behind one keyed API:

* **Stage artifacts** (modules, profiles, sequential results,
  recordings, ``run`` job answers) are addressed by
  :meth:`ArtifactStore.key`, which hashes what :data:`KEY_INPUTS`
  declares for the kind -- exactly what the producing stage reads --
  and persisted through an optional
  :class:`~repro.evaluation.cache.EvaluationCache`.  A profile or a
  sequential baseline is keyed on the cost model alone, so every core
  count, latency and prefetch mode of a bench shares one of each; a
  recording is keyed on the transformed IR it ran, so does every
  request whose transformation ends in the same module.
* **Schedule columns** (per-machine :class:`ScheduleResult` lists,
  aligned with an executor's recorded traces) live in
  :class:`ScheduleMemo` namespaces handed out by
  :meth:`schedule_memo`; the store keeps a weak registry of them so
  one :meth:`counters` call describes every live memoized column in the
  process.
* **Generated interpreter code** (the superblock tiers' source +
  bytecode manifests, kind ``"codegen"``) is content-addressed by
  :func:`repro.runtime.codegen.artifact_key` -- function IR + hook
  flags + watched edges + codegen version, *excluding* machine shape
  -- so warm suite re-runs and ``repro serve`` resubmissions (even at
  different core counts) skip decode+codegen, and ``suite --jobs``
  workers shard cold compiles through the shared cache directory.  The
  runtime layer sees the store duck-typed (``load``/``store``), keeping
  it free of evaluation imports.

One store is shared by every runner of an orchestrator (and by all the
daemon's worker threads): artifacts travel between them by key, exactly
as the process-parallel suite runner already moves them between worker
processes.
"""

from __future__ import annotations

import threading
import weakref
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

if TYPE_CHECKING:  # imported lazily at runtime: evaluation imports us
    from repro.evaluation.cache import EvaluationCache


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
#: and Steps 1-9 read the whole machine, so ``run`` hashes all of it;
#: ``config`` is a :func:`~repro.evaluation.cache.pipeline_fingerprint`.
KEY_INPUTS: Dict[str, Callable[..., Tuple[Tuple[str, ...], dict]]] = {
    "module": lambda scale: ((scale,), {}),
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
    "run": lambda machine, config: (
        ("train", "ref"), {"machine": machine, "config": config}
    ),
}


class ScheduleMemo(Dict[str, List[Any]]):
    """One executor's schedule-column namespace.

    A plain dict of machine fingerprint -> list of
    :class:`~repro.runtime.sched.ScheduleResult` columns (aligned with
    the owning executor's trace list), as
    :class:`~repro.runtime.parallel.ParallelExecutor` has always kept --
    but handed out and tracked by an :class:`ArtifactStore` so schedule
    memoization shows up in the same accounting as disk artifacts.
    """

    def occupancy(self) -> Dict[str, int]:
        return {
            "machines": len(self),
            "columns": sum(len(column) for column in self.values()),
        }


class ArtifactStore:
    """Content-addressed artifact store unifying disk + schedule memos.

    ``cache`` may be an :class:`EvaluationCache`, a directory path, or
    ``None`` (memory-only: stage loads always miss, schedule memos still
    work).  The store is safe to share across threads: the disk layer
    already uses atomic writes, and the counters are lock-protected.
    """

    def __init__(
        self,
        cache: Union["EvaluationCache", str, Path, None] = None,
    ) -> None:
        if isinstance(cache, (str, Path)):
            from repro.evaluation.cache import EvaluationCache

            cache = EvaluationCache(cache)
        self.cache: Optional["EvaluationCache"] = cache
        self._lock = threading.Lock()
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self._stores: Dict[str, int] = {}
        #: Handed-out schedule memos, held weakly: a memo lives as long
        #: as its executor, not as long as the store (a daemon's store
        #: outlives every job's executors).
        self._memos: "weakref.WeakValueDictionary[int, ScheduleMemo]" = (
            weakref.WeakValueDictionary()
        )

    # -- stage artifacts ---------------------------------------------------

    def stage_key(
        self, bench: str, scales: Sequence[str], extra: dict
    ) -> str:
        """Key of one stage artifact: code version + benchmark sources
        at the scales the stage consumed + stage-specific components.

        The formula under :meth:`key`, which supplies ``scales`` and
        ``extra`` per artifact kind.
        """
        from repro.evaluation.cache import code_version, fingerprint

        return fingerprint(
            {
                "code": code_version(),
                "bench": bench,
                "sources": {
                    scale: benchmark_fingerprint(bench, scale)
                    for scale in scales
                },
                **extra,
            }
        )

    def key(self, kind: str, bench: str, **inputs: Any) -> str:
        """Key of ``bench``'s artifact of ``kind``, from the stage
        inputs :data:`KEY_INPUTS` declares for that kind."""
        scales, components = KEY_INPUTS[kind](**inputs)
        return self.stage_key(bench, scales, {"kind": kind, **components})

    def load(self, kind: str, key: str) -> Optional[dict]:
        """The stored payload, or ``None`` on a miss (no cache attached
        counts as a miss)."""
        payload = None
        if self.cache is not None:
            payload = self.cache.load(kind, key)
        with self._lock:
            if payload is None:
                self._misses[kind] = self._misses.get(kind, 0) + 1
            else:
                self._hits[kind] = self._hits.get(kind, 0) + 1
        return payload

    def store(self, kind: str, key: str, payload: dict) -> bool:
        """Persist one artifact; returns whether it was written (False
        when the store is memory-only)."""
        if self.cache is None:
            return False
        self.cache.store(kind, key, payload)
        with self._lock:
            self._stores[kind] = self._stores.get(kind, 0) + 1
        return True

    # -- schedule columns --------------------------------------------------

    def schedule_memo(self) -> ScheduleMemo:
        """A fresh schedule-column namespace (one per executor)."""
        memo = ScheduleMemo()
        with self._lock:
            self._memos[id(memo)] = memo
        return memo

    # -- accounting --------------------------------------------------------

    @property
    def warm_hits(self) -> int:
        """Total stage-artifact loads served from the store."""
        with self._lock:
            return sum(self._hits.values())

    def counters(self) -> Dict[str, Any]:
        """One snapshot of everything this store has served.

        ``artifacts`` mirrors the per-kind hit/miss/store tallies (the
        store's own view; the attached cache keeps its own identical
        disk-traffic counters), ``schedules`` aggregates the occupancy
        of every handed-out schedule memo that is still alive.
        """
        with self._lock:
            kinds = set(self._hits) | set(self._misses) | set(self._stores)
            memos = list(self._memos.values())
            machines = sum(len(memo) for memo in memos)
            columns = sum(
                len(column) for memo in memos for column in memo.values()
            )
            return {
                "artifacts": {
                    kind: {
                        "hits": self._hits.get(kind, 0),
                        "misses": self._misses.get(kind, 0),
                        "stores": self._stores.get(kind, 0),
                    }
                    for kind in sorted(kinds)
                },
                "schedules": {
                    "memos": len(memos),
                    "machines": machines,
                    "columns": columns,
                },
            }
