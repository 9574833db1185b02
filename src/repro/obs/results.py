"""Versioned results store with cross-run regression diffing.

Every ``repro suite --report`` run evaporates into one JSON file
unless something keeps durable, comparable history.  The
:class:`ResultsStore` is that history: one directory of immutable
:class:`RunRecord` JSON files, each persisting a run's report payload
together with its provenance -- the :data:`~repro.obs.metrics.REGISTRY`
snapshot, the suite environment block, the code version and the
wall-clock time of recording -- under a **content-addressed run ID**
(the SHA-256 of the canonical record payload, excluding the clock).
Recording the same measurement twice yields the same ID, so the store
deduplicates instead of growing; the CLI's report writer
(``_write_json_report``) records every ``suite --report`` run here
under the kind ``suite``.

On top of the records sits the regression engine:

* :func:`run_metrics` flattens a suite report into comparable *ratio*
  metrics (per-bench speedups, geomeans) -- wall-clock seconds are
  deliberately excluded, since they do not compare across hosts.
* :func:`diff` compares two runs of the same kind.  When the two runs
  cover different bench sets (a suite job over a few ``benches``
  against a full-suite run), incomparable whole-set geomeans are
  dropped and geomeans are **recomputed over the shared benches** on
  both sides, so the comparison stays apples-to-apples.
* A metric has *regressed* when its relative drop exceeds its
  tolerance (``--tolerance PATTERN=FRACTION`` in the ``repro
  bench-diff`` CLI, matched by :func:`fnmatch.fnmatch`); any gated
  regression makes ``bench-diff`` exit nonzero.

Stdlib-only, like the rest of :mod:`repro.obs`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

#: Schema generation of stored run records.
RESULTS_SCHEMA_VERSION = 1


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def compute_run_id(kind: str, report: Mapping[str, Any], code_version: str,
                   environment: Mapping[str, Any]) -> str:
    """Content-address one run: identical measurements get identical IDs.

    The wall-clock of recording is deliberately *not* hashed, so
    re-recording the same report is idempotent.
    """
    digest = hashlib.sha256()
    digest.update(
        _canonical(
            {
                "schema": RESULTS_SCHEMA_VERSION,
                "kind": kind,
                "code_version": code_version,
                "environment": environment,
                "report": report,
            }
        ).encode()
    )
    return digest.hexdigest()[:16]


@dataclass
class RunRecord:
    """One persisted run: report payload + provenance."""

    run_id: str
    kind: str
    created: float
    code_version: str
    environment: Dict[str, Any] = field(default_factory=dict)
    #: ``REGISTRY`` snapshot taken at recording time.
    metrics: Dict[str, Any] = field(default_factory=dict)
    report: Dict[str, Any] = field(default_factory=dict)
    schema: int = RESULTS_SCHEMA_VERSION

    def as_dict(self) -> dict:
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "kind": self.kind,
            "created": self.created,
            "code_version": self.code_version,
            "environment": self.environment,
            "metrics": self.metrics,
            "report": self.report,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        return cls(
            run_id=data["run_id"],
            kind=data["kind"],
            created=float(data.get("created", 0.0)),
            code_version=data.get("code_version", ""),
            environment=dict(data.get("environment", {})),
            metrics=dict(data.get("metrics", {})),
            report=dict(data["report"]),
            schema=int(data.get("schema", RESULTS_SCHEMA_VERSION)),
        )


class ResultsStore:
    """A directory of immutable run records, one JSON file per run.

    Layout: ``root/<kind>/<run_id>.json``.  Writes are atomic (a
    temp file of the writer's own + rename) so concurrent processes
    sharing a store never tear each other's records; identical payloads
    land on the same path and simply overwrite with identical bytes.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        #: Files that failed to load on the last :meth:`load_runs`
        #: (corrupt payloads are skipped, never fatal).
        self.problems: List[str] = []

    # -- recording ---------------------------------------------------------

    def record(
        self,
        kind: str,
        report: Any,
        environment: Optional[Mapping[str, Any]] = None,
        metrics: Optional[Mapping[str, Any]] = None,
        created: Optional[float] = None,
    ) -> RunRecord:
        """Persist one run; returns the (possibly deduplicated) record.

        ``report`` may be a report object exposing ``as_dict`` or a
        plain dict.  ``environment`` defaults to
        :func:`~repro.evaluation.parallel_runner.suite_environment` and
        ``metrics`` to the current ``REGISTRY`` snapshot, so a bare
        ``record(kind, report)`` captures full provenance.
        """
        if hasattr(report, "as_dict"):
            report = report.as_dict()
        report = json.loads(json.dumps(report, default=str))
        if environment is None:
            from repro.evaluation.parallel_runner import suite_environment

            environment = suite_environment()
        environment = dict(environment)
        if metrics is None:
            from repro.obs.metrics import REGISTRY

            metrics = REGISTRY.snapshot()
        code = str(
            environment.get("code_version") or _lazy_code_version()
        )
        record = RunRecord(
            run_id=compute_run_id(kind, report, code, environment),
            kind=kind,
            created=time.time() if created is None else created,
            code_version=code,
            environment=environment,
            metrics=dict(metrics),
            report=report,
        )
        path = self._path(record)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Not ``*.json``, so ``load_runs`` never reads a write in flight.
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".{record.run_id}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(
                    json.dumps(record.as_dict(), indent=2, sort_keys=True)
                )
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return record

    def _path(self, record: RunRecord) -> Path:
        return self.root / record.kind / f"{record.run_id}.json"

    # -- loading -----------------------------------------------------------

    def load_runs(self, kind: Optional[str] = None) -> List[RunRecord]:
        """All stored runs (optionally one kind), oldest first.

        Corrupt or unreadable record files are skipped and noted in
        :attr:`problems` -- a half-written or hand-mangled file must
        never take the whole history down.
        """
        self.problems = []
        records: List[RunRecord] = []
        if not self.root.exists():
            return records
        dirs = (
            [self.root / kind]
            if kind is not None
            else sorted(p for p in self.root.iterdir() if p.is_dir())
        )
        for directory in dirs:
            if not directory.exists():
                continue
            for path in sorted(directory.glob("*.json")):
                try:
                    records.append(
                        RunRecord.from_dict(json.loads(path.read_text()))
                    )
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    self.problems.append(f"{path}: {exc}")
        records.sort(key=lambda r: (r.created, r.run_id))
        return records

    def load(self, ref: str, kind: Optional[str] = None) -> RunRecord:
        """Resolve ``ref`` to one record.

        ``ref`` is a run-ID prefix, ``latest``, or ``latest~N`` (the
        N-th most recent run, ``N >= 0``).  Raises :class:`KeyError`
        when nothing (or more than one record) matches, or ``N`` is not
        a non-negative integer.
        """
        runs = self.load_runs(kind)
        if ref == "latest" or ref.startswith("latest~"):
            offset = ref[len("latest~"):] if "~" in ref else "0"
            if not offset.isdigit():
                raise KeyError(
                    f"bad run ref {ref!r}: want latest~N with N >= 0"
                )
            back = int(offset)
            if back >= len(runs):
                raise KeyError(
                    f"store has only {len(runs)} run(s); {ref!r} out of range"
                )
            return runs[-1 - back]
        matches = [r for r in runs if r.run_id.startswith(ref)]
        if not matches:
            raise KeyError(f"no run matching {ref!r}")
        if len({r.run_id for r in matches}) > 1:
            raise KeyError(
                f"ambiguous run prefix {ref!r}: "
                + ", ".join(sorted({r.run_id for r in matches}))
            )
        return matches[-1]


def _lazy_code_version() -> str:
    from repro.artifacts import code_version

    return code_version()


# -- metric extraction -------------------------------------------------------


def _flatten(prefix: str, value: Any, out: Dict[str, float]) -> None:
    if isinstance(value, Mapping):
        for key in value:
            _flatten(f"{prefix}.{key}", value[key], out)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        if math.isfinite(value):
            out[prefix] = float(value)


def run_metrics(report: Mapping[str, Any]) -> Dict[str, float]:
    """Flatten a suite report into its comparable ratio metrics.

    Paths are dotted: ``speedups.mcf.6`` (bench, core count) and
    ``geomeans.6``; wall-clock seconds and every other block of the
    report are left out.
    """
    flat: Dict[str, float] = {}
    for head in ("speedups", "geomeans"):
        _flatten(head, report.get(head, {}), flat)
    return flat


def _item_paths(metrics: Mapping[str, float]) -> Dict[str, Dict[str, float]]:
    """Group the per-bench rows by core count: ``cores=<N>`` ->
    {bench: speedup}.  ``geomeans.*`` are whole-set aggregates."""
    groups: Dict[str, Dict[str, float]] = {}
    for path, value in metrics.items():
        parts = path.split(".")
        if len(parts) == 3 and parts[0] == "speedups":
            groups.setdefault(f"cores={parts[2]}", {})[parts[1]] = value
    return groups


def _geomean(values: Sequence[float]) -> float:
    if not values:
        return 1.0
    product = 1.0
    for value in values:
        product *= max(value, 1e-12)
    return product ** (1.0 / len(values))


@dataclass
class DiffEntry:
    """One compared metric between two runs."""

    metric: str
    base: float
    head: float
    #: Relative change ``(head - base) / base``; negative = drop.
    change: float
    tolerance: float
    #: ``ok`` / ``regression`` / ``improved``.
    status: str

    def as_dict(self) -> dict:
        return {
            "metric": self.metric,
            "base": self.base,
            "head": self.head,
            "change": self.change,
            "tolerance": self.tolerance,
            "status": self.status,
        }


@dataclass
class RunDiff:
    """The comparison of two runs of one kind."""

    kind: str
    base_id: str
    head_id: str
    entries: List[DiffEntry] = field(default_factory=list)
    #: Metric paths present on only one side (informational).
    only_base: List[str] = field(default_factory=list)
    only_head: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == "regression"]

    @property
    def improvements(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == "improved"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "base": self.base_id,
            "head": self.head_id,
            "ok": self.ok,
            "entries": [e.as_dict() for e in self.entries],
            "only_base": self.only_base,
            "only_head": self.only_head,
        }

    def render(self) -> str:
        lines = [
            f"diff [{self.kind}] {self.base_id} -> {self.head_id}: "
            f"{len(self.entries)} metrics, "
            f"{len(self.regressions)} regression(s), "
            f"{len(self.improvements)} improvement(s)",
            f"{'metric':<40} {'base':>9} {'head':>9} {'change':>8} "
            f"{'tol':>6}  status",
        ]
        ranked = sorted(self.entries, key=lambda e: e.change)
        for entry in ranked:
            lines.append(
                f"{entry.metric:<40} {entry.base:>9.3f} {entry.head:>9.3f} "
                f"{entry.change:>+7.1%} {entry.tolerance:>6.0%}  "
                f"{entry.status}"
            )
        for path in self.only_base:
            lines.append(f"{path:<40} {'-':>9} (only in base)")
        for path in self.only_head:
            lines.append(f"{path:<40} {'-':>9} (only in head)")
        return "\n".join(lines)


ReportLike = Union[RunRecord, Mapping[str, Any]]


def _coerce(run: ReportLike) -> Tuple[str, str, dict]:
    """Normalize a record / raw suite report into ``(kind, label, report)``."""
    if isinstance(run, RunRecord):
        return run.kind, run.run_id, run.report
    data = dict(run)
    if "report" in data and "run_id" in data:  # serialized RunRecord
        return data["kind"], data["run_id"], dict(data["report"])
    return "suite", "report", data


def tolerance_for(
    metric: str,
    tolerances: Optional[Mapping[str, float]],
    default: float,
) -> float:
    """Resolve one metric's tolerance: most specific fnmatch wins."""
    if not tolerances:
        return default
    best: Optional[Tuple[int, float]] = None
    for pattern, value in tolerances.items():
        if fnmatch(metric, pattern):
            rank = len(pattern.replace("*", "").replace("?", ""))
            if best is None or rank > best[0]:
                best = (rank, value)
    return best[1] if best is not None else default


def diff(
    base: ReportLike,
    head: ReportLike,
    tolerances: Optional[Mapping[str, float]] = None,
    default_tolerance: float = 0.05,
) -> RunDiff:
    """Compare two runs; higher is better for every extracted metric.

    When the two runs cover different bench sets, the whole-set
    ``geomeans.*`` are dropped as incomparable and replaced by geomeans
    recomputed over the *shared* benches on both sides
    (``geomean.cores=<N> (shared)`` entries), so a run over a few
    benches diffs cleanly against a full-suite run.
    """
    base_kind, base_id, base_report = _coerce(base)
    head_kind, head_id, head_report = _coerce(head)
    if base_kind != head_kind:
        raise ValueError(
            f"cannot diff across kinds: {base_kind!r} vs {head_kind!r}"
        )
    base_metrics = run_metrics(base_report)
    head_metrics = run_metrics(head_report)

    base_items = _item_paths(base_metrics)
    head_items = _item_paths(head_metrics)
    item_names = set()
    for group in base_items.values():
        item_names |= set(group)
    head_names = set()
    for group in head_items.values():
        head_names |= set(group)
    same_sets = item_names == head_names

    if not same_sets:
        # Whole-set aggregates are incomparable across different
        # bench sets; keep only per-bench rows...
        base_metrics = {p: v for p, v in base_metrics.items()
                        if p.startswith("speedups.")}
        head_metrics = {p: v for p, v in head_metrics.items()
                        if p.startswith("speedups.")}
        # ...and synthesize shared-set geomeans for each core count.
        for group in sorted(set(base_items) & set(head_items)):
            shared = sorted(set(base_items[group]) & set(head_items[group]))
            if len(shared) < 2:
                continue
            base_metrics[f"geomean.{group} (shared)"] = _geomean(
                [base_items[group][name] for name in shared]
            )
            head_metrics[f"geomean.{group} (shared)"] = _geomean(
                [head_items[group][name] for name in shared]
            )

    result = RunDiff(kind=base_kind, base_id=base_id, head_id=head_id)
    shared_paths = sorted(set(base_metrics) & set(head_metrics))
    result.only_base = sorted(set(base_metrics) - set(head_metrics))
    result.only_head = sorted(set(head_metrics) - set(base_metrics))
    for path in shared_paths:
        b, h = base_metrics[path], head_metrics[path]
        change = (h - b) / b if b else (0.0 if h == b else math.inf)
        tol = tolerance_for(path, tolerances, default_tolerance)
        if change < -tol:
            status = "regression"
        elif change > tol:
            status = "improved"
        else:
            status = "ok"
        result.entries.append(
            DiffEntry(
                metric=path, base=b, head=h, change=change,
                tolerance=tol, status=status,
            )
        )
    return result


# -- history helpers ---------------------------------------------------------


def _headline(record: RunRecord) -> Tuple[str, Optional[float]]:
    """The one number that summarizes a run in history listings."""
    metrics = run_metrics(record.report)
    if "geomeans.6" in metrics:
        return "geomeans.6", metrics["geomeans.6"]
    geomeans = sorted(
        (p, v) for p, v in metrics.items() if p.startswith("geomeans.")
    )
    if geomeans:
        return geomeans[-1]
    return "", None


def format_history(runs: Sequence[RunRecord]) -> str:
    """Human-readable run-history table, oldest first."""
    if not runs:
        return "(no recorded runs)"
    lines = [
        f"{'run':<16} {'kind':<7} {'recorded (UTC)':<20} "
        f"{'code':<12} headline"
    ]
    for record in runs:
        stamp = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.gmtime(record.created)
        )
        path, value = _headline(record)
        headline = f"{path}={value:.2f}" if value is not None else "-"
        lines.append(
            f"{record.run_id:<16} {record.kind:<7} {stamp:<20} "
            f"{record.code_version[:12]:<12} {headline}"
        )
    return "\n".join(lines)
