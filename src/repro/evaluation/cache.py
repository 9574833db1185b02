"""Old import path of the artifact store's disk layer.

The disk cache, its keys and its traffic tally are one class,
:class:`repro.artifacts.ArtifactStore`.  :data:`EvaluationCache` and
:func:`code_version` stay importable from here for code outside the
package that still uses this path (the end-to-end benchmark harness
under ``benchmarks/e2e``).
"""

from repro.artifacts import ArtifactStore, code_version

EvaluationCache = ArtifactStore

__all__ = ["EvaluationCache", "code_version"]
