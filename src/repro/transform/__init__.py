"""The IR transformations HELIX's Steps build on.

* :mod:`repro.transform.inline` -- function inlining (the mechanism behind
  HELIX Step 5's segment shrinking).
* :mod:`repro.transform.normalize` -- loop normalization into the
  prologue/body form of HELIX Step 1.

The package imports none of its modules: import each name from the
module that defines it, so an importer loads only what it uses.
"""
