"""The IR transformations HELIX's Steps build on.

* :mod:`repro.transform.inline` -- function inlining (the mechanism behind
  HELIX Step 5's segment shrinking).
* :mod:`repro.transform.normalize` -- loop normalization into the
  prologue/body form of HELIX Step 1.
"""

from repro.transform.inline import InlineError, can_inline, inline_call
from repro.transform.normalize import NormalizedLoop, normalize_loop

__all__ = [
    "inline_call",
    "can_inline",
    "InlineError",
    "normalize_loop",
    "NormalizedLoop",
]
