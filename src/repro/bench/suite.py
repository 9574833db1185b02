"""Registry of the 13 benchmark programs."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.bench.programs import (
    ammp,
    art,
    bzip2,
    crafty,
    equake,
    gap,
    gzip,
    mcf,
    mesa,
    parser,
    twolf,
    vortex,
    vpr,
)
from repro.ir import Module


@dataclass(frozen=True)
class BenchmarkSpec:
    """One benchmark: sources per input scale plus paper-side context."""

    name: str
    description: str
    source: Callable[[str], str]
    #: Approximate 6-core whole-program speedup read off the paper's
    #: Figure 9 (used as the shape target in EXPERIMENTS.md).
    paper_speedup_6: float
    #: What the synthetic program models from the original benchmark.
    modeled: str


#: Paper Figure 9 values are approximate bar readings; the geometric mean
#: (2.25x) and the maximum (4.12x, art) are stated exactly in the text.
BENCHMARKS: Dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in [
        BenchmarkSpec(
            "gzip",
            "LZ77 compression: hash-chain longest-match search",
            gzip.source,
            1.9,
            "inner candidate-match loops with a max-reduction segment; "
            "outer position loop with data-dependent advance",
        ),
        BenchmarkSpec(
            "vpr",
            "FPGA placement: net bounding-box cost + annealing moves",
            vpr.source,
            2.0,
            "per-net cost loops (mostly parallel) with a cost accumulator "
            "segment and an RNG-carried move loop",
        ),
        BenchmarkSpec(
            "mesa",
            "3-D rasterization: span shading with z-buffer test",
            mesa.source,
            2.6,
            "per-pixel DOALL shading with iteration-private z-buffer "
            "accesses and a small drawn-count segment",
        ),
        BenchmarkSpec(
            "art",
            "Adaptive Resonance Theory image recognition",
            art.source,
            4.1,
            "F1/F2 neuron scans: wide DOALL loops; reset_nodes called "
            "from two distinct loops (the paper's Figure 8 graph shape)",
        ),
        BenchmarkSpec(
            "mcf",
            "Minimum-cost flow: network simplex",
            mcf.source,
            1.3,
            "entering-arc scan with a min-reduction; tree update by "
            "pointer chasing (sequential, rejected by selection)",
        ),
        BenchmarkSpec(
            "equake",
            "Seismic wave propagation: sparse matrix-vector kernel",
            equake.source,
            2.9,
            "CSR smvp rows as DOALL, time-integration updates, and an "
            "error-norm accumulator segment",
        ),
        BenchmarkSpec(
            "crafty",
            "Chess: board evaluation inside a search loop",
            crafty.source,
            1.35,
            "small per-square scan loops under a deeply sequential "
            "game loop; little exploitable parallel time",
        ),
        BenchmarkSpec(
            "ammp",
            "Molecular dynamics: neighbor-list force computation",
            ammp.source,
            2.2,
            "per-atom force DOALL with indirect neighbor loads and an "
            "energy accumulator segment",
        ),
        BenchmarkSpec(
            "parser",
            "Link grammar parsing: dictionary list chasing",
            parser.source,
            1.4,
            "hash-bucket list traversal with data-dependent lengths and "
            "shared count updates",
        ),
        BenchmarkSpec(
            "gap",
            "Computer algebra: polynomial arithmetic",
            gap.source,
            1.8,
            "coefficient-wise DOALL products plus a sequential carry "
            "propagation pass",
        ),
        BenchmarkSpec(
            "vortex",
            "Object database: typed object updates through handles",
            vortex.source,
            1.6,
            "handle indirection, call-heavy field updates (exercises "
            "Step 5 inlining) and index-list append segments",
        ),
        BenchmarkSpec(
            "bzip2",
            "Block compression: counting sort and key ranking",
            bzip2.source,
            2.0,
            "heavy DOALL key computation, a serializing histogram loop "
            "(rejected), and rank assignment",
        ),
        BenchmarkSpec(
            "twolf",
            "Standard-cell placement: simulated annealing",
            twolf.source,
            2.2,
            "LCG-carried move generation (small segment) with parallel "
            "cost evaluation and rarely-taken accept updates",
        ),
    ]
}


def benchmark_names() -> List[str]:
    """Suite order as in the paper's tables."""
    return [
        "gzip",
        "vpr",
        "mesa",
        "art",
        "mcf",
        "equake",
        "crafty",
        "ammp",
        "parser",
        "gap",
        "vortex",
        "bzip2",
        "twolf",
    ]


def get_benchmark(name: str) -> BenchmarkSpec:
    try:
        return BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from {benchmark_names()}"
        ) from None


def compile_benchmark(name: str, scale: str = "ref") -> Module:
    """Compile one benchmark at the given input scale ('train'/'ref')."""
    from repro.frontend.lower import compile_source

    spec = get_benchmark(name)
    return compile_source(spec.source(scale), f"{name}.{scale}")


_fingerprints: Dict[Tuple[str, str], str] = {}


def benchmark_fingerprint(name: str, scale: str = "ref") -> str:
    """Content hash of one benchmark's source at ``scale``.

    The evaluation disk cache keys every artifact on this, so editing a
    benchmark program invalidates exactly that benchmark's entries.
    """
    key = (name, scale)
    if key not in _fingerprints:
        _fingerprints[key] = source_fingerprint(
            name, scale, get_benchmark(name).source(scale)
        )
    return _fingerprints[key]


def source_fingerprint(name: str, scale: str, text: str) -> str:
    """Content hash of program ``name``'s ``text`` at ``scale``: MiniC
    source for a benchmark, printed IR for a program a runner holds."""
    digest = hashlib.sha256(f"{name}.{scale}\0{text}".encode())
    return digest.hexdigest()[:24]
