"""Featurizing fault-surface targets for the sensitivity model.

The adaptive sampler does not learn per-*bit* sensitivities — a LEO
mission's surface holds millions of bits and each trial labels exactly
one. It learns per-**cell**: a :class:`SurfaceCell` is one offset band
of one census region (:class:`repro.sim.faults.CensusEntry`), carrying
the features the paper's threat model says should predict sensitivity
— protection class, sharing scope, component kind, live size, and
where in the region the band sits. Cells are the sampling atoms
(:mod:`repro.adaptive.sampler` importance-samples cells, then strikes
a uniform bit inside the chosen band) and the model's training rows
(one labelled row per completed trial).

The feature vector is deliberately small and fixed-width
(:data:`FEATURE_NAMES`) so a few dozen labelled trials are enough for
the :class:`repro.ml.RandomForest` to separate "SECDED-scrubbed DRAM
heap" from "unprotected core state" — the separation SSRESF exploits
to cut trials by orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..sim.faults import PROTECTION_CLASSES, CensusEntry

__all__ = [
    "FEATURE_NAMES",
    "SurfaceCell",
    "cells_from_census",
    "feature_matrix",
]

#: Domain-kind buckets the one-hot component feature distinguishes.
#: A domain name maps to the first bucket whose prefix matches;
#: anything else lands in "other" (radio buffers, vote planes, ...).
_DOMAIN_KINDS = ("dram", "l1", "l2", "flash", "core")


def _domain_kind(domain: str) -> str:
    for kind in _DOMAIN_KINDS:
        if domain == kind or domain.startswith((f"{kind}[", f"{kind}0",
                                                f"{kind}1", f"{kind}2",
                                                f"{kind}3")):
            return kind
    return "other"


#: Column names of :func:`feature_matrix`, in order.
FEATURE_NAMES = tuple(
    [f"protection={p}" for p in PROTECTION_CLASSES]
    + ["scope=shared", "log2_region_bits", "band_center"]
    + [f"kind={k}" for k in (*_DOMAIN_KINDS, "other")]
)


@dataclass(frozen=True)
class SurfaceCell:
    """One offset band of one census region: the sampling atom.

    ``start_bit``/``bits`` delimit the band inside the region's live
    bit span; ``band``/``n_bands`` locate it for the band-position
    feature. Flux weight is proportional to ``bits`` (uniform fluence
    hits a band in proportion to its live area).
    """

    domain: str
    region: str
    protection: str
    scope: str
    die_bucket: "str | None"
    region_bits: int
    band: int
    n_bands: int
    start_bit: int
    bits: int

    @property
    def label(self) -> str:
        return f"{self.domain}.{self.region}[{self.band}/{self.n_bands}]"

    def features(self) -> "list[float]":
        """Fixed-width numeric feature vector (:data:`FEATURE_NAMES`)."""
        out = [1.0 if self.protection == p else 0.0 for p in PROTECTION_CLASSES]
        out.append(1.0 if self.scope == "shared" else 0.0)
        out.append(float(np.log2(max(1, self.region_bits))))
        out.append((self.band + 0.5) / self.n_bands)
        kind = _domain_kind(self.domain)
        out.extend(
            1.0 if kind == k else 0.0 for k in (*_DOMAIN_KINDS, "other")
        )
        return out


def cells_from_census(
    entries: "tuple[CensusEntry, ...]",
    band_bits: int = 4096,
    max_bands: int = 8,
) -> "list[SurfaceCell]":
    """Split a live census into banded sampling cells, census order.

    Each region with live bits becomes up to ``max_bands`` contiguous
    offset bands of roughly ``band_bits`` bits each (small regions
    stay a single band; zero-bit regions — dead silicon — are
    dropped). Band edges are deterministic functions of the census, so
    two processes looking at the same machine derive identical cells.
    """
    if band_bits < 1 or max_bands < 1:
        raise ConfigurationError("band_bits and max_bands must be >= 1")
    cells: "list[SurfaceCell]" = []
    for entry in entries:
        region = entry.region
        if region.bits <= 0:
            continue
        n_bands = min(max_bands, max(1, region.bits // band_bits))
        edges = [round(i * region.bits / n_bands) for i in range(n_bands + 1)]
        for band in range(n_bands):
            start, stop = edges[band], edges[band + 1]
            if stop <= start:
                continue
            cells.append(
                SurfaceCell(
                    domain=entry.domain,
                    region=region.name,
                    protection=region.protection,
                    scope=region.scope,
                    die_bucket=region.die_bucket,
                    region_bits=region.bits,
                    band=band,
                    n_bands=n_bands,
                    start_bit=start,
                    bits=stop - start,
                )
            )
    return cells


def feature_matrix(cells: "list[SurfaceCell]") -> np.ndarray:
    """Design matrix, one row per cell (:data:`FEATURE_NAMES` columns)."""
    if not cells:
        raise ConfigurationError("no cells to featurize")
    return np.array([cell.features() for cell in cells], dtype=float)
