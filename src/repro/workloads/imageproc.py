"""Global-localization template matching (the paper's OpenCV analog).

This is the paper's guiding example (§3.2, Fig 6): "every possible
N-by-N pixel subset of a large global map is matched against a local
map" to localize a rover. Each candidate window is a dataset; windows
that share even one pixel conflict ("each N-by-N-pixel dataset has up
to N² conflicting datasets"), while the *search template* appears in
every dataset and is the replication winner ("the image processing
workload worked best when the full image is not replicated, but the
image to be matched was", §4.2.4 / Fig 9).

A window's memory footprint is one region per image row — N short
regions, not one big span — so the conflict graph matches the real 2-D
overlap structure.

The matcher computes zero-mean normalized cross-correlation (NCC) plus
the sum of absolute differences (SAD), both from the raw bytes the
executor fetched; a single flipped cached pixel changes the score.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import WorkloadError
from .base import DatasetSpec, RegionRef, Workload, WorkloadSpec


def make_terrain(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Synthetic Jezero-crater-like terrain: smoothed multi-scale noise."""
    image = np.zeros((height, width))
    for scale in (4, 8, 16):
        coarse = rng.normal(
            size=(max(2, height // scale + 1), max(2, width // scale + 1))
        )
        rows = np.linspace(0, coarse.shape[0] - 1, height)
        cols = np.linspace(0, coarse.shape[1] - 1, width)
        r0 = np.floor(rows).astype(int)
        c0 = np.floor(cols).astype(int)
        r1 = np.minimum(r0 + 1, coarse.shape[0] - 1)
        c1 = np.minimum(c0 + 1, coarse.shape[1] - 1)
        fr = (rows - r0)[:, None]
        fc = (cols - c0)[None, :]
        interpolated = (
            coarse[np.ix_(r0, c0)] * (1 - fr) * (1 - fc)
            + coarse[np.ix_(r1, c0)] * fr * (1 - fc)
            + coarse[np.ix_(r0, c1)] * (1 - fr) * fc
            + coarse[np.ix_(r1, c1)] * fr * fc
        )
        image += interpolated * scale
    image -= image.min()
    image *= 255.0 / max(image.max(), 1e-9)
    return image.astype(np.uint8)


def _template_terms(template: np.ndarray) -> "tuple[np.ndarray, np.ndarray, float]":
    """The template side of the scores: the float64 template, its
    centred form and its energy."""
    t = template.astype(np.float64)
    tc = t - t.mean()
    return t, tc, (tc * tc).sum()


def _scores(window: np.ndarray, t: np.ndarray, tc: np.ndarray, tc_energy) -> "tuple[float, float]":
    w = window.astype(np.float64)
    # np.add.reduce over the count is what ndarray.mean computes, minus
    # its Python-level dispatch (bit-identical).
    wc = w - np.add.reduce(w, axis=None) / w.size
    denom = np.sqrt((wc * wc).sum() * tc_energy)
    ncc = float((wc * tc).sum() / denom) if denom > 0 else 0.0
    sad = float(np.abs(w - t).sum())
    return ncc, sad


def match_scores(window: np.ndarray, template: np.ndarray) -> "tuple[float, float]":
    """(NCC, SAD) between same-shape uint8 arrays."""
    if window.shape != template.shape:
        raise WorkloadError(
            f"window {window.shape} vs template {template.shape}"
        )
    return _scores(window, *_template_terms(template))


#: :func:`_template_terms` by template bytes, for
#: :meth:`ImageProcessingWorkload.run_job`: every job of a spec matches
#: the same template, so its terms are computed once per distinct byte
#: string (a struck template is a new key). Oldest entry out first.
_TEMPLATE_TERMS: "dict[bytes, tuple[np.ndarray, np.ndarray, float]]" = {}
_TEMPLATE_TERMS_MAX = 16


def batch_match_scores(
    windows: np.ndarray, template: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Vectorized :func:`match_scores` over a ``(k, n, n)`` window
    stack; returns ``(ncc[k], sad[k])``.

    The per-window reductions run over the same contiguous layout the
    scalar path sees, so scores are bit-identical float64s — which
    matters because fault-injection campaigns compare golden outputs
    byte for byte.
    """
    if windows.ndim != 3 or windows.shape[1:] != template.shape:
        raise WorkloadError(
            f"windows {windows.shape} vs template {template.shape}"
        )
    t, tc, tc_energy = _template_terms(template)
    k = windows.shape[0]
    ncc = np.empty(k)
    sad = np.empty(k)
    # Chunked so the float64 temporaries stay cache-resident: a full
    # stride-1 search materializes tens of millions of window pixels,
    # and one monolithic pass would be memory-bandwidth-bound. Chunking
    # changes nothing numerically (windows are scored independently).
    chunk = max(1, (1 << 21) // max(1, 8 * template.size))
    for start in range(0, k, chunk):
        w = np.ascontiguousarray(windows[start : start + chunk]).astype(np.float64)
        wc = w - np.add.reduce(w, axis=(1, 2), keepdims=True) / template.size
        denom = np.sqrt((wc * wc).sum(axis=(1, 2)) * tc_energy)
        correlation = (wc * tc).sum(axis=(1, 2))
        ncc[start : start + chunk] = np.divide(
            correlation, denom, out=np.zeros_like(denom), where=denom > 0
        )
        sad[start : start + chunk] = np.abs(w - t).sum(axis=(1, 2))
    return ncc, sad


def extract_windows(
    image: np.ndarray, rows: np.ndarray, cols: np.ndarray, n: int
) -> np.ndarray:
    """Gather ``(len(rows), n, n)`` windows at the given origins using
    a zero-copy sliding-window view (the gather itself copies only the
    requested windows)."""
    view = np.lib.stride_tricks.sliding_window_view(image, (n, n))
    return np.ascontiguousarray(view[rows, cols])


def search_template(
    image: np.ndarray, template: np.ndarray, stride: int = 1
) -> "tuple[np.ndarray, np.ndarray]":
    """Score every stride-aligned window of ``image`` against
    ``template`` in one pass; returns ``(ncc, sad)`` grids of shape
    ``(n_rows, n_cols)`` over window origins."""
    n = template.shape[0]
    if template.shape != (n, n):
        raise WorkloadError(f"template must be square, got {template.shape}")
    if stride <= 0:
        raise WorkloadError("stride must be positive")
    view = np.lib.stride_tricks.sliding_window_view(image, (n, n))
    strided = view[::stride, ::stride]
    grid_shape = strided.shape[:2]
    windows = strided.reshape(-1, n, n)  # lazy view; batch copies per chunk
    ncc, sad = batch_match_scores(windows, template)
    return ncc.reshape(grid_shape), sad.reshape(grid_shape)


class ImageProcessingWorkload(Workload):
    """Template search over a terrain map at a configurable stride."""

    name = "image_processing"
    library_analog = "OpenCV"
    paper_replication_strategy = "Replicate match image"

    def __init__(
        self,
        map_size: int = 96,
        template_size: int = 24,
        stride: int = 12,
    ) -> None:
        if template_size >= map_size:
            raise WorkloadError("template must be smaller than the map")
        if stride <= 0:
            raise WorkloadError("stride must be positive")
        self.map_size = map_size
        self.template_size = template_size
        self.stride = stride

    def _window_origins(self, map_size: int) -> "list[tuple[int, int]]":
        limit = map_size - self.template_size
        steps = range(0, limit + 1, self.stride)
        return [(r, c) for r in steps for c in steps]

    def build(self, rng: np.random.Generator, scale: int = 1) -> WorkloadSpec:
        map_size = self.map_size * scale
        terrain = make_terrain(rng, map_size, map_size)
        # The template is a real crop (plus sensor noise), so exactly
        # one window is the right answer.
        n = self.template_size
        true_row = int(rng.integers(0, map_size - n + 1))
        true_col = int(rng.integers(0, map_size - n + 1))
        template = terrain[true_row : true_row + n, true_col : true_col + n].astype(int)
        template = np.clip(
            template + rng.normal(0, 2.0, template.shape), 0, 255
        ).astype(np.uint8)

        template_ref = RegionRef("template", 0, n * n)
        datasets = []
        for index, (row, col) in enumerate(self._window_origins(map_size)):
            regions = {"template": template_ref}
            for window_row in range(n):
                offset = (row + window_row) * map_size + col
                regions[f"row{window_row}"] = RegionRef("map", offset, n)
            datasets.append(
                DatasetSpec(
                    index=index,
                    regions=regions,
                    params={"row": row, "col": col, "n": n},
                )
            )
        return WorkloadSpec(
            name=self.name,
            blobs={"map": terrain.tobytes(), "template": template.tobytes()},
            datasets=datasets,
            output_size=24,
        )

    def run_job(self, inputs: "dict[str, bytes]", params: "dict[str, object]") -> bytes:
        n = int(params["n"])
        rows = b"".join([inputs[f"row{r}"] for r in range(n)])
        window = np.frombuffer(rows, dtype=np.uint8).reshape(n, n)
        key = bytes(inputs["template"])
        terms = _TEMPLATE_TERMS.get(key)
        # A template of another size than the window raises in reshape.
        if terms is None or terms[0].shape != window.shape:
            template = np.frombuffer(key, dtype=np.uint8).reshape(n, n)
            if len(_TEMPLATE_TERMS) >= _TEMPLATE_TERMS_MAX:
                del _TEMPLATE_TERMS[next(iter(_TEMPLATE_TERMS))]
            terms = _TEMPLATE_TERMS[key] = _template_terms(template)
        ncc, sad = _scores(window, *terms)
        return struct.pack("<ddII", ncc, sad, int(params["row"]), int(params["col"]))

    def instructions_per_job(self, dataset: DatasetSpec) -> int:
        n = int(dataset.params["n"])
        # NCC + SAD per pixel: loads, two centred multiplies, running
        # sums, plus the normalization epilogue.
        return n * n * 55

    def reference_outputs(self, spec: WorkloadSpec) -> "list[bytes]":
        """Golden path: gather every candidate window through one
        sliding-window view and score the whole stack at once.
        Byte-identical to running :meth:`run_job` per dataset."""
        sizes = {int(ds.params.get("n", 0)) for ds in spec.datasets}
        if len(sizes) != 1 or "map" not in spec.blobs:
            return super().reference_outputs(spec)
        n = sizes.pop()
        map_bytes = spec.blobs["map"]
        side = int(np.sqrt(len(map_bytes)))
        if n <= 0 or side * side != len(map_bytes):
            return super().reference_outputs(spec)
        terrain = np.frombuffer(map_bytes, dtype=np.uint8).reshape(side, side)
        template = np.frombuffer(
            spec.blobs["template"], dtype=np.uint8
        ).reshape(n, n)
        rows = np.array([int(ds.params["row"]) for ds in spec.datasets])
        cols = np.array([int(ds.params["col"]) for ds in spec.datasets])
        windows = extract_windows(terrain, rows, cols, n)
        ncc, sad = batch_match_scores(windows, template)
        return [
            struct.pack("<ddII", float(ncc[i]), float(sad[i]),
                        int(rows[i]), int(cols[i]))
            for i in range(len(spec.datasets))
        ]

    @staticmethod
    def best_match(outputs: "list[bytes]") -> "tuple[float, int, int]":
        """Pick the (ncc, row, col) of the winning window."""
        if not outputs:
            return (-2.0, -1, -1)
        records = np.frombuffer(
            b"".join(outputs),
            dtype=[("ncc", "<f8"), ("sad", "<f8"), ("row", "<u4"), ("col", "<u4")],
        )
        winner = int(np.argmax(records["ncc"]))  # first max, like the old loop
        best = records[winner]
        return (float(best["ncc"]), int(best["row"]), int(best["col"]))
