"""Tests for workload specs, image matching, DNN, matmul, registry."""

import os
import pickle
import struct
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.errors import ConfigurationError, WorkloadError
from repro.workloads import (
    ALL_WORKLOADS,
    DnnWorkload,
    ImageProcessingWorkload,
    MatmulWorkload,
    PAPER_WORKLOADS,
    RegionRef,
    make_workload,
    navigation_schedule,
    paper_workloads,
    staircase_schedule,
)
from repro.workloads.base import DatasetSpec, Workload, WorkloadSpec
from repro.workloads.dnn import Mlp
from repro.workloads.imageproc import (
    batch_match_scores,
    extract_windows,
    make_terrain,
    match_scores,
    search_template,
)


class TestRegionRef:
    def test_overlap_same_blob(self):
        a = RegionRef("x", 0, 10)
        b = RegionRef("x", 5, 10)
        c = RegionRef("x", 10, 10)
        assert a.overlaps(b) and not a.overlaps(c)

    def test_no_overlap_across_blobs(self):
        assert not RegionRef("x", 0, 10).overlaps(RegionRef("y", 0, 10))

    def test_line_range(self):
        assert RegionRef("x", 60, 10).line_range(64) == (0, 1)
        assert RegionRef("x", 64, 64).line_range(64) == (1, 1)

    def test_hash_is_the_field_tuple_hash(self):
        # Frozenset iteration order (and so staging addresses) follows it.
        ref = RegionRef("map", 48, 12)
        assert hash(ref) == hash(("map", 48, 12))
        assert hash(pickle.loads(pickle.dumps(ref))) == hash(ref)

    def test_unpickled_ref_hashes_under_its_own_process_seed(self):
        payload = pickle.dumps({RegionRef("map", 48, 12): 1})
        code = (
            "import pickle, sys; from repro.workloads import RegionRef; "
            "d = pickle.loads(sys.stdin.buffer.read()); "
            "assert d[RegionRef('map', 48, 12)] == 1; "
            "assert hash(next(iter(d))) == hash(('map', 48, 12))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], input=payload, env=env, check=True)

    def test_equality_is_by_fields_and_never_with_tuples(self):
        ref = RegionRef("map", 48, 12)
        assert ref == RegionRef("map", 48, 12)
        assert ref != RegionRef("map", 48, 13)
        assert ref != ("map", 48, 12) and ("map", 48, 12) != ref
        assert pickle.loads(pickle.dumps(ref)) == ref
        assert repr(ref) == "RegionRef(blob='map', offset=48, length=12)"

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            RegionRef("x", -1, 10)
        with pytest.raises(ConfigurationError):
            RegionRef("x", 0, 0)


class TestWorkloadSpecValidation:
    def test_unknown_blob_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(
                name="t",
                blobs={"a": b"1234"},
                datasets=[DatasetSpec(0, {"r": RegionRef("missing", 0, 2)})],
                output_size=4,
            )

    def test_overrun_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(
                name="t",
                blobs={"a": b"1234"},
                datasets=[DatasetSpec(0, {"r": RegionRef("a", 2, 8)})],
                output_size=4,
            )

    def test_slice_inputs(self):
        spec = WorkloadSpec(
            name="t",
            blobs={"a": b"hello world"},
            datasets=[DatasetSpec(0, {"r": RegionRef("a", 6, 5)})],
            output_size=4,
        )
        assert spec.slice_inputs(spec.datasets[0]) == {"r": b"world"}


class TestImageProcessing:
    def test_localization_finds_true_window(self):
        workload = ImageProcessingWorkload(map_size=64, template_size=16, stride=4)
        rng = np.random.default_rng(0)
        spec = workload.build(rng)
        outputs = workload.reference_outputs(spec)
        ncc, row, col = ImageProcessingWorkload.best_match(outputs)
        assert ncc > 0.85
        # The true origin may fall between strides; winner within a stride.
        candidates = [
            struct.unpack("<ddII", o) for o in outputs
        ]
        best = max(candidates, key=lambda t: t[0])
        assert best[0] == pytest.approx(ncc)

    def test_windows_are_row_regions(self):
        workload = ImageProcessingWorkload(map_size=48, template_size=12, stride=12)
        spec = workload.build(np.random.default_rng(1))
        ds = spec.datasets[0]
        assert sum(1 for role in ds.regions if role.startswith("row")) == 12
        assert ds.regions["row1"].offset - ds.regions["row0"].offset == 48

    def test_template_shared(self):
        workload = ImageProcessingWorkload(map_size=48, template_size=12, stride=12)
        spec = workload.build(np.random.default_rng(2))
        refs = {ds.regions["template"] for ds in spec.datasets}
        assert len(refs) == 1

    def test_match_scores_identity(self):
        rng = np.random.default_rng(3)
        image = rng.integers(0, 256, (8, 8)).astype(np.uint8)
        ncc, sad = match_scores(image, image)
        assert ncc == pytest.approx(1.0)
        assert sad == 0.0

    def test_match_scores_shape_mismatch(self):
        with pytest.raises(WorkloadError):
            match_scores(np.zeros((4, 4), np.uint8), np.zeros((5, 5), np.uint8))

    def test_terrain_properties(self):
        terrain = make_terrain(np.random.default_rng(4), 32, 48)
        assert terrain.shape == (32, 48)
        assert terrain.dtype == np.uint8
        assert terrain.std() > 10  # textured, not flat

    def test_corrupted_pixel_changes_score(self):
        workload = ImageProcessingWorkload(map_size=48, template_size=12, stride=12)
        spec = workload.build(np.random.default_rng(5))
        ds = spec.datasets[0]
        inputs = spec.slice_inputs(ds)
        good = workload.run_job(inputs, dict(ds.params))
        bad_row = bytearray(inputs["row3"])
        bad_row[4] ^= 0x80
        bad = workload.run_job({**inputs, "row3": bytes(bad_row)}, dict(ds.params))
        assert good != bad

    def test_template_memo_keeps_scores_and_workload_identity(self):
        """``run_job`` reuses the template terms of a byte string it has
        seen; a struck template is a new byte string. Every output must
        equal ``match_scores`` on the same bytes, and the memo must live
        outside the workload object."""
        workload = ImageProcessingWorkload(map_size=48, template_size=12, stride=12)
        spec = workload.build(np.random.default_rng(11))
        twin = ImageProcessingWorkload(map_size=48, template_size=12, stride=12)

        def identity():
            return pickle.dumps(workload), repr(workload), workload == twin, dict(vars(workload))

        before = identity()
        rng = np.random.default_rng(12)
        for step in range(40):
            ds = spec.datasets[step % len(spec.datasets)]
            inputs = spec.slice_inputs(ds)
            template = bytearray(inputs["template"])
            if step % 2:  # alternate clean and struck templates
                template[int(rng.integers(len(template)))] ^= 1 << int(rng.integers(8))
            inputs["template"] = bytes(template)
            n = int(ds.params["n"])
            window = np.frombuffer(
                b"".join(inputs[f"row{r}"] for r in range(n)), dtype=np.uint8
            ).reshape(n, n)
            expected = struct.pack(
                "<ddII",
                *match_scores(window, np.frombuffer(inputs["template"], np.uint8).reshape(n, n)),
                int(ds.params["row"]), int(ds.params["col"]),
            )
            assert workload.run_job(inputs, dict(ds.params)) == expected, step
        assert identity() == before


class TestBatchedImageKernels:
    """The vectorized search path must match the scalar loop exactly."""

    def test_batch_match_scores_bit_identical(self):
        rng = np.random.default_rng(6)
        template = rng.integers(0, 256, (12, 12), dtype=np.uint8)
        windows = rng.integers(0, 256, (57, 12, 12), dtype=np.uint8)
        ncc, sad = batch_match_scores(windows, template)
        for i in range(len(windows)):
            scalar_ncc, scalar_sad = match_scores(windows[i], template)
            assert ncc[i] == scalar_ncc  # bit-identical, not approx
            assert sad[i] == scalar_sad

    def test_scores_bit_identical_to_the_mean_form(self):
        """The window mean as ``np.add.reduce`` over the count gives the
        same float64 bits as ``ndarray.mean``, for one window and for a
        stack."""

        def mean_form(windows, template):
            t = template.astype(np.float64)
            tc = t - t.mean()
            w = windows.astype(np.float64)
            wc = w - w.mean(axis=(-2, -1), keepdims=True)
            denom = np.sqrt((wc * wc).sum(axis=(-2, -1)) * (tc * tc).sum())
            correlation = (wc * tc).sum(axis=(-2, -1))
            ncc = np.divide(
                correlation, denom, out=np.zeros_like(denom), where=denom > 0
            )
            return ncc, np.abs(w - t).sum(axis=(-2, -1))

        rng = np.random.default_rng(12)
        for n in (1, 3, 8, 13, 24):
            template = rng.integers(0, 256, (n, n), dtype=np.uint8)
            windows = rng.integers(0, 256, (40, n, n), dtype=np.uint8)
            windows[0] = 7  # a flat window: zero denominator
            ncc, sad = batch_match_scores(windows, template)
            ref_ncc, ref_sad = mean_form(windows, template)
            assert ncc.tobytes() == ref_ncc.tobytes()
            assert sad.tobytes() == ref_sad.tobytes()
            for i in range(len(windows)):
                one = np.array(match_scores(windows[i], template))
                ref = np.array(
                    [float(x) for x in mean_form(windows[i], template)]
                )
                assert one.tobytes() == ref.tobytes()

    def test_batch_shape_mismatch(self):
        with pytest.raises(WorkloadError):
            batch_match_scores(
                np.zeros((3, 4, 4), np.uint8), np.zeros((5, 5), np.uint8)
            )

    def test_extract_windows(self):
        terrain = make_terrain(np.random.default_rng(7), 40, 40)
        rows = np.array([0, 3, 17])
        cols = np.array([5, 0, 21])
        windows = extract_windows(terrain, rows, cols, 8)
        assert windows.shape == (3, 8, 8)
        for k in range(3):
            expected = terrain[rows[k] : rows[k] + 8, cols[k] : cols[k] + 8]
            assert np.array_equal(windows[k], expected)

    def test_search_template_finds_crop(self):
        terrain = make_terrain(np.random.default_rng(8), 64, 64)
        template = terrain[20:36, 40:56].copy()
        ncc, sad = search_template(terrain, template, stride=1)
        assert ncc.shape == (49, 49)
        row, col = np.unravel_index(np.argmax(ncc), ncc.shape)
        assert (row, col) == (20, 40)
        assert sad[row, col] == 0.0

    def test_search_template_validation(self):
        terrain = np.zeros((16, 16), np.uint8)
        with pytest.raises(WorkloadError):
            search_template(terrain, np.zeros((3, 4), np.uint8))
        with pytest.raises(WorkloadError):
            search_template(terrain, np.zeros((4, 4), np.uint8), stride=0)

    def test_reference_outputs_match_base_loop(self):
        workload = ImageProcessingWorkload(
            map_size=48, template_size=12, stride=6
        )
        spec = workload.build(np.random.default_rng(9))
        assert workload.reference_outputs(spec) == Workload.reference_outputs(
            workload, spec
        )

    def test_best_match(self):
        workload = ImageProcessingWorkload(
            map_size=48, template_size=12, stride=12
        )
        spec = workload.build(np.random.default_rng(10))
        outputs = workload.reference_outputs(spec)
        ncc, row, col = ImageProcessingWorkload.best_match(outputs)
        records = [struct.unpack("<ddII", o) for o in outputs]
        best = max(records, key=lambda r: r[0])
        assert (ncc, row, col) == (best[0], best[2], best[3])

    def test_best_match_empty(self):
        assert ImageProcessingWorkload.best_match([]) == (-2.0, -1, -1)

    def test_best_match_tie_prefers_first(self):
        tie = [
            struct.pack("<ddII", 0.5, 1.0, 1, 2),
            struct.pack("<ddII", 0.5, 0.0, 3, 4),
        ]
        assert ImageProcessingWorkload.best_match(tie) == (0.5, 1, 2)


class TestDnn:
    def test_serialize_roundtrip(self):
        model = Mlp((8, 6, 3))
        params = model.init_params(np.random.default_rng(0))
        recovered = model.deserialize(model.serialize(params))
        for (w1, b1), (w2, b2) in zip(params, recovered):
            assert np.array_equal(w1, w2) and np.array_equal(b1, b2)

    def test_forward_is_distribution(self):
        model = Mlp((8, 6, 3))
        params = model.init_params(np.random.default_rng(1))
        probs = model.forward(np.ones(8), params)
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0)
        assert (probs >= 0).all()

    def test_truncated_weights_detected(self):
        model = Mlp((8, 6, 3))
        blob = model.serialize(model.init_params(np.random.default_rng(2)))
        with pytest.raises(WorkloadError):
            model.deserialize(blob[:-8])

    def test_workload_windows_overlap(self):
        workload = DnnWorkload(window_samples=32, stride=8, windows=6)
        spec = workload.build(np.random.default_rng(3))
        first = spec.datasets[0].regions["window"]
        second = spec.datasets[1].regions["window"]
        assert first.overlaps(second)

    def test_weights_shared(self):
        workload = DnnWorkload(windows=5)
        spec = workload.build(np.random.default_rng(4))
        refs = {ds.regions["weights"] for ds in spec.datasets}
        assert len(refs) == 1

    def test_flipped_weight_can_change_label(self):
        workload = DnnWorkload(window_samples=16, stride=16, windows=8, hidden=(8,))
        spec = workload.build(np.random.default_rng(5))
        changed = 0
        for ds in spec.datasets:
            inputs = spec.slice_inputs(ds)
            good = workload.run_job(inputs, {})
            corrupted = bytearray(inputs["weights"])
            corrupted[2] ^= 0x40  # high exponent bit of an early weight
            bad = workload.run_job({**inputs, "weights": bytes(corrupted)}, {})
            changed += good != bad
        assert changed > 0


class TestMatmul:
    def test_matches_numpy(self):
        workload = MatmulWorkload(size=16, block_rows=4)
        spec = workload.build(np.random.default_rng(0))
        a = np.frombuffer(spec.blobs["a"], dtype="<f4").reshape(16, 16)
        b = np.frombuffer(spec.blobs["b"], dtype="<f4").reshape(16, 16)
        outputs = workload.reference_outputs(spec)
        c = np.vstack(
            [np.frombuffer(o, dtype="<f4").reshape(4, 16) for o in outputs]
        )
        expected = (a.astype(np.float64) @ b.astype(np.float64)).astype("<f4")
        assert np.allclose(c, expected)

    def test_staircase_covers_all_cells(self):
        segments = staircase_schedule(step_duration=1.0)
        # 5 active-core levels x 9 frequency levels.
        assert len(segments) == 45
        assert sum(seg.quiescent for seg in segments) == 9
        assert all(seg.freq_override is not None for seg in segments)


class TestRegistryAndSchedules:
    def test_paper_workloads_complete(self):
        assert set(PAPER_WORKLOADS) == {
            "encryption",
            "compression",
            "intrusion_detection",
            "image_processing",
            "neural_networks",
        }
        instances = paper_workloads()
        assert [w.name for w in instances] == list(PAPER_WORKLOADS)

    def test_make_workload(self):
        workload = make_workload("encryption", chunk_bytes=32, chunks=2)
        assert workload.chunk_bytes == 32
        with pytest.raises(ConfigurationError):
            make_workload("nope")

    def test_every_workload_builds_and_runs(self):
        rng = np.random.default_rng(6)
        for name in ALL_WORKLOADS:
            workload = make_workload(name)
            spec = workload.build(np.random.default_rng(7))
            ds = spec.datasets[0]
            output = workload.run_job(spec.slice_inputs(ds), dict(ds.params))
            assert isinstance(output, bytes) and output
            assert len(output) <= spec.output_size
            assert workload.instructions_per_job(ds) > 0

    def test_navigation_schedule_fills_duration(self):
        segments = navigation_schedule(600.0, rng=np.random.default_rng(8))
        assert sum(seg.duration for seg in segments) == pytest.approx(600.0)
        labels = {seg.label for seg in segments}
        assert "quiescent" in labels and "nav:attitude" in labels
