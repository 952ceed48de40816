"""Synthetic 2D generators, IDX parsing, CSV round trips."""

import struct

import numpy as np
import pytest

from otmap.datasets import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    ImageBatch,
    SyntheticKind,
    SyntheticSpec,
    load_idx,
    load_points_csv,
    make_circles,
    make_glyphs,
    make_moons,
    save_idx,
    save_points_csv,
    synthetic_labels,
)
from otmap.errors import BadMagic, CountMismatch, InvalidCount, SpecError, TruncatedFile
from otmap.ot import PointSet, ot_divergence


class TestMoons:
    def test_noiseless_points_lie_on_arcs(self):
        spec = SyntheticSpec(SyntheticKind.MOONS, n=4, noise_sd=0.0, seed=3, scale=1.0)
        pts = make_moons(spec).data
        upper, lower = pts[:2], pts[2:]
        # upper arc: unit circle, y >= 0
        np.testing.assert_allclose(np.linalg.norm(upper, axis=1), 1.0, atol=1e-9)
        assert (upper[:, 1] >= -1e-9).all()
        # lower arc: unit circle around (1, 0.5), y <= 0.5
        np.testing.assert_allclose(np.linalg.norm(lower - [1.0, 0.5], axis=1), 1.0, atol=1e-9)
        assert (lower[:, 1] <= 0.5 + 1e-9).all()

    def test_odd_split_counts(self):
        labels = synthetic_labels(SyntheticSpec(SyntheticKind.MOONS, n=3))
        assert (labels == 0).sum() == 2 and (labels == 1).sum() == 1

    def test_scale_multiplies_coordinates(self):
        base = SyntheticSpec(SyntheticKind.MOONS, n=50, seed=4, scale=1.0)
        scaled = SyntheticSpec(SyntheticKind.MOONS, n=50, seed=4, scale=2.5)
        np.testing.assert_allclose(make_moons(scaled).data, 2.5 * make_moons(base).data, rtol=1e-12)

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(SyntheticKind.MOONS, n=100, seed=7)
        assert np.array_equal(make_moons(spec).data, make_moons(spec).data)

    def test_kind_guard(self):
        with pytest.raises(SpecError):
            make_moons(SyntheticSpec(SyntheticKind.CIRCLES, n=4))


class TestCircles:
    def test_noiseless_radii(self):
        spec = SyntheticSpec(SyntheticKind.CIRCLES, n=10, noise_sd=0.0, factor=0.5, seed=1, scale=1.0)
        pts = make_circles(spec).data
        radii = np.linalg.norm(pts, axis=1)
        np.testing.assert_allclose(radii[:5], 1.0, atol=1e-9)
        np.testing.assert_allclose(radii[5:], 0.5, atol=1e-9)

    def test_nearly_coincident_rings_have_tiny_divergence(self):
        # Same angles on both rings: the only transport left is the radial
        # gap of 1 - factor.
        n = 500
        angles = np.random.default_rng(5).uniform(0, 2 * np.pi, n)
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        div = ot_divergence(PointSet(ring), PointSet(0.999 * ring))
        assert div == pytest.approx(0.001, rel=1e-6)
        # With independent angles the residual is angular sampling noise;
        # still far below the genuinely separated factor=0.5 geometry.
        spec = SyntheticSpec(
            SyntheticKind.CIRCLES, n=2000, noise_sd=0.0, factor=0.999, seed=5, scale=1.0
        )
        pts = make_circles(spec).data
        near = ot_divergence(PointSet(pts[:1000]), PointSet(pts[1000:]))
        assert near < 0.06  # frozen oracle value 0.0464 at this seed
        far_spec = SyntheticSpec(
            SyntheticKind.CIRCLES, n=2000, noise_sd=0.0, factor=0.5, seed=5, scale=1.0
        )
        far_pts = make_circles(far_spec).data
        assert near < 0.2 * ot_divergence(PointSet(far_pts[:1000]), PointSet(far_pts[1000:]))

    def test_factor_bounds(self):
        with pytest.raises(SpecError):
            SyntheticSpec(SyntheticKind.CIRCLES, n=4, factor=1.0)

    def test_zero_points_rejected(self):
        with pytest.raises(InvalidCount):
            SyntheticSpec(SyntheticKind.CIRCLES, n=0)


def write_idx_fixture(tmp_path, pixels: np.ndarray, labels=None, truncate=0, magic=None):
    """Hand-assembled IDX bytes: n x h x w uint8 pixels."""
    n, h, w = pixels.shape
    img_path = tmp_path / "images.idx3"
    payload = struct.pack(">IIII", magic or IDX_IMAGE_MAGIC, n, h, w) + pixels.tobytes()
    if truncate:
        payload = payload[:-truncate]
    img_path.write_bytes(payload)
    lbl_path = None
    if labels is not None:
        lbl_path = tmp_path / "labels.idx1"
        lbl_path.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, len(labels)) + bytes(labels))
    return img_path, lbl_path


class TestLoadIdx:
    def test_exact_pixel_values(self, tmp_path):
        pixels = np.arange(4 * 2 * 3, dtype=np.uint8).reshape(4, 2, 3)
        img, lbl = write_idx_fixture(tmp_path, pixels, labels=[0, 1, 2, 3])
        batch = load_idx(img, lbl)
        assert (batch.n, batch.h, batch.w, batch.c) == (4, 2, 3, 1)
        np.testing.assert_allclose(batch.pixels, pixels.reshape(4, 6) / 255.0, rtol=1e-7)
        assert batch.labels.tolist() == [0, 1, 2, 3]

    def test_truncated_file(self, tmp_path):
        pixels = np.zeros((4, 2, 3), dtype=np.uint8)
        img, _ = write_idx_fixture(tmp_path, pixels, truncate=5)
        with pytest.raises(TruncatedFile):
            load_idx(img)

    def test_bad_magic(self, tmp_path):
        pixels = np.zeros((1, 2, 2), dtype=np.uint8)
        img, _ = write_idx_fixture(tmp_path, pixels, magic=0xDEADBEEF)
        with pytest.raises(BadMagic):
            load_idx(img)

    def test_label_count_mismatch(self, tmp_path):
        pixels = np.zeros((4, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_fixture(tmp_path, pixels, labels=[0, 1])
        with pytest.raises(CountMismatch):
            load_idx(img, lbl)

    def test_save_load_round_trip(self, tmp_path):
        batch = make_glyphs(12, seed=0)
        img, lbl = tmp_path / "g.idx3", tmp_path / "g.idx1"
        save_idx(img, batch, lbl)
        back = load_idx(img, lbl)
        assert back.n == 12 and back.h == 28 and back.w == 28
        assert np.array_equal(back.labels, batch.labels)
        # quantization to bytes is the only loss
        assert np.abs(back.pixels - batch.pixels).max() <= 0.5 / 255.0 + 1e-7


class TestGlyphs:
    def test_shapes_and_range(self):
        batch = make_glyphs(30, seed=1)
        assert batch.pixels.shape == (30, 784)
        assert batch.pixels.min() >= 0.0 and batch.pixels.max() <= 1.0
        assert set(np.unique(batch.labels)).issubset(set(range(10)))

    def test_deterministic(self):
        a, b = make_glyphs(10, seed=2), make_glyphs(10, seed=2)
        assert np.array_equal(a.pixels, b.pixels)

    def test_images_are_nontrivial(self):
        batch = make_glyphs(10, seed=3)
        assert (batch.pixels.max(axis=1) > 0.3).all()  # every glyph visible


class TestImageBatch:
    def test_rejects_out_of_range(self):
        with pytest.raises(SpecError):
            ImageBatch(pixels=np.full((1, 4), 1.5), h=2, w=2, c=1)

    def test_rejects_inconsistent_shape(self):
        with pytest.raises(SpecError):
            ImageBatch(pixels=np.zeros((1, 5)), h=2, w=2, c=1)


class TestPointsCsv:
    def test_round_trip_2d_with_labels(self, tmp_path):
        spec = SyntheticSpec(SyntheticKind.MOONS, n=25, seed=9)
        pts = make_moons(spec)
        labels = synthetic_labels(spec)
        path = tmp_path / "pts.csv"
        save_points_csv(path, pts, labels)
        assert path.read_text().splitlines()[0] == "x,y,label"
        back, back_labels = load_points_csv(path)
        np.testing.assert_allclose(back.data, pts.data, rtol=1e-15)
        assert np.array_equal(back_labels, labels)

    def test_round_trip_high_dim_no_labels(self, tmp_path):
        pts = PointSet(np.random.default_rng(0).normal(size=(10, 8)))
        path = tmp_path / "latents.csv"
        save_points_csv(path, pts)
        assert path.read_text().splitlines()[0].startswith("x0,x1,")
        back, labels = load_points_csv(path)
        assert labels is None
        np.testing.assert_allclose(back.data, pts.data, rtol=1e-15)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TruncatedFile):
            load_points_csv(path)

    @pytest.mark.parametrize(
        "body, line",
        [
            ("x,y\n0.5,1.0\n0.25,abc\n", 3),
            ("x,y,label\n0.5,1.0,1.5\n", 2),
            ("x,y,label\n0.5,1.0,0\n1.0,2.0,\n", 3),
            ("x,y,label\n0.5,1.0,0\n1.0,2.0,99999999999999999999999\n", 3),
            ("x,y\n0.5,1.0\n0.25,nan\n", 3),
            ("x,y\n0.5,1.0\n1.0,2.0\n-inf,0.0\n", 4),
        ],
        ids=[
            "non-numeric-cell", "fractional-label", "empty-label",
            "label-beyond-int64", "nan-cell", "inf-cell",
        ],
    )
    def test_bad_cell_names_path_and_line(self, tmp_path, body, line):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(SpecError, match=f"{path.name}:{line}:"):
            load_points_csv(path)

    @pytest.mark.parametrize("header", ["label", ""], ids=["label-only", "blank"])
    def test_header_without_coordinates(self, tmp_path, header):
        path = tmp_path / "labels.csv"
        path.write_text(f"{header}\n1\n2\n")
        with pytest.raises(SpecError, match=f"{path.name}:1:.*no coordinate column"):
            load_points_csv(path)
