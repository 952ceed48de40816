"""Synthetic 2D generators, IDX parsing, CSV round trips."""

import struct
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from otmap.datasets import (
    _GLYPH_FONT,
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

    @pytest.mark.parametrize(
        "field, value",
        [("noise_sd", v) for v in (np.nan, np.inf, -0.1)] + [("scale", v) for v in (np.nan, np.inf, 0.0, -1.0)],
    )
    def test_noise_and_scale_must_be_finite_and_in_range(self, field, value):
        with pytest.raises(SpecError, match=field):
            SyntheticSpec(SyntheticKind.MOONS, n=4, **{field: value})

    def test_zero_points_rejected(self):
        with pytest.raises(InvalidCount):
            SyntheticSpec(SyntheticKind.CIRCLES, n=0)

    @pytest.mark.parametrize("n", [2.5, "4", None])
    def test_non_integer_count_rejected(self, n):
        with pytest.raises(InvalidCount):
            SyntheticSpec(SyntheticKind.MOONS, n=n)

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(SpecError):
            SyntheticSpec(SyntheticKind.MOONS, n=4, seed=seed)

    def test_numpy_integers_accepted(self):
        spec = SyntheticSpec(SyntheticKind.MOONS, n=np.int32(6), seed=np.uint32(2))
        plain = SyntheticSpec(SyntheticKind.MOONS, n=6, seed=2)
        assert np.array_equal(make_moons(spec).data, make_moons(plain).data)


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

    @pytest.mark.parametrize("labels", [[300, 1], [-1, 1], None])
    def test_save_rejects_unwritable_labels_before_writing(self, tmp_path, labels):
        batch = ImageBatch(pixels=np.zeros((2, 4)), h=2, w=2, c=1, labels=labels)
        img, lbl = tmp_path / "g.idx3", tmp_path / "g.idx1"
        with pytest.raises(SpecError, match="labels"):
            save_idx(img, batch, lbl)
        assert not img.exists() and not lbl.exists()


def glyphs_per_image(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference corpus: one ``np.kron`` and one ``gaussian_filter`` per image."""
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, 10, size=n)
    zooms = rng.integers(3, 6, size=n)
    intensities = rng.uniform(0.7, 1.0, size=n)
    blurs = rng.uniform(0.4, 1.0, size=n)
    out = np.zeros((n, 28, 28), dtype=np.float32)
    for i in range(n):
        bits = np.array([int(ch) for ch in _GLYPH_FONT[int(digits[i])]], dtype=np.float32)
        glyph = np.kron(bits.reshape(5, 3), np.ones((zooms[i], zooms[i]), dtype=np.float32))
        gh, gw = glyph.shape
        top = rng.integers(1, 28 - gh)
        left = rng.integers(1, 28 - gw)
        out[i, top : top + gh, left : left + gw] = glyph * intensities[i]
        out[i] = gaussian_filter(out[i], sigma=blurs[i])
    return np.clip(out.reshape(n, 28 * 28), 0.0, 1.0), digits.astype(np.uint8)


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

    # n = 600 and 2000 put more than one batch of 256 in at least one blur
    # radius; every n >= 600 here draws all three radii (2, 3 and 4).
    @pytest.mark.parametrize("n", [1, 7, 600, 2000])
    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1])
    def test_bit_equal_to_per_image_construction(self, n, seed):
        pixels, labels = glyphs_per_image(n, seed)
        batch = make_glyphs(n, seed)
        assert batch.pixels.dtype == np.float32 and batch.labels.dtype == np.uint8
        assert np.array_equal(batch.pixels.view(np.uint32), pixels.view(np.uint32))
        assert np.array_equal(batch.labels, labels)

    def test_peak_memory_within_twice_the_output(self):
        make_glyphs(8, seed=0)  # first call pays one-off imports
        tracemalloc.start()
        try:
            batch = make_glyphs(4000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * batch.pixels.nbytes

    @pytest.mark.parametrize("n", [0, -3, 2.5, "5", None])
    def test_bad_count_rejected(self, n):
        with pytest.raises(InvalidCount):
            make_glyphs(n)

    @pytest.mark.parametrize("seed", [-1, 0.5, None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(SpecError):
            make_glyphs(5, seed=seed)

    def test_numpy_integers_accepted(self):
        a, b = make_glyphs(np.int64(5), seed=np.uint32(9)), make_glyphs(5, seed=9)
        assert np.array_equal(a.pixels, b.pixels) and np.array_equal(a.labels, b.labels)


class TestImageBatch:
    def test_rejects_out_of_range(self):
        with pytest.raises(SpecError):
            ImageBatch(pixels=np.full((1, 4), 1.5), h=2, w=2, c=1)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(SpecError):
            ImageBatch(pixels=[[bad, 0.5, 0.1, 0.2]], h=2, w=2, c=1)

    def test_rejects_inconsistent_shape(self):
        with pytest.raises(SpecError):
            ImageBatch(pixels=np.zeros((1, 5)), h=2, w=2, c=1)

    @pytest.mark.parametrize("hwc", [(-2, -2, 1), (2, 2, 0), (0, 4, 1), (4, 1, -1)])
    def test_rejects_dimensions_below_one(self, hwc):
        h, w, c = hwc
        with pytest.raises(SpecError):
            ImageBatch(pixels=np.zeros((1, abs(h * w * c))), h=h, w=w, c=c)

    @pytest.mark.parametrize(
        "labels", [np.zeros((2, 1), dtype=np.int64), np.array([0.0, 1.0]), np.array([True, False])]
    )
    def test_rejects_labels_not_1d_integer(self, labels):
        with pytest.raises(SpecError):
            ImageBatch(pixels=np.zeros((2, 4)), h=2, w=2, c=1, labels=labels)

    def test_label_list_becomes_array(self):
        batch = ImageBatch(pixels=np.zeros((2, 4)), h=2, w=2, c=1, labels=[3, 4])
        assert isinstance(batch.labels, np.ndarray) and batch.labels.tolist() == [3, 4]


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
