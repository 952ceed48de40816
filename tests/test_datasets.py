"""Synthetic 2D generators, IDX parsing and the glyph corpus."""

import struct
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from otmap.datasets import (
    _GLYPH_CHUNK,
    _GLYPH_FONT,
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    MOONS_NOISE_SD,
    MOONS_SCALE,
    ImageBatch,
    SyntheticKind,
    SyntheticSpec,
    load_idx,
    make_glyphs,
    make_moons,
)
from otmap.errors import BadMagic, CountMismatch, InvalidCount, SpecError, TruncatedFile
from otmap.ot import PointSet, ot_divergence


def moons_construction(n: int, seed: int) -> np.ndarray:
    """The arcs from make_moons' draws: the upper arc (unit circle about the
    origin, y >= 0) takes the extra point of an odd n and comes first, then
    the lower arc (unit circle about (1, 0.5), y <= 0.5); then the noise and
    the scale."""
    rng = np.random.default_rng(seed)
    t_up = rng.uniform(0.0, np.pi, (n + 1) // 2)
    t_lo = rng.uniform(0.0, np.pi, n // 2)
    arcs = np.concatenate([np.stack([np.cos(t_up), np.sin(t_up)], axis=1),
                           np.stack([1.0 - np.cos(t_lo), 0.5 - np.sin(t_lo)], axis=1)])
    return (arcs + rng.normal(0.0, 0.05, arcs.shape)) * MOONS_SCALE


class TestMoons:
    def test_odd_split_counts(self):
        got = make_moons(SyntheticSpec(SyntheticKind.MOONS, n=7, seed=3)).data
        want = moons_construction(7, seed=3)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_even_n_matches_the_arc_construction(self):
        assert MOONS_NOISE_SD == 0.05
        got = make_moons(SyntheticSpec(SyntheticKind.MOONS, n=8, seed=4)).data
        want = moons_construction(8, seed=4)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(SyntheticKind.MOONS, n=100, seed=7)
        assert np.array_equal(make_moons(spec).data, make_moons(spec).data)


class TestCircles:
    # Named for the circles generator it once tested; the name keeps the test
    # IDs stable. It now holds the SyntheticSpec checks and the rings test.
    def test_nearly_coincident_rings_have_tiny_divergence(self):
        # Same angles on both rings: the only transport left is the radial
        # gap of 0.001.
        n = 500
        angles = np.random.default_rng(5).uniform(0, 2 * np.pi, n)
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        div = ot_divergence(PointSet(ring), PointSet(0.999 * ring))
        assert div == pytest.approx(0.001, rel=1e-6)

    def test_zero_points_rejected(self):
        with pytest.raises(InvalidCount):
            SyntheticSpec(SyntheticKind.MOONS, n=0)

    @pytest.mark.parametrize("kind", ["circles", "moons", None])
    def test_kind_must_be_moons(self, kind):
        with pytest.raises(SpecError, match="MOONS"):
            SyntheticSpec(kind, 4)

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
        assert (batch.n, batch.h, batch.w) == (4, 2, 3)
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
        raw = np.rint(batch.pixels * 255.0).astype(np.uint8).reshape(12, 28, 28)
        img, lbl = write_idx_fixture(tmp_path, raw, labels=batch.labels)
        back = load_idx(img, lbl)
        assert back.n == 12 and back.h == 28 and back.w == 28
        assert np.array_equal(back.labels, batch.labels)
        # quantization to bytes is the only loss
        assert np.abs(back.pixels - batch.pixels).max() <= 0.5 / 255.0 + 1e-7


def glyph_draws(n: int, seed: int) -> tuple[np.ndarray, ...]:
    """The per-image construction's draws: digits, zooms, intensities and
    blurs as arrays, then per image a ``top`` and a ``left`` offset."""
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, 10, size=n)
    zooms = rng.integers(3, 6, size=n)
    intensities = rng.uniform(0.7, 1.0, size=n)
    blurs = rng.uniform(0.4, 1.0, size=n)
    offsets = np.array([[rng.integers(1, 28 - 5 * z), rng.integers(1, 28 - 3 * z)] for z in zooms])
    return digits, zooms, intensities, blurs, offsets[:, 0], offsets[:, 1]


def glyphs_per_image(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference corpus: one ``np.kron`` and one ``gaussian_filter`` per image."""
    digits, zooms, intensities, blurs, tops, lefts = glyph_draws(n, seed)
    out = np.zeros((n, 28, 28), dtype=np.float32)
    for i in range(n):
        bits = np.array([int(ch) for ch in _GLYPH_FONT[int(digits[i])]], dtype=np.float32)
        glyph = np.kron(bits.reshape(5, 3), np.ones((zooms[i], zooms[i]), dtype=np.float32))
        gh, gw = glyph.shape
        top, left = tops[i], lefts[i]
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

    # n = 600 and 2000 put more than one batch of _GLYPH_CHUNK images, the last
    # one partial, in at least one blur radius; every n >= 600 here draws all
    # three radii (2, 3 and 4).
    @pytest.mark.parametrize("n", [1, 7, 600, 2000])
    @pytest.mark.parametrize("seed", [0, 5, 2**32 - 1])
    def test_bit_equal_to_per_image_construction(self, n, seed):
        pixels, labels = glyphs_per_image(n, seed)
        batch = make_glyphs(n, seed)
        assert batch.pixels.dtype == np.float32 and batch.labels.dtype == np.uint8
        assert np.array_equal(batch.pixels.view(np.uint32), pixels.view(np.uint32))
        assert np.array_equal(batch.labels, labels)

    def test_bit_equality_grid_covers_every_radius_and_border_case(self):
        # The folded reflection and the column map can only go wrong at some
        # (zoom, radius) pair or with a glyph at an edge: the grid above must
        # keep drawing all nine pairs and, per zoom, top and left at 1 and at
        # their largest (27 - 5 * zoom and 27 - 3 * zoom).  The batching can
        # only go wrong at a batch boundary: some radius group must span more
        # than one batch and end in a partial one.
        grid = {m.args[0]: m.args[1] for m in self.test_bit_equal_to_per_image_construction.pytestmark}
        seen = set()
        group_sizes = set()
        for n in grid["n"]:
            for seed in grid["seed"]:
                _, zooms, _, blurs, tops, lefts = glyph_draws(n, seed)
                radii = (4.0 * blurs + 0.5).astype(int)
                group_sizes |= set(np.bincount(radii).tolist())
                for z, r, top, left in zip(zooms.tolist(), radii.tolist(), tops.tolist(), lefts.tolist()):
                    seen |= {("radius", z, r), ("top", z, top), ("left", z, left)}
        for z in (3, 4, 5):
            assert {("radius", z, r) for r in (2, 3, 4)} <= seen
            assert {("top", z, 1), ("top", z, 27 - 5 * z), ("left", z, 1), ("left", z, 27 - 3 * z)} <= seen
        assert any(size > _GLYPH_CHUNK and size % _GLYPH_CHUNK for size in group_sizes)

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
            ImageBatch(pixels=np.full((1, 4), 1.5), h=2, w=2)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(SpecError):
            ImageBatch(pixels=[[bad, 0.5, 0.1, 0.2]], h=2, w=2)

    def test_rejects_inconsistent_shape(self):
        with pytest.raises(SpecError):
            ImageBatch(pixels=np.zeros((1, 5)), h=2, w=2)

    @pytest.mark.parametrize("hwc", [(-2, -2), (2, 0), (0, 4), (4, -1)])
    def test_rejects_dimensions_below_one(self, hwc):
        h, w = hwc
        with pytest.raises(SpecError, match="need an integer"):
            ImageBatch(pixels=np.zeros((1, 4)), h=h, w=w)

    @pytest.mark.parametrize("h, w", [(2.0, 2), (2, 2.0), ("2", 2), (2, None)])
    def test_rejects_dimensions_that_are_not_counts(self, h, w):
        with pytest.raises(SpecError, match="need an integer"):
            ImageBatch(pixels=np.zeros((1, 4)), h=h, w=w)

    def test_rejects_no_images(self):
        with pytest.raises(SpecError, match="image count n >= 1, got 0"):
            ImageBatch(pixels=np.zeros((0, 36), np.float32), h=6, w=6)

    def test_stores_numpy_integer_dimensions_as_int(self):
        batch = ImageBatch(pixels=np.zeros((1, 6)), h=np.int64(2), w=np.uint8(3))
        assert (type(batch.h), type(batch.w)) == (int, int) and (batch.h, batch.w) == (2, 3)

    @pytest.mark.parametrize(
        "labels", [np.zeros((2, 1), dtype=np.int64), np.array([0.0, 1.0]), np.array([True, False])]
    )
    def test_rejects_labels_not_1d_integer(self, labels):
        with pytest.raises(SpecError):
            ImageBatch(pixels=np.zeros((2, 4)), h=2, w=2, labels=labels)

    def test_label_list_becomes_array(self):
        batch = ImageBatch(pixels=np.zeros((2, 4)), h=2, w=2, labels=[3, 4])
        assert isinstance(batch.labels, np.ndarray) and batch.labels.tolist() == [3, 4]

    def test_keeps_a_private_read_only_copy_of_its_labels(self):
        lab = np.array([1, 2])
        batch = ImageBatch(np.zeros((2, 4), np.float32), 2, 2, labels=lab)
        lab[0] = 9
        assert batch.labels.tolist() == [1, 2] and batch.labels is not lab
        assert not batch.labels.flags.writeable
