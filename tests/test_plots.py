"""Structure of the PGM artefacts."""

import numpy as np
import pytest

from otmap.datasets import ImageBatch
from otmap.errors import SizeMismatch, SpecError
from otmap.plots import tile_images, write_pgm


def test_pgm_header_and_pixel_bytes(tmp_path):
    gray = np.array([[0.0, 0.5, 1.0], [0.25, 0.004, 0.998]])
    path = tmp_path / "grid.pgm"
    write_pgm(path, gray)
    raw = path.read_bytes()
    header = b"P5\n3 2\n255\n"  # width before height
    assert raw[: len(header)] == header
    assert raw[len(header) :] == bytes([0, 128, 255, 64, 1, 254])  # rint(gray * 255)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_rejects_non_finite_grays(tmp_path, bad):
    with pytest.raises(SpecError, match="finite"):
        write_pgm(tmp_path / "g.pgm", np.array([[0.0, bad]]))
    assert not (tmp_path / "g.pgm").exists()


def test_pgm_clips_grays_outside_the_unit_range(tmp_path):
    path = tmp_path / "grid.pgm"
    write_pgm(path, np.array([[-0.5, 1.5, -1e9, 1e9]]))
    assert path.read_bytes().endswith(bytes([0, 255, 0, 255]))


@pytest.mark.parametrize("gray", [np.array([[True, False]]), np.array([[1, 0]])], ids=["bool", "int"])
def test_pgm_writes_bool_and_integer_grays_as_their_values(tmp_path, gray):
    write_pgm(tmp_path / "g.pgm", gray)
    assert (tmp_path / "g.pgm").read_bytes() == b"P5\n2 1\n255\n" + bytes([255, 0])


@pytest.mark.parametrize("shape", [(4,), (2, 2, 1)], ids=["1-d", "3-d"])
def test_pgm_rejects_an_image_that_is_not_2d(tmp_path, shape):
    with pytest.raises(SpecError, match="2-D"):
        write_pgm(tmp_path / "g.pgm", np.zeros(shape))
    assert not (tmp_path / "g.pgm").exists()


def test_pgm_rejects_grays_that_are_not_real_numbers(tmp_path):
    with pytest.raises(SpecError, match="real numbers"):
        write_pgm(tmp_path / "g.pgm", np.array([[0.0, None]], dtype=object))
    assert not (tmp_path / "g.pgm").exists()


def test_tile_images_on_a_2x3_grid():
    h, w = 2, 3
    pixels = np.arange(7 * h * w, dtype=np.float32).reshape(7, h * w) / (7 * h * w)
    images = ImageBatch(pixels=pixels, h=h, w=w)  # one image more than the grid holds
    grid = tile_images(images, rows=2, cols=3)
    assert grid.shape == (2 * h, 3 * w)
    for r in range(2):
        for c in range(3):
            tile = grid[r * h : (r + 1) * h, c * w : (c + 1) * w]
            np.testing.assert_array_equal(tile, images.pixels[r * 3 + c].reshape(h, w))


@pytest.mark.parametrize("rows, cols", [(0, 2), (2, 0), (-1, 2), (1.5, 2), (2, "2"), (None, 1)])
def test_tile_images_rejects_a_grid_side_that_is_not_a_count(rows, cols):
    images = ImageBatch(pixels=np.zeros((4, 6), dtype=np.float32), h=2, w=3)
    with pytest.raises(SpecError, match="need an integer"):
        tile_images(images, rows=rows, cols=cols)


def test_tile_images_rejects_a_grid_larger_than_the_batch():
    images = ImageBatch(pixels=np.zeros((5, 6), dtype=np.float32), h=2, w=3)
    with pytest.raises(SizeMismatch, match="grid needs 6 images, batch has 5"):
        tile_images(images, rows=2, cols=3)
