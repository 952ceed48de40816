"""Structure of the SVG and PGM artefacts."""

import re

import numpy as np
import pytest

from otmap.datasets import ImageBatch
from otmap.errors import SizeMismatch, SpecError
from otmap.plots import tile_images, write_feedback_svg, write_pgm


def test_pgm_header_and_pixel_bytes(tmp_path):
    gray = np.array([[0.0, 0.5, 1.0], [0.25, 0.004, 0.998]])
    path = tmp_path / "grid.pgm"
    write_pgm(path, gray)
    raw = path.read_bytes()
    header = b"P5\n3 2\n255\n"  # width before height
    assert raw[: len(header)] == header
    assert raw[len(header) :] == bytes([0, 128, 255, 64, 1, 254])  # rint(gray * 255)


@pytest.mark.parametrize("with_noise", [False, True])
def test_feedback_svg_joins_each_prediction_to_its_match(tmp_path, with_noise):
    rng = np.random.default_rng(0)
    k = 5
    preds, targets = rng.normal(size=(k, 2)), rng.normal(size=(k, 2))
    perm = np.array([3, 0, 4, 1, 2])
    path = tmp_path / "feedback.svg"
    write_feedback_svg(path, preds, targets, perm, rng.uniform(-1, 1, size=(k, 2)) if with_noise else None)
    text = path.read_text()
    assert text.startswith("<svg") and text.endswith("</svg>")
    lines = re.findall(r'<line x1="([^"]+)" y1="([^"]+)" x2="([^"]+)" y2="([^"]+)"', text)
    circles = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', text)
    assert len(lines) == k
    assert len(circles) == (3 if with_noise else 2) * k
    target_px, pred_px = circles[:k], circles[k : 2 * k]  # targets are drawn first
    for i, (x1, y1, x2, y2) in enumerate(lines):
        assert (x1, y1) == pred_px[i]
        assert (x2, y2) == target_px[perm[i]]


@pytest.mark.parametrize("n_targets, n_perm", [(4, 3), (3, 2)])
def test_feedback_svg_rejects_unequal_counts(tmp_path, n_targets, n_perm):
    with pytest.raises(SizeMismatch):
        write_feedback_svg(tmp_path / "f.svg", np.zeros((3, 2)), np.zeros((n_targets, 2)), np.arange(n_perm))


@pytest.mark.parametrize(
    "perm", [[0, 1, 7], [0, 1, -1], [0, 1, 1], np.array([0.0, 1.0, 2.0]), np.array([[0, 1, 2]])],
    ids=["out-of-range", "negative", "repeated", "float", "2-d"],
)
def test_feedback_svg_rejects_a_perm_that_is_no_integer_permutation(tmp_path, perm):
    with pytest.raises(SizeMismatch, match="permutation"):
        write_feedback_svg(tmp_path / "f.svg", np.zeros((3, 2)), np.ones((3, 2)), perm)
    assert not (tmp_path / "f.svg").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_rejects_non_finite_grays(tmp_path, bad):
    with pytest.raises(SpecError, match="finite"):
        write_pgm(tmp_path / "g.pgm", np.array([[0.0, bad]]))
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
