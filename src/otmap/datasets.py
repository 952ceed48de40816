"""Synthetic two-moons points, IDX image ingestion and the glyph corpus.

The two-moons generator follows the conventional arc construction with
Gaussian noise of standard deviation ``MOONS_NOISE_SD``, then multiplies
every coordinate by ``MOONS_SCALE``, which fixes the size of every moons
sample the tests and benchmarks draw.  The scale was meant to put the
divergence between two independent 10,000-point samples near a reference
baseline of about 0.070.  Measured, it does not: the check::

    ot_divergence(make_moons(SyntheticSpec(SyntheticKind.MOONS, n=10_000, seed=0)),
                  make_moons(SyntheticSpec(SyntheticKind.MOONS, n=10_000, seed=1)))

reads 0.064, and 0.057 with the seeds 2 and 3 (NumPy 2.4, SciPy 1.17).  It
builds a 10,000 x 10,000 cost matrix (800 MB; peak RSS 0.86 GB) and took
29-30 s on a 2-vCPU Xeon with one BLAS thread.  Scaling the coordinates
scales every divergence linearly, so it changes no ranking.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import BadMagic, CountMismatch, SpecError, TruncatedFile, _count, _seed
from .ot import PointSet

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Noise and global scale of every moons sample (see module docstring).
MOONS_NOISE_SD = 0.05
MOONS_SCALE = 3.2232


class SyntheticKind(Enum):
    MOONS = "moons"


@dataclass(frozen=True)
class SyntheticSpec:
    """Size and seed of one two-moons sample.

    ``kind`` must be ``SyntheticKind.MOONS``, else :class:`SpecError`.
    """

    kind: SyntheticKind
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind is not SyntheticKind.MOONS:
            raise SpecError(f"the only synthetic kind is SyntheticKind.MOONS, got {self.kind!r}")
        _count(self.n, "number of points")
        _seed(self.seed)


def make_moons(spec: SyntheticSpec) -> PointSet:
    """Two interleaved arcs with isotropic Gaussian noise, scaled.

    Upper arc (cos t, sin t), lower arc (1 - cos t, 0.5 - sin t), t drawn
    uniformly on [0, pi]; the arcs split n as evenly as possible (upper arc
    first in row order).  Noise of standard deviation ``MOONS_NOISE_SD`` is
    added, then every coordinate is multiplied by ``MOONS_SCALE``.
    """
    rng = np.random.default_rng(spec.seed)
    n_up = (spec.n + 1) // 2
    n_lo = spec.n - n_up
    t_up = rng.uniform(0.0, np.pi, n_up)
    t_lo = rng.uniform(0.0, np.pi, n_lo)
    pts = np.concatenate(
        [
            np.stack([np.cos(t_up), np.sin(t_up)], axis=1),
            np.stack([1.0 - np.cos(t_lo), 0.5 - np.sin(t_lo)], axis=1),
        ]
    )
    pts += rng.normal(0.0, MOONS_NOISE_SD, pts.shape)
    return PointSet(pts * MOONS_SCALE)


# ---------------------------------------------------------------------------
# Images
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImageBatch:
    """n flattened single-channel images with pixel values in [0, 1].

    ``pixels`` has shape (n, h*w), float32.  ``h`` and ``w`` are integers
    >= 1 (NumPy integers too), stored as ``int``; anything else raises
    :class:`SpecError`.  Labels are optional, a 1-D integer array, and only
    used for reporting.
    """

    pixels: np.ndarray
    h: int
    w: int
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", _count(self.h, "image height h", SpecError))
        object.__setattr__(self, "w", _count(self.w, "image width w", SpecError))
        px = np.asarray(self.pixels, dtype=np.float32)
        if px.ndim != 2 or px.shape[1] != self.h * self.w:
            raise SpecError(f"pixel matrix shape {px.shape} inconsistent with h*w = {self.h}*{self.w}")
        # Written so that a NaN pixel, for which every comparison is False, fails.
        if px.size and not (px.min() >= 0.0 and px.max() <= 1.0):
            raise SpecError("pixel values must lie in [0, 1]")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.ndim != 1 or labels.dtype.kind not in "iu":
                raise SpecError(
                    f"labels must be a 1-D integer array, got shape {labels.shape} "
                    f"and dtype {labels.dtype}"
                )
            if len(labels) != len(px):
                raise CountMismatch(f"{len(px)} images but {len(labels)} labels")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.pixels.shape[0]


def _read_be32(buf: bytes, offset: int, path: Path) -> int:
    if offset + 4 > len(buf):
        raise TruncatedFile(f"{path}: header ends after {len(buf)} bytes")
    return struct.unpack_from(">I", buf, offset)[0]


def _load_idx_labels(path: Path) -> np.ndarray:
    buf = path.read_bytes()
    magic = _read_be32(buf, 0, path)
    if magic != IDX_LABEL_MAGIC:
        raise BadMagic(f"{path}: expected label magic {IDX_LABEL_MAGIC:#010x}, got {magic:#010x}")
    n = _read_be32(buf, 4, path)
    if len(buf) < 8 + n:
        raise TruncatedFile(f"{path}: declares {n} labels but holds {len(buf) - 8} bytes")
    return np.frombuffer(buf, dtype=np.uint8, count=n, offset=8).copy()


def load_idx(path_images: str | Path, path_labels: str | Path | None = None) -> ImageBatch:
    """Load an IDX3 image file (and optionally its IDX1 label file).

    Pixel bytes are scaled to [0, 1] by dividing by 255.  Raises
    :class:`BadMagic`, :class:`TruncatedFile`, or :class:`CountMismatch`
    on malformed input.
    """
    path = Path(path_images)
    buf = path.read_bytes()
    magic = _read_be32(buf, 0, path)
    if magic != IDX_IMAGE_MAGIC:
        raise BadMagic(f"{path}: expected image magic {IDX_IMAGE_MAGIC:#010x}, got {magic:#010x}")
    n = _read_be32(buf, 4, path)
    h = _read_be32(buf, 8, path)
    w = _read_be32(buf, 12, path)
    expected = n * h * w
    if len(buf) < 16 + expected:
        raise TruncatedFile(f"{path}: declares {expected} pixel bytes but holds {len(buf) - 16}")
    raw = np.frombuffer(buf, dtype=np.uint8, count=expected, offset=16)
    pixels = (raw.astype(np.float32) / 255.0).reshape(n, h * w)
    labels = None
    if path_labels is not None:
        labels = _load_idx_labels(Path(path_labels))
        if len(labels) != n:
            raise CountMismatch(f"{n} images but {len(labels)} labels")
    return ImageBatch(pixels=pixels, h=h, w=w, labels=labels)


# 3x5 digit bitmaps for the synthetic glyph corpus, row-major.
_GLYPH_FONT = {
    0: "111101101101111",
    1: "010110010010111",
    2: "111001111100111",
    3: "111001111001111",
    4: "101101111001001",
    5: "111100111001111",
    6: "111100111101111",
    7: "111001010010010",
    8: "111101111101111",
    9: "111101111001111",
}


# Images placed and blurred per batch; bounds the float64 scratch of a blur pass.
_GLYPH_CHUNK = 256
_GLYPH_SIDE = 28


def _glyph_templates() -> np.ndarray:
    """Bits of the 30 (digit, zoom) glyphs, shape (30, 56, 56), row ``3 * digit + zoom - 3``.

    Each glyph sits with its top-left corner at (28, 28), so pixel (y, x) of
    an image whose glyph starts at (top, left) is template pixel
    (28 + y - top, 28 + x - left).
    """
    font = np.array([[int(ch) for ch in _GLYPH_FONT[d]] for d in range(10)], dtype=np.uint8)
    font = font.reshape(10, 5, 3)
    table = np.zeros((10, 3, 2 * _GLYPH_SIDE, 2 * _GLYPH_SIDE), dtype=np.uint8)
    for z in (3, 4, 5):
        rows = slice(_GLYPH_SIDE, _GLYPH_SIDE + 5 * z)
        cols = slice(_GLYPH_SIDE, _GLYPH_SIDE + 3 * z)
        table[:, z - 3, rows, cols] = font.repeat(z, axis=1).repeat(z, axis=2)
    return table.reshape(30, 2 * _GLYPH_SIDE, 2 * _GLYPH_SIDE)


def _blur_pass(images: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """One pass of scipy.ndimage's symmetric ``correlate1d`` along ``axis`` (1 or 2).

    ``images`` is (m, 28, 28); ``weights[:, j]`` is each image's weight at
    offsets -j and +j.  The border is scipy's ``mode="reflect"``, which is
    NumPy's ``"symmetric"`` pad.  The sum runs in float64 in scipy's order,
    ``w0 * x`` and then ``+= (x[-j] + x[+j]) * wj`` for j = r down to 1, and
    the result is rounded to float32 as scipy's float32 output is.
    """
    r = weights.shape[1] - 1
    pad = [(0, 0)] * 3
    pad[axis] = (r, r)
    padded = np.pad(images.astype(np.float64), pad, mode="symmetric")

    def shifted(offset: int) -> np.ndarray:
        window = [slice(None)] * 3
        window[axis] = slice(r + offset, r + offset + _GLYPH_SIDE)
        return padded[tuple(window)]

    acc = shifted(0) * weights[:, 0, None, None]
    term = np.empty_like(acc)
    for j in range(r, 0, -1):
        np.add(shifted(-j), shifted(j), out=term)
        term *= weights[:, j, None, None]
        acc += term
    return acc.astype(np.float32)


def make_glyphs(n: int, seed: int = 0) -> ImageBatch:
    """Synthetic 28x28 digit-glyph corpus, a stand-in when no IDX data exists.

    Each image is a 3x5 digit bitmap blown up by an integer factor, placed
    at a random offset, dimmed by a random intensity, and blurred.  The
    result is a ten-mode image distribution with continuous nuisance
    variation, which is all the image pipeline needs for its latent-space
    checks.

    Contract: pixels and labels equal, bit for bit, the per-image
    construction that draws the digits, zooms, intensities and blur widths
    as arrays, then per image a ``top`` and a ``left`` offset, writes
    ``float32(bit * intensity)`` into a zero float32 canvas and applies
    ``scipy.ndimage.gaussian_filter(canvas, sigma)`` (truncate 4,
    ``mode="reflect"``), and finally clips to [0, 1].  The images are built
    in batches of the same radius instead, with the same arithmetic.
    Raises :class:`otmap.errors.InvalidCount` unless ``n`` is an integer >= 1 and
    :class:`SpecError` unless ``seed`` is a non-negative integer.
    """
    n = _count(n, "number of glyphs")
    rng = np.random.default_rng(_seed(seed))
    digits = rng.integers(0, 10, size=n)
    zooms = rng.integers(3, 6, size=n)  # glyph sizes 9x15 .. 15x25
    intensities = rng.uniform(0.7, 1.0, size=n)
    blurs = rng.uniform(0.4, 1.0, size=n)
    # Per image a top then a left offset, drawn in one call as the scalar draws would be.
    highs = np.stack([_GLYPH_SIDE - 5 * zooms, _GLYPH_SIDE - 3 * zooms], axis=1)
    top, left = rng.integers(1, highs).T

    templates = _glyph_templates()
    kinds = 3 * digits + zooms - 3
    side = np.arange(_GLYPH_SIDE)
    rows = (_GLYPH_SIDE - top)[:, None] + side
    cols = (_GLYPH_SIDE - left)[:, None] + side
    values = intensities.astype(np.float32)
    # gaussian_filter's kernel: radius int(4 sigma + 0.5), exp(-x^2 / (2 sigma^2)) over its sum.
    radii = (4.0 * blurs + 0.5).astype(np.int64)
    out = np.empty((n, _GLYPH_SIDE, _GLYPH_SIDE), dtype=np.float32)
    for r in np.unique(radii):
        group = np.flatnonzero(radii == r)
        offsets = np.arange(-r, r + 1)
        sigma2 = blurs[group] * blurs[group]
        phi = np.exp(-0.5 / sigma2[:, None] * offsets**2)
        weights = (phi / phi.sum(axis=1, keepdims=True))[:, r:]
        for start in range(0, len(group), _GLYPH_CHUNK):
            part = slice(start, start + _GLYPH_CHUNK)
            idx = group[part]
            images = templates[kinds[idx, None, None], rows[idx, :, None], cols[idx, None, :]]
            images = images * values[idx, None, None]
            images = _blur_pass(images, weights[part], axis=1)
            out[idx] = _blur_pass(images, weights[part], axis=2)
    pixels = out.reshape(n, _GLYPH_SIDE * _GLYPH_SIDE)
    np.clip(pixels, 0.0, 1.0, out=pixels)
    return ImageBatch(pixels=pixels, h=_GLYPH_SIDE, w=_GLYPH_SIDE, labels=digits.astype(np.uint8))
