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

import math
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import BadMagic, CountMismatch, SpecError, TruncatedFile, _count, _real, _seed
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

    ``pixels`` has shape (n, h*w) with n >= 1, and real entries (bool, int
    or float); ragged rows, complex or string entries, a NaN, or a value
    outside [0, 1] raise :class:`SpecError`.  They are stored as a read-only
    float32 array: a float32 array is adopted without a copy and frozen, so
    the caller can no longer write to it.  ``h`` and ``w`` are integers >= 1
    (NumPy integers too), stored as ``int``; anything else raises
    :class:`SpecError`.  Labels are optional, a 1-D integer array of one
    label per image (else :class:`CountMismatch`), stored as a private
    read-only copy, and only used for reporting.
    """

    pixels: np.ndarray
    h: int
    w: int
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", _count(self.h, "image height h", SpecError))
        object.__setattr__(self, "w", _count(self.w, "image width w", SpecError))
        px = _real(self.pixels, "pixel", SpecError).astype(np.float32, copy=False)
        if px.ndim != 2 or px.shape[1] != self.h * self.w:
            raise SpecError(f"pixel matrix shape {px.shape} inconsistent with h*w = {self.h}*{self.w}")
        _count(len(px), "image count n", SpecError)
        # Written so that a NaN pixel, for which every comparison is False, fails.
        if not (px.min() >= 0.0 and px.max() <= 1.0):
            raise SpecError("pixel values must lie in [0, 1]")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)
        if self.labels is not None:
            labels = np.array(self.labels)
            if labels.ndim != 1 or labels.dtype.kind not in "iu":
                raise SpecError(
                    f"labels must be a 1-D integer array, got shape {labels.shape} "
                    f"and dtype {labels.dtype}"
                )
            if len(labels) != len(px):
                raise CountMismatch(f"{len(px)} images but {len(labels)} labels")
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.pixels.shape[0]


def _read_idx(path: Path, magic: int, ndim: int) -> np.ndarray:
    """The uint8 payload of an IDX file whose header is ``magic`` and ``ndim`` big-endian dims,
    shaped by those dims.  Raises :class:`BadMagic` or :class:`TruncatedFile` naming the file."""
    buf = path.read_bytes()
    start = 4 * (1 + ndim)
    if len(buf) < start:
        raise TruncatedFile(f"{path}: header ends after {len(buf)} bytes")
    found, *dims = struct.unpack_from(f">{1 + ndim}I", buf)
    if found != magic:
        raise BadMagic(f"{path}: expected magic {magic:#010x}, got {found:#010x}")
    size = math.prod(dims)
    if len(buf) < start + size:
        raise TruncatedFile(f"{path}: declares {size} payload bytes but holds {len(buf) - start}")
    return np.frombuffer(buf, dtype=np.uint8, count=size, offset=start).reshape(dims)


def load_idx(path_images: str | Path, path_labels: str | Path | None = None) -> ImageBatch:
    """Load an IDX3 image file (and optionally its IDX1 label file).

    Pixel bytes are scaled to [0, 1] by dividing by 255.  Raises
    :class:`BadMagic` or :class:`TruncatedFile` naming a malformed file, and
    :class:`CountMismatch` (from :class:`ImageBatch`) when the two files
    disagree on the number of images.
    """
    raw = _read_idx(Path(path_images), IDX_IMAGE_MAGIC, 3)
    n, h, w = raw.shape
    labels = None if path_labels is None else _read_idx(Path(path_labels), IDX_LABEL_MAGIC, 1)
    return ImageBatch(pixels=(raw.astype(np.float32) / 255.0).reshape(n, h * w), h=h, w=w, labels=labels)


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


# Images placed and blurred per batch.  The horizontal pass's float64 scratch
# (padded, acc and term: about 1.3 MB at 64 images and r = 4) then stays in a
# 2 MiB L2 cache; 256 images need about 5 MB.  Time of make_glyphs(4000) +
# make_glyphs(2000) relative to 64 images, medians of 30 rounds alternating
# the sizes in one process, 2 or 3 such runs on a 2-vCPU Xeon: 32 images
# 1.00-1.02, 128 images 1.05-1.12, 256 images 1.14-1.16.
_GLYPH_CHUNK = 64
_GLYPH_SIDE = 28


# gaussian_filter's first pass runs down the rows and treats each column on its
# own.  A glyph's canvas columns are z copies of its three font columns, and
# zeros elsewhere, so that pass runs on the three font columns alone: equal
# columns give equal bits, and zero columns give exactly +0.0.
def _glyph_strips() -> np.ndarray:
    """The three font columns of the 30 (digit, zoom) glyphs, zoomed down the
    rows only: shape (30, 56, 3), row ``3 * digit + zoom - 3``.  A glyph's top
    row is strip row 28, so image row y of a glyph at ``top`` is strip row
    28 + y - top.
    """
    font = np.array([[int(ch) for ch in _GLYPH_FONT[d]] for d in range(10)], dtype=np.uint8)
    font = font.reshape(10, 5, 3)
    table = np.zeros((10, 3, 2 * _GLYPH_SIDE, 3), dtype=np.uint8)
    for z in (3, 4, 5):
        table[:, z - 3, _GLYPH_SIDE : _GLYPH_SIDE + 5 * z] = font.repeat(z, axis=1)
    return table.reshape(30, 2 * _GLYPH_SIDE, 3)


def _blur_pass(padded: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """One pass of scipy.ndimage's symmetric ``correlate1d`` along ``axis`` (1 or 2).

    ``padded`` is float64 and already holds r = ``weights.shape[1] - 1``
    border entries on each side of ``axis``, laid out as scipy's
    ``mode="reflect"`` (NumPy's ``"symmetric"`` pad); the result is 28 long
    along ``axis``.  ``weights[:, j]`` is each image's weight at offsets -j
    and +j.  The sum runs in float64 in scipy's order, ``w0 * x`` and then
    ``+= (x[-j] + x[+j]) * wj`` for j = r down to 1, and the result is
    rounded to float32 as scipy's float32 output is.
    """
    r = weights.shape[1] - 1

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
    in batches of the same radius instead, with the same arithmetic.  The
    vertical pass runs once per font column, not per canvas column: every
    glyph column is a copy of one of three, and that pass keeps columns apart.
    One flat gather then maps those columns, and the reflected border, onto
    the padded canvas columns of every row in the batch.
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

    strips = _glyph_strips()
    kinds = 3 * digits + zooms - 3
    values = intensities.astype(np.float32).astype(np.float64)
    # gaussian_filter's kernel: radius int(4 sigma + 0.5), exp(-x^2 / (2 sigma^2)) over its sum.
    radii = (4.0 * blurs + 0.5).astype(np.int64)
    out = np.empty((n, _GLYPH_SIDE, _GLYPH_SIDE), dtype=np.float32)
    # Flat index of column 0 of each (image, row) of a chunk's (c, 28, 4) vertical result.
    row_base = 4 * np.arange(_GLYPH_CHUNK * _GLYPH_SIDE).reshape(_GLYPH_CHUNK, _GLYPH_SIDE, 1)
    for r in np.unique(radii):
        group = np.flatnonzero(radii == r)
        offsets = np.arange(-r, r + 1)
        sigma2 = blurs[group] * blurs[group]
        phi = np.exp(-0.5 / sigma2[:, None] * offsets**2)
        weights = (phi / phi.sum(axis=1, keepdims=True))[:, r:]
        # Canvas index of each symmetric-padded position: the pad is folded into the gathers.
        side = np.pad(np.arange(_GLYPH_SIDE), r, mode="symmetric")
        rows = (_GLYPH_SIDE - top[group, None]) + side
        # Font column of each padded canvas column: (x - left) // zoom on the glyph, else 3 (zeros).
        x = side - left[group, None]
        cols = np.where((x >= 0) & (x < 3 * zooms[group, None]), x // zooms[group, None], 3)
        for start in range(0, len(group), _GLYPH_CHUNK):
            part = slice(start, start + _GLYPH_CHUNK)
            idx = group[part]
            strip = strips[kinds[idx, None], rows[part]] * values[idx, None, None]
            blurred = np.zeros((len(idx), _GLYPH_SIDE, 4))
            blurred[:, :, :3] = _blur_pass(strip, weights[part], axis=1)
            padded = np.take(blurred, row_base[: len(idx)] + cols[part, None, :])
            out[idx] = _blur_pass(padded, weights[part], axis=2)
    pixels = out.reshape(n, _GLYPH_SIDE * _GLYPH_SIDE)
    np.clip(pixels, 0.0, 1.0, out=pixels)
    return ImageBatch(pixels=pixels, h=_GLYPH_SIDE, w=_GLYPH_SIDE, labels=digits.astype(np.uint8))
