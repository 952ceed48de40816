"""Synthetic 2D distributions and IDX image ingestion.

The two-moons and concentric-circles generators follow the conventional
arc constructions, with one extra knob: a global coordinate ``scale``.
The default scales are meant to put the divergence between two independent
10,000-point samples on the published reference baseline (about 0.070 for
moons, 0.071 for circles).  The check that measures it::

    ot_divergence(make_moons(SyntheticSpec(SyntheticKind.MOONS, n=10_000, seed=0)),
                  make_moons(SyntheticSpec(SyntheticKind.MOONS, n=10_000, seed=1)))

(and the same with ``make_circles``).  It builds a 10,000 x 10,000 cost
matrix (800 MB; peak RSS 0.86 GB), and the ``ot_divergence`` call took
29-30 s for moons and 35 s for circles on a 2-vCPU Xeon with one BLAS
thread (warm-started solve, two runs each).  The estimate moves with
the seeds: the pairs (0, 1) and (2, 3) give 0.064 and 0.057 for moons,
0.054 and 0.063 for circles (NumPy 2.4, SciPy 1.17).  Scaling the coordinates scales every
divergence linearly, so it changes no ranking.
"""

from __future__ import annotations

import csv
import math
import operator
import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import BadMagic, CountMismatch, InvalidCount, SpecError, TruncatedFile
from .ot import PointSet

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Calibrated global scales (see module docstring).
MOONS_SCALE = 3.2232
CIRCLES_SCALE = 2.7175


def _count(n: int, what: str) -> int:
    """``n`` as an int >= 1 (NumPy integers too); :class:`InvalidCount` otherwise."""
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidCount(f"need an integer number of {what}, got {n!r}") from None
    if n < 1:
        raise InvalidCount(f"need n >= 1 {what}, got {n}")
    return n


def _seed(seed: int) -> int:
    """``seed`` as an int >= 0 (NumPy integers too); :class:`SpecError` otherwise."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise SpecError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise SpecError(f"seed must be >= 0, got {seed}")
    return seed


class SyntheticKind(Enum):
    MOONS = "moons"
    CIRCLES = "circles"


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic 2D sample.

    ``factor`` is the inner-radius ratio and only affects circles.
    ``scale`` multiplies the finished coordinates; None picks the
    calibrated default for the kind.
    """

    kind: SyntheticKind
    n: int
    noise_sd: float = 0.05
    factor: float = 0.5
    seed: int = 0
    scale: float | None = None

    def __post_init__(self) -> None:
        _count(self.n, "points")
        _seed(self.seed)
        if not 0.0 <= self.noise_sd < math.inf:
            raise SpecError(f"noise_sd must be finite and >= 0, got {self.noise_sd}")
        if not (0.0 < self.factor < 1.0):
            raise SpecError(f"circles factor must lie in (0, 1), got {self.factor}")
        if self.scale is not None and not 0.0 < self.scale < math.inf:
            raise SpecError(f"scale must be finite and positive, got {self.scale}")

    @property
    def resolved_scale(self) -> float:
        if self.scale is not None:
            return self.scale
        return MOONS_SCALE if self.kind is SyntheticKind.MOONS else CIRCLES_SCALE


def _split_counts(n: int) -> tuple[int, int]:
    # First class (upper arc / outer ring) gets the extra point on odd n.
    first = (n + 1) // 2
    return first, n - first


def make_moons(spec: SyntheticSpec) -> PointSet:
    """Two interleaved arcs with isotropic Gaussian noise.

    Upper arc (cos t, sin t), lower arc (1 - cos t, 0.5 - sin t), t drawn
    uniformly on [0, pi]; the arcs split n as evenly as possible (upper arc
    first in row order).
    """
    if spec.kind is not SyntheticKind.MOONS:
        raise SpecError(f"make_moons got a {spec.kind.value} spec")
    rng = np.random.default_rng(spec.seed)
    n_up, n_lo = _split_counts(spec.n)
    t_up = rng.uniform(0.0, np.pi, n_up)
    t_lo = rng.uniform(0.0, np.pi, n_lo)
    pts = np.concatenate(
        [
            np.stack([np.cos(t_up), np.sin(t_up)], axis=1),
            np.stack([1.0 - np.cos(t_lo), 0.5 - np.sin(t_lo)], axis=1),
        ]
    )
    if spec.noise_sd > 0:
        pts += rng.normal(0.0, spec.noise_sd, pts.shape)
    return PointSet(pts * spec.resolved_scale)


def make_circles(spec: SyntheticSpec) -> PointSet:
    """Two concentric rings (radius 1 and ``factor``) with Gaussian noise.

    Angles are uniform on [0, 2 pi); the rings split n as evenly as
    possible (outer ring first in row order).
    """
    if spec.kind is not SyntheticKind.CIRCLES:
        raise SpecError(f"make_circles got a {spec.kind.value} spec")
    rng = np.random.default_rng(spec.seed)
    n_out, n_in = _split_counts(spec.n)
    a_out = rng.uniform(0.0, 2.0 * np.pi, n_out)
    a_in = rng.uniform(0.0, 2.0 * np.pi, n_in)
    pts = np.concatenate(
        [
            np.stack([np.cos(a_out), np.sin(a_out)], axis=1),
            spec.factor * np.stack([np.cos(a_in), np.sin(a_in)], axis=1),
        ]
    )
    if spec.noise_sd > 0:
        pts += rng.normal(0.0, spec.noise_sd, pts.shape)
    return PointSet(pts * spec.resolved_scale)


def synthetic_labels(spec: SyntheticSpec) -> np.ndarray:
    """Class labels (0 = upper arc / outer ring) in row order of the sample."""
    first, second = _split_counts(spec.n)
    return np.concatenate([np.zeros(first, dtype=np.int64), np.ones(second, dtype=np.int64)])


# ---------------------------------------------------------------------------
# Images
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImageBatch:
    """n flattened images with pixel values in [0, 1].

    ``pixels`` has shape (n, h*w*c), float32, with h, w, c >= 1.  Labels
    are optional, a 1-D integer array, and only used for reporting.
    """

    pixels: np.ndarray
    h: int
    w: int
    c: int
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        if min(self.h, self.w, self.c) < 1:
            raise SpecError(
                f"image dimensions must be >= 1, got h, w, c = {self.h}, {self.w}, {self.c}"
            )
        px = np.asarray(self.pixels, dtype=np.float32)
        if px.ndim != 2 or px.shape[1] != self.h * self.w * self.c:
            raise SpecError(
                f"pixel matrix shape {px.shape} inconsistent with h*w*c = "
                f"{self.h}*{self.w}*{self.c}"
            )
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
    return ImageBatch(pixels=pixels, h=h, w=w, c=1, labels=labels)


def save_idx(
    path_images: str | Path, images: ImageBatch, path_labels: str | Path | None = None
) -> None:
    """Write an ImageBatch back out in IDX3/IDX1 format (c must be 1, labels
    in 0..255); every check runs before either file is opened."""
    if images.c != 1:
        raise SpecError("IDX3 stores single-channel images only")
    if path_labels is not None:
        if images.labels is None:
            raise SpecError("no labels to write")
        if images.labels.size and not 0 <= images.labels.min() <= images.labels.max() <= 255:
            raise SpecError(f"IDX1 labels must lie in 0..255, got {images.labels.min()}..{images.labels.max()}")
    raw = np.clip(np.rint(images.pixels * 255.0), 0, 255).astype(np.uint8)
    with open(path_images, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, images.n, images.h, images.w))
        f.write(raw.tobytes())
    if path_labels is not None:
        with open(path_labels, "wb") as f:
            f.write(struct.pack(">II", IDX_LABEL_MAGIC, images.n))
            f.write(np.asarray(images.labels, dtype=np.uint8).tobytes())


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
    Raises :class:`InvalidCount` unless ``n`` is an integer >= 1 and
    :class:`SpecError` unless ``seed`` is a non-negative integer.
    """
    n = _count(n, "glyphs")
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
    return ImageBatch(
        pixels=pixels, h=_GLYPH_SIDE, w=_GLYPH_SIDE, c=1, labels=digits.astype(np.uint8)
    )


# ---------------------------------------------------------------------------
# Point CSV
# ---------------------------------------------------------------------------


def save_points_csv(path: str | Path, points: PointSet, labels: np.ndarray | None = None) -> None:
    """Write a point set as CSV: columns x,y for d=2 (x0..x{d-1} otherwise)."""
    if labels is not None and len(labels) != points.k:
        raise CountMismatch(f"{points.k} points but {len(labels)} labels")
    header = ["x", "y"] if points.d == 2 else [f"x{i}" for i in range(points.d)]
    if labels is not None:
        header.append("label")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for i in range(points.k):
            row = [f"{v:.17g}" for v in points.data[i]]
            if labels is not None:
                row.append(str(int(labels[i])))
            writer.writerow(row)


def load_points_csv(path: str | Path) -> tuple[PointSet, np.ndarray | None]:
    """Read a CSV written by :func:`save_points_csv` (label column optional).

    A header without a coordinate column, a row with the wrong column
    count, a non-numeric or non-finite coordinate, or a label that is not
    an int64 integer raises :class:`SpecError` naming ``path:line``.
    """
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise TruncatedFile(f"{path}: empty CSV") from None
        has_label = header and header[-1].strip().lower() == "label"
        ncols = len(header) - (1 if has_label else 0)
        if ncols < 1:
            raise SpecError(f"{path}:1: header {header} names no coordinate column")
        rows, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise SpecError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
            try:
                coords = [float(v) for v in row[:ncols]]
                label = int(row[-1]) if has_label else 0
            except ValueError as exc:
                raise SpecError(f"{path}:{lineno}: {exc}") from exc
            if not all(math.isfinite(v) for v in coords):
                raise SpecError(f"{path}:{lineno}: coordinates must be finite, got {row[:ncols]}")
            if not -(2**63) <= label < 2**63:
                raise SpecError(f"{path}:{lineno}: label {label} does not fit in int64")
            rows.append(coords)
            if has_label:
                labels.append(label)
    if not rows:
        raise TruncatedFile(f"{path}: no data rows")
    return PointSet(np.asarray(rows)), (np.asarray(labels, dtype=np.int64) if has_label else None)
