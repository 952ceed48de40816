"""Synthetic 2D distributions and IDX image ingestion.

The two-moons and concentric-circles generators follow the conventional
arc constructions, with one extra knob: a global coordinate ``scale``.
The default scales are meant to put the divergence between two independent
10,000-point samples on the published reference baseline (about 0.070 for
moons, 0.071 for circles).  The check that measures it::

    ot_divergence(make_moons(SyntheticSpec(SyntheticKind.MOONS, n=10_000, seed=0)),
                  make_moons(SyntheticSpec(SyntheticKind.MOONS, n=10_000, seed=1)))

(and the same with ``make_circles``).  It builds a 10,000 x 10,000 cost
matrix (800 MB) and takes 20-30 s.  The estimate moves with the seeds: the
pairs (0, 1) and (2, 3) give 0.064 and 0.057 for moons, 0.054 and 0.063
for circles (NumPy 2.4, SciPy 1.17).  Scaling the coordinates scales every
divergence linearly, so it changes no ranking.
"""

from __future__ import annotations

import csv
import math
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
        if self.n < 1:
            raise InvalidCount(f"need n >= 1 points, got {self.n}")
        if self.noise_sd < 0:
            raise SpecError(f"noise_sd must be >= 0, got {self.noise_sd}")
        if not (0.0 < self.factor < 1.0):
            raise SpecError(f"circles factor must lie in (0, 1), got {self.factor}")
        if self.scale is not None and self.scale <= 0:
            raise SpecError(f"scale must be positive, got {self.scale}")

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

    ``pixels`` has shape (n, h*w*c), float32.  Labels are optional and only
    used for reporting.
    """

    pixels: np.ndarray
    h: int
    w: int
    c: int
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        px = np.asarray(self.pixels, dtype=np.float32)
        if px.ndim != 2 or px.shape[1] != self.h * self.w * self.c:
            raise SpecError(
                f"pixel matrix shape {px.shape} inconsistent with h*w*c = "
                f"{self.h}*{self.w}*{self.c}"
            )
        if px.size and (px.min() < 0.0 or px.max() > 1.0):
            raise SpecError("pixel values must lie in [0, 1]")
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)
        if self.labels is not None and len(self.labels) != len(px):
            raise CountMismatch(f"{len(px)} images but {len(self.labels)} labels")

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
    """Write an ImageBatch back out in IDX3/IDX1 format (c must be 1)."""
    if images.c != 1:
        raise SpecError("IDX3 stores single-channel images only")
    raw = np.clip(np.rint(images.pixels * 255.0), 0, 255).astype(np.uint8)
    with open(path_images, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, images.n, images.h, images.w))
        f.write(raw.tobytes())
    if path_labels is not None:
        if images.labels is None:
            raise SpecError("no labels to write")
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


def make_glyphs(n: int, seed: int = 0) -> ImageBatch:
    """Synthetic 28x28 digit-glyph corpus, a stand-in when no IDX data exists.

    Each image is a 3x5 digit bitmap blown up by an integer factor, placed
    at a random offset, dimmed by a random intensity, and blurred.  The
    result is a ten-mode image distribution with continuous nuisance
    variation, which is all the image pipeline needs for its latent-space
    checks.
    """
    from scipy.ndimage import gaussian_filter

    if n < 1:
        raise InvalidCount(f"need n >= 1 glyphs, got {n}")
    rng = np.random.default_rng(seed)
    digits = rng.integers(0, 10, size=n)
    zooms = rng.integers(3, 6, size=n)  # glyph sizes 9x15 .. 15x25
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
    pixels = np.clip(out.reshape(n, 28 * 28), 0.0, 1.0)
    return ImageBatch(pixels=pixels, h=28, w=28, c=1, labels=digits.astype(np.uint8))


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
