"""Dependency-free SVG scatter plots and binary PGM image grids.

Output formats are deliberately plain text / plain bytes so artifacts diff
cleanly: SVG for 2D point plots (green = real, blue = noise or generated,
purple = predictions, red = assignment segments) and P5 PGM for image
grids.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .datasets import ImageBatch
from .errors import SizeMismatch, SpecError, _count, _real
from .ot import _permutation

CANVAS = 640
MARGIN_FRAC = 0.05

COLOR_REAL = "#2ca02c"  # green
COLOR_NOISE = "#1f77b4"  # blue
COLOR_PRED = "#9467bd"  # purple
COLOR_SEGMENT = "#d62728"  # red


def write_feedback_svg(
    path: str | Path,
    predictions: np.ndarray,
    targets: np.ndarray,
    perm: np.ndarray,
    noise: np.ndarray | None = None,
) -> None:
    """One training step's assignment feedback.

    Red segments join each prediction to its matched target; green dots are
    the real targets, purple the predictions, blue the (optional) noise.
    ``perm`` must be an integer permutation of 0..k-1 for the k predictions
    and targets, as :class:`otmap.ot.Assignment` holds, else :class:`SizeMismatch`.
    Points that are not real numbers raise :class:`SpecError`.
    """
    arrays = [
        _real(a, "SVG point", SpecError, ragged=SizeMismatch).astype(np.float64)
        for a in [predictions, targets] + ([] if noise is None else [noise])
    ]
    predictions, targets = arrays[:2]
    perm = _permutation(perm)
    if len(perm) != len(predictions) or len(targets) != len(predictions):
        raise SizeMismatch(
            f"feedback plot needs equal counts, got {len(predictions)} predictions, "
            f"{len(targets)} targets, {len(perm)} matches"
        )
    for a in arrays:
        if a.ndim != 2 or a.shape[1] != 2:
            raise SizeMismatch(f"SVG plots take (k, 2) arrays, got shape {a.shape}")
    # One scale for both axes: the padded bounding box of every point fits the canvas.
    pts = np.concatenate([a for a in arrays if len(a)])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = max(hi[0] - lo[0], hi[1] - lo[1], 1e-9) * MARGIN_FRAC
    x0, y0, x1, y1 = lo[0] - pad, lo[1] - pad, hi[0] + pad, hi[1] + pad
    scale = min(CANVAS / (x1 - x0), CANVAS / (y1 - y0))
    to_px = lambda xy: zip((xy[:, 0] - x0) * scale, CANVAS - (xy[:, 1] - y0) * scale)  # SVG y grows downward

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        f'<rect width="{CANVAS}" height="{CANVAS}" fill="white"/>',
    ]
    for (xa, ya), (xb, yb) in zip(to_px(predictions), to_px(targets[perm])):
        parts.append(
            f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" stroke="{COLOR_SEGMENT}" stroke-width="1"/>'
        )
    for xy, color in [(targets, COLOR_REAL), (predictions, COLOR_PRED)] + [(a, COLOR_NOISE) for a in arrays[2:]]:
        parts.extend(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.0" fill="{color}" fill-opacity="0.65"/>' for x, y in to_px(xy)
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts))


# ---------------------------------------------------------------------------
# PGM image grids
# ---------------------------------------------------------------------------


def write_pgm(path: str | Path, gray: np.ndarray) -> None:
    """Write a (H, W) array of [0, 1] grays as binary PGM (P5, maxval 255).

    Grays outside [0, 1] are clipped; a gray that is not a finite real
    number (NaN, infinite, complex, a string) raises :class:`SpecError`, and
    ragged rows or another rank :class:`SizeMismatch`.
    """
    gray = _real(gray, "PGM gray", SpecError, ragged=SizeMismatch)
    if gray.ndim != 2:
        raise SizeMismatch(f"PGM needs a 2-D gray image, got shape {gray.shape}")
    if not np.isfinite(gray).all():
        raise SpecError("PGM grays must be finite")
    data = np.clip(np.rint(gray * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def tile_images(images: ImageBatch, rows: int, cols: int) -> np.ndarray:
    """Lay the first rows*cols images out on a (rows*h, cols*w) canvas.

    ``rows`` and ``cols`` must be integers >= 1, else :class:`SpecError`.
    """
    rows = _count(rows, "grid rows", SpecError)
    cols = _count(cols, "grid cols", SpecError)
    if images.n < rows * cols:
        raise SizeMismatch(f"grid needs {rows * cols} images, batch has {images.n}")
    tiles = images.pixels[: rows * cols].reshape(rows, cols, images.h, images.w)
    return tiles.transpose(0, 2, 1, 3).reshape(rows * images.h, cols * images.w)
