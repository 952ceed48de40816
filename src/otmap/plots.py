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
from .errors import SizeMismatch, SpecError

CANVAS = 640
MARGIN_FRAC = 0.05

COLOR_REAL = "#2ca02c"  # green
COLOR_NOISE = "#1f77b4"  # blue
COLOR_PRED = "#9467bd"  # purple
COLOR_SEGMENT = "#d62728"  # red


def _bounds(arrays: list[np.ndarray]) -> tuple[float, float, float, float]:
    pts = np.concatenate([a for a in arrays if len(a)])
    xmin, ymin = pts.min(axis=0)
    xmax, ymax = pts.max(axis=0)
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    pad = span * MARGIN_FRAC
    return xmin - pad, ymin - pad, xmax + pad, ymax + pad


class _SvgCanvas:
    def __init__(self, arrays: list[np.ndarray]) -> None:
        for a in arrays:
            if a.ndim != 2 or a.shape[1] != 2:
                raise SizeMismatch(f"SVG plots take (k, 2) arrays, got shape {a.shape}")
        self.x0, self.y0, self.x1, self.y1 = _bounds(arrays)
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
            f'viewBox="0 0 {CANVAS} {CANVAS}">',
            f'<rect width="{CANVAS}" height="{CANVAS}" fill="white"/>',
        ]

    def to_px(self, xy: np.ndarray) -> np.ndarray:
        sx = CANVAS / (self.x1 - self.x0)
        sy = CANVAS / (self.y1 - self.y0)
        s = min(sx, sy)
        px = (xy[:, 0] - self.x0) * s
        py = CANVAS - (xy[:, 1] - self.y0) * s  # SVG y grows downward
        return np.stack([px, py], axis=1)

    def add_points(self, xy: np.ndarray, color: str, radius: float = 2.0) -> None:
        for x, y in self.to_px(xy):
            self.parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{radius}" fill="{color}" fill-opacity="0.65"/>'
            )

    def add_segments(self, a: np.ndarray, b: np.ndarray, color: str = COLOR_SEGMENT) -> None:
        pa, pb = self.to_px(a), self.to_px(b)
        for (x1, y1), (x2, y2) in zip(pa, pb):
            self.parts.append(
                f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                f'stroke="{color}" stroke-width="1"/>'
            )

    def write(self, path: str | Path) -> None:
        self.parts.append("</svg>")
        Path(path).write_text("\n".join(self.parts))


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
    """
    predictions = np.asarray(predictions, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if len(perm) != len(predictions) or len(targets) != len(predictions):
        raise SizeMismatch(
            f"feedback plot needs equal counts, got {len(predictions)} predictions, "
            f"{len(targets)} targets, {len(perm)} matches"
        )
    arrays = [predictions, targets] + ([np.asarray(noise, dtype=np.float64)] if noise is not None else [])
    canvas = _SvgCanvas(arrays)
    canvas.add_segments(predictions, targets[np.asarray(perm)])
    canvas.add_points(targets, COLOR_REAL)
    canvas.add_points(predictions, COLOR_PRED)
    if noise is not None:
        canvas.add_points(np.asarray(noise, dtype=np.float64), COLOR_NOISE)
    canvas.write(path)


# ---------------------------------------------------------------------------
# PGM image grids
# ---------------------------------------------------------------------------


def write_pgm(path: str | Path, gray: np.ndarray) -> None:
    """Write a (H, W) array of [0, 1] grays as binary PGM (P5, maxval 255)."""
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise SizeMismatch(f"PGM needs a 2-D gray image, got shape {gray.shape}")
    data = np.clip(np.rint(gray * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def tile_images(images: ImageBatch, rows: int, cols: int) -> np.ndarray:
    """Lay the first rows*cols images out on a (rows*h, cols*w) canvas."""
    if images.c != 1:
        raise SpecError("image grids support single-channel images only")
    if images.n < rows * cols:
        raise SizeMismatch(f"grid needs {rows * cols} images, batch has {images.n}")
    tiles = images.pixels[: rows * cols].reshape(rows, cols, images.h, images.w)
    return tiles.transpose(0, 2, 1, 3).reshape(rows * images.h, cols * images.w)
