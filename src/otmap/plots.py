"""Dependency-free binary PGM image grids.

Output is plain P5 bytes so artifacts diff cleanly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .datasets import ImageBatch
from .errors import SizeMismatch, SpecError, _count, _instance, _real


def write_pgm(path: str | Path, gray: np.ndarray) -> None:
    """Write a (H, W) array of [0, 1] grays as binary PGM (P5, maxval 255).

    Grays outside [0, 1] are clipped; a gray that is not a finite real
    number (NaN, infinite, complex, a string), ragged rows or another rank
    raise :class:`SpecError`.
    """
    gray = _real(gray, "PGM gray")
    if gray.ndim != 2:
        raise SpecError(f"PGM needs a 2-D gray image, got shape {gray.shape}")
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
    _instance(images, ImageBatch, "images")
    rows = _count(rows, "grid rows")
    cols = _count(cols, "grid cols")
    if images.n < rows * cols:
        raise SizeMismatch(f"grid needs {rows * cols} images, batch has {images.n}")
    tiles = images.pixels[: rows * cols].reshape(rows, cols, images.h, images.w)
    return tiles.transpose(0, 2, 1, 3).reshape(rows * images.h, cols * images.w)
