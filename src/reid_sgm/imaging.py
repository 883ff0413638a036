"""Raster image and mask ingestion plus color-space conversion.

Images are 8-bit RGB rasters read bit-exactly from binary PPM (P6,
maxval 255), and masks are binary PGM (P5) rasters; PNG or BMP crops are
converted to PNM beforehand.  ``convert`` turns an image into an (n, 3)
array of points in one of the four color spaces used by the descriptor
pipeline, every channel scaled to [0, 1].

All functions here are pure; nothing holds shared mutable state.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CorruptFile,
    DimensionMismatch,
    DimensionOverflow,
    UnsupportedFormat,
)

# Rasters above this pixel count are refused outright.
MAX_PIXELS = 1 << 26


class ColorSpace(enum.Enum):
    """The four color spaces of the descriptor pipeline."""

    RGB = "RGB"
    NORMALIZED_RGB = "rgb"
    L1L2L3 = "l1l2l3"
    HSV = "HSV"

    @classmethod
    def from_tag(cls, tag: str) -> "ColorSpace":
        for space in cls:
            if space.value == tag:
                return space
        known = ", ".join(s.value for s in cls)
        raise ValueError(f"unknown color space {tag!r} (expected one of: {known})")


ALL_SPACES = tuple(ColorSpace)


@dataclass(frozen=True)
class RasterImage:
    """An 8-bit RGB raster; ``pixels`` has shape (height, width, 3)."""

    width: int
    height: int
    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.shape != (self.height, self.width, 3):
            raise DimensionMismatch(
                f"pixel buffer shape {self.pixels.shape} does not match "
                f"{self.height}x{self.width}x3"
            )


@dataclass(frozen=True)
class ForegroundMask:
    """Binary foreground flags; ``values`` has shape (height, width)."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.height, self.width):
            raise DimensionMismatch(
                f"mask buffer shape {self.values.shape} does not match "
                f"{self.height}x{self.width}"
            )

    def foreground_count(self) -> int:
        return int(self.values.sum())


# A PNM header after its magic: width, height and maxval, each after
# whitespace or comments, then the one whitespace byte that ends it.  A
# comment runs through its line break, so the header splits only one way
# and a match that fails backtracks in linear time.
_PNM_HEADER = re.compile(rb"(?:\s|#[^\r\n]*[\r\n])+(\d+)" * 3 + rb"\s")


def _read_pnm(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    """The (height, width, channels) uint8 payload of a binary PNM that
    starts with ``magic`` and has maxval 255."""
    if not data.startswith(magic):
        raise UnsupportedFormat(f"not a binary {magic.decode()} file; "
                                "convert PNG or BMP to PNM first")
    header = _PNM_HEADER.match(data, len(magic))
    if header is None:
        raise CorruptFile("malformed or truncated header")
    try:
        width, height, maxval = map(int, header.groups())
    except ValueError as exc:  # a field past int's digit limit
        raise CorruptFile(f"header field too long: {exc}") from None
    if maxval != 255:
        raise UnsupportedFormat(f"only maxval 255 is supported, got {maxval}")
    if width <= 0 or height <= 0:
        raise CorruptFile(f"degenerate dimensions {width}x{height}")
    if width * height > MAX_PIXELS:
        raise DimensionOverflow(f"{width}x{height} exceeds {MAX_PIXELS} pixels")
    need = width * height * channels
    payload = data[header.end() : header.end() + need]
    if len(payload) < need:
        raise CorruptFile(f"payload holds {len(payload)} bytes, expected {need}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)


def load_image(path) -> RasterImage:
    """Load an RGB raster from a binary PPM (P6, maxval 255).

    Channel values are passed through byte-exactly; no color management
    is applied.
    """
    data = Path(path).read_bytes()
    if data.startswith(b"P5"):
        raise UnsupportedFormat("P5 is a mask format; use load_mask")
    pixels = _read_pnm(data, b"P6", 3)
    return RasterImage(width=pixels.shape[1], height=pixels.shape[0], pixels=pixels)


def load_mask(path, image: RasterImage | None = None) -> ForegroundMask:
    """Load a binary PGM (P5) foreground mask paired with ``image``.

    Gray values above 127 count as foreground.  Dimensions must match
    the image exactly, when one is given.
    """
    gray = _read_pnm(Path(path).read_bytes(), b"P5", 1)[:, :, 0]
    mask = ForegroundMask(width=gray.shape[1], height=gray.shape[0],
                          values=(gray > 127).astype(np.uint8))
    if image is not None and (mask.width, mask.height) != (image.width, image.height):
        raise DimensionMismatch(
            f"mask is {mask.width}x{mask.height} but image is {image.width}x{image.height}"
        )
    return mask


def write_ppm(path, pixels: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 array as a binary PPM (P6, maxval 255)."""
    pixels = np.ascontiguousarray(pixels, dtype=np.uint8)
    height, width = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(pixels.tobytes())


def write_pgm(path, values: np.ndarray) -> None:
    """Write an (h, w) uint8 array as a binary PGM (P5, maxval 255)."""
    values = np.ascontiguousarray(values, dtype=np.uint8)
    height, width = values.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(values.tobytes())


def _to_normalized_rgb(rgb: np.ndarray) -> np.ndarray:
    total = rgb[:, 0] + rgb[:, 1] + rgb[:, 2]
    out = np.full_like(rgb, 1.0 / 3.0)
    return np.divide(rgb, total[:, None], out=out, where=total[:, None] > 0)


def _to_l1l2l3(rgb: np.ndarray) -> np.ndarray:
    diff = rgb[:, [0, 0, 1]] - rgb[:, [1, 2, 2]]
    diff *= diff  # (r - g)^2, (r - b)^2, (g - b)^2
    denom = diff[:, 0] + diff[:, 1] + diff[:, 2]
    out = np.divide(diff, denom[:, None], out=np.full_like(diff, 1.0 / 3.0),
                    where=denom[:, None] > 0)
    return np.ascontiguousarray(out)  # the column gathers leave it column-major


def _to_hsv(rgb: np.ndarray) -> np.ndarray:
    r, g, b = rgb[:, 0], rgb[:, 1], rgb[:, 2]
    mx = np.maximum(np.maximum(r, g), b)
    chroma = mx - np.minimum(np.minimum(r, g), b)
    # The sector of the largest channel, ties going to r, then g.  An
    # achromatic pixel takes r's sector with g - b = 0 over a unit chroma,
    # so its hue comes out 0 with no separate case.
    r_max = mx == r
    g_max = mx == g
    num = np.where(r_max, g - b, np.where(g_max, b - r, r - g))
    offset = np.where(r_max, 0.0, np.where(g_max, 2.0, 4.0))
    num /= np.where(chroma > 0, chroma, 1.0)
    num += offset
    hue = np.mod(num, 6.0, out=num)  # exact: it only lifts r's negative sector by 6
    hue /= 6.0
    out = np.empty_like(rgb)
    out[:, 0] = hue
    np.divide(chroma, np.where(mx > 0, mx, 1.0), out=out[:, 1])  # black: 0 / 1
    out[:, 2] = mx
    return out


def convert(image: RasterImage, space: ColorSpace) -> np.ndarray:
    """An image's pixels in ``space``, as (n, 3) float64 points in [0, 1].

    The achromatic singularities (zero-sum normalized rgb, equal-channel
    l1l2l3) resolve to the uniform point (1/3, 1/3, 1/3), and HSV maps
    black to (0, 0, 0).
    """
    rgb = image.pixels.reshape(-1, 3).astype(np.float64) / 255.0
    if space is ColorSpace.RGB:
        return rgb
    if space is ColorSpace.NORMALIZED_RGB:
        return _to_normalized_rgb(rgb)
    if space is ColorSpace.L1L2L3:
        return _to_l1l2l3(rgb)
    if space is ColorSpace.HSV:
        return _to_hsv(rgb)
    raise ValueError(f"unhandled color space {space}")
