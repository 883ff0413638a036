"""Raster image and mask ingestion plus color-space conversion.

Images are 8-bit RGB rasters read bit-exactly from binary PPM (P6,
maxval 255); 8-bit RGB PNG is accepted as a convenience when Pillow is
installed.  Masks are binary PGM (P5) rasters.  ``convert`` turns an
image into a pixel set in one of the four color spaces used by the
descriptor pipeline, every channel scaled to [0, 1].

All functions here are pure; nothing holds shared mutable state.
"""

from __future__ import annotations

import enum
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

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
_WHITESPACE = b" \t\n\r\x0b\x0c"


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


@dataclass(frozen=True)
class PixelSet:
    """Pixels converted to one color space, every component in [0, 1]."""

    space: ColorSpace
    points: np.ndarray  # (n, 3) float64


def _read_pnm_header(data: bytes, n_fields: int):
    """Parse ``n_fields`` whitespace-separated header tokens.

    Comment lines (``#`` up to end of line) are skipped.  Returns the
    tokens and the offset of the payload, which starts after exactly one
    whitespace byte following the last token.
    """
    tokens = []
    i = 0
    while len(tokens) < n_fields:
        while i < len(data):
            c = data[i : i + 1]
            if c in (b"#",):
                while i < len(data) and data[i : i + 1] not in (b"\r", b"\n"):
                    i += 1
            elif c and c in _WHITESPACE:
                i += 1
            else:
                break
        start = i
        while i < len(data) and data[i : i + 1] not in _WHITESPACE and data[i : i + 1] != b"#":
            i += 1
        if i == start:
            raise CorruptFile("truncated header")
        tokens.append(data[start:i])
    if i >= len(data) or data[i : i + 1] not in _WHITESPACE:
        raise CorruptFile("missing whitespace after header")
    return tokens, i + 1


def _parse_dims(tokens) -> tuple[int, int, int]:
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise CorruptFile(f"non-numeric header field: {exc}") from None
    if maxval != 255:
        raise UnsupportedFormat(f"only maxval 255 is supported, got {maxval}")
    if width <= 0 or height <= 0:
        raise CorruptFile(f"degenerate dimensions {width}x{height}")
    if width * height > MAX_PIXELS:
        raise DimensionOverflow(f"{width}x{height} exceeds {MAX_PIXELS} pixels")
    return width, height, maxval


def _load_ppm(data: bytes) -> RasterImage:
    tokens, offset = _read_pnm_header(data, 4)
    width, height, _ = _parse_dims(tokens[1:])
    need = width * height * 3
    payload = data[offset : offset + need]
    if len(payload) < need:
        raise CorruptFile(f"payload holds {len(payload)} bytes, expected {need}")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return RasterImage(width=width, height=height, pixels=pixels)


def _load_pgm(data: bytes) -> ForegroundMask:
    tokens, offset = _read_pnm_header(data, 4)
    width, height, _ = _parse_dims(tokens[1:])
    need = width * height
    payload = data[offset : offset + need]
    if len(payload) < need:
        raise CorruptFile(f"payload holds {len(payload)} bytes, expected {need}")
    gray = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    return ForegroundMask(width=width, height=height, values=(gray > 127).astype(np.uint8))


def _load_png(path: Path) -> RasterImage:
    try:
        from PIL import Image
    except ImportError:
        raise UnsupportedFormat(
            "PNG support requires Pillow (pip install reid-sgm[png])"
        ) from None
    with Image.open(path) as img:
        if img.mode != "RGB":
            raise UnsupportedFormat(f"only 8-bit RGB PNG is supported, got mode {img.mode}")
        pixels = np.asarray(img, dtype=np.uint8)
    height, width = pixels.shape[:2]
    if width <= 0 or height <= 0:
        raise CorruptFile(f"degenerate dimensions {width}x{height}")
    if width * height > MAX_PIXELS:
        raise DimensionOverflow(f"{width}x{height} exceeds {MAX_PIXELS} pixels")
    return RasterImage(width=width, height=height, pixels=pixels)


def load_image(path) -> RasterImage:
    """Load an RGB raster from a binary PPM (P6) or an 8-bit RGB PNG.

    Channel values are passed through byte-exactly; no color management
    is applied.
    """
    path = Path(path)
    data = path.read_bytes()
    if data.startswith(b"P6"):
        return _load_ppm(data)
    if data.startswith(_PNG_SIGNATURE):
        return _load_png(path)
    if data.startswith(b"P5"):
        raise UnsupportedFormat("P5 is a mask format; use load_mask")
    raise UnsupportedFormat(f"{path}: not a P6 PPM or PNG file")


def load_mask(path, image: RasterImage | None = None) -> ForegroundMask:
    """Load a binary PGM (P5) foreground mask paired with ``image``.

    Gray values above 127 count as foreground.  Dimensions must match
    the image exactly, when one is given.
    """
    path = Path(path)
    data = path.read_bytes()
    if not data.startswith(b"P5"):
        raise UnsupportedFormat(f"{path}: not a P5 PGM file")
    mask = _load_pgm(data)
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


def convert(
    image: RasterImage,
    space: ColorSpace,
    mask: ForegroundMask | None = None,
) -> PixelSet:
    """Convert an image's pixels to ``space``, optionally mask-selected.

    With a mask, only foreground pixels are kept; if the mask selects
    none, the whole image is used.  Every output component lies in [0, 1];
    the achromatic singularities (zero-sum normalized rgb, equal-channel
    l1l2l3) resolve to the uniform point (1/3, 1/3, 1/3), and HSV maps
    black to (0, 0, 0).
    """
    if mask is not None and (mask.width, mask.height) != (image.width, image.height):
        raise DimensionMismatch(
            f"mask is {mask.width}x{mask.height} but image is {image.width}x{image.height}"
        )
    flat = image.pixels.reshape(-1, 3)
    if mask is not None:
        keep = mask.values.reshape(-1) == 1
        if keep.any():
            flat = flat[keep]
    rgb = flat.astype(np.float64) / 255.0

    if space is ColorSpace.RGB:
        points = rgb
    elif space is ColorSpace.NORMALIZED_RGB:
        points = _to_normalized_rgb(rgb)
    elif space is ColorSpace.L1L2L3:
        points = _to_l1l2l3(rgb)
    elif space is ColorSpace.HSV:
        points = _to_hsv(rgb)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unhandled color space {space}")
    return PixelSet(space=space, points=points)
