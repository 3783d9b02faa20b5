"""Calibrated multispectral images, categorical maps, flat-binary I/O and strips.

The on-disk format is a plain-text sidecar header (``key = value`` lines,
``//`` comments) next to a raw little-endian band-sequential payload with the
same stem and a ``.bin`` suffix.  Samples are calibrated to reflectance in
[0, 1] at read time; the original storage encoding is remembered so that
``write_image(read_image(p))`` is byte-identical.  ``read_image``, strip
reads, ``read_raster`` and map reads share ``ImageSource``'s one payload
reader.  ``write_raster`` and every strip write share ``RasterWriter``'s
one payload writer, and ``write_image`` and image strip writes share
``ImageWriter``'s one encoder on top of it.

Each format rule has one home that the writer and the reader both call, so
a file is checked the same way on write as on read, and a reader only adds
the file and header key to the message: ``_BAND_RULES`` for band metadata
(``_nodata_fits`` for nodata), ``_check_sizes`` for the layout sizes, which
must be at least 1, ``_check_image_bands`` for an image's band count, which
must be at least 2, ``read_header``/``write_header`` for the header text,
which refuses a repeated key, ``open_map_raster`` for a map's kind,
``check_legend`` for legend labels and ``parse_color``/``format_color`` for
``#RRGGBB`` colour text, which rule files share.  Reading refuses a legend
label named by two keys (``legend.7.name``, ``legend.07.name``), and a
colour key with no name key of the same ``N`` (``legend.02.color`` beside
``legend.2.name``).

Strips come only from files.  ``strip_ledger``, a ``RunStats``, counts a
strip's bytes from ``read_strip`` to ``release_strip``, which
``stream_strips`` calls when its consumer asks for the next strip: the
ledger bounds the strips read ahead, not the strips a consumer keeps.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DimensionMismatchError,
    FormatError,
    SpecmapError,
    TruncatedFileError,
)

_DTYPES = {
    "u8": np.dtype("<u1"),
    "u16": np.dtype("<u2"),
    "u32": np.dtype("<u4"),
    "i16": np.dtype("<i2"),
    "f32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
}


def _dtype_for(name: str) -> np.dtype:
    try:
        return _DTYPES[name]
    except KeyError:
        raise FormatError(f"unknown sample type {name!r}") from None


def default_gain(dtype_name: str) -> float:
    """Scale that maps a full-range integer sample onto [0, 1]."""
    dt = _dtype_for(dtype_name)
    if dt.kind in "ui":
        return 1.0 / float(np.iinfo(dt).max)
    return 1.0


#: The band metadata rules, one per header field: (field, test, the test in
#: words).  ``BandMetadata`` refuses a value that breaks one with a
#: ConfigError, and reading a header with a FormatError naming its key.
_BAND_RULES = (
    ("wavelength", lambda v: math.isfinite(v) and v > 0, "a finite number > 0"),
    ("gain", lambda v: math.isfinite(v) and v != 0, "a finite nonzero number"),
    ("offset", math.isfinite, "a finite number"),
)


def _broken_band_rule(wavelength: float, gain: float, offset: float):
    """(field, value, rule in words) of the first band rule broken, or None."""
    for (field, ok, need), value in zip(_BAND_RULES, (wavelength, gain, offset)):
        if not ok(value):
            return field, value, need
    return None


@dataclass(frozen=True)
class BandMetadata:
    band_id: int
    center_wavelength: float  # micrometers
    gain: float = 1.0
    offset: float = 0.0
    nodata_value: float | None = None

    def __post_init__(self):
        broken = _broken_band_rule(self.center_wavelength, self.gain, self.offset)
        if broken:
            field, value, need = broken
            raise ConfigError(f"band {self.band_id}: {field} must be {need}, got {value!r}")


class CalibrationResult(NamedTuple):
    values: np.ndarray   # float64 reflectance, invalid pixels zeroed
    valid: np.ndarray    # bool, False where raw == nodata
    clamped: int         # count of valid samples clipped into [0, 1]


def apply_calibration(raw: np.ndarray, meta: BandMetadata,
                      row0: int = 0) -> CalibrationResult:
    """Scale one raw plane to reflectance: ``raw * gain + offset`` clamped to [0, 1].

    Out-of-range results are clipped and counted, not rejected: slight
    negatives after offset are routine sensor noise.  ``row0`` is the image
    row of the plane's first row, which a refusal names.
    """
    raw = np.asarray(raw)
    nodata = meta.nodata_value
    nan_nodata = nodata is not None and math.isnan(nodata)
    if raw.dtype.kind == "f":
        # A NaN sample is nodata, not corruption, when nodata is NaN.
        bad = np.isinf(raw) if nan_nodata else ~np.isfinite(raw)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise DataError(f"band {meta.band_id}: non-finite raw sample at row "
                            f"{row0 + r}, col {c}")
    if nodata is None:
        valid = np.ones(raw.shape, dtype=bool)
    elif nan_nodata:
        valid = ~np.isnan(raw)
    else:
        valid = raw != nodata
    out = raw.astype(np.float64) * meta.gain + meta.offset
    clamped = int(np.count_nonzero(valid & ((out < 0.0) | (out > 1.0))))
    np.clip(out, 0.0, 1.0, out=out)
    out[~valid] = 0.0
    return CalibrationResult(out, valid, clamped)


def _calibrate_in_range(raw: np.ndarray, meta: BandMetadata, plane: np.ndarray,
                        validity: np.ndarray) -> bool:
    """``apply_calibration`` of integer ``raw`` into ``plane`` without its
    clip, mask and copy passes, when no sample can clamp; ``validity`` takes
    the nodata mask, and the caller zeroes invalid samples.

    Calibration is monotone in ``raw`` for either sign of the gain, so every
    sample lies between the calibrated ends, and ``np.clip`` would leave it,
    ``-0.0`` too.  Returns False, and touches nothing, when an end falls
    outside [0, 1].
    """
    ends = np.array([raw.min(), raw.max()], np.float64) * meta.gain + meta.offset
    if not (ends.min() >= 0.0 and ends.max() <= 1.0):
        return False
    np.multiply(raw, meta.gain, out=plane, dtype=np.float64)
    plane += meta.offset
    if meta.nodata_value is not None:
        validity &= raw != meta.nodata_value
    return True


def _check_image_bands(nbands: int, header_path=None) -> None:
    """The one band-count rule of an image; a file's refusal names its header."""
    if nbands < 2:
        error = DataError("an image needs at least 2 bands")
        raise error.at(header_path) if header_path else error


@dataclass
class MultiSpectralImage:
    """Calibrated per-band raster.  Immutable by convention after load."""

    bands: tuple[BandMetadata, ...]
    samples: np.ndarray   # (nbands, height, width) float64 in [0, 1]
    validity: np.ndarray  # (height, width) bool
    dtype_name: str = "f64"  # storage encoding used by write_image

    def __post_init__(self):
        self.bands = tuple(self.bands)
        if self.samples.ndim != 3:
            raise DataError("samples must be a (bands, height, width) array")
        if len(self.bands) != self.samples.shape[0]:
            raise DataError(
                f"{len(self.bands)} band descriptors for "
                f"{self.samples.shape[0]} planes"
            )
        _check_image_bands(len(self.bands))
        if self.validity.shape != self.samples.shape[1:]:
            raise DimensionMismatchError(
                "validity mask shape differs from band planes"
            )
        # Masked reductions: no copy of the valid samples.  An empty mask
        # passes, and NaN propagates to both ends and passes, as before.
        low = np.min(self.samples, where=self.validity, initial=np.inf)
        high = np.max(self.samples, where=self.validity, initial=-np.inf)
        if low < 0.0 or high > 1.0:
            raise DataError("valid samples must lie in [0, 1]")

    @property
    def width(self) -> int:
        return self.samples.shape[2]

    @property
    def height(self) -> int:
        return self.samples.shape[1]


# ---------------------------------------------------------------------------
# Header / payload I/O
# ---------------------------------------------------------------------------


def payload_path(header_path: Path | str) -> Path:
    return Path(header_path).with_suffix(".bin")


def read_text(path: Path | str) -> str:
    """The text of a UTF-8 file; other bytes are a ``FormatError`` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 text") from None


def read_header(path: Path | str) -> dict[str, str]:
    text = read_text(path)
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("//", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise FormatError(f"{path}: line {lineno}: repeated header key {key!r}")
        out[key] = value
    return out


#: Characters ``str.splitlines`` (and so ``read_header``) ends a line at.
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def write_header(path: Path | str, entries: list[tuple[str, str]]) -> None:
    """Write ``key = value`` lines; refuses text ``read_header`` would change.

    ``read_header`` cuts a line at ``//`` or a line break, strips whitespace
    around keys and values, splits at the first ``=`` and refuses a repeated
    key.
    """
    keys: set[str] = set()
    for key, value in entries:
        for text in (key, value):
            if "//" in text or any(c in text for c in _LINE_BREAKS):
                raise FormatError(
                    f"{path}: header entry {key!r} = {value!r} holds '//' or a "
                    "line break, which the header format cannot carry"
                )
            if text != text.strip():
                raise FormatError(
                    f"{path}: header entry {key!r} = {value!r} has leading or "
                    "trailing whitespace, which reading would strip"
                )
        if not key or "=" in key:
            raise FormatError(
                f"{path}: header key {key!r} is empty or holds '=', "
                "which reading would split differently"
            )
        if key in keys:
            raise FormatError(f"{path}: header key {key!r} is repeated")
        keys.add(key)
    lines = [f"{k} = {v}" for k, v in entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _header_int(header: dict, key: str, path) -> int:
    try:
        return int(header[key])
    except KeyError:
        raise FormatError(f"{path}: missing header key {key!r}") from None
    except ValueError:
        raise FormatError(f"{path}: header key {key!r} is not an integer") from None


def _payload_layout(header_path: Path, header: dict[str, str]):
    """(payload path, dtype, bands, height, width), checked against the payload size."""
    width = _header_int(header, "width", header_path)
    height = _header_int(header, "height", header_path)
    nbands = _header_int(header, "bands", header_path)
    _check_sizes(header_path, nbands, height, width)
    if header.get("interleave", "bsq") != "bsq":
        raise FormatError(f"{header_path}: only bsq interleave is supported")
    try:
        dt = _dtype_for(header.get("dtype", "f64"))
    except FormatError as exc:
        raise exc.at(header_path)
    expected = width * height * nbands * dt.itemsize
    ppath = payload_path(header_path)
    if not ppath.exists():
        raise FormatError(f"{header_path}: payload {ppath} does not exist")
    actual = ppath.stat().st_size
    if actual < expected:
        raise TruncatedFileError(
            f"{ppath}: payload is {actual} bytes, header promises {expected}"
        )
    if actual > expected:
        raise FormatError(
            f"{ppath}: payload is {actual} bytes, header promises {expected}"
        )
    return ppath, dt, nbands, height, width


def read_raster(header_path: Path | str) -> tuple[dict[str, str], np.ndarray]:
    """Read any flat raster: returns (header dict, raw (bands, h, w) array)."""
    source = ImageSource(header_path, calibrated=False)
    return source.header, source.read_raw_rows(0, source.height)


def write_raster(
    header_path: Path | str,
    extra: list[tuple[str, str]],
    planes: np.ndarray,
    dtype_name: str,
) -> None:
    """Write (bands, h, w) raw planes plus a header carrying ``extra`` entries."""
    with RasterWriter(header_path, extra, *planes.shape, dtype_name) as writer:
        writer.write(planes)


def _check_sizes(header_path, nbands: int, height: int, width: int) -> None:
    """The one layout-size rule, on write and on read: each size at least 1."""
    for key, value in (("width", width), ("height", height), ("bands", nbands)):
        if value < 1:
            raise FormatError(
                f"{header_path}: header key {key!r} must be at least 1, got {value}"
            )


def _layout_entries(header_path, nbands: int, height: int, width: int,
                    dtype_name: str) -> list[tuple[str, str]]:
    _check_sizes(header_path, nbands, height, width)
    return [
        ("width", str(width)),
        ("height", str(height)),
        ("bands", str(nbands)),
        ("dtype", dtype_name),
        ("interleave", "bsq"),
    ]


def _header_number(header: dict, key: str, path, default: float | None = None):
    """``float`` of header entry ``key``, or ``default`` when it is absent."""
    text = header.get(key)
    if text is None:
        return default
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"{path}: header key {key!r} is not a number: {text!r}") from None


def _nodata_fits(nodata: float, dt: np.dtype) -> bool:
    """Whether reading a payload of type ``dt`` can honour the nodata value.

    An integer payload must hold it exactly.  A float payload needs NaN or
    a finite value: reading refuses an infinite raw sample.
    """
    if dt.kind == "f":
        return not math.isinf(nodata)
    info = np.iinfo(dt)
    return float(nodata).is_integer() and info.min <= nodata <= info.max


def _nodata_rule(dtype_name: str) -> str:
    """What ``_nodata_fits`` asks of a ``dtype_name`` nodata value, in words."""
    dt = _dtype_for(dtype_name)
    if dt.kind == "f":
        return f"NaN or a finite number for {dtype_name} samples"
    info = np.iinfo(dt)
    return f"an integer in the {dtype_name} range {info.min}..{info.max}"


def _band_metadata_from_header(header: dict, dtype_name: str, n: int, path) -> BandMetadata:
    """Band ``n``'s metadata; a value reading cannot honour is a FormatError."""
    keys = {name: f"band.{n}.{name}"
            for name in ("wavelength", "gain", "offset", "nodata")}
    wav = _header_number(header, keys["wavelength"], path)
    gain = _header_number(header, keys["gain"], path, default_gain(dtype_name))
    offset = _header_number(header, keys["offset"], path, 0.0)
    nodata = _header_number(header, keys["nodata"], path)
    if wav is None:
        raise FormatError(f"{path}: missing header key {keys['wavelength']!r}")
    broken = _broken_band_rule(wav, gain, offset)
    if broken is None and nodata is not None \
            and not _nodata_fits(nodata, _dtype_for(dtype_name)):
        broken = "nodata", nodata, _nodata_rule(dtype_name)
    if broken:
        name, value, need = broken
        raise FormatError(f"{path}: header key {keys[name]!r} must be {need}, got {value!r}")
    return BandMetadata(n, wav, gain, offset, nodata)


def read_image(header_path: Path | str) -> MultiSpectralImage:
    """Decode every row through ``ImageSource``'s decoder; ledgers no strip bytes."""
    source = ImageSource(header_path)
    samples, validity = source._decode_rows(0, source.height)
    try:
        return MultiSpectralImage(source.bands, samples, validity, source.dtype_name)
    except SpecmapError as exc:
        raise exc.at(source.header_path)


def write_image(image: MultiSpectralImage, header_path: Path | str) -> None:
    """Encode samples back to the image's storage dtype, inverting calibration."""
    with ImageWriter(header_path, image.bands, image.height, image.width,
                     image.dtype_name) as writer:
        writer.write(image.samples, image.validity)


class RasterWriter:
    """Writes a raster's raw rows top to bottom, strip by strip: the one payload writer.

    The header, its layout entries then ``extra``, is written on opening.
    Each ``write`` puts the next rows of every band in place in the
    band-sequential payload.  Used as a context manager; a failed write, or
    a close before every row is written, removes the header and payload, so
    no partial raster is left behind.
    """

    def __init__(self, header_path: Path | str, extra: list[tuple[str, str]],
                 nbands: int, height: int, width: int, dtype_name: str):
        self.header_path = Path(header_path)
        self.nbands, self.height, self.width = nbands, height, width
        self._dt = _dtype_for(dtype_name)
        self._next_row = 0
        write_header(self.header_path, _layout_entries(
            self.header_path, nbands, height, width, dtype_name) + extra)
        self._payload = open(payload_path(self.header_path), "wb")

    def __enter__(self) -> RasterWriter:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._payload.close()
        if exc_type is None and self._next_row == self.height:
            return
        for path in (self.header_path, payload_path(self.header_path)):
            path.unlink(missing_ok=True)
        if exc_type is None:
            raise DataError(
                f"{self.header_path}: closed after {self._next_row} of "
                f"{self.height} rows"
            )

    def _check_strip(self, shape: tuple[int, ...]) -> int:
        """Rows of a ``shape`` strip, refused unless it fits at the next row."""
        nrows = shape[1] if len(shape) == 3 else -1
        if shape != (self.nbands, nrows, self.width) \
                or self._next_row + nrows > self.height:
            raise DimensionMismatchError(
                f"{self.header_path}: cannot write a {shape} strip at row "
                f"{self._next_row} of a ({self.nbands}, {self.height}, {self.width}) "
                "raster"
            )
        return nrows

    def _put(self, band: int, plane: np.ndarray) -> None:
        """Write ``plane`` as ``band``'s rows from the next row on."""
        row_bytes = self.width * self._dt.itemsize
        self._payload.seek(band * self.height * row_bytes + self._next_row * row_bytes)
        self._payload.write(np.ascontiguousarray(plane, dtype=self._dt))

    def write(self, planes: np.ndarray) -> None:
        """Write the next ``planes.shape[1]`` rows of every band, cast to the dtype."""
        nrows = self._check_strip(planes.shape)
        for band, plane in enumerate(planes):
            self._put(band, plane)
        self._next_row += nrows


class ImageWriter(RasterWriter):
    """Writes an image's rows strip by strip: the one encoder.

    Each ``write`` encodes the next rows of every band back to the storage
    dtype, inverting calibration; ``RasterWriter`` puts them in place.
    """

    def __init__(self, header_path: Path | str, bands, height: int, width: int,
                 dtype_name: str):
        self.bands = tuple(bands)
        _check_sizes(header_path, len(self.bands), height, width)  # first, as on read
        _check_image_bands(len(self.bands), header_path)
        dt = _dtype_for(dtype_name)
        for meta in self.bands:
            # A nodata value reading cannot honour would lose the mask
            # or make the image unreadable.
            nodata = meta.nodata_value
            if nodata is not None and not _nodata_fits(nodata, dt):
                raise ConfigError(
                    f"band {meta.band_id}: nodata value {nodata!r} is not "
                    f"{_nodata_rule(dtype_name)}"
                )
        extra: list[tuple[str, str]] = []
        for n, meta in enumerate(self.bands, start=1):
            extra.append((f"band.{n}.wavelength", repr(meta.center_wavelength)))
            extra.append((f"band.{n}.gain", repr(meta.gain)))
            extra.append((f"band.{n}.offset", repr(meta.offset)))
            if meta.nodata_value is not None:
                extra.append((f"band.{n}.nodata", repr(meta.nodata_value)))
        super().__init__(header_path, extra, len(self.bands), height, width, dtype_name)

    def write(self, samples: np.ndarray, validity: np.ndarray) -> None:
        """Encode and write the next ``validity.shape[0]`` rows."""
        row0 = self._next_row
        nrows = self._check_strip(samples.shape)
        if validity.shape != (nrows, self.width):
            raise DimensionMismatchError(
                f"{self.header_path}: validity of shape {validity.shape} for a "
                f"{samples.shape} strip"
            )
        dt = self._dt
        invalid = ~validity
        for i, meta in enumerate(self.bands):
            # A valid NaN or inf would be written as a raw sample that reading
            # refuses or, in an integer image, cast to some valid value.
            broken = ~np.isfinite(samples[i])
            broken &= validity
            if broken.any():
                r, c = np.argwhere(broken)[0]
                raise DataError(f"band {meta.band_id}: valid sample at row {row0 + r}, "
                                f"col {c} is not finite")
            nodata = meta.nodata_value
            enc = (samples[i] - meta.offset) / meta.gain
            if dt.kind in "ui":
                info = np.iinfo(dt)
                enc = np.clip(np.rint(enc), info.min, info.max)
            plane = enc.astype(dt)
            if nodata is not None:
                # Reading marks a raw nodata value invalid; a valid sample must not be it.
                clash = np.isnan(plane) if math.isnan(nodata) else plane == nodata
                clash &= validity
                if clash.any():
                    r, c = np.argwhere(clash)[0]
                    raise DataError(
                        f"band {meta.band_id}: valid sample at row {row0 + r}, "
                        f"col {c} encodes to the nodata value {nodata!r}"
                    )
            if invalid.any():
                if nodata is None:
                    raise ConfigError(
                        f"band {meta.band_id}: invalid pixels present but no "
                        "nodata value to encode them with"
                    )
                plane[invalid] = dt.type(nodata)
            self._put(i, plane)
        self._next_row += nrows


# ---------------------------------------------------------------------------
# Strip streaming
# ---------------------------------------------------------------------------


#: Pixels per strip when a run does not set the strip height: 64 rows at
#: width 2048.
STRIP_PIXELS = 1 << 17


def default_strip_height(width: int) -> int:
    """Rows of a strip of about ``STRIP_PIXELS`` pixels at ``width``."""
    return max(1, STRIP_PIXELS // max(1, width))


@dataclass
class RunStats:
    """A run's counts, the package's one bookkeeping type.

    ``visits``: classification's label decisions, width x height in one
    pass.  ``pixel_visits`` and ``union_find_ops``: labeling's work.
    ``current`` and ``peak``: bytes of strips read and not yet released; the
    peak bounds the strips read ahead, not the arrays a consumer keeps past
    their release, which tests pin with ``tracemalloc``.
    """

    visits: int = 0
    pixel_visits: int = 0
    union_find_ops: int = 0
    current: int = 0
    peak: int = 0

    def allocate(self, nbytes: int) -> int:
        self.current += nbytes
        self.peak = max(self.peak, self.current)
        return nbytes

    def release(self, nbytes: int) -> None:
        self.current -= nbytes

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


#: Strip bytes of file-backed streaming reads: strips read ahead, not
#: strips kept.
strip_ledger = RunStats()


@dataclass
class Strip:
    """Consecutive image rows, the first at absolute row ``core_start``."""

    core_start: int
    bands: tuple[BandMetadata, ...]
    core_samples: np.ndarray   # (nbands, rows, width)
    core_validity: np.ndarray  # (rows, width)


class ImageSource:
    """Reads rows of a flat raster from disk; the one payload reader.

    ``read_rows`` calibrates an image's rows.  ``read_raw_rows`` returns the
    stored samples of any raster; with ``calibrated=False`` the header needs
    no band metadata and may have one band, as a categorical map's does.
    """

    def __init__(self, header_path: Path | str, calibrated: bool = True):
        self.header_path = Path(header_path)
        self.header = read_header(self.header_path)
        self._ppath, self._dt, self.nbands, self.height, self.width = _payload_layout(
            self.header_path, self.header
        )
        self.dtype_name = self.header.get("dtype", "f64")
        if calibrated:
            _check_image_bands(self.nbands, self.header_path)
        self.bands = tuple(
            _band_metadata_from_header(self.header, self.dtype_name, n, self.header_path)
            for n in range(1, self.nbands + 1)
        ) if calibrated else ()

    def _check_rows(self, row0: int, row1: int) -> None:
        if not 0 <= row0 < row1 <= self.height:
            raise ConfigError(
                f"{self.header_path}: cannot read rows [{row0}, {row1}) "
                f"of a {self.height}-row image"
            )

    def read_rows(self, row0: int, row1: int) -> tuple[np.ndarray, np.ndarray]:
        """Read and calibrate rows [row0, row1); needs ``0 <= row0 < row1 <= height``."""
        self._check_rows(row0, row1)
        return self._decode_rows(row0, row1)

    def read_raw_rows(self, row0: int, row1: int) -> np.ndarray:
        """Stored samples of rows [row0, row1), uncalibrated: (bands, rows, width)."""
        self._check_rows(row0, row1)
        raw = np.empty((self.nbands, row1 - row0, self.width), dtype=self._dt)
        with open(self._ppath, "rb") as f:
            for i in range(self.nbands):
                self._read_raw(f, i, row0, row1, raw[i])
        return raw

    def _read_raw(self, f, band: int, row0: int, row1: int, buffer: np.ndarray) -> np.ndarray:
        """Read ``band``'s stored rows [row0, row1) into the first bytes of
        ``buffer``; returns them as a (rows, width) array of the storage dtype."""
        row_bytes = self.width * self._dt.itemsize
        nbytes = (row1 - row0) * row_bytes
        f.seek(band * self.height * row_bytes + row0 * row_bytes)
        raw = buffer.reshape(-1).view(np.uint8)[:nbytes]
        if f.readinto(raw) != nbytes:
            raise TruncatedFileError(f"{self._ppath}: payload ends inside row {row1 - 1}")
        return raw.view(self._dt).reshape(row1 - row0, self.width)

    def _decode_rows(self, row0: int, row1: int) -> tuple[np.ndarray, np.ndarray]:
        # The one decoder.  ``read_image`` calls it directly, not through
        # ``read_rows``, so a traced whole-image read is not also a row read.
        nrows = row1 - row0
        samples = np.empty((len(self.bands), nrows, self.width), dtype=np.float64)
        validity = np.ones((nrows, self.width), dtype=bool)
        # Integer rows share one raw buffer; float rows land in the band's
        # own plane, which ``apply_calibration``'s values then overwrite.
        buffer = np.empty((nrows, self.width), self._dt) if self._dt.kind in "ui" else None
        with open(self._ppath, "rb") as f:
            for i, meta in enumerate(self.bands):
                plane = samples[i]
                raw = self._read_raw(f, i, row0, row1, plane if buffer is None else buffer)
                if buffer is not None and _calibrate_in_range(raw, meta, plane, validity):
                    continue
                try:
                    values, valid, _ = apply_calibration(raw, meta, row0)
                except DataError as exc:
                    raise exc.at(self.header_path)
                plane[...] = values
                validity &= valid
        np.copyto(samples, 0.0, where=~validity)
        return samples, validity


def open_map_raster(header_path: Path | str, maptype: str, dtype_name: str,
                    rule: str) -> ImageSource:
    """An uncalibrated source over a one-band ``maptype`` map of ``dtype_name``
    samples: the one map-kind check.  ``rule`` says so, for the refusal."""
    source = ImageSource(header_path, calibrated=False)
    if source.header.get("maptype") != maptype:
        raise FormatError(f"{header_path}: not a {maptype} map")
    if source.dtype_name != dtype_name or source.nbands != 1:
        raise FormatError(f"{header_path}: {rule}")
    return source


def strip_bounds(height: int, strip_height: int) -> list[tuple[int, int]]:
    """``(row0, row1)`` of each strip covering ``height`` rows top to bottom."""
    if strip_height < 1:
        raise ConfigError("strip_height must be >= 1")
    return [(r0, min(r0 + strip_height, height)) for r0 in range(0, height, strip_height)]


def read_strip(source: ImageSource, row0: int, row1: int) -> Strip:
    """Rows [row0, row1), ledgered until ``release_strip``."""
    samples, validity = source.read_rows(row0, row1)
    strip_ledger.allocate(samples.nbytes + validity.nbytes)
    return Strip(row0, source.bands, samples, validity)


def release_strip(strip: Strip) -> None:
    """Take a strip's bytes back from the ledger; its arrays are done."""
    strip_ledger.release(strip.core_samples.nbytes + strip.core_validity.nbytes)


def stream_strips(source: ImageSource, strip_height: int) -> Iterator[Strip]:
    """Yield strips covering the image top to bottom.

    The concatenation of the strips reproduces the full image exactly, and
    held memory stays O(strip_height x width x bands) regardless of image
    height.  A strip stays on the ledger from its ``read_strip`` until the
    generator resumes or is closed.
    """
    for row0, row1 in strip_bounds(source.height, strip_height):
        strip = read_strip(source, row0, row1)
        try:
            yield strip
        finally:
            release_strip(strip)


def open_image(header_path: Path | str) -> ImageSource:
    return ImageSource(header_path)


# ---------------------------------------------------------------------------
# Colour text: ``#RRGGBB`` in rule files and map headers
# ---------------------------------------------------------------------------


def parse_color(text: str) -> tuple[int, int, int]:
    """(r, g, b) of ``#RRGGBB`` text; a ValueError for any other text."""
    if not re.fullmatch(r"#[0-9A-Fa-f]{6}", text):
        raise ValueError(f"color {text!r} is not #RRGGBB")
    v = int(text[1:], 16)
    return ((v >> 16) & 0xFF, (v >> 8) & 0xFF, v & 0xFF)


def format_color(color: tuple[int, int, int]) -> str:
    """``#RRGGBB`` text of (r, g, b); each must be an integer in 0..255."""
    if len(color) != 3 or not all(
            isinstance(c, (int, np.integer)) and 0 <= c <= 255 for c in color):
        raise ConfigError(f"color {color!r} is not three integers in 0..255")
    return "#%02X%02X%02X" % tuple(color)


# ---------------------------------------------------------------------------
# Categorical maps (u16 payload + legend in header)
# ---------------------------------------------------------------------------


NODATA = 0

#: Largest legend label; a map file stores labels as u16.
MAX_LABEL = 65535


@dataclass(frozen=True)
class LegendEntry:
    label: int
    name: str
    color: tuple[int, int, int]


def check_legend(legend: Iterable[LegendEntry]) -> None:
    """Refuse a legend holding the nodata label or a label u16 cannot store."""
    known = {e.label for e in legend}
    if NODATA in known:
        raise ConfigError("label 0 is reserved for nodata")
    outside = sorted(label for label in known if not 1 <= label <= MAX_LABEL)
    if outside:
        raise DataError(f"legend labels outside 1..{MAX_LABEL}: {outside}")


def _label_counts(chunks: Iterable[np.ndarray]) -> np.ndarray:
    """Pixels of each label value 0..MAX_LABEL, one ``bincount`` per u16 chunk."""
    counts = np.zeros(MAX_LABEL + 1, dtype=np.int64)
    for chunk in chunks:
        counts += np.bincount(chunk.ravel(), minlength=MAX_LABEL + 1)
    return counts


def _chunks(read, height: int, width: int) -> Iterator[np.ndarray]:
    """``read(row0, row1)`` over a whole map, one strip of rows at a time."""
    for row0, row1 in strip_bounds(height, default_strip_height(width)):
        yield read(row0, row1)


def _listed(legend: Iterable[LegendEntry]) -> np.ndarray:
    """Bool table over label values: True for nodata and the legend's labels."""
    listed = np.zeros(MAX_LABEL + 1, dtype=bool)
    listed[[NODATA, *(e.label for e in legend)]] = True
    return listed


def refuse_unlisted(counts: np.ndarray, legend: Iterable[LegendEntry]) -> None:
    unlisted = np.flatnonzero((counts > 0) & ~_listed(legend))
    if unlisted.size:
        raise DataError(f"labels missing from legend: {unlisted.tolist()}")


def _as_u16(labels: np.ndarray) -> np.ndarray:
    """``labels`` as u16; a value u16 cannot hold is refused, never wrapped."""
    if labels.dtype == np.uint16:
        return labels
    if labels.dtype.kind not in "biu":
        raise DataError(f"labels must be integers, got {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() > MAX_LABEL):
        outside = np.unique(labels[(labels < 0) | (labels > MAX_LABEL)])
        raise DataError(f"pixel labels outside 0..{MAX_LABEL}: {outside.tolist()}")
    return labels.astype(np.uint16)


@dataclass
class CategoricalMap:
    """Per-pixel label raster plus its legend."""

    labels: np.ndarray  # (height, width) u16, 0 = nodata
    legend: tuple[LegendEntry, ...]
    #: Pixels of each label value 0..MAX_LABEL.
    counts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = np.asarray(self.labels)
        if labels.ndim != 2:
            raise DataError("labels must be a 2-D array")
        self.legend = tuple(self.legend)
        check_legend(self.legend)
        self.labels = _as_u16(labels)
        self.counts = _label_counts(_chunks(self.rows, self.height, self.width))
        refuse_unlisted(self.counts, self.legend)

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    def rows(self, row0: int, row1: int) -> np.ndarray:
        """u16 labels of rows [row0, row1), as ``MapSource.rows`` reads them."""
        return self.labels[row0:row1]


def map_writer(header_path: Path | str, legend: tuple[LegendEntry, ...], height: int,
               width: int) -> RasterWriter:
    """A ``RasterWriter`` of a categorical map's u16 rows, its header carrying ``legend``."""
    check_legend(legend)
    extra = [("maptype", "categorical")]
    for e in legend:
        extra.append((f"legend.{e.label}.name", e.name))
        extra.append((f"legend.{e.label}.color", format_color(e.color)))
    return RasterWriter(header_path, extra, 1, height, width, "u16")


def write_map(cmap: CategoricalMap, header_path: Path | str) -> None:
    with map_writer(header_path, cmap.legend, cmap.height, cmap.width) as writer:
        writer.write(cmap.labels[np.newaxis])


def _legend_from_header(header: dict[str, str], header_path) -> tuple[LegendEntry, ...]:
    """The legend of ``legend.N.name``/``legend.N.color`` keys; one key per
    label, and each colour key beside the name key of the same ``N``."""
    legend = []
    name_keys: dict[int, str] = {}
    for key, value in header.items():
        if key.startswith("legend.") and key.endswith(".color"):
            name_key = key[:-len(".color")] + ".name"
            if name_key not in header:
                raise FormatError(f"{header_path}: {key} has no {name_key} key")
        if key.startswith("legend.") and key.endswith(".name"):
            label_text = key[len("legend."):-len(".name")]
            if not re.fullmatch(r"[0-9]+", label_text):
                raise FormatError(f"{header_path}: {key}: legend label is not digits 0-9")
            label = int(label_text)
            if label in name_keys:
                raise FormatError(f"{header_path}: {name_keys[label]} and {key} "
                                  f"both name legend label {label}")
            name_keys[label] = key
            color_key = f"legend.{label_text}.color"
            color_text = header.get(color_key, "#000000")
            try:
                color = parse_color(color_text)
            except ValueError as exc:
                raise FormatError(f"{header_path}: {color_key}: {exc}") from None
            legend.append(LegendEntry(label, value, color))
    legend.sort(key=lambda e: e.label)
    return tuple(legend)


class MapSource:
    """A categorical map file read in rows of u16 labels.

    Only the header is read on opening.  Every ``rows`` read checks its
    labels against the legend; an unlisted one is the DataError
    ``CategoricalMap`` raises, naming every unlisted label of the map.
    """

    def __init__(self, header_path: Path | str):
        self._raster = open_map_raster(
            header_path, "categorical", "u16", "a categorical map is one band of u16 labels")
        self.legend = _legend_from_header(self._raster.header, header_path)
        try:
            check_legend(self.legend)
        except SpecmapError as exc:
            raise exc.at(header_path)
        self.height, self.width = self._raster.height, self._raster.width
        self._listed = _listed(self.legend)

    def rows(self, row0: int, row1: int) -> np.ndarray:
        """u16 labels of rows [row0, row1), checked against the legend."""
        labels = self._read(row0, row1)
        if not self._listed[labels].all():
            chunks = _chunks(self._read, self.height, self.width)
            refuse_unlisted(_label_counts(chunks), self.legend)
        return labels

    def _read(self, row0: int, row1: int) -> np.ndarray:
        return self._raster.read_raw_rows(row0, row1)[0]


def open_map(header_path: Path | str) -> MapSource:
    return MapSource(header_path)


def read_map(header_path: Path | str) -> CategoricalMap:
    source = open_map(header_path)
    # ``CategoricalMap`` checks the labels against the legend.
    return CategoricalMap(source._read(0, source.height), source.legend)
