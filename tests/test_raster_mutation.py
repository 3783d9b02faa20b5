"""One-line header edits and payload length changes of valid rasters.

Every example either reads back a sound result or is refused with a
``SpecmapError`` that names the file at fault: the header, or the payload
when its length disagrees with the header.  The one refusal that names no
file is a map's strip-time "labels missing from legend", whose text the
command-line tests pin.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specmap.errors import SpecmapError
from specmap.raster import (
    BandMetadata,
    CategoricalMap,
    MultiSpectralImage,
    payload_path,
    read_header,
    read_image,
    read_map,
    write_image,
    write_map,
)
from specmap.segmentation import SegmentationMap, read_segmentation, write_segmentation

from helpers import legend

GAIN = 1 / 65535

#: Band-1 raw samples of the image; raw 0 is nodata in both bands.
RAW_1 = np.array([[1000, 2000, 3000, 4000],
                  [5000, 6000, 7000, 8000],
                  [9000, 10000, 11000, 0]])

LAYOUT = ["width", "height", "bands", "dtype", "interleave"]
KEYS = {
    "image": LAYOUT + [f"band.{n}.{field}" for n in (1, 2)
                       for field in ("wavelength", "gain", "offset", "nodata")],
    "map": LAYOUT + ["maptype"] + [f"legend.{n}.{field}" for n in (1, 2, 3)
                                   for field in ("name", "color")],
    "segmentation": LAYOUT + ["maptype", "segments"],
}
READERS = {"image": read_image, "map": read_map, "segmentation": read_segmentation}
VALUES = ("", "x", "nan", "inf", "-1", "0", "2.5", "1e400", "99999999999")


def _write_valid(kind, hdr):
    if kind == "image":
        bands = tuple(BandMetadata(n, w, gain=GAIN, nodata_value=0.0)
                      for n, w in ((1, 0.48), (2, 0.56)))
        raw = np.stack([RAW_1, RAW_1[::-1] // 2])
        write_image(MultiSpectralImage(bands, raw * GAIN, (raw > 0).all(axis=0), "u16"), hdr)
    elif kind == "map":
        labels = np.array([[1, 1, 2, 0], [3, 2, 2, 1], [3, 3, 0, 1]])
        write_map(CategoricalMap(labels, legend(3)), hdr)
    else:
        ids = np.array([[1, 1, 2, 2], [3, 3, 2, 2], [3, 0, 0, 4]])
        write_segmentation(SegmentationMap(ids, 4), hdr)


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """kind -> (header entries, payload bytes) of a valid raster, written once."""
    out = {}
    for kind in KEYS:
        hdr = tmp_path_factory.mktemp(kind) / "valid.hdr"
        _write_valid(kind, hdr)
        entries = list(read_header(hdr).items())
        assert [k for k, _ in entries] == KEYS[kind]
        assert READERS[kind](hdr) is not None
        out[kind] = entries, payload_path(hdr).read_bytes()
    return out


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


def _header_edit(kind):
    key = st.sampled_from(KEYS[kind])
    drop = st.tuples(st.just("drop"), key, st.just(""))
    change = st.tuples(st.sampled_from(["repeat", "set"]), key, st.sampled_from(VALUES))
    return st.tuples(st.just(kind), st.tuples(drop | change), st.just(0))


def _payload_edit(kind):
    delta = st.integers(-8, -1) | st.integers(1, 8)
    return st.tuples(st.just(kind), st.just(()), delta)


KINDS = st.sampled_from(sorted(KEYS))
CASES = KINDS.flatmap(_header_edit) | KINDS.flatmap(_payload_edit)


def _mutated(entries, edits):
    lines = list(entries)
    for op, key, value in edits:
        i = [k for k, _ in lines].index(key)
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i + 1, (key, value))
        else:
            lines[i] = (key, value)
    return "".join(f"{k} = {v}\n" for k, v in lines)


@settings(max_examples=300, deadline=None)
@given(case=CASES)
# Past mended faults.  Negative sizes whose product matches the payload:
@example(case=("image", (("set", "width", "-4"), ("set", "height", "-3")), 0))
# More rows than the valid image, the payload grown to match, and a
# segment count below the largest id:
@example(case=("image", (("set", "height", "4"),), 16))
@example(case=("segmentation", (("set", "segments", "3"),), 0))
# A valid sample that encodes to the nodata value now reads as nodata:
@example(case=("image", (("set", "band.1.nodata", "1000"),), 0))
def test_mutated_raster_is_read_or_refused_naming_its_file(valid, work, case):
    kind, edits, delta = case
    entries, payload = valid[kind]
    hdr = work / "r.hdr"
    ppath = payload_path(hdr)
    hdr.write_text(_mutated(entries, edits), encoding="utf-8")
    ppath.write_bytes(payload[:len(payload) + delta] if delta < 0 else payload + bytes(delta))
    try:
        result = READERS[kind](hdr)
    except SpecmapError as exc:
        message = str(exc)
        unlisted = kind == "map" and message.startswith("labels missing from legend: ")
        assert unlisted or message.startswith((f"{hdr}: ", f"{ppath}: payload is ")), \
            message
        return
    if kind == "image":
        assert np.isfinite(result.samples).all()
        assert result.samples.min() >= 0.0 and result.samples.max() <= 1.0
