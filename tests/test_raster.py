import filecmp
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import specmap.raster as raster
from specmap.errors import (
    ConfigError,
    DataError,
    DimensionMismatchError,
    FormatError,
    TruncatedFileError,
)
from specmap.raster import (
    BandMetadata,
    ImageWriter,
    ImageSource,
    MultiSpectralImage,
    RasterWriter,
    apply_calibration,
    open_image,
    read_header,
    read_image,
    read_raster,
    read_strip,
    stream_strips,
    strip_ledger,
    write_header,
    write_image,
    write_raster,
)

from specmap.classify import CategoricalMap, write_map
from specmap.segmentation import CrossAuraMap, SegmentationMap, write_aura, write_segmentation

from helpers import image_from_planes, legend, specl_bands, synth_scene


class TestCalibration:
    def test_zero_raw_maps_to_zero(self):
        meta = BandMetadata(1, 0.48, gain=1 / 255)
        out = apply_calibration(np.array([[0]]), meta)
        assert out.values[0, 0] == 0.0

    def test_full_scale_maps_to_one(self):
        meta = BandMetadata(1, 0.48, gain=1 / 255)
        out = apply_calibration(np.array([[255]]), meta)
        assert out.values[0, 0] == 1.0

    def test_midpoint(self):
        # 128 * (1/255) computed independently with scalar arithmetic
        meta = BandMetadata(1, 0.48, gain=1 / 255)
        out = apply_calibration(np.array([[128]]), meta)
        assert out.values[0, 0] == pytest.approx(0.5019607843137255, abs=1e-15)

    def test_nodata_marked_invalid_and_zeroed(self):
        meta = BandMetadata(1, 0.48, gain=1 / 255, nodata_value=7)
        out = apply_calibration(np.array([[7, 10]]), meta)
        assert not out.valid[0, 0] and out.valid[0, 1]
        assert out.values[0, 0] == 0.0

    def test_out_of_range_clamped_and_counted(self):
        meta = BandMetadata(1, 0.48, gain=1 / 100, offset=-0.05)
        out = apply_calibration(np.array([[150, 2, 50]]), meta)
        assert out.values[0, 0] == 1.0  # 1.45 clamped
        assert out.values[0, 1] == 0.0  # -0.03 clamped
        assert out.clamped == 2

    def test_zero_gain_rejected(self):
        with pytest.raises(ConfigError):
            BandMetadata(1, 0.48, gain=0.0)

    def test_nonpositive_wavelength_rejected(self):
        with pytest.raises(ConfigError):
            BandMetadata(1, 0.0)

    @pytest.mark.parametrize("field, value", [
        ("gain", float("nan")), ("gain", float("inf")), ("offset", float("nan")),
        ("center_wavelength", float("inf")),
    ])
    def test_non_finite_band_value_rejected(self, field, value):
        name = {"center_wavelength": "wavelength"}.get(field, field)
        with pytest.raises(ConfigError, match=f"band 1: {name} must be a finite"):
            BandMetadata(**{"band_id": 1, "center_wavelength": 0.48, field: value})

    def test_non_finite_raw_names_position(self):
        meta = BandMetadata(1, 0.48)
        raw = np.zeros((3, 4))
        raw[2, 1] = np.nan
        with pytest.raises(DataError, match="row 2, col 1"):
            apply_calibration(raw, meta)

    def test_nan_nodata_exempts_only_nan_samples(self):
        meta = BandMetadata(1, 0.5, nodata_value=float("nan"))
        out = apply_calibration(np.array([[0.2, np.nan]], np.float32), meta)
        assert out.valid.tolist() == [[True, False]]
        assert out.values[0, 1] == 0.0 and out.clamped == 0
        for inf in (np.inf, -np.inf):
            with pytest.raises(DataError, match="row 0, col 1"):
                apply_calibration(np.array([[0.2, inf]], np.float32), meta)
        # NaN is still corruption when nodata is a number
        with pytest.raises(DataError, match="row 0, col 1"):
            apply_calibration(np.array([[0.2, np.nan]]), BandMetadata(1, 0.5, nodata_value=0.0))


def _write_fixture(tmp_path, payload: bytes, **overrides):
    entries = {
        "width": "2", "height": "2", "bands": "2", "dtype": "u8",
        "interleave": "bsq",
        "band.1.wavelength": "0.48", "band.2.wavelength": "0.56",
    }
    entries.update(overrides)
    hdr = tmp_path / "img.hdr"
    write_header(hdr, list(entries.items()))
    (tmp_path / "img.bin").write_bytes(payload)
    return hdr


class TestImageIO:
    def test_2x2x2_reads_two_planes(self, tmp_path):
        hdr = _write_fixture(tmp_path, bytes(range(8)))
        image = read_image(hdr)
        assert image.samples.shape == (2, 2, 2)
        assert image.width == 2 and image.height == 2

    def test_truncated_payload(self, tmp_path):
        hdr = _write_fixture(tmp_path, bytes(range(7)))
        with pytest.raises(TruncatedFileError):
            read_image(hdr)

    def test_oversized_payload(self, tmp_path):
        hdr = _write_fixture(tmp_path, bytes(range(9)))
        with pytest.raises(FormatError):
            read_image(hdr)

    def test_open_image_rejects_oversized_payload(self, tmp_path):
        hdr = _write_fixture(tmp_path, bytes(range(9)))
        with pytest.raises(FormatError) as excinfo:
            open_image(hdr)
        assert not isinstance(excinfo.value, TruncatedFileError)
        hdr = _write_fixture(tmp_path, bytes(range(7)))
        with pytest.raises(TruncatedFileError):
            open_image(hdr)

    def test_missing_payload_is_refused_naming_it(self, tmp_path):
        hdr = _write_fixture(tmp_path, bytes(range(8)))
        (tmp_path / "img.bin").unlink()
        with pytest.raises(FormatError) as err:
            ImageSource(hdr)
        assert str(err.value) == f"{hdr}: payload {tmp_path / 'img.bin'} does not exist"

    def test_unknown_dtype(self, tmp_path):
        hdr = _write_fixture(tmp_path, bytes(range(8)), dtype="u13")
        with pytest.raises(FormatError):
            read_image(hdr)

    @pytest.mark.parametrize("key", ["width", "height", "bands"])
    def test_size_below_one_rejected(self, tmp_path, key):
        # A zero size promises an empty payload, so the size check passes.
        hdr = _write_fixture(tmp_path, b"", **{key: "0"})
        with pytest.raises(FormatError, match=f"img.hdr: header key '{key}' must be at least 1"):
            open_image(hdr)

    def test_single_band_image_refusal_names_the_header(self, tmp_path):
        hdr = _write_fixture(tmp_path, bytes(range(4)), bands="1")
        assert open_image(hdr).nbands == 1
        with pytest.raises(DataError, match=re.escape(f"{hdr}: an image needs at least 2 bands")):
            read_image(hdr)

    def test_unknown_dtype_names_the_header(self, tmp_path):
        hdr = _write_fixture(tmp_path, bytes(range(8)), dtype="u13")
        with pytest.raises(FormatError, match=re.escape(f"{hdr}: unknown sample type 'u13'")):
            open_image(hdr)

    @pytest.mark.parametrize("field", ["wavelength", "gain", "offset"])
    @pytest.mark.parametrize("value", ["0", "-0.5", "2.5", "nan", "inf", "-inf", "1e400"])
    def test_header_and_model_refuse_the_same_band_values(self, tmp_path, field, value):
        # One rule table: a value the model refuses is the value reading refuses.
        hdr = _write_fixture(tmp_path, bytes(range(8)), **{f"band.1.{field}": value})
        attr = {"wavelength": "center_wavelength"}.get(field, field)
        try:
            BandMetadata(**{"band_id": 1, "center_wavelength": 0.48, attr: float(value)})
        except ConfigError as exc:
            need = str(exc).split(" must be ")[1].split(", got")[0]
            with pytest.raises(FormatError, match=re.escape(
                    f"{hdr}: header key 'band.1.{field}' must be {need}, got")):
                read_image(hdr)
        else:
            assert read_image(hdr).bands[0] == BandMetadata(
                **{"band_id": 1, "center_wavelength": 0.48, "gain": 1 / 255,
                   attr: float(value)})

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    @pytest.mark.parametrize("kind", ["image", "map", "segmentation", "aura"])
    def test_size_below_one_rejected_before_any_file_is_written(self, tmp_path, kind, shape):
        hdr = tmp_path / "out.hdr"
        write = {
            "image": lambda: write_image(MultiSpectralImage(
                specl_bands(("b1", "b2")), np.zeros((2, *shape)), np.ones(shape, bool)), hdr),
            "map": lambda: write_map(
                CategoricalMap(np.zeros(shape, dtype=np.uint16), legend(1)), hdr),
            "segmentation": lambda: write_segmentation(
                SegmentationMap(np.zeros(shape, dtype=np.int32), 0), hdr),
            "aura": lambda: write_aura(CrossAuraMap(np.zeros(shape, dtype=np.uint8), 8), hdr),
        }[kind]
        key = "height" if shape[0] == 0 else "width"
        with pytest.raises(FormatError, match=re.escape(
                f"{hdr}: header key '{key}' must be at least 1, got 0")):
            write()
        assert list(tmp_path.iterdir()) == []

    def test_image_writer_needs_a_band(self, tmp_path):
        with pytest.raises(FormatError, match="header key 'bands' must be at least 1, got 0"):
            ImageWriter(tmp_path / "out.hdr", (), 2, 2, "u8")
        assert list(tmp_path.iterdir()) == []

    def test_header_gains_match_planewise_calibration(self, tmp_path):
        payload = bytes([0, 64, 128, 255, 10, 20, 30, 40])
        hdr = _write_fixture(
            tmp_path, payload,
            **{"band.1.gain": repr(1 / 255), "band.2.gain": repr(2 / 255),
               "band.2.offset": "0.1"},
        )
        image = read_image(hdr)
        raw = np.frombuffer(payload, dtype=np.uint8).reshape(2, 2, 2)
        for i, meta in enumerate(image.bands):
            expected = apply_calibration(raw[i], meta)
            assert np.array_equal(image.samples[i], expected.values)
        assert (image.samples >= 0).all() and (image.samples <= 1).all()

    def test_default_integer_gain_scales_full_range(self, tmp_path):
        hdr = _write_fixture(tmp_path, bytes([0, 255] * 4))
        image = read_image(hdr)
        assert image.samples.max() == 1.0 and image.samples.min() == 0.0

    @pytest.mark.parametrize("dtype_name", ["u8", "u16", "i16"])
    def test_decoder_equals_the_calibration_path(self, tmp_path, monkeypatch, dtype_name):
        """Whole and strip reads equal ``apply_calibration`` per band, then
        every band zeroed where any band is invalid, bit for bit.

        Bands: the default gain; [min, max] onto [0.25, 0.75]; onto
        [-0.5, 1.5], which clamps; onto [0.75, 0.25] by a negative gain;
        all-zero raws with a negative gain and offset -0.0, so samples are
        -0.0; and [0.25, 0.75] with a nodata value.
        """
        dt = raster._dtype_for(dtype_name)
        info = np.iinfo(dt)
        lo, span = float(info.min), float(info.max) - float(info.min)
        rng = np.random.default_rng(31)
        h, w = 7, 5
        raw = rng.integers(info.min, info.max, size=(6, h, w), endpoint=True)
        raw[:, 0, :2] = info.min, info.max  # every band spans its whole range
        raw[4] = 0
        nodata = int(raw[5, 3, 3])
        raw[5, 1:3, 1] = nodata
        gains = (None, 0.5 / span, 2.0 / span, -0.5 / span, -1.0 / span, 0.5 / span)
        offsets = (None, 0.25 - lo * gains[1], -0.5 - lo * gains[2],
                   0.75 - lo * gains[3], -0.0, 0.25 - lo * gains[5])
        entries = {"width": str(w), "height": str(h), "bands": "6", "dtype": dtype_name,
                   "interleave": "bsq", "band.6.nodata": repr(float(nodata))}
        for n, (gain, offset) in enumerate(zip(gains, offsets), start=1):
            entries[f"band.{n}.wavelength"] = repr(0.4 + 0.1 * n)
            if gain is not None:
                entries[f"band.{n}.gain"] = repr(gain)
                entries[f"band.{n}.offset"] = repr(offset)
        write_header(tmp_path / "img.hdr", list(entries.items()))
        raw = raw.astype(dt)
        raw.tofile(tmp_path / "img.bin")

        source = open_image(tmp_path / "img.hdr")
        expected = np.empty((6, h, w))
        validity = np.ones((h, w), dtype=bool)
        for i, meta in enumerate(source.bands):
            result = apply_calibration(raw[i], meta)
            expected[i] = result.values
            validity &= result.valid
        expected[:, ~validity] = 0.0
        assert np.signbit(expected[4][validity]).all()
        assert not validity.all()

        calls = []
        monkeypatch.setattr(raster, "apply_calibration",
                            lambda *a: calls.append(a) or apply_calibration(*a))
        image = read_image(tmp_path / "img.hdr")
        assert 0 < len(calls) < 6  # both paths ran
        assert image.samples.tobytes() == expected.tobytes()
        assert np.array_equal(image.validity, validity)
        for rows in (1, 2, 3):
            strips = [source.read_rows(r, min(r + rows, h)) for r in range(0, h, rows)]
            assert np.concatenate([s for s, _ in strips], axis=1).tobytes() \
                == expected.tobytes()
            assert np.array_equal(np.concatenate([v for _, v in strips]), validity)

    def test_write_read_write_is_byte_identical(self, tmp_path):
        image = synth_scene(16, 16, seed=5, block=4)
        p1 = tmp_path / "a.hdr"
        p2 = tmp_path / "b.hdr"
        write_image(image, p1)
        write_image(read_image(p1), p2)
        assert filecmp.cmp(p1, p2, shallow=False)
        assert filecmp.cmp(tmp_path / "a.bin", tmp_path / "b.bin", shallow=False)

    def test_nodata_pixels_round_trip_invalid(self, tmp_path):
        image = synth_scene(16, 16, seed=6, block=4, nodata_fraction=0.1)
        assert not image.validity.all()
        write_image(image, tmp_path / "a.hdr")
        back = read_image(tmp_path / "a.hdr")
        assert np.array_equal(back.validity, image.validity)
        assert np.array_equal(back.samples, image.samples)

    @pytest.mark.parametrize("nodata", [0.5, float("nan"), 70000.0, -1.0])
    def test_nodata_outside_integer_dtype_rejected(self, tmp_path, nodata):
        validity = np.array([[True, False]])
        samples = np.array([[[0.5, 0.0]], [[0.5, 0.0]]])
        gain = 1 / 65535
        bands = (BandMetadata(1, 0.48, gain=gain, nodata_value=0.0),
                 BandMetadata(2, 0.56, gain=gain, nodata_value=nodata))
        image = MultiSpectralImage(bands, samples, validity, "u16")
        with pytest.raises(ConfigError, match="band 2: nodata value"):
            write_image(image, tmp_path / "a.hdr")
        edge = (bands[0], BandMetadata(2, 0.56, gain=gain, nodata_value=65535.0))
        write_image(MultiSpectralImage(edge, samples, validity, "u16"), tmp_path / "b.hdr")
        assert np.array_equal(read_image(tmp_path / "b.hdr").validity, validity)

    @pytest.mark.parametrize("nodata", ["0.5", "nan", "inf", "256", "-1", "x"])
    def test_nodata_outside_integer_dtype_rejected_at_read(self, tmp_path, nodata):
        hdr = _write_fixture(tmp_path, bytes(range(8)), **{"band.2.nodata": nodata})
        with pytest.raises(FormatError, match="img.hdr: header key 'band.2.nodata'"):
            open_image(hdr)
        hdr = _write_fixture(tmp_path, bytes(range(8)), **{"band.2.nodata": "255"})
        assert open_image(hdr).bands[1].nodata_value == 255.0

    @pytest.mark.parametrize("dtype_name", ["f32", "f64"])
    @pytest.mark.parametrize("nodata", [float("inf"), float("-inf")])
    def test_infinite_float_nodata_rejected(self, tmp_path, dtype_name, nodata):
        # Reading refuses an infinite raw sample, so the invalid pixel
        # would make the image unreadable.
        validity = np.array([[True, False]])
        samples = np.array([[[0.5, 0.0]], [[0.5, 0.0]]])
        bands = (BandMetadata(1, 0.48, nodata_value=-1.0),
                 BandMetadata(2, 0.56, nodata_value=nodata))
        image = MultiSpectralImage(bands, samples, validity, dtype_name)
        with pytest.raises(ConfigError, match=(
                f"band 2: nodata value -?inf is not NaN or a finite number "
                f"for {dtype_name} samples")):
            write_image(image, tmp_path / "a.hdr")
        assert list(tmp_path.iterdir()) == []
        finite = (bands[0], BandMetadata(2, 0.56, nodata_value=-1.5))
        write_image(MultiSpectralImage(finite, samples, validity, dtype_name),
                    tmp_path / "b.hdr")
        assert np.array_equal(read_image(tmp_path / "b.hdr").validity, validity)

    @pytest.mark.parametrize("nodata", ["inf", "-inf"])
    def test_infinite_float_nodata_rejected_at_read(self, tmp_path, nodata):
        payload = np.zeros(8, dtype="<f8").tobytes()
        hdr = _write_fixture(tmp_path, payload, dtype="f64", **{"band.2.nodata": nodata})
        with pytest.raises(FormatError, match=(
                "img.hdr: header key 'band.2.nodata' must be NaN or a finite "
                "number for f64 samples")):
            open_image(hdr)
        for finite in ("nan", "-1.5"):
            hdr = _write_fixture(tmp_path, payload, dtype="f64",
                                 **{"band.2.nodata": finite})
            assert read_image(hdr).validity.all()

    @pytest.mark.parametrize("key, value", [
        ("gain", "0"), ("gain", "-inf"), ("offset", "-inf"), ("wavelength", "0"),
        ("wavelength", "-0.5"), ("wavelength", "1e400"),
    ])
    def test_band_value_reading_cannot_honour_rejected(self, tmp_path, key, value):
        hdr = _write_fixture(tmp_path, bytes(range(8)), **{f"band.1.{key}": value})
        with pytest.raises(FormatError, match=f"img.hdr: header key 'band.1.{key}'"):
            read_image(hdr)

    def test_raw_rows_are_the_stored_samples(self, tmp_path):
        write_image(synth_scene(9, 5, seed=2, block=2), tmp_path / "a.hdr")
        _, raw = read_raster(tmp_path / "a.hdr")
        source = open_image(tmp_path / "a.hdr")
        got = source.read_raw_rows(2, 7)
        assert got.dtype == np.dtype("<u2")
        assert np.array_equal(got, raw[:, 2:7])
        with pytest.raises(ConfigError, match=r"rows \[7, 2\) of a 9-row"):
            source.read_raw_rows(7, 2)

    def test_uncalibrated_source_needs_no_band_metadata(self, tmp_path):
        hdr = _write_fixture(tmp_path, bytes(range(8)))
        text = hdr.read_text()
        hdr.write_text("".join(line for line in text.splitlines(True)
                               if "wavelength" not in line))
        with pytest.raises(FormatError, match="img.hdr: missing header key 'band.1.wavelength'"):
            ImageSource(hdr)
        source = ImageSource(hdr, calibrated=False)
        assert source.bands == ()
        assert source.read_raw_rows(0, 2).tolist() == [[[0, 1], [2, 3]], [[4, 5], [6, 7]]]

    def test_valid_sample_encoding_to_nodata_rejected(self, tmp_path):
        # Reflectance 0.0 encodes to raw 0 in u16, band 1's nodata value;
        # written, it would read back invalid.
        validity = np.array([[True, True]])
        samples = np.array([[[0.0, 0.5]], [[0.5, 0.5]]])
        gain = 1 / 65535
        bands = (BandMetadata(1, 0.48, gain=gain, nodata_value=0.0),
                 BandMetadata(2, 0.56, gain=gain, nodata_value=0.0))
        image = MultiSpectralImage(bands, samples, validity, "u16")
        with pytest.raises(DataError, match="band 1: valid sample at row 0, col 0"):
            write_image(image, tmp_path / "a.hdr")
        samples[0, 0, 0] = 0.25
        write_image(MultiSpectralImage(bands, samples, validity, "u16"), tmp_path / "b.hdr")
        assert np.array_equal(read_image(tmp_path / "b.hdr").validity, validity)

    @pytest.mark.parametrize("dtype_name", ["f64", "u16"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_valid_non_finite_sample_rejected(self, tmp_path, dtype_name, value):
        # f64 used to write a NaN that reading refused; u16 cast it to a
        # valid raw 0.
        image = synth_scene(6, 4, seed=8, block=2, nodata_fraction=0.0)
        image.samples[1, 4, 2] = value
        with pytest.raises(DataError, match="band 2: valid sample at row 4, col 2 is not finite"):
            with ImageWriter(tmp_path / "a.hdr", image.bands, 6, 4, dtype_name) as writer:
                writer.write(image.samples[:, :3], image.validity[:3])
                writer.write(image.samples[:, 3:], image.validity[3:])
        assert not list(tmp_path.iterdir())

    def test_strip_writes_equal_one_whole_write(self, tmp_path):
        image = synth_scene(10, 6, seed=7, block=3, nodata_fraction=0.1)
        write_image(image, tmp_path / "whole.hdr")
        with ImageWriter(tmp_path / "strips.hdr", image.bands, 10, 6, "u16") as writer:
            for r0 in range(0, 10, 4):
                writer.write(image.samples[:, r0:r0 + 4], image.validity[r0:r0 + 4])
        for suffix in (".hdr", ".bin"):
            assert filecmp.cmp(tmp_path / f"whole{suffix}", tmp_path / f"strips{suffix}",
                               shallow=False)

    def test_refused_strip_leaves_no_image(self, tmp_path):
        image = synth_scene(6, 4, seed=8, block=2, nodata_fraction=0.0)
        image.samples[2, 4, 1] = 0.0  # encodes to band 3's nodata value, raw 0
        with pytest.raises(DataError, match="band 3: valid sample at row 4, col 1"):
            with ImageWriter(tmp_path / "a.hdr", image.bands, 6, 4, "u16") as writer:
                writer.write(image.samples[:, :3], image.validity[:3])
                writer.write(image.samples[:, 3:], image.validity[3:])
        assert not list(tmp_path.iterdir())

    def test_writer_closed_before_last_row_leaves_no_image(self, tmp_path):
        image = synth_scene(6, 4, seed=8, block=2)
        with pytest.raises(DataError, match="closed after 3 of 6 rows"):
            with ImageWriter(tmp_path / "a.hdr", image.bands, 6, 4, "u16") as writer:
                writer.write(image.samples[:, :3], image.validity[:3])
        with pytest.raises(DimensionMismatchError):
            with ImageWriter(tmp_path / "a.hdr", image.bands, 6, 4, "u16") as writer:
                writer.write(image.samples[:, :4], image.validity[:4])
                writer.write(image.samples[:, :4], image.validity[:4])
        assert not list(tmp_path.iterdir())

    def test_raw_strip_writes_equal_one_write_raster(self, tmp_path):
        planes = np.random.default_rng(5).integers(0, 1000, size=(3, 10, 6))
        extra = [("maptype", "test")]
        write_raster(tmp_path / "whole.hdr", extra, planes, "u16")
        with RasterWriter(tmp_path / "strips.hdr", extra, 3, 10, 6, "u16") as writer:
            for r0 in range(0, 10, 4):
                writer.write(planes[:, r0:r0 + 4])
        for suffix in (".hdr", ".bin"):
            assert filecmp.cmp(tmp_path / f"whole{suffix}", tmp_path / f"strips{suffix}",
                               shallow=False)

    @pytest.mark.parametrize("strips, error", [
        ([(0, 3)], "closed after 3 of 6 rows"),
        ([(0, 4), (0, 4)], "cannot write a \\(1, 4, 4\\) strip at row 4"),
        ([(0, 6, 3)], "cannot write a \\(1, 6, 3\\) strip at row 0"),
    ], ids=["short", "past_the_end", "narrow"])
    def test_raw_writer_leaves_no_partial_raster(self, tmp_path, strips, error):
        planes = np.zeros((1, 6, 4), dtype=np.uint8)
        with pytest.raises((DataError, DimensionMismatchError), match=error):
            with RasterWriter(tmp_path / "a.hdr", [], 1, 6, 4, "u8") as writer:
                for r0, r1, *width in strips:
                    writer.write(planes[:, r0:r1, :width[0] if width else 4])
        assert not list(tmp_path.iterdir())

    def test_whole_image_read_ledgers_no_strip_bytes(self, tmp_path):
        write_image(synth_scene(16, 8, seed=4, block=4), tmp_path / "a.hdr")
        strip_ledger.reset()
        read_image(tmp_path / "a.hdr")
        assert strip_ledger.peak == strip_ledger.current == 0

    @pytest.mark.parametrize("dtype_name", ["f32", "f64"])
    def test_nan_nodata_float_image_round_trips(self, tmp_path, dtype_name):
        rng = np.random.default_rng(9)
        samples = rng.random((2, 5, 4)).astype(np.float32).astype(np.float64)
        validity = np.ones((5, 4), dtype=bool)
        validity[1, 2] = validity[4, 0] = False
        samples[:, ~validity] = 0.0
        nan = float("nan")
        bands = (BandMetadata(1, 0.48, nodata_value=nan),
                 BandMetadata(2, 0.56, nodata_value=nan))
        write_image(MultiSpectralImage(bands, samples, validity, dtype_name),
                    tmp_path / "a.hdr")
        raw = np.fromfile(tmp_path / "a.bin", dtype=np.float64 if dtype_name == "f64"
                          else np.float32).reshape(2, 5, 4)
        assert np.isnan(raw[:, ~validity]).all()
        back = read_image(tmp_path / "a.hdr")
        assert np.array_equal(back.validity, validity)
        assert np.array_equal(back.samples, samples)
        strips = list(stream_strips(open_image(tmp_path / "a.hdr"), 2))
        assert np.array_equal(np.concatenate([s.core_validity for s in strips]), validity)
        write_image(back, tmp_path / "b.hdr")
        assert filecmp.cmp(tmp_path / "a.hdr", tmp_path / "b.hdr", shallow=False)
        assert filecmp.cmp(tmp_path / "a.bin", tmp_path / "b.bin", shallow=False)

    @given(seed=st.integers(0, 2**16), h=st.integers(2, 9), w=st.integers(2, 9))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, seed, h, w):
        tmp = tmp_path_factory.mktemp("rt")
        image = synth_scene(h, w, seed=seed, block=3, nodata_fraction=0.05)
        write_image(image, tmp / "a.hdr")
        write_image(read_image(tmp / "a.hdr"), tmp / "b.hdr")
        assert filecmp.cmp(tmp / "a.hdr", tmp / "b.hdr", shallow=False)
        assert filecmp.cmp(tmp / "a.bin", tmp / "b.bin", shallow=False)

    def test_header_round_trip_and_unreadable_text_rejected(self, tmp_path):
        p = tmp_path / "h.hdr"
        entries = [("legend.1.name", "Water / deep = 1"), ("legend.2.name", "Ünïcode sea"),
                   ("path", "a/b/c"), ("empty", "")]
        write_header(p, entries)
        assert read_header(p) == dict(entries)
        for bad in ("Water // deep", "a\nb", "a\rb", "a\u2028b", "tail\n"):
            with pytest.raises(FormatError):
                write_header(p, [("legend.1.name", bad)])
            with pytest.raises(FormatError):
                write_header(p, [(bad, "x")])

    @pytest.mark.parametrize("key, value", [
        ("legend.1.name", " Water "),   # read back as 'Water'
        ("legend.1.name", "Water\t"),
        (" width", "2"),
        ("a=b", "c"),                   # read back as key 'a', value 'b = c'
    ])
    def test_header_refuses_text_reading_would_change(self, tmp_path, key, value):
        p = tmp_path / "h.hdr"
        p.write_text(f"{key} = {value}\n", encoding="utf-8")
        assert read_header(p) != {key: value}
        with pytest.raises(FormatError):
            write_header(p, [(key, value)])

    def test_repeated_header_key_refused_on_read_and_write(self, tmp_path):
        p = tmp_path / "h.hdr"
        p.write_text("width = 2\nheight = 2\n// a comment\nwidth = 3\n")
        with pytest.raises(FormatError, match=re.escape(
                f"{p}: line 4: repeated header key 'width'")):
            read_header(p)
        with pytest.raises(FormatError, match=re.escape(f"{p}: header key 'width' is repeated")):
            write_header(p, [("width", "2"), ("height", "2"), ("width", "2")])

    def test_header_refuses_empty_key(self, tmp_path):
        with pytest.raises(FormatError):
            write_header(tmp_path / "h.hdr", [("", "x")])

    def test_header_rejects_non_key_value(self, tmp_path):
        p = tmp_path / "bad.hdr"
        p.write_text("width 2\n")
        with pytest.raises(FormatError):
            read_header(p)


class TestImageModel:
    def test_single_band_rejected(self):
        with pytest.raises(DataError):
            MultiSpectralImage(
                specl_bands(("b1",)), np.zeros((1, 2, 2)), np.ones((2, 2), bool)
            )

    def test_out_of_range_samples_rejected(self):
        planes = {"b1": np.full((2, 2), 1.5), "b2": np.zeros((2, 2))}
        with pytest.raises(DataError):
            image_from_planes(planes)

    def test_invalid_pixels_excluded_from_range_check(self):
        samples = np.zeros((2, 2, 2))
        samples[0, 0, 0] = 0.0  # invalid pixel holds zero by convention
        validity = np.ones((2, 2), bool)
        validity[0, 0] = False
        image = MultiSpectralImage(specl_bands(("b1", "b2")), samples, validity)
        assert not image.validity[0, 0]


class TestStreaming:
    def _image(self, tmp_path, height=10, width=6):
        rng = np.random.default_rng(1)
        planes = {
            "b1": rng.random((height, width)),
            "b2": rng.random((height, width)),
        }
        image = image_from_planes(planes)
        write_image(image, tmp_path / "a.hdr")
        return image, open_image(tmp_path / "a.hdr")

    def test_partition_4_4_2(self, tmp_path):
        strips = list(stream_strips(self._image(tmp_path)[1], 4))
        assert [s.core_samples.shape[1] for s in strips] == [4, 4, 2]
        assert [s.core_start for s in strips] == [0, 4, 8]

    def test_whole_image_single_strip(self, tmp_path):
        assert len(list(stream_strips(self._image(tmp_path)[1], 10))) == 1

    def test_oversized_strip_single_strip(self, tmp_path):
        strips = list(stream_strips(self._image(tmp_path)[1], 64))
        assert len(strips) == 1
        assert strips[0].core_samples.shape[1] == 10

    def test_zero_strip_height_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            list(stream_strips(self._image(tmp_path)[1], 0))

    def test_reassembly_equals_written_image(self, tmp_path):
        image, source = self._image(tmp_path)
        strips = list(stream_strips(source, 3))
        rebuilt = np.concatenate([s.core_samples for s in strips], axis=1)
        assert np.array_equal(rebuilt, image.samples)

    def test_file_backed_reassembly_matches_whole_read(self, tmp_path):
        image = synth_scene(50, 12, seed=7, block=5, nodata_fraction=0.03)
        write_image(image, tmp_path / "scene.hdr")
        whole = read_image(tmp_path / "scene.hdr")
        source = open_image(tmp_path / "scene.hdr")
        strips = list(stream_strips(source, 8))
        rebuilt = np.concatenate([s.core_samples for s in strips], axis=1)
        validity = np.concatenate([s.core_validity for s in strips], axis=0)
        assert np.array_equal(rebuilt, whole.samples)
        assert np.array_equal(validity, whole.validity)

    def test_streamed_per_pixel_op_equals_whole(self, tmp_path):
        image = synth_scene(40, 9, seed=8, block=5)
        write_image(image, tmp_path / "scene.hdr")
        whole = read_image(tmp_path / "scene.hdr")
        expected = whole.samples.mean(axis=0)
        source = open_image(tmp_path / "scene.hdr")
        parts = [
            s.core_samples.mean(axis=0) for s in stream_strips(source, 7)
        ]
        assert np.array_equal(np.concatenate(parts, axis=0), expected)

    def test_payload_cut_after_open_is_truncated_error(self, tmp_path):
        write_image(synth_scene(8, 4, seed=2, block=2), tmp_path / "a.hdr")
        source = open_image(tmp_path / "a.hdr")
        with open(tmp_path / "a.bin", "r+b") as f:
            f.truncate(5 * 8 * 4 * 2 + 3)
        with pytest.raises(TruncatedFileError, match="a.bin"):
            source.read_rows(0, 8)

    def test_non_finite_raw_refusal_names_the_header_and_image_row(self, tmp_path):
        image = synth_scene(100, 4, seed=3, block=4, nodata_fraction=0.0)
        write_image(MultiSpectralImage(image.bands, image.samples, image.validity, "f64"),
                    tmp_path / "a.hdr")
        raw = np.frombuffer(bytearray((tmp_path / "a.bin").read_bytes()), "<f8")
        raw.reshape(6, 100, 4)[0, 70, 1] = np.nan
        (tmp_path / "a.bin").write_bytes(raw.tobytes())
        message = r"a\.hdr: band 1: non-finite raw sample at row 70, col 1$"
        with pytest.raises(DataError, match=message):
            open_image(tmp_path / "a.hdr").read_rows(64, 100)
        with pytest.raises(DataError, match=message):
            read_image(tmp_path / "a.hdr")

    @pytest.mark.parametrize("row0, row1", [(2, 6), (3, 1), (-1, 1)])
    def test_row_range_outside_image_rejected(self, tmp_path, row0, row1):
        image = MultiSpectralImage(specl_bands(("b1", "b2")), np.zeros((2, 4, 3)),
                                   np.ones((4, 3), bool), "u16")
        write_image(image, tmp_path / "a.hdr")
        source = open_image(tmp_path / "a.hdr")
        strip_ledger.reset()
        with pytest.raises(ConfigError, match=rf"rows \[{row0}, {row1}\) of a 4-row"):
            read_strip(source, row0, row1)
        with pytest.raises(ConfigError, match=rf"rows \[{row0}, {row1}\) of a 4-row"):
            source.read_rows(row0, row1)
        assert strip_ledger.peak == 0

    def test_closed_stream_releases_its_strip(self, tmp_path):
        strips = stream_strips(self._image(tmp_path)[1], 4)
        strip_ledger.reset()
        next(strips)
        assert strip_ledger.current > 0
        strips.close()
        assert strip_ledger.current == 0

    def test_ledger_bounds_file_backed_buffers(self, tmp_path):
        image = synth_scene(96, 16, seed=9, block=8)
        write_image(image, tmp_path / "scene.hdr")
        source = open_image(tmp_path / "scene.hdr")
        strip_ledger.reset()
        for _ in stream_strips(source, 8):
            pass
        strip_bytes = 6 * 8 * 16 * 8 + 8 * 16  # bands x rows x width x f64 + validity
        assert strip_ledger.peak <= 2 * strip_bytes
        assert strip_ledger.current == 0
