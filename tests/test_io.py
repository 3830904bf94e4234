"""File formats: bit-exact round trips, corruption detection, exports."""

import errno
import hashlib
import os
import stat
import struct
import zlib

import numpy as np
import pytest

from radiomap import io as rio
from radiomap.errors import FormatError, InvalidArgumentError, bad_path
from radiomap.metrics import EvalReport
from radiomap.tensors import ObservationMask
from radiomap.unrolled import MapperSpec, UnrolledModel, infer
from radiomap.propagation import sample_mask


# ---------------------------------------------------------------------------
# tensor files

def test_tensor_round_trip_bitwise(tmp_path, rng):
    t = rng.random((9, 7, 4))
    path = tmp_path / "t.rmt"
    rio.write_tensor(path, t)
    back = rio.read_tensor(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, t)
    assert back.tobytes() == t.tobytes()


def test_tensor_write_is_byte_deterministic(tmp_path, rng):
    t = rng.random((5, 6, 2))
    a, b = tmp_path / "a.rmt", tmp_path / "b.rmt"
    rio.write_tensor(a, t)
    rio.write_tensor(b, t)
    assert a.read_bytes() == b.read_bytes()


def test_tensor_file_layout(tmp_path):
    t = np.arange(12, dtype=float).reshape(2, 3, 2)
    path = tmp_path / "t.rmt"
    rio.write_tensor(path, t)
    raw = path.read_bytes()
    assert raw[:4] == b"RMT1"
    assert struct.unpack("<III", raw[4:16]) == (2, 3, 2)
    assert raw[16:] == t.astype("<f8").tobytes(order="C")


def test_tensor_read_rejects_damage(tmp_path, rng):
    t = rng.random((4, 4, 2))
    path = tmp_path / "t.rmt"
    rio.write_tensor(path, t)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "m.rmt"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(FormatError):
        rio.read_tensor(bad_magic)

    short = tmp_path / "s.rmt"
    short.write_bytes(bytes(raw[:-8]))
    with pytest.raises(FormatError):
        rio.read_tensor(short)

    long = tmp_path / "l.rmt"
    long.write_bytes(bytes(raw) + b"\x00")
    with pytest.raises(FormatError):
        rio.read_tensor(long)

    nan = tmp_path / "n.rmt"
    payload = t.copy()
    payload[0, 0, 0] = np.nan
    nan.write_bytes(bytes(raw[:16]) + payload.astype("<f8").tobytes(order="C"))
    with pytest.raises(FormatError):
        rio.read_tensor(nan)


def test_tensor_write_rejects_bad_input(tmp_path, rng):
    with pytest.raises(InvalidArgumentError):
        rio.write_tensor(tmp_path / "x.rmt", rng.random((4, 4)))
    with pytest.raises(InvalidArgumentError):
        rio.read_tensor(tmp_path / "missing.rmt")


def test_write_failure_leaves_no_partial_file(tmp_path, rng):
    target = tmp_path / "sub"  # a directory: the final rename must fail
    target.mkdir()
    with pytest.raises(InvalidArgumentError, match="Is a directory"):
        rio.write_tensor(target, rng.random((3, 3, 1)))
    assert list(tmp_path.glob(".tmp-*")) == []


@pytest.mark.parametrize("code", [errno.ENOENT, errno.ENAMETOOLONG, errno.ELOOP,
                                  errno.EACCES, errno.EPERM])
def test_bad_path_names_an_unusable_path(code):
    # a PermissionError cannot be provoked by a process running as root
    with pytest.raises(InvalidArgumentError, match=f"^cannot read p: {os.strerror(code)}$"):
        with bad_path("cannot read p"):
            raise OSError(code, os.strerror(code))


def test_bad_path_passes_other_os_errors():
    with pytest.raises(OSError) as info:
        with bad_path("cannot write p"):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    assert not isinstance(info.value, InvalidArgumentError)


# ---------------------------------------------------------------------------
# mask files

def test_mask_round_trip(tmp_path, rng):
    mask = ObservationMask(rng.random((11, 6)) < 0.4)
    path = tmp_path / "m.rmm"
    rio.write_mask(path, mask)
    back = rio.read_mask(path)
    assert np.array_equal(back.sampled, mask.sampled)
    raw = path.read_bytes()
    assert raw[:4] == b"RMM1"
    assert struct.unpack("<II", raw[4:12]) == (11, 6)


def test_mask_rejects_non_boolean_bytes(tmp_path, rng):
    mask = ObservationMask(rng.random((4, 4)) < 0.5)
    path = tmp_path / "m.rmm"
    rio.write_mask(path, mask)
    raw = bytearray(path.read_bytes())
    raw[12] = 7
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        rio.read_mask(path)


# ---------------------------------------------------------------------------
# checkpoints

@pytest.fixture(scope="module")
def small_model():
    return UnrolledModel.create(h=12, w=10, k_bands=2, k_blocks=2,
                                mapper=MapperSpec(hidden_channels=(4,)), seed=3)


def test_checkpoint_round_trip_forward_identical(tmp_path, small_model, rng):
    path = tmp_path / "m.rmu"
    rio.write_checkpoint(path, small_model)
    back = rio.read_checkpoint(path)
    assert back.k_blocks == small_model.k_blocks
    assert back.k_bands == small_model.k_bands
    assert back.mapper_spec == small_model.mapper_spec
    assert back.loss_omega == small_model.loss_omega
    assert back.alpha == small_model.alpha and back.rho == small_model.rho
    for pa, pb in zip(small_model.params(), back.params()):
        assert np.array_equal(pa.value, pb.value)
    d = rng.random((12, 10, 2))
    mask = ObservationMask(rng.random((12, 10)) < 0.5)
    assert np.array_equal(infer(small_model, d, mask), infer(back, d, mask))


def test_checkpoint_write_deterministic(tmp_path, small_model):
    a, b = tmp_path / "a.rmu", tmp_path / "b.rmu"
    rio.write_checkpoint(a, small_model)
    rio.write_checkpoint(b, small_model)
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_crc_detects_every_single_byte_flip(tmp_path, small_model, rng):
    path = tmp_path / "m.rmu"
    rio.write_checkpoint(path, small_model)
    raw = bytearray(path.read_bytes())
    body, stored = raw[:-4], struct.unpack("<I", raw[-4:])[0]
    assert stored == zlib.crc32(bytes(body))
    positions = rng.choice(len(raw), size=100, replace=False)
    detected = 0
    for pos in positions:
        bad = bytearray(raw)
        bad[pos] ^= 0xFF
        target = tmp_path / "bad.rmu"
        target.write_bytes(bytes(bad))
        try:
            rio.read_checkpoint(target)
        except FormatError:
            detected += 1
    assert detected == 100


@pytest.mark.parametrize("offset,value", [
    (16, float("nan")),   # alpha[0]
    (40, -1.0),           # rho
    (48, 2.0),            # loss_omega
])
def test_checkpoint_rejects_bad_header_values(tmp_path, small_model, offset, value):
    path = tmp_path / "m.rmu"
    rio.write_checkpoint(path, small_model)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, offset, value)
    struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(bytes(raw[:-4])))
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="bad model header"):
        rio.read_checkpoint(path)


def test_checkpoint_version_gate(tmp_path, small_model):
    path = tmp_path / "m.rmu"
    rio.write_checkpoint(path, small_model)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 4, rio.CHECKPOINT_VERSION + 1)
    body = raw[:-4]
    struct.pack_into("<I", raw, len(raw) - 4, zlib.crc32(bytes(body)))
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        rio.read_checkpoint(path)


def golden_model():
    """Parameter i holds linspace(-1, 1) + i, so the bytes do not depend on
    numpy's random stream."""
    model = UnrolledModel.create(h=8, w=8, k_bands=2, k_blocks=2,
                                 mapper=MapperSpec(hidden_channels=(3,)))
    for i, p in enumerate(model.params()):
        p.value = np.linspace(-1, 1, p.value.size).reshape(p.value.shape) + i
    return model


def test_checkpoint_bytes_match_golden_hash(tmp_path):
    path = tmp_path / "g.rmu"
    rio.write_checkpoint(path, golden_model())
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "f36ad7acad496c9bffbe433e9d832c4544f1f7fd784138c398ff2c8c59bb4347")


# byte offsets in the golden model's body: k_blocks, the first layer record
# (kh, kw, c_in, c_out), the residual flag, block 0's first log scalar, and
# the byte count and first value of block 0's first weight blob
K_BLOCKS, REC0, FLAG, SCALAR0, BLOB0 = 8, 60, 92, 93, 133


def _bump_blob_length(body):
    struct.pack_into("<Q", body, BLOB0, struct.unpack_from("<Q", body, BLOB0)[0] + 8)


@pytest.mark.parametrize("edit", [
    lambda body: struct.pack_into("<II", body, REC0, 5, 5),
    lambda body: struct.pack_into("<I", body, REC0 + 8, 3),
    lambda body: struct.pack_into("<B", body, FLAG, 2),
    lambda body: struct.pack_into("<B", body, FLAG, 0),
    lambda body: struct.pack_into("<d", body, SCALAR0, float("nan")),
    lambda body: struct.pack_into("<d", body, BLOB0 + 8, float("nan")),
    _bump_blob_length,
    lambda body: body.extend(bytes(8)),
    lambda body: struct.pack_into("<I", body, K_BLOCKS, 3),
    lambda body: struct.pack_into("<I", body, K_BLOCKS, 0),
], ids=["kernel", "c_in", "residual_flag", "residual_flag_zero", "nan_scalar", "nan_weight",
        "blob_length", "trailing_bytes", "k_blocks", "zero_blocks"])
def test_checkpoint_rejects_crc_valid_corrupt_body(tmp_path, edit):
    path = tmp_path / "g.rmu"
    rio.write_checkpoint(path, golden_model())
    body = bytearray(path.read_bytes()[:-4])
    assert struct.unpack_from("<I", body, K_BLOCKS)[0] == 2
    assert struct.unpack_from("<IIIIB", body, REC0 + 16) == (3, 3, 3, 2, 1)
    assert struct.unpack_from("<IIII", body, REC0) == (3, 3, 2, 3)
    assert struct.unpack_from("<Q", body, BLOB0)[0] == 3 * 3 * 2 * 3 * 8
    edit(body)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
    with pytest.raises(FormatError) as exc:
        rio.read_checkpoint(path)
    assert "CRC" not in str(exc.value)


class _NoCreate:
    @staticmethod
    def create(**kwargs):
        raise AssertionError("the reader built a model before checking the body size")


@pytest.mark.parametrize("edit", [
    lambda body: struct.pack_into("<I", body, K_BLOCKS, 10**6),
    # the hidden width is the first record's c_out and the second record's c_in
    lambda body: struct.pack_into("<IIIIIIII", body, REC0, 3, 3, 2, 2**31, 3, 3, 2**31, 2),
], ids=["k_blocks", "hidden_width"])
def test_checkpoint_body_size_is_checked_before_the_model_is_built(tmp_path, monkeypatch, edit):
    path = tmp_path / "g.rmu"
    rio.write_checkpoint(path, golden_model())
    body = bytearray(path.read_bytes()[:-4])
    edit(body)
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
    monkeypatch.setattr(rio, "UnrolledModel", _NoCreate)
    with pytest.raises(FormatError, match="parameter bytes"):
        rio.read_checkpoint(path)


# ---------------------------------------------------------------------------
# exports

def test_pgm_header_and_payload(tmp_path):
    band = np.array([[0.0, 0.5, 1.0],
                     [-0.2, 0.25, 2.0]])  # out-of-range clamped at export
    path = tmp_path / "band.pgm"
    rio.export_pgm(path, band)
    raw = path.read_bytes()
    header = b"P5\n3 2\n255\n"
    assert raw.startswith(header)
    assert list(raw[len(header):]) == [0, 128, 255, 0, 64, 255]


def test_exports_require_2d_band(tmp_path, rng):
    with pytest.raises(InvalidArgumentError):
        rio.export_pgm(tmp_path / "x.pgm", rng.random((4, 4, 2)))
    with pytest.raises(InvalidArgumentError):
        rio.export_band_csv(tmp_path / "x.csv", rng.random((4,)))


def test_band_csv_round_trips_through_import(tmp_path, rng):
    t = rng.random((6, 5, 2)) * 3.0 - 1.0
    paths = []
    for b in (1, 2):
        p = tmp_path / f"band{b}.csv"
        rio.export_band_csv(p, t[:, :, b - 1])
        paths.append(p)
    out = tmp_path / "joined.rmt"
    norm, (lo, hi) = rio.import_band_csvs(out, paths)
    assert lo == pytest.approx(t.min()) and hi == pytest.approx(t.max())
    assert np.allclose(norm, (t - lo) / (hi - lo), atol=1e-15)
    assert np.array_equal(rio.read_tensor(out), norm)
    sidecar = (str(out) + ".minmax.txt")
    with open(sidecar) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == f"min={lo!r}" and lines[1] == f"max={hi!r}"


def test_import_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(FormatError):
        rio.import_band_csvs(tmp_path / "out.rmt", [bad])
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(FormatError):
        rio.import_band_csvs(tmp_path / "out.rmt", [ragged])
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("1.0,2.0\n")
    b.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(InvalidArgumentError):
        rio.import_band_csvs(tmp_path / "out.rmt", [a, b])


def test_import_constant_data(tmp_path):
    flat = tmp_path / "flat.csv"
    flat.write_text("2.0,2.0\n2.0,2.0\n")
    norm, (lo, hi) = rio.import_band_csvs(tmp_path / "out.rmt", [flat])
    assert lo == hi == 2.0
    assert np.array_equal(norm, np.zeros((2, 2, 1)))


# ---------------------------------------------------------------------------
# report CSV

def test_reports_csv_format_and_capping(tmp_path):
    rows = [
        EvalReport("zero", 10.0, 0, float("inf"), 0.0, 0.0, 1.5),
        EvalReport("admm", 10.0, 1, 31.25, 0.02737, 0.0125, 240.0),
        EvalReport("rbf", 20.0, 2, float("nan"), float("nan"), float("nan"), 3.0),
    ]
    path = tmp_path / "r.csv"
    rio.write_reports_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "method,sparsity,seed,psnr_db,rmse,outage_error,runtime_ms"
    assert lines[1] == "zero,10,0,99.000000,0.00000000,0.00000000,1.500"
    assert lines[2] == "admm,10,1,31.250000,0.02737000,0.01250000,240.000"
    assert lines[3] == "rbf,20,2,nan,nan,nan,3.000"


def _write_each_kind(d, model, rng):
    """Write one file of every kind the package writes; returns the paths."""
    band = rng.random((4, 3))
    paths = {k: d / name for k, name in (
        ("tensor", "t.rmt"), ("mask", "m.rmm"), ("checkpoint", "c.rmu"), ("pgm", "b.pgm"),
        ("band_csv", "b.csv"), ("reports_csv", "r.csv"), ("imported", "i.rmt"))}
    rio.write_tensor(paths["tensor"], rng.random((4, 3, 2)))
    rio.write_mask(paths["mask"], ObservationMask(rng.random((4, 3)) < 0.5))
    rio.write_checkpoint(paths["checkpoint"], model)
    rio.export_pgm(paths["pgm"], band)
    rio.export_band_csv(paths["band_csv"], band)
    rio.write_reports_csv(paths["reports_csv"], [EvalReport("zero", 10.0, 0, 1.0, 0.1, 0.1, 1.0)])
    rio.import_band_csvs(paths["imported"], [paths["band_csv"]])
    paths["minmax"] = d / "i.rmt.minmax.txt"
    return paths


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_take_their_mode_from_the_umask(tmp_path, small_model, rng, umask, mode):
    """The temporary file is created 0600; the file renamed over the target
    has the mode a plain open() would give it under the process umask."""
    prev = os.umask(umask)
    try:
        paths = _write_each_kind(tmp_path, small_model, rng)
    finally:
        os.umask(prev)
    for kind, p in paths.items():
        assert stat.S_IMODE(os.stat(p).st_mode) == mode, kind
    assert list(tmp_path.glob(".tmp-*")) == []


def test_masks_and_tensors_use_distinct_magics(tmp_path, rng):
    t = rng.random((4, 4, 1))
    tpath = tmp_path / "t.rmt"
    rio.write_tensor(tpath, t)
    with pytest.raises(FormatError):
        rio.read_mask(tpath)
    mask = sample_mask(4, 4, 50.0, seed=0)
    mpath = tmp_path / "m.rmm"
    rio.write_mask(mpath, mask)
    with pytest.raises(FormatError):
        rio.read_tensor(mpath)


def test_read_through_a_regular_file_is_invalid_argument(tmp_path):
    f = tmp_path / "f"
    f.write_bytes(b"")
    with pytest.raises(InvalidArgumentError, match="Not a directory"):
        rio.read_tensor(f / "x.rmt")
