"""Bit-exact file formats and exports.

Three little-endian binary formats, each with a 4-byte magic:
  RMT1  tensor   header h,w,k (u32) + h*w*k float64, band fastest
  RMM1  mask     header h,w (u32) + h*w bytes in {0,1}
  RMU1  model    versioned checkpoint: header, mapper descriptor, then every
                 parameter in model.params() order (a 0-d one as one f64, any
                 other as a u64 byte count + its f64 values), trailing CRC32

All writers go through an atomic temp-file + rename, so a crashed write never
leaves a truncated artifact behind.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import zlib

import numpy as np

from .errors import FormatError, InvalidArgumentError
from .metrics import cap_psnr
from .tensors import ObservationMask, as_tensor
from .unrolled import MapperSpec, UnrolledModel

TENSOR_MAGIC = b"RMT1"
MASK_MAGIC = b"RMM1"
CHECKPOINT_MAGIC = b"RMU1"
CHECKPOINT_VERSION = 1


# an output path with a missing parent, or a file where a directory belongs or the reverse
BAD_PATH_ERRORS = (FileNotFoundError, NotADirectoryError, IsADirectoryError, FileExistsError)


def _atomic_write(path: str, data: bytes) -> None:
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except BAD_PATH_ERRORS as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc.strerror}") from exc


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError as exc:
        raise InvalidArgumentError(f"no such file: {path}") from exc
    except IsADirectoryError as exc:
        raise InvalidArgumentError(f"not a file: {path}") from exc


class _Cursor:
    """Sequential reader that turns truncation into a format error."""

    def __init__(self, buf: bytes, label: str):
        self.buf = buf
        self.off = 0
        self.label = label

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.buf):
            raise FormatError(f"{self.label}: truncated (wanted {n} bytes at offset {self.off})")
        out = self.buf[self.off:self.off + n]
        self.off += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f64s(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * n), dtype="<f8").copy()

    def done(self) -> None:
        if self.off != len(self.buf):
            raise FormatError(f"{self.label}: {len(self.buf) - self.off} trailing bytes")


# ---------------------------------------------------------------------------
# tensors

def write_tensor(path: str, t) -> None:
    t = as_tensor(t)
    h, w, k = t.shape
    payload = struct.pack("<III", h, w, k) + t.astype("<f8").tobytes(order="C")
    _atomic_write(path, TENSOR_MAGIC + payload)


def read_tensor(path: str) -> np.ndarray:
    c = _Cursor(_read_bytes(path), path)
    if c.take(4) != TENSOR_MAGIC:
        raise FormatError(f"{path}: bad magic, not a tensor file")
    h, w, k = c.u32(), c.u32(), c.u32()
    if h < 1 or w < 1 or k < 1:
        raise FormatError(f"{path}: bad dims {h}x{w}x{k}")
    data = c.f64s(h * w * k)
    c.done()
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: payload contains non-finite values")
    return data.reshape(h, w, k)


# ---------------------------------------------------------------------------
# masks

def write_mask(path: str, mask: ObservationMask) -> None:
    h, w = mask.sampled.shape
    payload = struct.pack("<II", h, w) + mask.sampled.astype(np.uint8).tobytes(order="C")
    _atomic_write(path, MASK_MAGIC + payload)


def read_mask(path: str) -> ObservationMask:
    c = _Cursor(_read_bytes(path), path)
    if c.take(4) != MASK_MAGIC:
        raise FormatError(f"{path}: bad magic, not a mask file")
    h, w = c.u32(), c.u32()
    if h < 1 or w < 1:
        raise FormatError(f"{path}: bad dims {h}x{w}")
    raw = np.frombuffer(c.take(h * w), dtype=np.uint8)
    c.done()
    if not np.all((raw == 0) | (raw == 1)):
        raise FormatError(f"{path}: mask bytes must be 0 or 1")
    return ObservationMask(raw.reshape(h, w).astype(bool))


# ---------------------------------------------------------------------------
# checkpoints

def write_checkpoint(path: str, model) -> None:
    """Serialize an UnrolledModel; layout documented in the module docstring.

    Body: version, k_blocks, k_bands, alpha[3], rho, loss_omega, mapper
    descriptor (layer records + residual flag), then each parameter in
    model.params() order, a 0-d one as one f64 and any other as its u64 byte
    count and f64 values. CRC32 of everything before it closes the file.
    """
    spec = model.mapper_spec
    dims = spec.layer_dims(model.k_bands)
    out = bytearray()
    out += CHECKPOINT_MAGIC
    out += struct.pack("<III", CHECKPOINT_VERSION, model.k_blocks, model.k_bands)
    out += struct.pack("<3d", *model.alpha)
    out += struct.pack("<dd", model.rho, model.loss_omega)
    out += struct.pack("<I", len(dims))
    for ci, co in dims:
        out += struct.pack("<IIII", spec.kernel, spec.kernel, ci, co)
    out += struct.pack("<B", 1 if spec.residual else 0)
    for p in model.params():
        blob = np.ascontiguousarray(p.value, dtype="<f8").tobytes()
        if p.value.ndim:
            out += struct.pack("<Q", len(blob))
        out += blob
    out += struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF)
    _atomic_write(path, bytes(out))


def read_checkpoint(path: str):
    buf = _read_bytes(path)
    if len(buf) < 8 or buf[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: bad magic, not a checkpoint file")
    body, (stored_crc,) = buf[:-4], struct.unpack("<I", buf[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != stored_crc:
        raise FormatError(f"{path}: CRC mismatch, checkpoint is corrupt")
    c = _Cursor(body, path)
    c.take(4)
    version, k_blocks, k_bands = c.u32(), c.u32(), c.u32()
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    alpha = tuple(c.f64s(3).tolist())
    rho, loss_omega = c.f64s(1)[0], c.f64s(1)[0]
    n_layers = c.u32()
    layer_recs = [(c.u32(), c.u32(), c.u32(), c.u32()) for _ in range(n_layers)]
    residual = c.take(1)[0]
    if residual not in (0, 1):
        raise FormatError(f"{path}: bad residual flag {residual}")
    if n_layers < 1:
        raise FormatError(f"{path}: mapper needs at least one layer")
    kernel = layer_recs[0][0]
    hidden = tuple(co for _, _, _, co in layer_recs[:-1])
    try:
        spec = MapperSpec(hidden_channels=hidden, kernel=kernel, residual=bool(residual))
    except InvalidArgumentError as exc:
        raise FormatError(f"{path}: bad mapper descriptor: {exc}") from exc
    # one comparison covers the kernel sizes, the band mapping and the channel chain
    if layer_recs != [(kernel, kernel, ci, co) for ci, co in spec.layer_dims(k_bands)]:
        raise FormatError(f"{path}: layer records do not describe a {k_bands}-band mapper")
    try:
        model = UnrolledModel.create(k_bands=k_bands, k_blocks=k_blocks, mapper=spec,
                                     loss_omega=loss_omega, alpha=alpha, rho=rho)
    except InvalidArgumentError as exc:
        raise FormatError(f"{path}: bad model header: {exc}") from exc
    for p in model.params():
        if p.value.ndim:
            nbytes = c.u64()
            if nbytes != p.value.size * 8:
                raise FormatError(
                    f"{path}: parameter blob of {nbytes} bytes does not match "
                    f"expected shape {p.value.shape}")
        arr = c.f64s(p.value.size).reshape(p.value.shape)
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: non-finite parameter values")
        p.value = arr
    c.done()
    return model


# ---------------------------------------------------------------------------
# exports

def export_pgm(path: str, band: np.ndarray) -> None:
    """8-bit P5 heatmap; values clamped to [0,1] then scaled to 0..255."""
    band = np.asarray(band, dtype=np.float64)
    if band.ndim != 2:
        raise InvalidArgumentError(f"pgm export expects a 2-d band, got shape {band.shape}")
    h, w = band.shape
    pix = np.round(np.clip(band, 0.0, 1.0) * 255.0).astype(np.uint8)
    _atomic_write(path, f"P5\n{w} {h}\n255\n".encode("ascii") + pix.tobytes(order="C"))


def export_band_csv(path: str, band: np.ndarray) -> None:
    band = np.asarray(band, dtype=np.float64)
    if band.ndim != 2:
        raise InvalidArgumentError(f"csv export expects a 2-d band, got shape {band.shape}")
    lines = [",".join(repr(float(v)) for v in row) for row in band]
    _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


REPORT_HEADER = "method,sparsity,seed,psnr_db,rmse,outage_error,runtime_ms"


def write_reports_csv(path: str, reports) -> None:
    """Sweep output; the PSNR cap applies here, at the file boundary."""
    lines = [REPORT_HEADER]
    for r in reports:
        p = "nan" if math.isnan(r.psnr_db) else f"{cap_psnr(r.psnr_db):.6f}"
        lines.append(f"{r.method},{r.sparsity_percent:g},{r.seed},{p},"
                     f"{r.rmse:.8f},{r.outage_error:.8f},{r.runtime_ms:.3f}")
    _atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


# ---------------------------------------------------------------------------
# import

def import_band_csvs(out_path: str, csv_paths) -> tuple:
    """Stack per-band CSV matrices into a tensor file, min-max normalized to
    [0,1]; the original range goes to '<out>.minmax.txt' so values remain
    recoverable. Returns (tensor, (lo, hi))."""
    if not csv_paths:
        raise InvalidArgumentError("need at least one band csv")
    bands = []
    for p in csv_paths:
        raw = _read_bytes(p).decode("utf-8", errors="strict")
        rows = []
        for ln, line in enumerate(raw.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rows.append([float(tok) for tok in line.split(",")])
            except ValueError as exc:
                raise FormatError(f"{p}: bad number on line {ln}") from exc
        if not rows:
            raise FormatError(f"{p}: empty csv")
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise FormatError(f"{p}: ragged rows (widths {sorted(widths)})")
        bands.append(np.asarray(rows, dtype=np.float64))
    shapes = {b.shape for b in bands}
    if len(shapes) != 1:
        raise InvalidArgumentError(f"band shapes differ: {sorted(shapes)}")
    t = np.stack(bands, axis=2)
    if not np.all(np.isfinite(t)):
        raise FormatError("imported data contains non-finite values")
    lo, hi = float(t.min()), float(t.max())
    norm = np.zeros_like(t) if hi == lo else (t - lo) / (hi - lo)
    write_tensor(out_path, norm)
    _atomic_write(str(out_path) + ".minmax.txt", f"min={lo!r}\nmax={hi!r}\n".encode("ascii"))
    return norm, (lo, hi)
