"""Eigenvalue archives: (samples, N) arrays of ascending spectra with a
label, persisted as CSV (17 significant digits, lossless round-trip) or as
a raw binary with magic ``WLAB1``, little-endian u64 N, u64 samples, then
the float64 payload (bit-exact round-trip).

Either format loads into one array: a binary payload is read straight into
it, and a CSV body is parsed by one ``np.loadtxt`` call, with a row loop
left only for the inputs that call rejects or the header contradicts.
"""

import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

MAGIC = b"WLAB1"
VALIDATE_BLOCK = 1 << 14  # values per validation temporary (128 KB as float64)


class ArchiveFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Archive:
    N: int
    label: str
    data: np.ndarray  # (samples, N), each row finite and strictly ascending

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != self.N:
            raise ArchiveFormatError("data shape does not match N")
        if self.N < 1 or data.shape[0] < 1:
            raise ArchiveFormatError("archive must hold at least one spectrum with N >= 1")
        # whole rows at a time, so the checks need no temporary as large as the data
        step = max(1, VALIDATE_BLOCK // self.N)
        blocks = [data[i : i + step] for i in range(0, len(data), step)]
        if not all(np.all(np.isfinite(block)) for block in blocks):
            raise ArchiveFormatError("archive values must be finite")
        if self.N > 1 and not all(np.all(np.diff(block, axis=1) > 0) for block in blocks):
            raise ArchiveFormatError("archive rows must be strictly ascending")
        if "\n" in self.label or "\r" in self.label:
            raise ArchiveFormatError("archive label must not contain a line break")
        object.__setattr__(self, "data", data)

    @property
    def samples(self):
        return self.data.shape[0]


def save_archive(archive, path):
    """Write CSV (default) or raw binary when the path ends in .bin."""
    if str(path).endswith(".bin"):
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<QQ", archive.N, archive.samples))
            fh.write(archive.data.astype("<f8").tobytes())
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{archive.N},{archive.samples},{archive.label}\n")
        np.savetxt(fh, archive.data, fmt="%.17g", delimiter=",")


def load_archive(path):
    """Read an archive in either format, validating header consistency."""
    if str(path).endswith(".bin"):
        with open(path, "rb") as fh:
            magic = fh.read(5)
            if magic != MAGIC:
                raise ArchiveFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
            header = fh.read(16)
            if len(header) != 16:
                raise ArchiveFormatError("truncated binary header")
            n, samples = struct.unpack("<QQ", header)
            # checked against the file before anything is allocated
            if os.fstat(fh.fileno()).st_size - fh.tell() != 8 * n * samples:
                raise ArchiveFormatError("binary payload size does not match header")
            try:
                data = np.empty((samples, n), dtype="<f8")
            except ValueError as exc:  # dimensions beyond what numpy can index
                raise ArchiveFormatError(f"binary header dimensions {n} x {samples} out of range") from exc
            if fh.readinto(data) != data.nbytes or fh.read(1):  # the file changed since fstat
                raise ArchiveFormatError("binary payload size does not match header")
        return Archive(N=int(n), label=os.path.splitext(os.path.basename(path))[0], data=data)

    # the row loop accepts a few inputs that loadtxt rejects (`1_0`,
    # whitespace-only lines) and words every error message
    n, label, data = _loadtxt_csv(path) or _read_csv_rows(path)
    return Archive(N=n, label=label, data=data)


def _loadtxt_csv(path):
    """(N, label, data) of a CSV archive parsed by one ``np.loadtxt`` call
    after the header, or None when that fails or disagrees with the header."""
    try:
        with open(path, encoding="utf-8") as fh:
            n, samples, label = _read_csv_header(fh)
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # an empty body warns: the row loop reports it instead
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    except (ValueError, Warning):  # a UnicodeDecodeError is a ValueError
        return None
    return (n, label, data) if data.shape == (samples, n) else None


def _read_csv_header(fh):
    """(N, samples, label) from the first line of a CSV archive."""
    header = fh.readline().rstrip("\n")
    parts = header.split(",", 2)
    if len(parts) != 3:
        raise ArchiveFormatError(f"malformed header line: {header!r}")
    try:
        return int(parts[0]), int(parts[1]), parts[2]
    except ValueError as exc:
        raise ArchiveFormatError(f"malformed header line: {header!r}") from exc


def _read_csv_rows(path):
    """(N, label, data) of a CSV archive parsed one line at a time."""
    try:
        with open(path, encoding="utf-8") as fh:
            n, samples, label = _read_csv_header(fh)
            rows = []
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                try:
                    row = np.array(line.split(","), dtype=float)
                except ValueError as exc:
                    raise ArchiveFormatError(f"line {lineno}: non-numeric value") from exc
                if len(row) != n:
                    raise ArchiveFormatError(f"line {lineno}: expected {n} values, got {len(row)}")
                rows.append(row)
    except UnicodeDecodeError as exc:
        raise ArchiveFormatError(f"archive is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    if len(rows) != samples:
        raise ArchiveFormatError(f"header promised {samples} samples, file has {len(rows)}")
    return n, label, np.array(rows)
