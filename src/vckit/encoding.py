"""Big-endian, length-prefixed binary encoding shared by all proof formats."""

import numpy as np

from .errors import UsageError

HASH_ID = 0x01  # SHA-256, the byte after every proof format's version


def u8(v: int) -> bytes:
    return v.to_bytes(1, "big")


def u32(v: int) -> bytes:
    return v.to_bytes(4, "big")


def u64(v: int) -> bytes:
    return v.to_bytes(8, "big")


def u64_rows(matrix) -> list:
    """Each row of a 2-D uint64 array as the u64 encodings of its values,
    concatenated: one big-endian dump of the array, cut into rows."""
    if not matrix.shape[1]:   # numpy has no zero-size void type
        return [b""] * len(matrix)
    raw = matrix.astype(">u8").tobytes()
    return np.frombuffer(raw, dtype=f"V{8 * matrix.shape[1]}").tolist()


def bytes_lp(b: bytes) -> bytes:
    """4-byte length prefix followed by the raw bytes."""
    return u32(len(b)) + b


def int_lp(v: int) -> bytes:
    """Arbitrary-size unsigned integer, minimal big-endian, length-prefixed."""
    if v < 0:
        raise UsageError("negative integers are not encodable")
    raw = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
    return bytes_lp(raw)


def read_magic(reader: "Reader", magic: bytes, what: str):
    """Consume a proof's frame: magic, a 4-byte format tag then a format
    version byte, and the hash id, refusing another of any of them."""
    if reader.take(4) != magic[:4]:
        raise UsageError(f"not a {what} proof")
    version = reader.u8()
    if version != magic[4]:
        raise UsageError(f"unsupported {what} proof format version {version}")
    if reader.u8() != HASH_ID:
        raise UsageError("unsupported hash algorithm id")


class Reader:
    """Cursor over a byte string; raises UsageError on truncation."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise UsageError("truncated proof data")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def u64_matrix(self, rows: int, width: int) -> np.ndarray:
        """rows x width u64s as a uint64 array, decoded in one read: the
        inverse of u64_rows."""
        raw = self.take(8 * rows * width)
        return (np.frombuffer(raw, dtype=">u8").astype(np.uint64)
                .reshape(rows, width))

    def bytes_lp(self) -> bytes:
        return self.take(self.u32())

    def int_lp(self) -> int:
        """The inverse of int_lp, refusing an empty or non-minimal
        encoding: a leading zero byte is only valid as 0 itself."""
        raw = self.bytes_lp()
        if not raw or (raw[0] == 0 and len(raw) > 1):
            raise UsageError("non-minimal integer encoding")
        return int.from_bytes(raw, "big")

    def done(self) -> bool:
        return self.pos == len(self.data)

    def finish(self):
        """Raise UsageError unless every byte has been consumed."""
        if not self.done():
            raise UsageError("trailing bytes after the encoded value")
