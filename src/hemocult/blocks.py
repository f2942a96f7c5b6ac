"""Binary codec of cohort.bin, tensors.bin and the checkpoints: pack_string and BlockReader.

Every length is checked against the bytes left in the file (from fstat) before anything is
read or allocated; every error names the file and is raised as the caller's own class.
"""

import os
import struct

import numpy as np

U32 = struct.Struct("<I")
U64 = struct.Struct("<Q")
I64 = np.dtype("<i8")
F64 = np.dtype("<f8")


def pack_string(text: str) -> bytes:
    """A u32 byte length, then the UTF-8 bytes; BlockReader.unpack_string reads it back."""
    raw = text.encode("utf-8")
    return U32.pack(len(raw)) + raw


class BlockReader:
    def __init__(self, fh, path, error_cls):
        self.fh, self.path, self.error_cls = fh, path, error_cls
        self.left = os.fstat(fh.fileno()).st_size

    def error(self, message):
        return self.error_cls(f"{self.path}: {message}")

    def take(self, n, what):
        if n > self.left:
            raise self.error(f"truncated {what}: needs {n} bytes, {self.left} left")
        self.left -= n

    def raw(self, n, what) -> bytes:
        self.take(n, what)
        data = self.fh.read(n)
        if len(data) != n:
            raise self.error(f"truncated {what}")
        return data

    def unpack(self, layout: struct.Struct, what):
        return layout.unpack(self.raw(layout.size, what))

    def unpack_string(self, length_what, what) -> str:
        (n,) = self.unpack(U32, length_what)
        try:
            return self.raw(n, what).decode("utf-8")
        except UnicodeDecodeError:
            raise self.error(f"{what} is not UTF-8") from None

    def array(self, count, dtype: np.dtype, what) -> np.ndarray:
        self.take(count * dtype.itemsize, what)
        out = np.empty(count, dtype=dtype)
        if self.fh.readinto(out) != out.nbytes:
            raise self.error(f"truncated {what}")
        return out

    def magic(self, expected: bytes, what):
        found = self.fh.read(len(expected))  # a short foreign file is "bad", not "truncated"
        self.left -= len(found)
        if found != expected:
            raise self.error(f"bad {what} {found!r}")

    def count(self, item_bytes, what):
        """A u64 item count, refused when that many items cannot fit in the bytes left."""
        (n,) = self.unpack(U64, what)
        if n * item_bytes > self.left:
            raise self.error(f"{what} {n} cannot fit in {self.left} bytes")
        return n

    def finish(self, what):
        if self.left:
            raise self.error(f"{self.left} trailing bytes after {what}")
