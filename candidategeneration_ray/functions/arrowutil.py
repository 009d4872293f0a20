"""Zero-copy helpers for Arrow binary columns.

Posting-list blobs move through the build as pa.binary() columns; these
helpers avoid materializing per-row Python bytes objects (a million
tiny copies per shuffle otherwise):

  - one_chunk: a chunked column as one array, copying only when it
    really has several chunks;
  - binary_column_concat: view a BinaryArray's rows as ONE contiguous
    uint8 numpy array + per-row value offsets (rows are stored
    back-to-back in the Arrow data buffer);
  - binary_array_from_concat: build a BinaryArray directly from a
    concatenated payload + offsets via Array.from_buffers.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def one_chunk(col: pa.ChunkedArray) -> pa.Array:
    """The column as one array; combine_chunks copies even a single
    chunk, so that case returns the chunk itself."""
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def binary_column_concat(col: pa.ChunkedArray | pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Return (data uint8 array, value_offsets int64 array of len n+1)
    such that row i's payload is data[offsets[i]:offsets[i+1]]. A
    single-chunk column is viewed in place, not copied."""
    arr = one_chunk(col) if isinstance(col, pa.ChunkedArray) else col
    if len(arr) == 0:
        return np.empty(0, np.uint8), np.zeros(1, np.int64)
    off_buf, data_buf = arr.buffers()[1], arr.buffers()[2]
    if isinstance(arr, pa.LargeBinaryArray):
        offs = np.frombuffer(off_buf, dtype=np.int64)
    else:
        offs = np.frombuffer(off_buf, dtype=np.int32)
    offs = offs[arr.offset:arr.offset + len(arr) + 1].astype(np.int64)
    data = np.frombuffer(data_buf, dtype=np.uint8)
    return data[offs[0]:offs[-1]], offs - offs[0]


def binary_array_from_concat(data, value_offsets: np.ndarray) -> pa.Array:
    """BinaryArray over a concatenated payload without per-row copies.

    Payloads past the int32 offset range (a whole bucket's concatenated
    blobs can exceed 2 GiB at scale) are emitted as large_binary with
    int64 offsets instead of silently wrapping negative; Parquet stores
    both as BYTE_ARRAY, and binary_column_concat reads both back.
    """
    n = len(value_offsets) - 1
    buf = data if isinstance(data, (bytes, bytearray, memoryview)) else \
        np.ascontiguousarray(data, dtype=np.uint8).data
    offs = np.ascontiguousarray(value_offsets, dtype=np.int64)
    total = int(offs[-1]) if n >= 0 and len(offs) else 0
    if total >= 2**31:
        return pa.Array.from_buffers(
            pa.large_binary(), n, [None, pa.py_buffer(offs), pa.py_buffer(buf)]
        )
    return pa.Array.from_buffers(
        pa.binary(), n,
        [None, pa.py_buffer(offs.astype(np.int32)), pa.py_buffer(buf)],
    )
