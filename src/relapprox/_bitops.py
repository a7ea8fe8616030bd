"""Bitmask helpers: subsets of [0, n) stored as Python ints, bulk ops in numpy.

A subset mask has bit i set iff element i is a member.  Python ints give
arbitrary n and cheap hashing/dedup; hot loops (many popcounts against a
fixed family) go through a packed uint64 matrix instead.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np


def mask_from_indices(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def indices_from_mask(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def words_needed(n: int) -> int:
    return max(1, (n + 63) // 64)


def pack_masks(masks: Sequence[int], n: int) -> np.ndarray:
    """Pack masks into a (len(masks), words) uint64 matrix, little-endian words."""
    w = words_needed(n)
    nbytes = w * 8
    buf = bytearray(len(masks) * nbytes)
    for r, m in enumerate(masks):
        buf[r * nbytes : r * nbytes + nbytes] = m.to_bytes(nbytes, "little")
    return np.frombuffer(bytes(buf), dtype="<u8").reshape(len(masks), w)


def pack_mask(mask: int, n: int) -> np.ndarray:
    return pack_masks([mask], n)[0]


def popcount_words(a: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array."""
    return np.bitwise_count(a)


_CHUNK_ROWS = 65536


def _bulk_op_sizes(packed: np.ndarray, row: np.ndarray, op) -> np.ndarray:
    # chunked with a reused buffer: the matrices easily exceed cache, so
    # avoiding full-size temporaries is a ~3x win
    n, w = packed.shape
    out = np.empty(n, dtype=np.int64)
    buf = np.empty((min(_CHUNK_ROWS, n), w), dtype=np.uint64)
    cnt = np.empty((min(_CHUNK_ROWS, n), w), dtype=np.uint8)
    for s in range(0, n, _CHUNK_ROWS):
        e = min(s + _CHUNK_ROWS, n)
        b, c = buf[: e - s], cnt[: e - s]
        op(packed[s:e], row, out=b)
        np.bitwise_count(b, out=c)
        out[s:e] = c.sum(axis=1, dtype=np.int64)
    return out


def intersection_sizes(packed: np.ndarray, row: np.ndarray) -> np.ndarray:
    """|S_i & row| for every row S_i of a packed matrix, as int64."""
    return _bulk_op_sizes(packed, row, np.bitwise_and)


def xor_sizes(packed: np.ndarray, row: np.ndarray) -> np.ndarray:
    """|S_i ^ row| (symmetric-difference sizes) for every row, as int64."""
    return _bulk_op_sizes(packed, row, np.bitwise_xor)
