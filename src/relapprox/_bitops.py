"""Bitmask helpers: subsets of [0, n) stored as Python ints, bulk ops in numpy.

A subset mask has bit i set iff element i is a member.  Python ints give
arbitrary n and cheap hashing/dedup; hot loops (many counts against a fixed
family of m sets) go through one of two layouts of the family:

- the packed matrix, (m, words) uint64 little-endian words.  A weighted
  intersection count sum over e in S of w(e) is a popcount scan of the whole
  matrix against the binary planes of w (plane k holds the elements whose
  weight has bit k set): `intersection_sizes`, m * words * planes words.
- the incidence index, CSR element -> ascending ids of the sets containing
  it: 2 B per incidence while m <= 65,536, else 4 B, plus 4 B per element.
  Counts are exact integer bincounts over the ids of the sampled elements,
  one per binary plane of their weights: `incidence_counts`, at most about
  t * nnz / n entries for t draws from n elements when the family has nnz
  incidences (an element drawn r times is read popcount(r) times).

`sampling.count_costs` prices a query both ways with the measured per-unit
constants below, and `sampling.intersection_counts` takes the cheaper.  The
index is built lazily, at most once per family, when the family's dense
scans that it would have undercut have cost as much as building it
(`SetSystem.incidence_when_paid`); a family queried once or twice keeps the
dense scan.

Two more kernels read the packed matrix in row blocks that stay in L2:

- `nearest_rows`, the nearest of K query rows under symmetric-difference
  distance for every row (packing certificates).  Each row block meets all
  K rows word by word, summing popcounts into a (block, K) int32 buffer;
  its transients are block * K * 13 B (xor, popcount and sum) plus the
  block, about `_BLOCK_BYTES` in all.  It beats K `xor_sizes` scans, whose
  per-row sum dominates on narrow rows, from a few rows up, and loses to
  one scan at K = 1.
- `gather_columns`, the trace of every row on a set of columns (`restrict`):
  each row block is unpacked to one byte per bit (64 B per word, about
  `_BLOCK_BYTES`), its columns gathered and packed again.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

# Per-unit costs, measured on a 2-vCPU Intel Xeon with a 2 MiB L2 and
# numpy 2.4 (medians over random families of 3,000-20,000 sets, t = 50-400;
# `python scripts/kernel_timings.py` measures them again):
# a packed word ANDed and popcounted by `intersection_sizes`, 3.3-4.1 ns on
# rows of 16-128 words (9 ns on 7-word rows, where the per-row sum
# dominates); an incidence entry gathered and counted by `incidence_counts`,
# 4-9 ns; and a packed word turned into index entries by `build_incidence`,
# 250-470 ns.
NS_PER_WORD = 3.5
NS_PER_ENTRY = 6.0
NS_PER_BUILD_WORD = 300.0

# Row blocks of the dense scans, with their buffers, stay in the 2 MiB
# per-core L2 while every plane or query row is applied to them.
_BLOCK_BYTES = 1 << 19


def mask_from_indices(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def mask_from_flags(flags: np.ndarray) -> int:
    """Mask of the nonzero positions of a 1-D array."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def indices_from_mask(mask: int) -> np.ndarray:
    """Ascending positions of the set bits of a nonnegative mask, as int64."""
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


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


def popcount_words(a: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array."""
    return np.bitwise_count(a)


def _bulk_op_sizes(packed: np.ndarray, planes: np.ndarray, op) -> np.ndarray:
    """sum_k 2^k |op(S_i, planes[k])| for every row S_i, in one pass over
    `packed`: each L2-sized row block meets every plane before the next."""
    planes = np.atleast_2d(planes)
    n, w = packed.shape
    out = np.zeros(n, dtype=np.int64)
    step = max(1, _BLOCK_BYTES // (8 * w))
    buf = np.empty((min(step, n), w), dtype=np.uint64)
    cnt = np.empty((min(step, n), w), dtype=np.uint8)
    for s in range(0, n, step):
        e = min(s + step, n)
        b, c, acc = buf[: e - s], cnt[: e - s], out[s:e]
        for k, plane in enumerate(planes):
            op(packed[s:e], plane, out=b)
            np.bitwise_count(b, out=c)
            acc += c.sum(axis=1, dtype=np.int64) << k
    return out


def intersection_sizes(packed: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """sum_k 2^k |S_i & planes[k]| for every row S_i of a packed matrix, as
    int64: |S_i & row| for a single packed row, the weighted count for the
    (planes, words) binary planes of a weight."""
    return _bulk_op_sizes(packed, planes, np.bitwise_and)


def xor_sizes(packed: np.ndarray, row: np.ndarray) -> np.ndarray:
    """|S_i ^ row| (symmetric-difference sizes) for every row, as int64."""
    return _bulk_op_sizes(packed, row, np.bitwise_xor)


def nearest_rows(packed: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For every row S_i of `packed`, min_k |S_i ^ rows[k]| and the lowest k
    attaining it, as int64 (int64 max and -1 when `rows` is empty).

    One pass over `packed`: each row block meets all K rows word by word,
    adding popcounts into a (block, K) int32 buffer, so there is no per-row
    sum and no (m, K) matrix.
    """
    m, w = packed.shape
    k = len(rows)
    dist = np.full(m, np.iinfo(np.int64).max, dtype=np.int64)
    arg = np.full(m, -1, dtype=np.int64)
    if k == 0 or m == 0:
        return dist, arg
    cols = np.ascontiguousarray(rows.T)
    # the xor, popcount and sum buffers (13 B per pair) and the block itself
    step = min(m, max(1, _BLOCK_BYTES // (13 * k + 8 * w)))
    xor = np.empty((step, k), dtype=np.uint64)
    cnt = np.empty((step, k), dtype=np.uint8)
    acc = np.empty((step, k), dtype=np.int32)
    for s in range(0, m, step):
        e = min(s + step, m)
        x, c, a = xor[: e - s], cnt[: e - s], acc[: e - s]
        block = np.ascontiguousarray(packed[s:e].T)
        a.fill(0)
        for j in range(w):
            np.bitwise_xor(block[j][:, None], cols[j], out=x)
            a += np.bitwise_count(x, out=c)
        best = a.argmin(axis=1)
        arg[s:e] = best
        dist[s:e] = np.take_along_axis(a, best[:, None], axis=1)[:, 0]
    return dist, arg


def gather_columns(packed: np.ndarray, columns: np.ndarray) -> list[int]:
    """The masks of every row of `packed` restricted to `columns`, element
    columns[j] becoming bit j, as Python ints.

    Unpacks one row block at a time (64 B per packed word), so the whole
    matrix is never unpacked; the gathered bits take at most as much again.
    """
    m, w = packed.shape
    nbytes = (len(columns) + 7) // 8
    step = max(1, _BLOCK_BYTES // (64 * w))
    out: list[int] = []
    for s in range(0, m, step):
        bits = np.unpackbits(packed[s : s + step].view(np.uint8), axis=1, bitorder="little")
        buf = np.packbits(bits[:, columns], axis=1, bitorder="little").tobytes()
        out.extend(
            int.from_bytes(buf[r : r + nbytes], "little") for r in range(0, len(buf), nbytes)
        )
    return out


class Incidence(NamedTuple):
    """CSR element -> set index: the ids of the sets containing element e
    are ids[indptr[e]:indptr[e + 1]], ascending."""

    indptr: np.ndarray  # (n + 1,) int32, or int64 past 2^31 - 1 incidences
    ids: np.ndarray  # (nnz,) uint16 for at most 65,536 sets, else int32


def build_incidence(packed: np.ndarray, n: int) -> Incidence:
    """The incidence index of the rows of a packed matrix over [0, n).

    Reads one word column (64 elements) at a time, with no transpose or
    unpack of the whole matrix: besides the index, the transients are one
    byte per packed word (the popcounts that size the index) and one
    column's bits, 64 B per set.
    """
    m, w = packed.shape
    nnz = int(popcount_words(packed).sum(dtype=np.int64))
    ids = np.empty(nnz, dtype=np.uint16 if m <= 1 << 16 else np.int32)
    indptr = np.zeros(64 * w + 1, dtype=np.int32 if nnz < 2**31 else np.int64)
    ends_of = np.arange(1, 65) * m
    for j in range(w):
        col = np.ascontiguousarray(packed[:, j]).view(np.uint8).reshape(m, 8)
        # row b of the (64, m) unpacked column is element 64 j + b; a hit at
        # flat position b m + i is set i containing that element
        bits = np.unpackbits(np.ascontiguousarray(col.T), axis=0, bitorder="little")
        hits = np.flatnonzero(bits.view(bool))
        start = indptr[64 * j]
        ids[start : start + len(hits)] = hits % m
        indptr[64 * j + 1 : 64 * j + 65] = start + np.searchsorted(hits, ends_of)
    return Incidence(indptr[: n + 1], ids)


def incidence_counts(
    index: Incidence, elements: np.ndarray, m: int, repeats: np.ndarray | None = None
) -> np.ndarray:
    """|S_i & elements| for every set S_i of an m-set family, each element
    counted `repeats` times (parallel to `elements`) when given, as int64:
    per binary plane k of the counts, one bincount over the concatenated id
    lists of the elements whose count has bit k set, weighted by 2^k."""
    indptr, ids = index
    lo, hi = indptr[elements].tolist(), indptr[elements + 1].tolist()
    parts = [ids[a:b] for a, b in zip(lo, hi)]
    weights = [1] * len(parts) if repeats is None else repeats.tolist()
    out = np.zeros(m, dtype=np.int64)
    for k in range(max(weights, default=0).bit_length()):
        plane = [part for part, w in zip(parts, weights) if w >> k & 1]
        if plane:
            out += np.bincount(np.concatenate(plane), minlength=m) << k
    return out
