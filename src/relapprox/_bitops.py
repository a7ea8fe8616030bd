"""Packed families of subsets of [0, n): the word layout and bulk kernels.

A family of m subsets is a packed matrix, (m, words) uint64 little-endian
words with bit i of a row set iff element i is a member.  It is the only
store of a `SetSystem`, and only this module knows its layout: rows are built
from flag arrays (`pack_flags`) or a caller's Python-int masks (`pack_masks`)
and turned into ints only on request (`unpack_masks`).  Every popcount of
packed words is made here (`row_sizes`, `symdiff_sizes`,
`intersection_sizes`), and every loop over row blocks, here or in a caller,
sizes its blocks with `block_rows` so that they stay in L2.  Counts against
a fixed family of m sets (`SetSystem.counts` prices each query with the
measured per-unit constants below and runs the cheaper kernel) go through
one of two layouts:

- the packed matrix.  A weighted intersection count sum over e in S of w(e)
  is a popcount scan of the whole matrix against the packed binary planes
  of w (plane k holds the elements whose weight has bit k set):
  `intersection_sizes`, m * words * planes words.
- the incidence index, CSR element -> ascending ids of the sets containing
  it: 2 B per incidence while m <= 65,536, else 4 B, plus 4 B per element.
  Counts are exact integer bincounts over the ids of the elements of each
  binary plane of the weights (`Sample.plane_members`): `incidence_counts`,
  at most about t * nnz / n entries for t draws from n elements when the
  family has nnz incidences (an element drawn r times is read popcount(r)
  times).  Each plane's id lists are gathered in one copy that holds the
  GIL, not one numpy copy per element, each of which can hand the GIL to
  another counting thread.

`gather_columns` reads the packed matrix in row blocks: the given rows
restricted to a set of columns (a trace's distinct rows, for
`set_system.Trace.materialize`, its only caller).  Each row block is
unpacked to one byte per bit (64 B per word), its columns gathered and
packed again.  Packing (`pack_flags`) pads the rows to whole words and
packs the flat array in one `packbits`, a third of the cost of packing row
by row.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

# Per-unit costs, measured on a 2-vCPU Intel Xeon with a 2 MiB L2 and
# numpy 2.4 (medians over random families of 3,000-20,000 sets, t = 50-400;
# `python scripts/kernel_timings.py` measures them again):
# a packed word ANDed and popcounted by `intersection_sizes`, 3.3-4.1 ns on
# rows of 16-128 words (3.1-3.5 ns on 7-word rows, whose popcounts
# `_row_sums` sums a column at a time); an incidence entry gathered and
# counted by `incidence_counts`, 4-9 ns; and a packed word turned into index entries by `build_incidence`,
# 250-470 ns.
NS_PER_WORD = 3.5
NS_PER_ENTRY = 6.0
NS_PER_BUILD_WORD = 300.0

# Row blocks of the dense scans, with their buffers, stay in the 2 MiB
# per-core L2 while every plane or query row is applied to them.
_BLOCK_BYTES = 1 << 19


def block_rows(row_bytes: int) -> int:
    """Rows per block when each row takes `row_bytes` of buffers: as many
    as fit in `_BLOCK_BYTES`, and at least one."""
    return max(1, _BLOCK_BYTES // max(1, row_bytes))


def indices_from_mask(mask: int) -> np.ndarray:
    """Ascending positions of the set bits of a nonnegative mask, as int64."""
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), dtype=np.uint8)
    return np.flatnonzero(np.unpackbits(raw, bitorder="little"))


def words_needed(n: int) -> int:
    return max(1, (n + 63) // 64)


def pack_masks(masks: Iterable[int], n: int) -> np.ndarray:
    """Read-only packed rows of nonnegative int masks below 2^(64 words)."""
    w = words_needed(n)
    buf = b"".join([m.to_bytes(8 * w, "little") for m in masks])
    return np.frombuffer(buf, dtype="<u8").reshape(-1, w)


def pack_flags(flags: np.ndarray) -> np.ndarray:
    """The rows of a 2-D (rows, n) flag array (nonzero = member) as packed rows.

    One `packbits` over the flat array, which costs a third of a per-row
    (axis=1) pack: rows are first padded to whole words, unless they are bool
    flags that already fill them.
    """
    rows, n = flags.shape
    width = 64 * words_needed(n)
    if n != width or flags.dtype != bool:
        padded = np.zeros((rows, width), dtype=bool)
        padded[:, :n] = flags
        flags = padded
    return np.packbits(flags, bitorder="little").view("<u8").reshape(rows, width // 64)


def unpack_masks(packed: np.ndarray) -> tuple[int, ...]:
    """The rows of a packed matrix as Python-int masks."""
    nbytes = 8 * packed.shape[1]
    buf = np.ascontiguousarray(packed, dtype="<u8").view(np.uint8).reshape(-1).data
    return tuple(int.from_bytes(buf[r : r + nbytes], "little") for r in range(0, len(buf), nbytes))


def int_order(packed: np.ndarray) -> np.ndarray:
    """The stable order of the rows by their value as ints."""
    return np.lexsort(packed.T)


def distinct_rows(packed: np.ndarray, labels: bool = False):
    """Ascending indices of the first occurrence of every distinct row; with
    `labels`, also each row's class, the position of its first occurrence
    among those indices (so packed[first][label] equals packed), both from
    one stable sort."""
    rows = np.ascontiguousarray(packed).view(np.dtype((np.void, 8 * packed.shape[1])))[:, 0]
    order = np.argsort(rows, kind="stable")  # equal rows side by side, in index order
    new = np.ones(len(rows), dtype=bool)  # the rows that differ from the one before
    step = block_rows(rows.itemsize)
    for s in range(0, len(rows), step):
        ordered = rows[order[s : s + step + 1]]
        new[s + 1 : s + len(ordered)] = ordered[1:] != ordered[:-1]
    heads = order[new]  # first occurrences, in row-value order
    first = np.sort(heads)
    if not labels:
        return first
    label = np.empty(len(rows), dtype=np.int64)
    label[order] = np.searchsorted(first, heads)[np.cumsum(new) - 1]
    return first, label


def rows_outside(packed: np.ndarray, n: int) -> np.ndarray:
    """Ascending indices of the rows with a member at position n or above."""
    return np.flatnonzero(packed[:, -1] & ~pack_flags(np.ones((1, n), dtype=bool))[0, -1])


# Rows narrower than this many words sum their popcounts a column at a time:
# a per-row sum (`sum(axis=1)`) took 3.5-4.2 ns a word on 7-word rows and
# 1.0-1.5 ns on 64-word rows, a column loop 1.0-1.4 ns on 7-word rows but
# more than the per-row sum from 32-48 words on (65,536 x 7 down to
# 8,192 x 64 random rows, on the machine of the constants above).
_NARROW_WORDS = 32


def _row_sums(counts: np.ndarray) -> np.ndarray:
    """The sum of every row of a 2-D popcount array, as int64."""
    if counts.shape[1] >= _NARROW_WORDS:
        return counts.sum(axis=1, dtype=np.int64)
    out = counts[:, 0].astype(np.int64)
    for column in counts.T[1:]:
        out += column
    return out


def row_sizes(packed: np.ndarray) -> np.ndarray:
    """The number of members of every row of a packed matrix, as int64."""
    return _row_sums(np.bitwise_count(packed))


def intersection_sizes(packed: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """sum_k 2^k |S_i & planes[k]| for every row S_i of a packed matrix, as
    int64: |S_i & row| for a single packed row, the weighted count for the
    (planes, words) binary planes of a weight.  One pass over `packed`: each
    row block meets every plane before the next."""
    planes = np.atleast_2d(planes)
    n, w = packed.shape
    out = np.zeros(n, dtype=np.int64)
    step = block_rows(8 * w)
    buf = np.empty((min(step, n), w), dtype=np.uint64)
    cnt = np.empty((min(step, n), w), dtype=np.uint8)
    for s in range(0, n, step):
        e = min(s + step, n)
        b, c, acc = buf[: e - s], cnt[: e - s], out[s:e]
        for k, plane in enumerate(planes):
            np.bitwise_and(packed[s:e], plane, out=b)
            np.bitwise_count(b, out=c)
            acc += _row_sums(c) << k
    return out


def symdiff_sizes(
    a: np.ndarray, b: np.ndarray, b_rows: np.ndarray | None = None
) -> np.ndarray:
    """|a ^ b| for word-major packed rows (axis 0 the word), as int64.

    Each row of `a` meets one row of `b`, (words, 1), or each of its rows
    in a table ((words, k, 1) against (words, 1, l)); with `b_rows`, the
    rows of `a` pair with b[:, b_rows].  The result is made a block of a's
    rows at a time, in four array operations: gather, xor, popcount and a
    sum over the words into 16-bit counts (a row of fewer than 1024 words
    has at most 65,535 members), reading a word of many rows without a
    stride; a block takes 9 B a word of each entry.
    """
    rows = b.shape[1:] if b_rows is None else b_rows.shape
    out = np.zeros(np.broadcast_shapes(a.shape[1:], rows), dtype=np.int64)
    sums = np.uint16 if len(a) < 1024 else np.int64
    step = block_rows(9 * len(a) * math.prod(out.shape[1:]))
    for s in range(0, len(out), step):
        cut = slice(s, s + step)
        x = a[:, cut] ^ (b if b_rows is None else b.take(b_rows[cut], axis=1))
        out[cut] = np.bitwise_count(x).sum(axis=0, dtype=sums)
    return out


def gather_columns(packed: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Every row of `packed` restricted to `columns`, element columns[j]
    becoming bit j, as a packed matrix over [0, len(columns)).

    Unpacks one row block at a time (64 B per packed word), so the whole
    matrix is never unpacked; the gathered bits take at most as much again.
    """
    m, w = packed.shape
    out = np.empty((m, words_needed(len(columns))), dtype="<u8")
    step = block_rows(64 * w)
    for s in range(0, m, step):
        bits = np.unpackbits(packed[s : s + step].view(np.uint8), axis=1, bitorder="little")
        out[s : s + step] = pack_flags(bits.view(bool).take(columns, axis=1))
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
    nnz = int(row_sizes(packed).sum())
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


def incidence_counts(index: Incidence, planes, m: int) -> np.ndarray:
    """sum_k 2^k |S_i & planes[k]| for every set S_i of an m-set family, as
    int64, `planes` the ascending element arrays of a weight's binary planes
    (`Sample.plane_members`): per plane, one bincount over its id lists.

    A plane's id lists are gathered by one copy that keeps the GIL:
    `bytes.join` of memoryview slices of `ids` (a join of buffers other than
    bytes never releases it).  `np.concatenate` copies each list in its own
    loop, which drops and retakes the GIL when the list has more than 500
    ids (numpy's NPY_BEGIN_THREADS_THRESHOLDED rule, one PyEval_SaveThread
    per list on numpy 2.4), so with worker threads counting at once a
    sample of t elements made up to t GIL handoffs."""
    indptr, ids = index
    items = ids.data  # sliced in ids, not bytes; a read-only `ids` works too
    out = np.zeros(m, dtype=np.int64)
    for k, elements in enumerate(planes):
        if len(elements):
            lo, hi = indptr[elements].tolist(), indptr[elements + 1].tolist()
            joined = b"".join([items[a:b] for a, b in zip(lo, hi)])
            out += np.bincount(np.frombuffer(joined, dtype=ids.dtype), minlength=m) << k
    return out
