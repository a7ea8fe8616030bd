"""Finite set systems over a ground set [0, n) and their combinatorial primitives.

The ground set is always {0, ..., n-1}.  A SetSystem stores a deduplicated,
order-preserving family of subsets as one packed matrix (`_bitops`) and
answers the family protocol of `sampling` from it; its trace on a sample is
a `Trace`, which gathers only its distinct rows and only in `materialize`.
Every count |A & S| of a family's own sets, behind a verifier, a trace or
the chain's telescoping audit, comes from `SetSystem.counts`, which owns
the choice of kernel and the purchase of the incidence index.  The audit's
part rows S \\ P and P \\ S are not sets of the family: `chaining._parts`
counts them with `_bitops.intersection_sizes` against the sample's packed
planes.  A family is built from packed rows (`SetSystem.from_packed`),
index lists (`new_set_system`, behind `read_json`) or Python-int bitmasks
(`SetSystem.from_masks`).  All operations are pure; SetSystem and Trace
are immutable and safe to share.
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _bitops
from .errors import ConstructionError
from .sampling import (
    ApproximationReport,
    Sample,
    _check_ground_set,
    _check_verifier_inputs,
    _is_int,
    _read_json_object,
    _read_only,
    worst_of_counts,
)

# Guards every family's index purchase: the rent ledger's read-modify-write
# and the build, so concurrent queries build an index at most once.
_INCIDENCE_LOCK = threading.Lock()


class CountCosts(NamedTuple):
    """Model nanoseconds of one `SetSystem.counts` query by each strategy."""

    incidence_ns: float
    dense_ns: float


class SetSystem:
    """Ground set [0, n) plus a deduplicated family of subsets, stored as the
    read-only packed matrix `packed`; `masks` (Python ints) is built on demand.

    The row order is the canonical family order used by every index-valued
    result in this package (worst-set indices, packing member indices, cover
    maps).  Compares and hashes by n and the packed rows.
    """

    @classmethod
    def from_masks(cls, n: int, masks) -> "SetSystem":
        """Build from int bitmasks, collapsing duplicates (first occurrence
        wins); a bad set is numbered among the distinct ones."""
        if n < 1:
            raise ConstructionError(f"ground set must be nonempty, got n={n}")
        masks = list(dict.fromkeys(masks))
        if masks and (min(masks) < 0 or max(masks) >> n):
            k = next(k for k, m in enumerate(masks) if m < 0 or m >> n)
            raise ConstructionError(f"set #{k} has members outside [0, {n})")
        return cls._of_distinct(n, _bitops.pack_masks(masks, n))

    @classmethod
    def from_packed(cls, n: int, rows) -> "SetSystem":
        """Build from (m, words) uint64 packed rows, collapsing duplicates (first wins)."""
        rows, w = np.asarray(rows), _bitops.words_needed(n)
        if rows.dtype != np.uint64 or rows.ndim != 2 or rows.shape[1] != w:
            raise ConstructionError(f"packed rows must be a uint64 array of {w} words per set")
        return cls._of_distinct(n, rows[_bitops.distinct_rows(rows)])

    @classmethod
    def _of_distinct(cls, n: int, packed: np.ndarray) -> "SetSystem":
        """The family of packed rows known to be distinct, taking over the array."""
        if n < 1:
            raise ConstructionError(f"ground set must be nonempty, got n={n}")
        bad = _bitops.rows_outside(packed, n)
        if len(bad):
            raise ConstructionError(f"set #{bad[0]} has members outside [0, {n})")
        system = cls.__new__(cls)
        vars(system).update(n=n, packed=_read_only(packed))
        return system

    def __setattr__(self, name, value):
        raise AttributeError(f"SetSystem is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"SetSystem is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and np.array_equal(self.packed, other.packed)

    def __hash__(self):
        return hash((self.n, self.packed.tobytes()))

    def __repr__(self):
        return f"SetSystem(n={self.n!r}, sets={len(self)})"

    def __len__(self) -> int:
        return len(self.packed)

    @cached_property
    def masks(self) -> tuple[int, ...]:
        return _bitops.unpack_masks(self.packed)

    @cached_property
    def words(self) -> np.ndarray:
        """The packed matrix word-major, (words, m) and contiguous: the
        nearest-member searches of `packing` read a word of many sets at once."""
        return _read_only(np.ascontiguousarray(self.packed.T))

    @cached_property
    def sizes_array(self) -> np.ndarray:
        return _read_only(_bitops.row_sizes(self.packed))

    @cached_property
    def _nnz(self) -> int:
        return int(self.sizes_array.sum())

    @cached_property
    def incidence(self) -> _bitops.Incidence:
        """CSR element -> ascending indices of the sets containing it."""
        return _bitops.Incidence(*map(_read_only, _bitops.build_incidence(self.packed, self.n)))

    def count_costs(self, sample: Sample) -> CountCosts:
        """Price the counts of `sample` both ways: the expected incidence
        entries touched, t * nnz / n, against the packed words scanned,
        m * words * planes."""
        return CountCosts(
            _bitops.NS_PER_ENTRY * sample.t * self._nnz / self.n,
            _bitops.NS_PER_WORD * self.packed.size * len(sample.plane_members),
        )

    def counts(self, sample: Sample) -> np.ndarray:
        """|A & S| for every set S (multiplicity-weighted in WITH mode), as
        exact int64: a popcount scan of the packed rows, or a bincount over
        the incidence index when that is cheaper (`count_costs`) and bought.

        Ski rental: a query that the index would serve more cheaply pays its
        dense-scan cost into this family's ledger, and the index is built
        when the ledger reaches m * words * `_bitops.NS_PER_BUILD_WORD`
        (about 85 dense scans), so a family queried once or twice never
        builds it and one queried without end spends at most about twice
        what knowing its number of queries in advance would."""
        cost = self.count_costs(sample)
        if cost.incidence_ns < cost.dense_ns:
            with _INCIDENCE_LOCK:
                spent = self.__dict__.get("_rent_ns", 0.0) + cost.dense_ns
                self.__dict__["_rent_ns"] = spent
                paid = spent >= _bitops.NS_PER_BUILD_WORD * self.packed.size
                index = self.incidence if paid or "incidence" in self.__dict__ else None
            if index is not None:
                return _bitops.incidence_counts(index, sample.plane_members, len(self))
        return _bitops.intersection_sizes(self.packed, sample.planes)

    # -- the family protocol (see `sampling`) --------------------------------

    def error_report(self, sample: Sample, eps) -> ApproximationReport:
        eps = _check_verifier_inputs(self, sample, eps)
        return worst_of_counts(self.n, sample.t, eps, self.sizes_array, self.counts(sample))

    def trace_on(self, sample: Sample) -> "Trace":
        """The trace F|_A on the sample's support A, over [0, |A|)."""
        _check_ground_set(self, sample)
        support = np.bitwise_or.reduce(sample.planes, axis=0)
        rows = _bitops.distinct_rows(self.packed & support)
        return Trace(self, sample.support_array, _read_only(rows))


@dataclass(frozen=True, eq=False)
class Trace:
    """F|_A over [0, |A|), family element `columns[j]` becoming element j:
    the traces of the family's `rows`, the first of each distinct row ANDed
    with A.  Only `materialize` gathers them: a set's size and count are the
    family's exact counts of A and of the sample lifted through `columns`."""

    family: SetSystem
    columns: np.ndarray
    rows: np.ndarray

    @property
    def n(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def sizes(self) -> np.ndarray:
        return _read_only(self.family.counts(Sample(self.family.n, self.columns))[self.rows])

    def error_report(self, sample: Sample, eps) -> ApproximationReport:
        eps = _check_verifier_inputs(self, sample, eps)
        elements = self.columns[sample.support_array]
        lifted = Sample(self.family.n, elements, sample.multiplicity_array)
        counts = self.family.counts(lifted)[self.rows]
        return worst_of_counts(self.n, sample.t, eps, self.sizes, counts)

    def materialize(self) -> SetSystem:
        """The trace as a SetSystem over [0, |A|): its distinct rows, gathered."""
        gathered = _bitops.gather_columns(self.family.packed[self.rows], self.columns)
        return SetSystem._of_distinct(self.n, gathered)


def new_set_system(n: int, sets) -> SetSystem:
    """Build a SetSystem from index lists; duplicate sets and indices collapse.

    The sets are read, checked and packed one `_bitops.block_rows` block of
    rows at a time, so the dense (sets, n) flag matrix is never held whole.
    """
    if n < 1:
        raise ConstructionError(f"ground set must be nonempty, got n={n}")
    width = 64 * _bitops.words_needed(n)
    sets, step = iter(sets), _bitops.block_rows(width)
    blocks, first = [np.zeros((0, width // 64), dtype=np.uint64)], 0
    while block := [list(s) for s in itertools.islice(sets, step)]:
        blocks.append(_bitops.pack_flags(_member_flags(n, width, block, first)))
        first += len(block)
    return SetSystem.from_packed(n, np.concatenate(blocks))


def _member_flags(n: int, width: int, block: list, first: int) -> np.ndarray:
    """The (sets, width) flags of a block of index lists, set #first the
    first.  A block of exact ints (not bools) is range-checked and filled by
    a few array operations; any other is checked member by member, and
    refused at its first bad index."""
    flags = np.zeros((len(block), width), dtype=bool)
    members = list(itertools.chain.from_iterable(block))
    if set(map(type, members)) <= {int}:
        try:
            columns = np.array(members, dtype=np.int64)
        except OverflowError:  # beyond int64, so out of range: refused below
            columns = None
        if columns is not None and (not len(columns) or 0 <= columns.min() <= columns.max() < n):
            flags[np.repeat(np.arange(len(block)), [len(s) for s in block]), columns] = True
            return flags
    for k, s in enumerate(block):
        bad = [i for i in s if not (_is_int(i) and 0 <= i < n)]
        if bad:
            raise ConstructionError(
                f"set #{first + k} has index {bad[0]!r}, not an integer in [0, {n})"
            )
        flags[k, s] = True
    return flags


# --- JSON file format (stable contract) ------------------------------------
#
# {"n": <int>, "sets": [[strictly ascending ints], ...]}


def write_json(system: SetSystem, path) -> None:
    sets = [_bitops.indices_from_mask(m).tolist() for m in system.masks]
    with open(path, "w") as fh:
        json.dump({"n": system.n, "sets": sets}, fh)
        fh.write("\n")


def read_json(path) -> SetSystem:
    """Read the set-system JSON format, applying constructor dedup.  The
    members are checked by `new_set_system`, and only then for ascent."""
    doc = _read_json_object(path, ("n", "sets"))
    n, sets = doc["n"], doc["sets"]
    if not _is_int(n):
        raise ConstructionError(f"{path}: 'n' must be an integer")
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise ConstructionError(f"{path}: 'sets' must be a list of lists")
    try:
        system = new_set_system(n, sets)
    except ConstructionError as exc:
        raise ConstructionError(f"{path}: {exc}") from None
    for k, s in enumerate(sets):
        if any(a >= b for a, b in zip(s, s[1:])):
            raise ConstructionError(f"{path}: set #{k} is not strictly ascending")
    return system
