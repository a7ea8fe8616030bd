"""Finite set systems over a ground set [0, n) and their combinatorial primitives.

The ground set is always {0, ..., n-1}.  A SetSystem stores a deduplicated,
order-preserving family of subsets as one packed matrix (`_bitops`) and
answers the family protocol of `sampling` from it; its trace on a sample is
a `Trace`, which gathers only its distinct rows and only in `materialize`
(`restrict` materializes the trace on a mask).  Every count |A & S| of a
family's own sets, behind a verifier, a trace or the chain's telescoping
audit, comes from `SetSystem.counts`, which owns the choice of kernel and
the purchase of the incidence index.  The audit's part rows S \\ P and
P \\ S are not sets of the family: `chaining._parts` counts them with
`_bitops.intersection_sizes` against the sample's packed planes.  Subsets
are bitmasks (Python ints) in the functions below.  All operations are
pure; SetSystem and Trace are immutable and safe to share.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _bitops
from .errors import ConstructionError, GuardExceeded
from .sampling import (
    ApproximationReport,
    Sample,
    _check_ground_set,
    _check_verifier_inputs,
    _is_int,
    _read_json_object,
    _read_only,
    big_size_limit,
    error_numerators,
    make_rng,
    uniform_sample,
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

    def __init__(self, n: int, masks):
        """The family of the distinct int `masks`; duplicate sets are rejected."""
        packed = _pack(n, masks, dedup=False)
        if len(_bitops.distinct_rows(packed)) != len(packed):
            raise ConstructionError("family contains duplicate sets")
        vars(self).update(n=n, packed=packed)

    @classmethod
    def from_masks(cls, n: int, masks) -> "SetSystem":
        """Build from raw bitmasks, collapsing duplicates (first occurrence wins)."""
        return cls.from_packed(n, _pack(n, masks, dedup=True))

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
    def sizes(self) -> tuple[int, ...]:
        return tuple(self.sizes_array.tolist())

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
        _check_verifier_inputs(self, sample)
        return worst_of_counts(self.n, sample.t, eps, self.sizes_array, self.counts(sample))

    def max_additive_numerator(self, sample: Sample) -> int:
        """max over S of |s t - c n|, the largest additive error scaled by
        n t, exactly (0 for an empty family)."""
        _check_verifier_inputs(self, sample)
        if len(self) == 0:
            return 0
        counts = self.counts(sample)
        return int(error_numerators(self.n, sample.t, self.sizes_array, counts).max())

    def is_eps_net(self, sample: Sample, eps) -> bool:
        _check_verifier_inputs(self, sample)
        big = self.sizes_array >= big_size_limit(self.n, eps)
        if not big.any():
            return True
        return bool((self.counts(sample)[big] > 0).all())

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
        _check_verifier_inputs(self, sample)
        elements = self.columns[sample.support_array]
        lifted = Sample(self.family.n, elements, sample.multiplicity_array)
        counts = self.family.counts(lifted)[self.rows]
        return worst_of_counts(self.n, sample.t, eps, self.sizes, counts)

    def materialize(self) -> SetSystem:
        """The trace as a SetSystem over [0, |A|): its distinct rows, gathered."""
        gathered = _bitops.gather_columns(self.family.packed[self.rows], self.columns)
        return SetSystem._of_distinct(self.n, gathered)


def _pack(n: int, masks, dedup: bool) -> np.ndarray:
    """The caller's int masks as packed rows; a bad set's index counts after dedup if `dedup`."""
    if n < 1:
        raise ConstructionError(f"ground set must be nonempty, got n={n}")
    masks = list(masks)
    if masks and (min(masks) < 0 or max(masks) >> n):
        family = dict.fromkeys(masks) if dedup else masks
        k = next(k for k, m in enumerate(family) if m < 0 or m >> n)
        raise ConstructionError(f"set #{k} has members outside [0, {n})")
    return _bitops.pack_masks(masks, n)


def new_set_system(n: int, sets) -> SetSystem:
    """Build a SetSystem from index lists; duplicate sets and indices collapse."""
    if n < 1:
        raise ConstructionError(f"ground set must be nonempty, got n={n}")
    sets = [list(s) for s in sets]
    flags = np.zeros((len(sets), n), dtype=bool)
    for k, s in enumerate(sets):
        bad = [i for i in s if not (_is_int(i) and 0 <= i < n)]
        if bad:
            raise ConstructionError(f"set #{k} has index {bad[0]!r}, not an integer in [0, {n})")
        flags[k, s] = True
    return SetSystem.from_packed(n, _bitops.pack_flags(flags))


class RestrictResult(NamedTuple):
    system: SetSystem
    index_map: dict[int, int]  # original index -> dense index in the trace


def restrict(system: SetSystem, y: int) -> RestrictResult:
    """Trace F|_Y as a SetSystem over Y re-indexed densely in ascending order."""
    sample = Sample.from_mask(system.n, y)
    if not sample.t:
        raise ConstructionError("cannot restrict to the empty set (n >= 1 required)")
    index_map = {orig: new for new, orig in enumerate(sample.support)}
    return RestrictResult(system.trace_on(sample).materialize(), index_map)


def is_shattered(system: SetSystem, y: int, guard: int = 30) -> bool:
    """Whether the trace on Y realizes all 2^|Y| subsets of Y."""
    sample = Sample.from_mask(system.n, y)
    if sample.t > guard:
        raise GuardExceeded(
            f"|Y| = {sample.t} exceeds the shatter guard of {guard}; "
            "pass a larger guard= to search sets this big"
        )
    return len(system.trace_on(sample)) == 1 << sample.t


class VcResult(NamedTuple):
    dim: int  # largest shattered size found (-1 for an empty family)
    truncated: bool  # True: a set of size max_d is shattered, search stopped there


def vc_dimension(system: SetSystem, max_d: int = 10) -> VcResult:
    """Exact VC dimension up to max_d, by level-wise shatter search.

    Searches candidate sets by increasing size; a set can only be shattered
    if all its subsets are, so level s+1 candidates extend level-s survivors.
    If some set of size max_d is shattered the result is truncated: the true
    dimension is >= max_d and was not determined.
    """
    if len(system) == 0:
        return VcResult(-1, False)
    shattered_prev: set[int] = {0}  # the empty set, shattered by any nonempty family
    for s in range(1, max_d + 1):
        shattered_now: set[int] = set()
        for y in shattered_prev:
            for x in range(y.bit_length(), system.n):  # each candidate once
                cand = y | (1 << x)
                # apriori prune: every (s-1)-subset must itself be shattered
                members = _bitops.indices_from_mask(cand).tolist()
                if all((cand ^ 1 << e) in shattered_prev for e in members):
                    if is_shattered(system, cand, guard=max_d):
                        shattered_now.add(cand)
        if not shattered_now:
            return VcResult(s - 1, False)
        shattered_prev = shattered_now
    return VcResult(max_d, True)


@dataclass(frozen=True)
class GrowthCheck:
    y_size: int
    trace_size: int
    bound: float  # (e |Y| / d)^d

    @property
    def ok(self) -> bool:
        return self.trace_size <= self.bound


@dataclass(frozen=True)
class GrowthReport:
    d: int
    checks: tuple[GrowthCheck, ...]

    @property
    def violations(self) -> tuple[GrowthCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    @property
    def ok(self) -> bool:
        return not self.violations


def growth_bound_check(
    system: SetSystem, d: int, samples: int = 20, seed: int = 0
) -> GrowthReport:
    """Spot-check the growth bound |F|_Y| <= (e|Y|/d)^d on random Y plus Y = X."""
    if d < 1:
        raise ConstructionError(f"growth parameter d must be >= 1, got {d}")
    rng = make_rng(seed)
    checks = []
    sizes = []
    if system.n >= d:
        sizes.append(system.n)  # Y = X
        for _ in range(samples):
            sizes.append(int(rng.integers(d, system.n + 1)))
    for y_size in sizes:
        y = uniform_sample(system.n, y_size, rng) if y_size < system.n else Sample.full(system.n)
        bound = (math.e * y_size / d) ** d
        checks.append(GrowthCheck(y_size, len(system.trace_on(y)), bound))
    return GrowthReport(d, tuple(checks))


# --- JSON file format (stable contract) ------------------------------------
#
# {"n": <int>, "sets": [[strictly ascending ints], ...]}


def write_json(system: SetSystem, path) -> None:
    sets = [_bitops.indices_from_mask(m).tolist() for m in system.masks]
    with open(path, "w") as fh:
        json.dump({"n": system.n, "sets": sets}, fh)
        fh.write("\n")


class ReadResult(NamedTuple):
    system: SetSystem
    dedup_occurred: bool


def read_json(path) -> ReadResult:
    """Read the set-system JSON format, applying constructor dedup."""
    doc = _read_json_object(path, ("n", "sets"))
    n, sets = doc["n"], doc["sets"]
    if not _is_int(n):
        raise ConstructionError(f"{path}: 'n' must be an integer")
    if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
        raise ConstructionError(f"{path}: 'sets' must be a list of lists")
    for k, s in enumerate(sets):
        if not all(map(_is_int, s)):
            raise ConstructionError(f"{path}: set #{k} has a non-integer member")
        if any(a >= b for a, b in zip(s, s[1:])):
            raise ConstructionError(f"{path}: set #{k} is not strictly ascending")
    system = new_set_system(n, sets)
    return ReadResult(system, dedup_occurred=len(system) != len(sets))
