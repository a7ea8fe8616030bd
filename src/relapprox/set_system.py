"""Finite set systems over a ground set [0, n) and their combinatorial primitives.

The ground set is always {0, ..., n-1}; a subset is a bitmask (Python int).
A SetSystem stores a deduplicated, order-preserving family of subsets.  All
operations here are pure; SetSystem is immutable and safe to share.
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

# Guards every family's index purchase: the rent ledger's read-modify-write
# and the build, so concurrent queries build an index at most once.
_INCIDENCE_LOCK = threading.Lock()


@dataclass(frozen=True)
class Subset:
    """A subset of [0, n), with its cardinality cached."""

    n: int
    bits: int

    def __post_init__(self):
        if self.n < 1:
            raise ConstructionError(f"ground set must be nonempty, got n={self.n}")
        if self.bits < 0 or self.bits >> self.n:
            raise ConstructionError(
                f"subset mask {bin(self.bits)} has members outside [0, {self.n})"
            )

    @cached_property
    def size(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> list[int]:
        return _bitops.indices_from_mask(self.bits).tolist()

    @classmethod
    def from_indices(cls, n: int, indices) -> "Subset":
        bad = [i for i in indices if not 0 <= i < n]
        if bad:
            raise ConstructionError(f"index {bad[0]} outside ground set [0, {n})")
        return cls(n, _bitops.mask_from_indices(indices))


def symmetric_difference(a: Subset, b: Subset) -> Subset:
    """Exact symmetric difference of two subsets of the same ground set."""
    if a.n != b.n:
        raise ConstructionError(f"ground-set size mismatch: {a.n} vs {b.n}")
    return Subset(a.n, a.bits ^ b.bits)


@dataclass(frozen=True)
class SetSystem:
    """Ground set [0, n) plus a deduplicated family of subset masks.

    `masks` preserves the first-occurrence order of distinct input sets and
    is the canonical family order used by every index-valued result in this
    package (worst-set indices, packing member indices, cover maps).
    """

    n: int
    masks: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ConstructionError(f"ground set must be nonempty, got n={self.n}")
        for k, m in enumerate(self.masks):
            if m < 0 or m >> self.n:
                raise ConstructionError(f"set #{k} has members outside [0, {self.n})")
        if len(set(self.masks)) != len(self.masks):
            raise ConstructionError("family contains duplicate sets")

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def family_size(self) -> int:
        return len(self.masks)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.masks)

    @cached_property
    def family(self) -> tuple[Subset, ...]:
        return tuple(Subset(self.n, m) for m in self.masks)

    def subset(self, index: int) -> Subset:
        return Subset(self.n, self.masks[index])

    # Cached numpy views for bulk verification; cached_property writes to
    # __dict__ directly so this works on a frozen dataclass.
    @cached_property
    def packed(self) -> np.ndarray:
        return _bitops.pack_masks(self.masks, self.n)

    @cached_property
    def sizes_array(self) -> np.ndarray:
        return np.array(self.sizes, dtype=np.int64)

    @cached_property
    def incidence(self) -> _bitops.Incidence:
        """CSR element -> ascending indices of the sets containing it."""
        return _bitops.build_incidence(self.packed, self.n)

    def incidence_when_paid(self, rent_ns: float) -> _bitops.Incidence | None:
        """The incidence index once the dense work spent without it pays for
        building it, else None.

        Ski rental: a count query that the index would serve more cheaply
        pays its dense-scan cost `rent_ns` into this family's ledger, and the
        index is built when the ledger reaches the build cost, m * words *
        `_bitops.NS_PER_BUILD_WORD` (about 85 dense scans).  A family queried
        once or twice never builds it; one queried without end spends at most
        about twice what knowing its number of queries in advance would.
        """
        with _INCIDENCE_LOCK:
            if "incidence" not in self.__dict__:
                spent = self.__dict__.get("_rent_ns", 0.0) + rent_ns
                self.__dict__["_rent_ns"] = spent
                if spent < _bitops.NS_PER_BUILD_WORD * self.packed.size:
                    return None
            return self.incidence

    @classmethod
    def from_masks(cls, n: int, masks) -> "SetSystem":
        """Build from raw bitmasks, collapsing duplicates (first occurrence wins)."""
        return cls(n, tuple(dict.fromkeys(masks)))


def new_set_system(n: int, sets) -> SetSystem:
    """Build a SetSystem from index lists; duplicate sets and indices collapse."""
    if n < 1:
        raise ConstructionError(f"ground set must be nonempty, got n={n}")
    masks = []
    for k, s in enumerate(sets):
        m = 0
        for i in s:
            if not 0 <= i < n:
                raise ConstructionError(f"set #{k} contains index {i} outside [0, {n})")
            m |= 1 << i
        masks.append(m)
    return SetSystem.from_masks(n, masks)


class RestrictResult(NamedTuple):
    system: SetSystem
    index_map: dict[int, int]  # original index -> dense index in the trace


def restrict(system: SetSystem, y: int | Subset) -> RestrictResult:
    """Trace F|_Y as a SetSystem over Y re-indexed densely in ascending order."""
    y_bits = y.bits if isinstance(y, Subset) else y
    if y_bits < 0 or y_bits >> system.n:
        raise ConstructionError("restriction set has members outside the ground set")
    members = _bitops.indices_from_mask(y_bits)
    if not len(members):
        raise ConstructionError("cannot restrict to the empty set (n >= 1 required)")
    index_map = {orig: new for new, orig in enumerate(members.tolist())}
    traced = _bitops.gather_columns(system.packed, members)
    return RestrictResult(SetSystem.from_masks(len(members), traced), index_map)


def trace_count(system: SetSystem, y_bits: int) -> int:
    """Number of distinct traces |F|_Y| without materializing the trace system."""
    return len({m & y_bits for m in system.masks})


def is_shattered(system: SetSystem, y: int | Subset, guard: int = 30) -> bool:
    """Whether the trace on Y realizes all 2^|Y| subsets of Y."""
    y_bits = y.bits if isinstance(y, Subset) else y
    k = y_bits.bit_count()
    if k > guard:
        raise GuardExceeded(
            f"|Y| = {k} exceeds the shatter guard of {guard}; "
            "pass a larger guard= to search sets this big"
        )
    want = 1 << k
    seen: set[int] = set()
    for m in system.masks:
        seen.add(m & y_bits)
        if len(seen) == want:
            return True
    return False


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
            top = y.bit_length()
            for x in range(top, system.n):
                cand = y | (1 << x)
                # apriori prune: every (s-1)-subset must itself be shattered
                if s > 1:
                    ok = True
                    rem = cand
                    while rem:
                        low = rem & -rem
                        if (cand ^ low) not in shattered_prev:
                            ok = False
                            break
                        rem ^= low
                    if not ok:
                        continue
                if cand not in shattered_now and is_shattered(system, cand, guard=max_d):
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
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    checks = []
    sizes = []
    if system.n >= d:
        sizes.append(system.n)  # Y = X
        for _ in range(samples):
            sizes.append(int(rng.integers(d, system.n + 1)))
    for y_size in sizes:
        idx = rng.permutation(system.n)[:y_size] if y_size < system.n else range(system.n)
        y_bits = _bitops.mask_from_indices(int(i) for i in idx)
        tr = trace_count(system, y_bits)
        bound = (math.e * y_size / d) ** d
        checks.append(GrowthCheck(y_size, tr, bound))
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
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "n" not in doc or "sets" not in doc:
        raise ConstructionError(f"{path}: expected an object with 'n' and 'sets'")
    n, sets = doc["n"], doc["sets"]
    if not isinstance(n, int):
        raise ConstructionError(f"{path}: 'n' must be an integer")
    for k, s in enumerate(sets):
        if any(not isinstance(i, int) for i in s):
            raise ConstructionError(f"{path}: set #{k} has a non-integer member")
        if any(a >= b for a, b in zip(s, s[1:])):
            raise ConstructionError(f"{path}: set #{k} is not strictly ascending")
    system = new_set_system(n, sets)
    return ReadResult(system, dedup_occurred=len(system) != len(sets))
