"""Greedy maximal packings under symmetric-difference distance.

An alpha-packing is a subfamily whose members are pairwise >= alpha apart in
symmetric-difference size; it is maximal when every family member is within
distance < alpha of some packing member.  The greedy construction scans the
family in index order, so the result is deterministic; the cover map (every
set's nearest admitted member, ties to the lowest member index) doubles as
the maximality certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _bitops
from .errors import AuditFailure, ConstructionError, PreconditionFailed
from .sampling import Sample, relative_error
from .set_system import SetSystem

_BIG = np.iinfo(np.int64).max


@dataclass(frozen=True)
class Packing:
    alpha: float
    member_indices: tuple[int, ...]
    # family index -> covering member's index; any int sequence, also kept as `cover_array`
    cover_map: tuple[int, ...]

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConstructionError(f"alpha must be positive, got {self.alpha}")
        cover = np.array(self.cover_map, dtype=np.int64)
        cover.flags.writeable = False
        object.__setattr__(self, "cover_array", cover)
        object.__setattr__(self, "cover_map", tuple(cover.tolist()))

    @property
    def size(self) -> int:
        return len(self.member_indices)

    def to_json_dict(self) -> dict:
        return {
            "alpha": float(self.alpha),
            "member_indices": list(self.member_indices),
            "cover_map": list(self.cover_map),
        }


def _nearest_member(system: SetSystem, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every set's distance to its nearest member and that member's index,
    ties to the lowest index (int64 max and -1 without members)."""
    order = np.sort(members)
    dist, k = _bitops.nearest_rows(system.packed, system.packed[order])
    return dist, order[k] if len(order) else k


def greedy_maximal_packing(
    system: SetSystem, alpha, seed_members: Sequence[int] = ()
) -> Packing:
    """Scan in family-index order, admitting every set >= alpha from all
    admitted members.

    `seed_members` are admitted first, in the given order; they must
    themselves be pairwise >= alpha apart.  Seeding a coarser packing yields
    a maximal finer packing that contains it (used by the chain builder).
    """
    if not alpha > 0:
        raise ConstructionError(f"alpha must be positive, got {alpha}")
    fam = len(system)
    if fam == 0:
        return Packing(alpha, (), ())

    if alpha <= 1:
        # distinct sets are >= 1 apart, so everything is admitted
        return Packing(alpha, tuple(range(fam)), np.arange(fam))

    need = math.ceil(alpha)  # an integer distance d is >= alpha iff d >= need
    seeds = np.array(seed_members, dtype=np.int64)
    for i, k in enumerate(seed_members[1:], 1):
        d = _bitops.xor_sizes(system.packed[seeds[:i]], system.packed[k]).min()
        if d < need:
            raise ConstructionError(
                f"seed member {k} is within {d} < alpha of an earlier seed"
            )
    best_dist, best_member = _nearest_member(system, seeds)
    members = [int(k) for k in seed_members]

    k = 0
    while True:
        ahead = np.flatnonzero(best_dist[k:] >= need)
        if not len(ahead):
            break
        k += int(ahead[0])
        d = _bitops.xor_sizes(system.packed, system.packed[k])
        closer = (d < best_dist) | ((d == best_dist) & (k < best_member))
        best_dist[closer] = d[closer]
        best_member[closer] = k
        members.append(k)
    return Packing(alpha, tuple(members), best_member)


def verify_packing(system: SetSystem, packing: Packing) -> None:
    """Independent re-check of the packing and maximality certificates."""
    mem = packing.member_indices
    alpha = packing.alpha
    if sorted(set(mem)) != sorted(mem):
        raise AuditFailure("duplicate member indices")
    mem_arr = np.array(mem, dtype=np.int64)
    for k in mem:
        d = _bitops.xor_sizes(system.packed[mem_arr], system.packed[k])
        d[mem_arr == k] = _BIG
        if len(mem) > 1 and d.min() < alpha:
            raise AuditFailure(f"members {k} and {mem[int(d.argmin())]} are {d.min()} apart")
    if len(packing.cover_map) != len(system):
        raise AuditFailure("cover map is not total")
    # recompute nearest member (ties to lowest member index) from scratch
    best_dist, best_member = _nearest_member(system, mem_arr)
    cover = packing.cover_array
    non_member = ~np.isin(cover, mem_arr)
    far = best_dist >= math.ceil(alpha)
    # a member is its own nearest member (the sets are distinct), so a member
    # covered by another fails the nearest-member check
    bad = np.flatnonzero(non_member | far | (cover != best_member))
    if len(bad):
        i = int(bad[0])
        c = packing.cover_map[i]
        if non_member[i]:
            raise AuditFailure(f"set {i} covered by non-member {c}")
        if far[i]:
            raise AuditFailure(f"set {i} is {best_dist[i]} >= alpha from every member")
        raise AuditFailure(f"set {i}: cover {c} is not the nearest member")


def delta_system(system: SetSystem, packing: Packing) -> SetSystem:
    """The family of symmetric differences over distinct packing member pairs."""
    members = np.array(packing.member_indices, dtype=np.int64)
    a, b = np.triu_indices(len(members), 1)
    return SetSystem.from_packed(system.n, system.packed[members[a]] ^ system.packed[members[b]])


def packing_trace_property(system: SetSystem, packing: Packing, sample: Sample) -> bool:
    """Whether packing members have pairwise-distinct traces on the sample.

    Requires the sample to verify as a relative (alpha/n, 1/2)-approximation
    of the members' symmetric-difference system; when that holds the traces
    are provably distinct, and property tests assert exactly that.
    """
    if sample.n != system.n:
        raise ConstructionError(f"sample over [0, {sample.n}) but system over [0, {system.n})")
    deltas = delta_system(system, packing)
    if len(deltas) > 0:
        eps = packing.alpha / system.n
        report = relative_error(deltas, sample, eps)
        half = Fraction(1, 2) if isinstance(eps, Fraction) else 0.5
        if not report.passes(half):
            raise PreconditionFailed(
                "sample is not a relative (alpha/n, 1/2)-approximation of the "
                f"delta system (worst ratio {float(report.worst_ratio):.6g})"
            )
    members = system.packed[list(packing.member_indices)]
    traces = _bitops.distinct_rows(_bitops.gather_columns(members, sample.support_array))
    return len(traces) == len(members)


def packing_size_bound(n: int, alpha: float, d: int, c3: float) -> float:
    """(c3 n / alpha)^(2d); meaningful as a bound for alpha >= 2."""
    if n < 1 or not alpha > 0 or d < 1:
        raise ConstructionError(f"bad arguments {(n, alpha, d)}")
    return (c3 * n / alpha) ** (2 * d)
