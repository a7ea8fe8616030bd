"""Greedy maximal packings under symmetric-difference distance.

An alpha-packing is a subfamily whose members are pairwise >= alpha apart in
symmetric-difference size; it is maximal when every family member is within
distance < alpha of some packing member.  The greedy construction scans the
family in index order, so the result is deterministic; the cover map (every
set's nearest admitted member, ties to the lowest member index) doubles as
the maximality certificate.

Nearest members are found by a hinted search: each set comes with one member
(its hint) and meets only the members in its own ball around the hint, which
the triangle inequality proves holds its nearest members, ties included,
whatever the hint (pivot-based exact search).  The greedy scan's hints are
each set's nearest seed, or the admitted member that first came within alpha
of it; seeds given as a coarser `Packing` come with their cover map, which
hints the nearest seeds themselves.  After one pass over the seeds the admit
loop scans only the sets still >= alpha from every member so far, and the
cover map is one hinted search at the end.  The verifier hints with each
set's claimed cover when that is a member, so a wrong claim only widens the
search and its verdict never rests on the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _distances(packed: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (len(rows), len(rows)) int64 table of |packed[rows_i] ^ packed[rows_j]|."""
    words = np.ascontiguousarray(packed[rows].T)
    return _bitops.symdiff_sizes(words[:, :, None], words[:, None])


def _nearest_member(
    system: SetSystem, members: np.ndarray, hint: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every set's distance to its nearest member and that member's index,
    ties to the lowest index (int64 max and -1 without members).

    `hint` holds a member index for every set, or -1 for the lowest member.
    A set S hinted with h meets only the members m with d(h, m) <= 2 d(S, h):
    a member at least as near to S as h has d(h, m) <= d(h, S) + d(S, m)
    <= 2 d(S, h), so the nearest members, ties included, are among them
    whatever the hint.  With each row of the member distance table sorted,
    those candidates are a prefix of the hint's row.  The sets, ordered by
    candidate count, meet their j-th candidates together at step j, one
    L2-sized block of sets at a time.
    """
    packed = system.packed
    order = np.unique(members)
    fam, k = len(system), len(order)
    if not k:
        return np.full(fam, _BIG, dtype=np.int64), np.full(fam, -1, dtype=np.int64)
    member_words = np.ascontiguousarray(packed[order].T)
    rank = np.searchsorted(order, hint)  # -1 sorts first, to the lowest member
    reach = _bitops.symdiff_sizes(packed.T, member_words, rank)  # d(S, hint)
    hinted = np.bincount(rank, minlength=k) > 0
    row = np.cumsum(hinted)[rank] - 1  # the row of the set's hint in the table
    table = _bitops.symdiff_sizes(member_words[:, hinted, None], member_words[:, None])
    near = np.argsort(table, axis=1, kind="stable")
    # one searchsorted over the sorted rows laid end to end, row r shifted
    # by r * span (a distance is at most n, a bound 2 d(S, h) at most 2n)
    span = 2 * system.n + 1
    flat = np.take_along_axis(table, near, axis=1) + span * np.arange(len(table))[:, None]
    count = np.searchsorted(flat.ravel(), span * row + 2 * reach, side="right") - k * row
    by = np.argsort(-count, kind="stable")
    # candidate 0 is the hint itself (members are distinct); the best so far
    # is kept as distance * k + member rank, so ties go to the lowest rank
    best = reach[by] * k + rank[by]
    count, row, near = count[by], row[by], np.ascontiguousarray(near.T)
    # a block's words and per-set buffers stay in L2
    step = _bitops.block_rows(8 * len(member_words) + 32)
    for s in range(0, fam, step):
        if count[s] < 2:
            break
        words = np.ascontiguousarray(packed[by[s : s + step]].T)
        serves = np.searchsorted(-count[s : s + step], -np.arange(1, count[s]), side="left")
        block_best, block_row = best[s : s + step], row[s : s + step]
        for j, p in enumerate(serves.tolist(), start=1):
            cand = near[j][block_row[:p]]
            apart = _bitops.symdiff_sizes(words[:, :p], member_words, cand)
            np.minimum(block_best[:p], apart * k + cand, out=block_best[:p])
    dist, arg = np.empty(fam, dtype=np.int64), np.empty(fam, dtype=np.int64)
    dist[by], arg[by] = best // k, order[best % k]
    return dist, arg


def greedy_maximal_packing(
    system: SetSystem, alpha, seed_members: Sequence[int] | Packing = ()
) -> Packing:
    """Scan in family-index order, admitting every set >= alpha from all
    admitted members.

    `seed_members` (family indices) are admitted first, in the given order;
    they must be pairwise >= alpha apart.  Seeding a coarser packing yields
    a maximal finer packing that contains it (used by the chain builder).
    Given a `Packing`, its members are the seeds and its cover map hints
    each set's nearest seed (an entry that is not a seed hints nothing); the
    result does not depend on the hints.
    """
    if not alpha > 0:
        raise ConstructionError(f"alpha must be positive, got {alpha}")
    fam = len(system)
    seed_hint = np.full(fam, -1)
    if isinstance(seed_members, Packing):
        seed_hint = seed_members.cover_array
        if len(seed_hint) != fam:
            raise ConstructionError(
                f"seed packing covers {len(seed_hint)} sets, the family has {fam}"
            )
        seed_members = seed_members.member_indices
    bad = [k for k in seed_members if not 0 <= k < fam]
    if bad:
        raise ConstructionError(f"seed member {bad[0]} is outside the family's [0, {fam})")
    if fam == 0:
        return Packing(alpha, (), ())

    if alpha <= 1:
        # distinct sets are >= 1 apart, so everything is admitted
        return Packing(alpha, tuple(range(fam)), np.arange(fam))

    need = math.ceil(alpha)  # an integer distance d is >= alpha iff d >= need
    seeds = np.array(seed_members, dtype=np.int64)
    close = _distances(system.packed, seeds)
    close[np.triu_indices(len(seeds))] = _BIG  # each seed against the earlier ones
    early = np.flatnonzero(close.min(axis=1, initial=_BIG) < need)
    if len(early):
        i = int(early[0])
        raise ConstructionError(
            f"seed member {seed_members[i]} is within {close[i].min()} < alpha of an earlier seed"
        )
    # a set's hint is its nearest seed, or else the admitted member that took
    # it out of the far set (the sets still >= alpha from every member so far);
    # each admit scans only what is left of the far set
    seed_hint = np.where(np.isin(seed_hint, seeds), seed_hint, -1)
    seed_dist, hint = _nearest_member(system, seeds, seed_hint)
    members = [int(k) for k in seed_members]
    far = np.flatnonzero(seed_dist >= need)
    words = np.ascontiguousarray(system.packed[far].T)
    while len(far):
        k = int(far[0])
        members.append(k)
        keep = _bitops.symdiff_sizes(words[:, 1:], words[:, :1]) >= need
        hint[k] = k
        hint[far[1:][~keep]] = k
        far, words = far[1:][keep], words[:, 1:][:, keep]
    _, cover = _nearest_member(system, np.array(members), hint)
    return Packing(alpha, tuple(members), cover)


def verify_packing(system: SetSystem, packing: Packing) -> None:
    """Independent re-check of the packing and maximality certificates."""
    mem = packing.member_indices
    alpha = packing.alpha
    bad = [k for k in mem if not 0 <= k < len(system)]
    if bad:
        raise AuditFailure(f"member {bad[0]} is outside the family's [0, {len(system)})")
    if sorted(set(mem)) != sorted(mem):
        raise AuditFailure("duplicate member indices")
    mem_arr = np.array(mem, dtype=np.int64)
    need = math.ceil(alpha)
    apart = _distances(system.packed, mem_arr)
    np.fill_diagonal(apart, _BIG)
    close = np.flatnonzero(apart.min(axis=1, initial=_BIG) < need)
    if len(close):
        i = int(close[0])
        j = int(apart[i].argmin())
        raise AuditFailure(f"members {mem[i]} and {mem[j]} are {apart[i, j]} apart")
    if len(packing.cover_map) != len(system):
        raise AuditFailure("cover map is not total")
    # recompute nearest member (ties to lowest member index) from scratch; a
    # claimed cover that is a member only hints where to look, and a wrong
    # claim widens the search without changing its result
    cover = packing.cover_array
    non_member = ~np.isin(cover, mem_arr)
    best_dist, best_member = _nearest_member(system, mem_arr, np.where(non_member, -1, cover))
    far = best_dist >= need
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
    deltas = delta_system(system, packing)
    if len(deltas) > 0:
        eps = packing.alpha / system.n
        report = relative_error(deltas, sample, eps)
        if not report.passes(0.5):
            raise PreconditionFailed(
                "sample is not a relative (alpha/n, 1/2)-approximation of the "
                f"delta system (worst ratio {float(report.worst_ratio):.6g})"
            )
    members = SetSystem._of_distinct(system.n, system.packed[list(packing.member_indices)])
    return len(members.trace_on(sample)) == len(members)


def packing_size_bound(n: int, alpha: float, d: int, c3: float) -> float:
    """(c3 n / alpha)^(2d); meaningful as a bound for alpha >= 2."""
    if n < 1 or not alpha > 0 or d < 1:
        raise ConstructionError(f"bad arguments {(n, alpha, d)}")
    return (c3 * n / alpha) ** (2 * d)
