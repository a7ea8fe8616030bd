"""Greedy maximal packings under symmetric-difference distance.

An alpha-packing is a subfamily whose members are pairwise >= alpha apart in
symmetric-difference size; it is maximal when every family member is within
distance < alpha of some packing member.  The greedy construction scans the
family in index order, so the result is deterministic; the cover map (every
set's nearest admitted member, ties to the lowest member index) doubles as
the maximality certificate.

Nearest members are found by a pivot search: each set comes with a member
(its pivot) at a known distance and meets only the members in its own ball
around the pivot, which the triangle inequality proves holds its nearest
members, ties included, whatever the pivot (pivot-based exact search).  A
finer packing is seeded with the coarser one, and its greedy scan starts
from every set's nearest seed and its distance: each level's nearest-member
map is the next level's (`_nested_packings`), so no seed is searched for.
The admit loop scans only the sets still >= alpha from every member so far,
and records the distance from each set it takes out of them to the member
that took it; the cover map is one search pivoted on each set's nearest
seed or that member, at the recorded distance.  The verifier pivots each
set on its claimed cover when that is a member, so a wrong claim only
widens the search and its verdict never rests on the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _bitops
from .errors import AuditFailure, ConstructionError
from .sampling import _int64_vector
from .set_system import SetSystem

_BIG = np.iinfo(np.int64).max


@dataclass(frozen=True, eq=False)
class Packing:
    """Members in admission order and the cover map (family index -> covering
    member), as read-only int64 copies under `Sample`'s integer rules."""

    alpha: float
    member_indices: np.ndarray
    cover_map: np.ndarray

    def __post_init__(self):
        _check_alpha(self.alpha)
        for name in ("member_indices", "cover_map"):
            values = _int64_vector(getattr(self, name), name, f"{name} must fit in int64")
            object.__setattr__(self, name, values)

    @property
    def size(self) -> int:
        return len(self.member_indices)

    def to_json_dict(self) -> dict:
        return {
            "alpha": float(self.alpha),
            "member_indices": self.member_indices.tolist(),
            "cover_map": self.cover_map.tolist(),
        }


def _check_alpha(alpha) -> None:
    if isinstance(alpha, bool) or not 0 < alpha < math.inf:
        raise ConstructionError(f"alpha must be positive and finite, got {alpha}")


def _distances(system: SetSystem, rows: np.ndarray) -> np.ndarray:
    """The (len(rows), len(rows)) int64 table of |S_i ^ S_j| over the given sets."""
    words = system.words.take(rows, axis=1)
    return _bitops.symdiff_sizes(words[:, :, None], words[:, None])


def _positions(order: np.ndarray, fam: int, index: np.ndarray) -> np.ndarray:
    """Each family index's position in the ascending `order` (index -1, and
    any index not in it, at position 0)."""
    pos = np.zeros(fam + 1, dtype=np.int64)
    pos[order] = np.arange(len(order))
    return pos[index]


def _nearest_member(
    system: SetSystem, members: np.ndarray, hint: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every set's distance to its nearest member and that member's index,
    ties to the lowest index (int64 max and -1 without members).

    `hint` holds a member index for every set, or -1 for the lowest member:
    each set is searched from its hint (`_search`).
    """
    order = np.unique(members)
    fam = len(system)
    if not len(order):
        return np.full(fam, _BIG, dtype=np.int64), np.full(fam, -1, dtype=np.int64)
    rank = _positions(order, fam, hint)
    reach = _bitops.symdiff_sizes(system.words, system.words.take(order, axis=1), rank)
    return _search(system, order, rank, reach)


def _search(
    system: SetSystem, members: np.ndarray, rank: np.ndarray, reach: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every set's distance to its nearest member and that member's index,
    ties to the lowest index, given each set's pivot, the member
    members[rank], and their distance `reach` (`members` ascending).

    A set S pivoted on p meets only the members m with d(p, m) <= 2 d(S, p):
    a member at least as near to S as p has d(p, m) <= d(p, S) + d(S, m)
    <= 2 d(S, p), so the nearest members, ties included, are among them
    whatever the pivot (pivot-based exact search).  With each row of the
    member distance table sorted, those candidates are a prefix of the
    pivot's row, which starts with the pivot itself.  The sets with a
    candidate besides their pivot, ordered by candidate count, meet their
    j-th candidates together at step j, one L2-sized block of sets at a time.
    """
    words, k = system.words, len(members)
    member_words = words.take(members, axis=1)
    hinted = np.bincount(rank, minlength=k) > 0
    row = np.cumsum(hinted)[rank] - 1  # the pivot's row in the table
    table = _bitops.symdiff_sizes(member_words[:, hinted, None], member_words[:, None])
    near = np.argsort(table, axis=1, kind="stable")
    ranked = np.take_along_axis(table, near, axis=1)
    # the sets with a candidate besides their pivot, and how many: one
    # searchsorted over the sorted rows laid end to end, row r shifted by
    # r * span (a distance is at most n, a radius 2 d(S, p) at most 2n)
    span = 2 * system.n + 1
    radius = 2 * reach
    second = ranked[:, 1] if k > 1 else np.full(len(ranked), span)
    todo = np.flatnonzero(radius >= second[row])
    flat = ranked + span * np.arange(len(ranked))[:, None]
    at = row[todo]
    count = np.searchsorted(flat.ravel(), span * at + radius[todo], side="right") - k * at
    fewer = k - count  # ascending for the sets with the most candidates first
    most = np.argsort(fewer.astype(np.uint16) if k < 1 << 16 else fewer, kind="stable")
    by, count, row_by = todo[most], count[most], at[most]
    # the best so far is kept as distance * k + member rank, so ties go to
    # the lowest rank
    best = reach[by] * k + rank[by]
    near = np.ascontiguousarray(near.T)
    # a block's words and per-set buffers stay in L2
    step = _bitops.block_rows(8 * len(words) + 32)
    for s in range(0, len(by), step):
        block = words.take(by[s : s + step], axis=1)
        serves = np.searchsorted(-count[s : s + step], -np.arange(1, count[s]), side="left")
        block_best, block_row = best[s : s + step], row_by[s : s + step]
        for j, p in enumerate(serves.tolist(), start=1):
            cand = near[j][block_row[:p]]
            apart = _bitops.symdiff_sizes(block[:, :p], member_words, cand)
            np.minimum(block_best[:p], apart * k + cand, out=block_best[:p])
    dist, arg = reach.copy(), members[rank]
    dist[by], arg[by] = best // k, members[best % k]
    return dist, arg


def _greedy(
    system: SetSystem, alpha, seeds: np.ndarray, seed_dist: np.ndarray, seed_arg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The greedy scan after its seeds, given every set's distance to its
    nearest seed and that seed (int64 max and -1 without seeds): the
    members, every set's distance to its nearest member and that member."""
    fam = len(system)
    need = math.ceil(alpha)  # an integer distance d is >= alpha iff d >= need
    if need <= 1:
        # distinct sets are >= 1 apart, so everything is admitted
        return np.arange(fam), np.zeros(fam, dtype=np.int64), np.arange(fam)
    members, hint, reach = _admit(system, need, seeds, seed_dist, seed_arg)
    if len(members) == len(seeds):
        return members, seed_dist, seed_arg
    return members, *_cover(system, members, hint, reach)


def _admit(
    system: SetSystem, need: int, seeds: np.ndarray, seed_dist: np.ndarray, seed_arg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The admit loop: the members, seeds first, every set's hint and its distance to it.

    A set's hint is its nearest seed, or else the admitted member that took
    it out of the far set (the sets still >= need from every member so far),
    at the distance that admit measured; each admit scans only what is left
    of the far set.
    """
    admitted = []
    hint, reach = seed_arg.copy(), seed_dist.copy()
    far = np.flatnonzero(seed_dist >= need)
    words = system.words.take(far, axis=1)
    while len(far):
        k = int(far[0])
        admitted.append(k)
        apart = _bitops.symdiff_sizes(words[:, 1:], words[:, :1])
        keep = apart >= need
        taken = ~keep
        hint[k], reach[k] = k, 0
        gone = far[1:][taken]
        hint[gone], reach[gone] = k, apart[taken]
        kept = np.flatnonzero(keep)
        far, words = far[1:][kept], words[:, 1:].take(kept, axis=1)
    return np.concatenate((seeds, np.array(admitted, dtype=np.int64))), hint, reach


def _cover(
    system: SetSystem, members: np.ndarray, hint: np.ndarray, reach: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every set's distance to its nearest member and that member, searched
    from its hint at the distance the seed map or the admit loop measured."""
    order = np.sort(members)
    return _search(system, order, _positions(order, len(system), hint), reach)


def _nested_packings(system: SetSystem, alphas) -> list[Packing]:
    """Greedy maximal packings at each of the decreasing scales `alphas`,
    each seeded with the packing before it (its members admitted first);
    each level's nearest-member map is the next level's seed map."""
    fam = len(system)
    members = np.empty(0, dtype=np.int64)
    dist, cover = np.full(fam, _BIG, dtype=np.int64), np.full(fam, -1)
    packings = []
    for alpha in alphas:
        members, dist, cover = _greedy(system, alpha, members, dist, cover)
        packings.append(Packing(alpha, members, cover))
    return packings


def greedy_maximal_packing(system: SetSystem, alpha) -> Packing:
    """Scan in family-index order, admitting every set >= alpha from all
    admitted members."""
    _check_alpha(alpha)
    return _nested_packings(system, [alpha])[0]


def verify_packing(system: SetSystem, packing: Packing) -> None:
    """Independent re-check of the packing and maximality certificates."""
    mem, cover, fam = packing.member_indices, packing.cover_map, len(system)
    outside = np.flatnonzero((mem < 0) | (mem >= fam))
    if len(outside):
        raise AuditFailure(f"member {mem[outside[0]]} is outside the family's [0, {fam})")
    if len(np.unique(mem)) != len(mem):
        raise AuditFailure("duplicate member indices")
    need = math.ceil(packing.alpha)
    apart = _distances(system, mem)
    np.fill_diagonal(apart, _BIG)
    close = np.flatnonzero(apart.min(axis=1, initial=_BIG) < need)
    if len(close):
        i = int(close[0])
        j = int(apart[i].argmin())
        raise AuditFailure(f"members {mem[i]} and {mem[j]} are {apart[i, j]} apart")
    if len(cover) != fam:
        raise AuditFailure("cover map is not total")
    # recompute nearest member (ties to lowest member index) from scratch; a
    # claimed cover that is a member only hints where to look, and a wrong
    # claim widens the search without changing its result
    non_member = ~np.isin(cover, mem)
    best_dist, best_member = _nearest_member(system, mem, np.where(non_member, -1, cover))
    far = best_dist >= need
    # a member is its own nearest member (the sets are distinct), so a member
    # covered by another fails the nearest-member check
    bad = np.flatnonzero(non_member | far | (cover != best_member))
    if len(bad):
        i = int(bad[0])
        c = cover[i]
        if non_member[i]:
            raise AuditFailure(f"set {i} covered by non-member {c}")
        if far[i]:
            raise AuditFailure(f"set {i} is {best_dist[i]} >= alpha from every member")
        raise AuditFailure(f"set {i}: cover {c} is not the nearest member")

