"""Chaining decomposition: nested packings at geometrically shrinking scales.

Every set of the family is decomposed through a hierarchy of maximal
packings P_0 <= P_1 <= ... <= P_k (scale eps n / 2^i at level i, with
P_{k+1} = F implicit), each set linked to a nearby parent one level coarser.
The per-level difference families are small sets, so a sample that
approximates every level simultaneously approximates the whole family; the
telescoping audit below replays that argument for every set of the family
at once, deciding each inequality exactly in integers.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _bitops
from .errors import AuditFailure, ConstructionError, PreconditionFailed
from .packing import Packing, greedy_maximal_packing
from .sampling import (
    ApproximationReport,
    ApproxParams,
    Sample,
    error_numerators,
    exact_dtype,
    intersection_counts,
    relative_error,
)
from .set_system import SetSystem


@dataclass(frozen=True)
class ChainLevel:
    index: int
    alpha: float
    packing: Packing
    a_family: SetSystem  # distinct parts S \ parent over S in P_{i+1} \ P_i
    b_family: SetSystem  # distinct parts parent \ S
    ab_family: SetSystem  # their deduplicated union


@dataclass(frozen=True)
class ChainDecomposition:
    system: SetSystem
    eps: float
    delta: float
    k: int
    levels: tuple[ChainLevel, ...]  # indices 0..k

    @cached_property
    def level_eps(self) -> tuple[float, ...]:
        """Scale parameter per level i in [0, k-1]: sqrt((i+1)/2^i) * eps."""
        return tuple(
            math.sqrt((i + 1) / 2.0**i) * self.eps for i in range(self.k)
        )

    @cached_property
    def base_system(self) -> SetSystem:
        masks = [self.system.masks[i] for i in self.levels[0].packing.member_indices]
        return SetSystem.from_masks(self.system.n, masks)

    @cached_property
    def _member_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(lv.packing.member_indices) for lv in self.levels)


def chain_scale(eps: float, n: int, i: int) -> float:
    return eps * n / 2.0**i


def build_chain(system: SetSystem, eps: float, delta: float) -> ChainDecomposition:
    """Construct nested maximal packings and the per-level difference families.

    Nesting is enforced by seeding each finer greedy scan with the coarser
    packing's members, which keeps "P_{i+1} minus P_i" well defined; all
    invariants (nesting, parent distances, part sizes) are re-verified.
    """
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ConstructionError(f"need eps, delta in (0, 1), got {(eps, delta)}")
    n = system.n
    # the smallest k with 2^k delta >= 1 (finest scale eps n / 2^k <= eps n
    # delta), exactly: 2^k >= ceil(1 / delta); k >= 1 as delta < 1
    k = (math.ceil(1 / Fraction(delta)) - 1).bit_length()

    packings: list[Packing] = []
    for i in range(k + 1):
        seeds = packings[-1].member_indices if packings else ()
        packings.append(greedy_maximal_packing(system, chain_scale(eps, n, i), seeds))

    levels = []
    fam = len(system)
    for i in range(k + 1):
        mem_fine = (
            set(packings[i + 1].member_indices) if i < k else set(range(fam))
        )
        mem_coarse = set(packings[i].member_indices)
        cover = packings[i].cover_map
        a_masks, b_masks, ab_masks = [], [], []
        alpha = chain_scale(eps, n, i)
        for s_idx in sorted(mem_fine - mem_coarse):
            s_mask = system.masks[s_idx]
            p_mask = system.masks[cover[s_idx]]
            if (s_mask ^ p_mask).bit_count() >= alpha:
                raise AuditFailure(
                    f"parent distance at level {i} is >= alpha for set {s_idx}"
                )
            a_masks.append(s_mask & ~p_mask)
            b_masks.append(p_mask & ~s_mask)
        ab_masks = a_masks + b_masks
        a_fam = SetSystem.from_masks(n, a_masks)
        b_fam = SetSystem.from_masks(n, b_masks)
        ab_fam = SetSystem.from_masks(n, ab_masks)
        for part_size in (*a_fam.sizes, *b_fam.sizes):
            if part_size >= alpha:
                raise AuditFailure(f"difference part of size {part_size} >= alpha at level {i}")
        if len(a_fam) > len(mem_fine) or len(b_fam) > len(mem_fine):
            raise AuditFailure(f"difference family larger than P_{i + 1}")
        levels.append(ChainLevel(i, alpha, packings[i], a_fam, b_fam, ab_fam))

    chain = ChainDecomposition(system, eps, delta, k, tuple(levels))
    for fine, coarse in zip(chain._member_sets[1:], chain._member_sets[:-1]):
        if not coarse <= fine:
            raise AuditFailure("packings are not nested")
    return chain


# --- decomposition and reconstruction ---------------------------------------


@dataclass(frozen=True)
class ChainStep:
    level: int
    set_before: int  # mask of S_{i+1}
    set_after: int  # mask of S_i (the parent, possibly equal)
    a_part: int  # set_before \ set_after
    b_part: int  # set_after \ set_before


@dataclass(frozen=True)
class ChainRecord:
    family_index: int
    steps: tuple[ChainStep, ...]  # level k first, level 0 last
    base_mask: int  # S_0, a member of P_0

    def reconstruct(self) -> int:
        """Replay the chain upward; must reproduce the original set exactly."""
        mask = self.base_mask
        for step in reversed(self.steps):
            mask = (mask & ~step.b_part) | step.a_part
        return mask


def decompose(chain: ChainDecomposition, index: int) -> ChainRecord:
    """Walk parent links from S in F down to its representative in P_0."""
    if not 0 <= index < len(chain.system):
        raise ConstructionError(f"family index {index} out of range")
    steps = []
    cur = index
    for i in range(chain.k, -1, -1):
        parent = chain.levels[i].packing.cover_map[cur]
        s_mask = chain.system.masks[cur]
        p_mask = chain.system.masks[parent]
        steps.append(
            ChainStep(i, s_mask, p_mask, s_mask & ~p_mask, p_mask & ~s_mask)
        )
        cur = parent
    return ChainRecord(index, tuple(steps), chain.system.masks[cur])


# --- simultaneous approximation check ---------------------------------------


@dataclass(frozen=True)
class Claim7Item:
    condition: str  # "finest-level", "mid-level", "base-packing"
    level: int | None
    eps_used: float
    report: ApproximationReport

    def ok(self, delta: float) -> bool:
        return self.report.passes(delta)


@dataclass(frozen=True)
class Claim7Report:
    eps: float
    delta: float
    gamma: float | None
    items: tuple[Claim7Item, ...]

    @property
    def ok(self) -> bool:
        return all(item.ok(self.delta) for item in self.items)

    @property
    def failures(self) -> tuple[Claim7Item, ...]:
        return tuple(item for item in self.items if not item.ok(self.delta))


def claim7_check(chain: ChainDecomposition, sample: Sample, gamma: float | None = None) -> Claim7Report:
    """Exact check that the sample approximates every chain level at once:
    the finest difference family at eps, each mid level i at its scale
    eps_i, and the base packing at eps.  Each scale is taken as the exact
    value of its float, so the reports carry exact Fraction ratios."""
    conditions = [("finest-level", chain.k, chain.eps, chain.levels[chain.k].ab_family)]
    conditions += [
        ("mid-level", i, chain.level_eps[i], chain.levels[i].ab_family) for i in range(chain.k)
    ]
    conditions.append(("base-packing", None, chain.eps, chain.base_system))
    items = tuple(
        Claim7Item(name, level, e, relative_error(family, sample, Fraction(e)))
        for name, level, e, family in conditions
    )
    return Claim7Report(chain.eps, chain.delta, gamma, items)


# --- telescoping audit --------------------------------------------------------


@dataclass(frozen=True)
class AuditSummary:
    sets_audited: int
    # max over S of (|s t - c n| - floor(final_bound n t)) / (n t): less
    # than 1 / (n t) above total_err - final_bound, and positive exactly
    # when a set's final bound fails
    max_final_slack: float


def telescoping_audit_all(
    chain: ChainDecomposition, sample: Sample, claim7: Claim7Report | None = None
) -> AuditSummary:
    """Replay the per-level error accounting of the chaining argument for
    every set at once and check each of its inequalities exactly; raises
    AuditFailure naming the first violated condition and the lowest set
    index violating it.

    Every error |s/n - c/t| is compared through its numerator |s t - c n|
    (the error scaled by n t).  The identities and the triangle step are
    integer comparisons; a bound b * max(x, s/n) becomes numerator <=
    max(floor(b x n t), floor(b s t)), a fixed floor per level and a table
    over the sizes [0, n], with eps, delta and each eps_i taken as the exact
    values of their floats (the values claim7_check certified against).

    Requires a sample for which claim7_check passes (pass the report in to
    avoid recomputing it).
    """
    if claim7 is None:
        claim7 = claim7_check(chain, sample)
    if not claim7.ok:
        raise PreconditionFailed(
            "telescoping audit requires a sample passing claim7_check; "
            f"failing conditions: {[it.condition for it in claim7.failures]}"
        )
    system = chain.system
    n, t = system.n, sample.t
    eps, delta = Fraction(chain.eps), Fraction(chain.delta)
    level_eps = [Fraction(e) for e in chain.level_eps] + [eps]  # level k at eps
    fam = len(system)
    dtype = exact_dtype(max(n, 16), t)  # the final bound reaches 32 n t
    packed = system.packed
    planes = _bitops.pack_masks(sample.planes, n)
    sizes_all = system.sizes_array
    cnt_all = intersection_counts(system, sample)
    err_all = error_numerators(n, t, sizes_all, cnt_all, dtype)

    def floor_nt(x: Fraction) -> int:
        return math.floor(x * n * t)

    def size_floors(b: Fraction) -> np.ndarray:
        """floor(b s t) for every size s in [0, n]."""
        num, den = (b * t).numerator, (b * t).denominator
        return np.array([num * s // den for s in range(n + 1)], dtype=dtype)

    def fail(msg: str, bad: np.ndarray) -> None:
        raise AuditFailure(f"{msg} (first set index {int(np.flatnonzero(bad)[0])})")

    part_floor = size_floors(delta)
    cur = np.arange(fam)
    sum_b = np.zeros(fam, dtype=np.int64)
    for i in range(chain.k, -1, -1):
        level = chain.levels[i]
        cover = np.array(level.packing.cover_map, dtype=np.int64)
        parent = cover[cur]
        # below level k the sets share their few ancestors: one row each
        ancestors, inverse = np.unique(cur, return_inverse=True)
        a_sz, b_sz, a_cnt, b_cnt = _parts(packed, planes, ancestors, cover[ancestors])[:, inverse]
        if not np.array_equal(sizes_all[cur], sizes_all[parent] - b_sz + a_sz):
            fail(
                f"size identity broken at level {i}",
                sizes_all[cur] != sizes_all[parent] - b_sz + a_sz,
            )
        if not np.array_equal(cnt_all[cur], cnt_all[parent] - b_cnt + a_cnt):
            fail(
                f"count identity broken at level {i}",
                cnt_all[cur] != cnt_all[parent] - b_cnt + a_cnt,
            )
        a_err = error_numerators(n, t, a_sz, a_cnt, dtype)
        b_err = error_numerators(n, t, b_sz, b_cnt, dtype)
        bad = err_all[cur] > err_all[parent] + a_err + b_err
        if bad.any():
            fail(f"triangle step violated at level {i}", bad)
        scale_floor = floor_nt(delta * level_eps[i])
        for name, perr, psize in (("a", a_err, a_sz), ("b", b_err, b_sz)):
            bad = perr > np.maximum(part_floor[psize], scale_floor)
            if bad.any():
                fail(f"{name}-part error exceeds its claim bound at level {i}", bad)
            if (psize >= level.alpha).any():
                fail(f"{name}-part size >= alpha at level {i}", psize >= level.alpha)
        sum_b += b_sz
        cur = parent

    base_err = err_all[cur]
    bad = base_err > np.maximum(part_floor[sizes_all[cur]], floor_nt(delta * eps))
    if bad.any():
        fail("base-packing error exceeds its claim bound", bad)
    eps_sum = sum(level_eps[:-1])
    if eps_sum > 6 * eps:
        raise AuditFailure(f"sum of level scales {float(eps_sum)} exceeds 6 eps")
    bad = err_all - base_err > floor_nt(2 * delta * (eps_sum + eps))
    if bad.any():
        fail("telescoped error exceeds the chain bound", bad)
    if (sizes_all[cur] > sizes_all + sum_b).any():
        fail("base set larger than the set plus removed parts", sizes_all[cur] > sizes_all + sum_b)
    bad = sum_b > math.floor(2 * eps * n)
    if bad.any():
        fail("removed parts exceed 2 eps n", bad)
    final_floor = np.maximum(size_floors(2 * delta)[sizes_all], floor_nt(32 * delta * eps))
    slack = err_all - final_floor
    if (slack > 0).any():
        fail("final bound violated", slack > 0)
    # the paper-form finest-scale guarantee alpha_k = eps n / 2^k <= eps n delta
    if 2**chain.k * delta < 1:
        raise AuditFailure("finest scale exceeds eps n delta")
    return AuditSummary(fam, int(slack.max()) / (n * t) if fam else 0.0)


def _parts(packed: np.ndarray, planes: np.ndarray, sets: np.ndarray, parents: np.ndarray):
    """Rows |S \\ P|, |P \\ S| and their sample counts for each pair (S, P) of
    family indices, in row blocks of about `_bitops._BLOCK_BYTES`."""
    out = np.empty((4, len(sets)), dtype=np.int64)
    step = max(1, _bitops._BLOCK_BYTES // (8 * packed.shape[1]))
    for s in range(0, len(sets), step):
        child, par = packed[sets[s : s + step]], packed[parents[s : s + step]]
        for j, part in enumerate((child & ~par, ~child & par)):
            out[j, s : s + step] = _bitops.popcount_words(part).sum(axis=1, dtype=np.int64)
            out[2 + j, s : s + step] = _bitops.intersection_sizes(part, planes)
    return out


def rescale_and_verify(system: SetSystem, sample: Sample, eps: float, delta: float) -> bool:
    """Bridge from the audited (16 eps', 2 delta') bound to the plain
    definition: rebuild the chain at (eps/16, delta/2) and verify directly.

    A claim7 pass at the rescaled parameters must imply the direct check;
    a mismatch would contradict the audited derivation and raises."""
    chain = build_chain(system, eps / 16.0, delta / 2.0)
    rescaled_ok = claim7_check(chain, sample).ok
    direct = relative_error(system, sample, Fraction(eps)).passes(delta)
    if rescaled_ok and not direct:
        raise AuditFailure(
            "claim7 held at (eps/16, delta/2) but the sample fails the "
            "direct (eps, delta) check"
        )
    return rescaled_ok and direct


# --- summaries ----------------------------------------------------------------


def chain_summary(chain: ChainDecomposition) -> dict:
    levels = []
    for lv in chain.levels:
        sizes = lv.ab_family.sizes
        levels.append(
            {
                "level": lv.index,
                "alpha": lv.alpha,
                "packing_size": lv.packing.size,
                "a_family_size": len(lv.a_family),
                "b_family_size": len(lv.b_family),
                "max_part_size": max(sizes) if sizes else 0,
            }
        )
    return {
        "n": chain.system.n,
        "family_size": len(chain.system),
        "eps": chain.eps,
        "delta": chain.delta,
        "k": chain.k,
        "levels": levels,
    }


def write_chain_summary(chain: ChainDecomposition, path) -> None:
    """JSON or CSV depending on the file extension."""
    summary = chain_summary(chain)
    if str(path).endswith(".csv"):
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=[
                    "level",
                    "alpha",
                    "packing_size",
                    "a_family_size",
                    "b_family_size",
                    "max_part_size",
                ],
            )
            writer.writeheader()
            for row in summary["levels"]:
                writer.writerow(row)
    else:
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")


def parent_distances(chain: ChainDecomposition, level: int) -> np.ndarray:
    """|Delta(S, parent)| for each S in P_{level+1} \\ P_level, in index order."""
    lv = chain.levels[level]
    fine = (
        chain._member_sets[level + 1]
        if level < chain.k
        else frozenset(range(len(chain.system)))
    )
    rows = sorted(fine - chain._member_sets[level])
    if not rows:
        return np.zeros(0, dtype=np.int64)
    idx = np.array(rows, dtype=np.int64)
    cover = np.array([lv.packing.cover_map[r] for r in rows], dtype=np.int64)
    out = np.empty(len(rows), dtype=np.int64)
    packed = chain.system.packed
    for member in np.unique(cover):
        sel = cover == member
        out[sel] = _bitops.xor_sizes(packed[idx[sel]], packed[int(member)])
    return out
