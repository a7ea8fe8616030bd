"""Chaining decomposition: nested packings at geometrically shrinking scales.

Every set of the family is decomposed through a hierarchy of maximal
packings P_0 <= P_1 <= ... <= P_k (scale eps n / 2^i at level i, with
P_{k+1} = F implicit), each set linked to a nearby parent one level coarser.
The per-level difference families are small sets, so a sample that
approximates every level simultaneously approximates the whole family; the
telescoping audit below replays that argument numerically for a single set,
and the property suite asserts it end to end.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _bitops
from .errors import AuditFailure, ConstructionError, PreconditionFailed
from .packing import Packing, greedy_maximal_packing
from .sampling import (
    ApproximationReport,
    ApproxParams,
    Sample,
    intersection_counts,
    relative_error,
)
from .set_system import SetSystem

_AUDIT_TOL = 1e-9  # float guard on real-valued inequality steps; identities stay integer-exact


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
    k = max(1, math.ceil(math.log2(1.0 / delta)))

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
    eps_i, and the base packing at eps."""
    items = [
        Claim7Item(
            "finest-level",
            chain.k,
            chain.eps,
            relative_error(chain.levels[chain.k].ab_family, sample, chain.eps),
        )
    ]
    for i in range(chain.k):
        items.append(
            Claim7Item(
                "mid-level",
                i,
                chain.level_eps[i],
                relative_error(chain.levels[i].ab_family, sample, chain.level_eps[i]),
            )
        )
    items.append(
        Claim7Item(
            "base-packing",
            None,
            chain.eps,
            relative_error(chain.base_system, sample, chain.eps),
        )
    )
    return Claim7Report(chain.eps, chain.delta, gamma, tuple(items))


# --- telescoping audit --------------------------------------------------------


@dataclass(frozen=True)
class AuditStep:
    level: int
    eps_level: float  # eps at the finest level, eps_i in between
    err_before: float  # | |S_{i+1}|/n - |A & S_{i+1}|/t |
    err_after: float
    a_err: float
    b_err: float
    a_size: int
    b_size: int


@dataclass(frozen=True)
class AuditLedger:
    family_index: int
    total_err: float
    base_err: float
    base_size: int
    set_size: int
    steps: tuple[AuditStep, ...]
    eps_sum: float  # sum of eps_i over mid levels
    chain_bound: float  # base_err + 2 delta (eps_sum + eps)
    final_bound: float  # 2 delta max(|S|/n, 16 eps)


def _density_error(mask: int, sample: Sample, n: int) -> tuple[float, int]:
    cnt = sample.count(mask)
    return abs(mask.bit_count() / n - cnt / sample.t), cnt


def telescoping_error_audit(
    chain: ChainDecomposition,
    sample: Sample,
    index: int,
    claim7: Claim7Report | None = None,
) -> AuditLedger:
    """Replay the per-level error accounting for one set and verify every
    inequality numerically; raises AuditFailure naming the violated step.

    Requires a sample for which claim7_check passes (pass the report in to
    avoid recomputing it per set).
    """
    if claim7 is None:
        claim7 = claim7_check(chain, sample)
    if not claim7.ok:
        raise PreconditionFailed(
            "telescoping audit requires a sample passing claim7_check; "
            f"failing conditions: {[it.condition for it in claim7.failures]}"
        )
    n, t = chain.system.n, sample.t
    eps, delta = chain.eps, chain.delta
    record = decompose(chain, index)
    total_err, _ = _density_error(record.steps[0].set_before, sample, n)

    steps = []
    err_before = total_err
    sum_b_sizes = 0
    for st in record.steps:  # level k down to 0
        lvl_eps = eps if st.level == chain.k else chain.level_eps[st.level]
        err_after, _ = _density_error(st.set_after, sample, n)
        a_err, a_cnt = _density_error(st.a_part, sample, n)
        b_err, b_cnt = _density_error(st.b_part, sample, n)
        a_size, b_size = st.a_part.bit_count(), st.b_part.bit_count()
        sum_b_sizes += b_size

        # exact set/count identities behind the triangle step
        before_cnt, after_cnt = sample.count(st.set_before), sample.count(st.set_after)
        if st.set_before.bit_count() != st.set_after.bit_count() - b_size + a_size:
            raise AuditFailure(f"size identity broken at level {st.level}")
        if before_cnt != after_cnt - b_cnt + a_cnt:
            raise AuditFailure(f"count identity broken at level {st.level}")

        if err_before > err_after + a_err + b_err + _AUDIT_TOL:
            raise AuditFailure(
                f"triangle step violated at level {st.level} for set {index}"
            )
        for name, perr, psize in (("a", a_err, a_size), ("b", b_err, b_size)):
            if perr > delta * max(lvl_eps, psize / n) + _AUDIT_TOL:
                raise AuditFailure(
                    f"{name}-part error at level {st.level} exceeds its claim bound"
                )
            if psize >= chain.levels[st.level].alpha:
                raise AuditFailure(f"{name}-part size >= alpha at level {st.level}")
        steps.append(
            AuditStep(st.level, lvl_eps, err_before, err_after, a_err, b_err, a_size, b_size)
        )
        err_before = err_after

    base_err = err_before
    base_size = record.base_mask.bit_count()
    set_size = chain.system.masks[index].bit_count()

    if base_err > delta * max(eps, base_size / n) + _AUDIT_TOL:
        raise AuditFailure("base-packing error exceeds its claim bound")
    eps_sum = sum(chain.level_eps)
    if eps_sum > 6.0 * eps + _AUDIT_TOL:
        raise AuditFailure(f"sum of level scales {eps_sum} exceeds 6 eps")
    chain_bound = base_err + 2.0 * delta * (eps_sum + eps)
    if total_err > chain_bound + _AUDIT_TOL:
        raise AuditFailure("telescoped error exceeds the chain bound")
    if base_size > set_size + sum_b_sizes:
        raise AuditFailure("base set larger than the set plus removed parts")
    if sum_b_sizes > 2.0 * eps * n + _AUDIT_TOL:
        raise AuditFailure("removed parts exceed 2 eps n")
    final_bound = 2.0 * delta * max(set_size / n, 16.0 * eps)
    if total_err > final_bound + _AUDIT_TOL:
        raise AuditFailure(f"final bound violated for set {index}")
    # the paper-form finest-scale guarantee: alpha_k <= eps n delta
    if chain.levels[chain.k].alpha > eps * n * delta * (1 + 1e-12):
        raise AuditFailure("finest scale exceeds eps n delta")

    return AuditLedger(
        index,
        total_err,
        base_err,
        base_size,
        set_size,
        tuple(steps),
        eps_sum,
        chain_bound,
        final_bound,
    )


@dataclass(frozen=True)
class AuditSummary:
    sets_audited: int
    max_final_slack: float  # max over S of total_err - final_bound (<= 0 when ok)


def telescoping_audit_all(
    chain: ChainDecomposition, sample: Sample, claim7: Claim7Report | None = None
) -> AuditSummary:
    """telescoping_error_audit for every set at once, vectorized.

    Checks the same identities and inequalities as the per-set audit and
    raises AuditFailure naming the first violated condition; agreement with
    the scalar audit is property-tested.
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
    eps, delta = chain.eps, chain.delta
    fam = len(system)
    packed = system.packed
    planes = _bitops.pack_masks(sample.planes, n)
    sizes_all = system.sizes_array
    cnt_all = intersection_counts(system, sample)
    err_all = np.abs(sizes_all / n - cnt_all / t)

    def fail(msg: str, bad: np.ndarray) -> None:
        raise AuditFailure(f"{msg} (first set index {int(np.flatnonzero(bad)[0])})")

    cur = np.arange(fam)
    sum_b = np.zeros(fam, dtype=np.int64)
    for i in range(chain.k, -1, -1):
        level = chain.levels[i]
        lvl_eps = eps if i == chain.k else chain.level_eps[i]
        cover = np.array(level.packing.cover_map, dtype=np.int64)
        parent = cover[cur]
        a_sz = np.empty(fam, dtype=np.int64)
        b_sz = np.empty(fam, dtype=np.int64)
        a_cnt = np.empty(fam, dtype=np.int64)
        b_cnt = np.empty(fam, dtype=np.int64)
        for pv in np.unique(parent):
            rows = np.flatnonzero(parent == pv)
            child = packed[cur[rows]]
            p_row = packed[int(pv)]
            a_masks = child & ~p_row
            b_masks = ~child & p_row
            a_sz[rows] = _bitops.popcount_words(a_masks).sum(axis=1, dtype=np.int64)
            b_sz[rows] = _bitops.popcount_words(b_masks).sum(axis=1, dtype=np.int64)
            a_cnt[rows] = _bitops.intersection_sizes(a_masks, planes)
            b_cnt[rows] = _bitops.intersection_sizes(b_masks, planes)
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
        a_err = np.abs(a_sz / n - a_cnt / t)
        b_err = np.abs(b_sz / n - b_cnt / t)
        bad = err_all[cur] > err_all[parent] + a_err + b_err + _AUDIT_TOL
        if bad.any():
            fail(f"triangle step violated at level {i}", bad)
        for name, perr, psize in (("a", a_err, a_sz), ("b", b_err, b_sz)):
            bad = perr > delta * np.maximum(lvl_eps, psize / n) + _AUDIT_TOL
            if bad.any():
                fail(f"{name}-part error exceeds its claim bound at level {i}", bad)
            if (psize >= level.alpha).any():
                fail(f"{name}-part size >= alpha at level {i}", psize >= level.alpha)
        sum_b += b_sz
        cur = parent

    base_err = err_all[cur]
    bad = base_err > delta * np.maximum(eps, sizes_all[cur] / n) + _AUDIT_TOL
    if bad.any():
        fail("base-packing error exceeds its claim bound", bad)
    eps_sum = sum(chain.level_eps)
    if eps_sum > 6.0 * eps + _AUDIT_TOL:
        raise AuditFailure(f"sum of level scales {eps_sum} exceeds 6 eps")
    bad = err_all > base_err + 2.0 * delta * (eps_sum + eps) + _AUDIT_TOL
    if bad.any():
        fail("telescoped error exceeds the chain bound", bad)
    if (sizes_all[cur] > sizes_all + sum_b).any():
        fail("base set larger than the set plus removed parts", sizes_all[cur] > sizes_all + sum_b)
    if (sum_b > 2.0 * eps * n + _AUDIT_TOL).any():
        fail("removed parts exceed 2 eps n", sum_b > 2.0 * eps * n + _AUDIT_TOL)
    final_bound = 2.0 * delta * np.maximum(sizes_all / n, 16.0 * eps)
    slack = err_all - final_bound
    if (slack > _AUDIT_TOL).any():
        fail("final bound violated", slack > _AUDIT_TOL)
    if chain.levels[chain.k].alpha > eps * n * delta * (1 + 1e-12):
        raise AuditFailure("finest scale exceeds eps n delta")
    return AuditSummary(fam, float(slack.max()) if fam else 0.0)


def rescale_and_verify(system: SetSystem, sample: Sample, eps: float, delta: float) -> bool:
    """Bridge from the audited (16 eps', 2 delta') bound to the plain
    definition: rebuild the chain at (eps/16, delta/2) and verify directly.

    A claim7 pass at the rescaled parameters must imply the direct check;
    a mismatch would contradict the audited derivation and raises."""
    chain = build_chain(system, eps / 16.0, delta / 2.0)
    rescaled_ok = claim7_check(chain, sample).ok
    direct = relative_error(system, sample, eps).passes(delta)
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
