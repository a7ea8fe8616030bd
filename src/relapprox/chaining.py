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
from .packing import Packing, _nested_packings
from .sampling import (
    ApproximationReport,
    Sample,
    error_numerators,
    exact_dtype,
    relative_error,
)
from .set_system import SetSystem


@dataclass(frozen=True)
class ChainLevel:
    packing: Packing  # P_i, at the level's scale alpha = packing.alpha
    ab_family: SetSystem  # the distinct parts S \ parent, then parent \ S, over S in P_{i+1} \ P_i
    a_count: int  # distinct parts S \ parent
    b_count: int  # distinct parts parent \ S


@dataclass(frozen=True)
class ChainDecomposition:
    system: SetSystem
    eps: float
    delta: float
    levels: tuple[ChainLevel, ...]  # indices 0..k

    @property
    def k(self) -> int:
        return len(self.levels) - 1

    @cached_property
    def level_eps(self) -> tuple[float, ...]:
        """Scale parameter per level i in [0, k-1]: sqrt((i+1)/2^i) * eps."""
        return tuple(
            math.sqrt((i + 1) / 2.0**i) * self.eps for i in range(self.k)
        )

    @cached_property
    def base_system(self) -> SetSystem:
        members = self.levels[0].packing.member_indices
        return SetSystem.from_packed(self.system.n, self.system.packed[members])


def chain_scale(eps: float, n: int, i: int) -> float:
    return eps * n / 2.0**i


def _level_parts(system: SetSystem, packings: list[Packing], i: int):
    """Level i's sets, the ascending indices of P_{i+1} \\ P_i (P_{k+1} = F),
    their part rows against their parents (`_part_rows`) and the parent
    distances |S Delta parent|; AuditFailure unless P_i <= P_{i+1}."""
    fine = np.zeros(len(system), dtype=bool)
    fine[packings[i + 1].member_indices if i + 1 < len(packings) else slice(None)] = True
    coarse = packings[i].member_indices
    if not fine[coarse].all():
        raise AuditFailure("packings are not nested")
    fine[coarse] = False
    sets = np.flatnonzero(fine)
    rows = _part_rows(system.packed, sets, packings[i].cover_map[sets])
    return sets, rows, _bitops.row_sizes(rows).reshape(2, -1).sum(axis=0)


def build_chain(system: SetSystem, eps: float, delta: float) -> ChainDecomposition:
    """Construct nested maximal packings and the per-level difference families.

    Nesting is enforced by seeding each finer greedy scan with the coarser
    packing, which keeps "P_{i+1} minus P_i" well defined; each level's
    nearest-member map is the next level's seed map (`_nested_packings`).
    Nesting and the parent distances (so the part sizes) are re-verified.
    A level's parts are formed at once from the packed rows of its sets and
    parents, and one sort of them yields the distinct parts of each half
    and of both.
    """
    if not (0 < eps < 1 and 0 < delta < 1):
        raise ConstructionError(f"need eps, delta in (0, 1), got {(eps, delta)}")
    n = system.n
    # the smallest k with 2^k delta >= 1 (finest scale eps n / 2^k <= eps n
    # delta), exactly: 2^k >= ceil(1 / delta); k >= 1 as delta < 1
    k = (math.ceil(1 / Fraction(delta)) - 1).bit_length()

    packings = _nested_packings(system, [chain_scale(eps, n, i) for i in range(k + 1)])

    levels = []
    for i in range(k + 1):
        sets, ab_rows, distances = _level_parts(system, packings, i)
        far = np.flatnonzero(distances >= packings[i].alpha)
        if len(far):
            raise AuditFailure(f"parent distance at level {i} is >= alpha for set {sets[far[0]]}")
        first, label = _bitops.distinct_rows(ab_rows, labels=True)
        a_count, b_count = (
            int(np.count_nonzero(np.bincount(half, minlength=len(first))))
            for half in np.split(label, 2)
        )
        ab_family = SetSystem._of_distinct(n, ab_rows[first])
        levels.append(ChainLevel(packings[i], ab_family, a_count, b_count))
    return ChainDecomposition(system, eps, delta, tuple(levels))


# --- simultaneous approximation check ---------------------------------------


@dataclass(frozen=True)
class Claim7Item:
    condition: str  # "finest-level", "mid-level", "base-packing"
    level: int | None
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
        Claim7Item(name, level, relative_error(family, sample, Fraction(e)))
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

    At level k every set is checked against its parent; below it every
    check depends only on the pair (ancestor, parent), so it runs once for
    each distinct ancestor, and a failing ancestor is reported as the
    lowest set index that descends from it.  Each level's ancestors are the
    distinct parents of the level above, and each set's position among them
    is composed level by level.

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
    sizes_all = system.sizes_array
    cnt_all = system.counts(sample)
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
    # the level's distinct sets, and each set's position among them
    cur, inverse = np.arange(fam), np.arange(fam)
    sum_b = np.zeros(fam, dtype=np.int64)
    for i in range(chain.k, -1, -1):
        level = chain.levels[i]
        parent = level.packing.cover_map[cur]
        a_sz, b_sz, a_cnt, b_cnt = _parts(system.packed, sample.planes, cur, parent)
        bad = sizes_all[cur] != sizes_all[parent] - b_sz + a_sz
        if bad.any():
            fail(f"size identity broken at level {i}", bad[inverse])
        bad = cnt_all[cur] != cnt_all[parent] - b_cnt + a_cnt
        if bad.any():
            fail(f"count identity broken at level {i}", bad[inverse])
        a_err = error_numerators(n, t, a_sz, a_cnt, dtype)
        b_err = error_numerators(n, t, b_sz, b_cnt, dtype)
        bad = err_all[cur] > err_all[parent] + a_err + b_err
        if bad.any():
            fail(f"triangle step violated at level {i}", bad[inverse])
        scale_floor = floor_nt(delta * level_eps[i])
        for name, perr, psize in (("a", a_err, a_sz), ("b", b_err, b_sz)):
            bad = perr > np.maximum(part_floor[psize], scale_floor)
            if bad.any():
                fail(f"{name}-part error exceeds its claim bound at level {i}", bad[inverse])
            bad = psize >= level.packing.alpha
            if bad.any():
                fail(f"{name}-part size >= alpha at level {i}", bad[inverse])
        sum_b += b_sz[inverse]
        seen = np.zeros(fam, dtype=bool)
        seen[parent] = True
        cur = np.flatnonzero(seen)
        inverse = (np.cumsum(seen) - 1)[parent][inverse]

    bad = err_all[cur] > np.maximum(part_floor[sizes_all[cur]], floor_nt(delta * eps))
    if bad.any():
        fail("base-packing error exceeds its claim bound", bad[inverse])
    base = cur[inverse]  # every set's member of P_0
    base_err = err_all[base]
    eps_sum = sum(level_eps[:-1])
    if eps_sum > 6 * eps:
        raise AuditFailure(f"sum of level scales {float(eps_sum)} exceeds 6 eps")
    bad = err_all - base_err > floor_nt(2 * delta * (eps_sum + eps))
    if bad.any():
        fail("telescoped error exceeds the chain bound", bad)
    bad = sizes_all[base] > sizes_all + sum_b
    if bad.any():
        fail("base set larger than the set plus removed parts", bad)
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


def _part_rows(packed: np.ndarray, sets: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """The rows S \\ P for each pair (S, P) of family indices, then P \\ S."""
    rows = packed[np.concatenate((sets, parents))]
    halves = rows.reshape(2, len(sets), packed.shape[1])
    halves ^= halves[0] & halves[1]
    return rows


def _parts(packed: np.ndarray, planes: np.ndarray, sets: np.ndarray, parents: np.ndarray):
    """Rows |S \\ P|, |P \\ S| and their sample counts for each pair (S, P) of
    family indices, in blocks of `_bitops.block_rows` pairs."""
    out = np.empty((4, len(sets)), dtype=np.int64)
    step = _bitops.block_rows(16 * packed.shape[1])
    for s in range(0, len(sets), step):
        rows = _part_rows(packed, sets[s : s + step], parents[s : s + step])
        out[:2, s : s + step] = _bitops.row_sizes(rows).reshape(2, -1)
        out[2:, s : s + step] = _bitops.intersection_sizes(rows, planes).reshape(2, -1)
    return out


# --- summaries ----------------------------------------------------------------


def chain_summary(chain: ChainDecomposition) -> dict:
    levels = [
        {
            "level": i,
            "alpha": lv.packing.alpha,
            "packing_size": lv.packing.size,
            "a_family_size": lv.a_count,
            "b_family_size": lv.b_count,
            "max_part_size": int(lv.ab_family.sizes_array.max(initial=0)),
        }
        for i, lv in enumerate(chain.levels)
    ]
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
            writer = csv.DictWriter(fh, fieldnames=list(summary["levels"][0]))
            writer.writeheader()
            writer.writerows(summary["levels"])
    else:
        with open(path, "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")

