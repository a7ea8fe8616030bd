import dataclasses
import hashlib
import itertools
import json
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relapprox.chaining import (
    AuditSummary,
    build_chain,
    chain_summary,
    claim7_check,
    telescoping_audit_all,
    write_chain_summary,
)
from relapprox.errors import AuditFailure, ConstructionError, PreconditionFailed
from relapprox.generators import (
    axis_rectangles,
    halfplanes,
    intervals,
    power_set,
    random_points,
    random_system,
)
from relapprox.halving import combined_construction
from relapprox.packing import verify_packing
from relapprox.sampling import WITH, ApproxParams, Constants, Sample, relative_error, uniform_sample
from relapprox.set_system import SetSystem
from test_packing import as_tuples, reference_greedy


@pytest.fixture(scope="module")
def interval_chain():
    system = intervals(120)
    return system, build_chain(system, 0.2, 0.3)


# --- construction ------------------------------------------------------------


def test_k_is_log2_of_inverse_delta():
    system = power_set(3)
    assert build_chain(system, 0.5, 0.5).k == 1
    assert build_chain(system, 0.5, 0.25).k == 2
    assert build_chain(system, 0.5, 0.3).k == 2


def test_k_is_exact_next_to_powers_of_two():
    # k is the smallest with 2^k delta >= 1; ceil(log2(1 / delta)) gave 4
    # for the float just below 1/16, leaving the finest scale above eps n delta
    system = power_set(3)
    for j in range(1, 9):
        for delta in (math.nextafter(2.0**-j, 0), 2.0**-j, math.nextafter(2.0**-j, 1)):
            k = build_chain(system, 0.5, delta).k
            assert 2**k * Fraction(delta) >= 1
            assert k == 1 or 2 ** (k - 1) * Fraction(delta) < 1
            assert k == (j + 1 if delta < 2.0**-j else j)


def test_base_packing_of_power_set_by_hand():
    # alpha_0 = 0.9 * 3 = 2.7: greedy over mask order admits only {} and {0,1,2}
    system = power_set(3)
    chain = build_chain(system, 0.9, 0.5)
    members = [system.masks[i] for i in chain.levels[0].packing.member_indices]
    assert members == [0, 7]


def test_every_set_has_a_first_level():
    system = intervals(20)
    chain = build_chain(system, 0.3, 0.4)
    member_sets = [set(lv.packing.member_indices) for lv in chain.levels]
    for idx in range(len(system)):
        appearances = [i for i, mem in enumerate(member_sets) if idx in mem]
        if appearances:
            # nested: once a member, always a member at finer levels
            assert appearances == list(range(appearances[0], chain.k + 1))


def test_saturated_levels_have_empty_difference_families():
    system = power_set(2)
    chain = build_chain(system, 0.3, 0.5)
    assert chain.levels[1].packing.size == len(system)  # alpha <= 1 admits all
    assert len(chain.levels[1].ab_family) == 0


def test_level_scales_and_eps_levels():
    system = intervals(40)
    chain = build_chain(system, 0.2, 0.05)  # k = ceil(log2 20) = 5
    assert chain.k == 5
    assert chain.levels[2].packing.alpha == pytest.approx(0.2 * 40 / 4)
    assert chain.level_eps[0] == pytest.approx(0.2)
    assert chain.level_eps[3] == pytest.approx(0.2 / math.sqrt(2))


def test_eps_level_series_is_bounded_by_six_eps():
    total = 0.0
    for i in range(200):
        total += math.sqrt((i + 1) / 2.0**i)
    assert total <= 6.0


def test_invalid_parameters_rejected():
    with pytest.raises(ConstructionError):
        build_chain(intervals(5), 1.5, 0.5)


# --- structural invariants ------------------------------------------------------


def test_parent_distances_strict(interval_chain):
    # a set of P_{i+1} is its own parent at level i, or one of P_{i+1} \ P_i
    system, chain = interval_chain
    for idx in range(len(system)):
        for i, _, _, a, b in chain_steps(chain, idx):
            assert (a | b).bit_count() < chain.levels[i].packing.alpha


def test_difference_family_sizes(interval_chain):
    system, chain = interval_chain
    fam = len(system)
    for i, lv in enumerate(chain.levels):
        fine_size = chain.levels[i + 1].packing.size if i < chain.k else fam
        assert lv.a_count <= fine_size
        assert lv.b_count <= fine_size
        assert len(lv.ab_family) <= 2 * fine_size
        assert all(s < lv.packing.alpha for s in lv.ab_family.sizes_array.tolist())


def oracle_parts(chain, i: int):
    """The per-set part loop: for each S in P_{i+1} minus P_i in index order,
    the parts S minus parent and parent minus S as Python ints; returns the
    distinct parts (all a-parts, then all b-parts, first occurrence wins) and
    the numbers of distinct a- and b-parts."""
    masks = chain.system.masks
    fine = (
        set(chain.levels[i + 1].packing.member_indices)
        if i < chain.k
        else set(range(len(chain.system)))
    )
    coarse = set(chain.levels[i].packing.member_indices)
    cover = chain.levels[i].packing.cover_map.tolist()
    a_parts, b_parts = [], []
    for s in sorted(fine - coarse):
        s_mask, p_mask = masks[s], masks[cover[s]]
        a_parts.append(s_mask & ~p_mask)
        b_parts.append(p_mask & ~s_mask)
    return tuple(dict.fromkeys(a_parts + b_parts)), len(set(a_parts)), len(set(b_parts))


# chain summaries written by the per-set part loop, as SHA-256 digests
ORACLE_CHAINS = {
    "intervals-120": (
        lambda: intervals(120), 0.2, 0.3,
        "50bea3b1b1dc1c713a5ef93cb398b6cb993a4ebe8e70c4625205d6144bb070f7",
        "486ca6b169dcc49b4a43defbc2d70cebb6750a9a6d9e0b8158bd5d36287cd5c2",
    ),
    "halfplanes-30": (
        lambda: halfplanes(random_points(30, 404)), 0.25, 0.4,
        "a94b39398dd9d9ec404ddc4338bdd9efa0c13208891418a3a6ad7a9bfb35a30e",
        "3067d5f9c1f92c1daaff46beeaf355a79bc5c777633e7f26b6f3e31c1820244b",
    ),
    "bernoulli-30": (
        lambda: random_system(30, 400, 0.15, 12), 0.6, 0.25,
        "3d9ded95f77e6bc7615afd54115fcd047dc79fbb770f20f3df9fa8fc328b2770",
        "e4a1eb54e864297b9428a58b02e8b69febdd8a130fee02eabb35c991bba9cc8f",
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CHAINS))
def test_difference_families_match_the_per_set_loop(name, tmp_path):
    make, eps, delta, json_digest, csv_digest = ORACLE_CHAINS[name]
    chain = build_chain(make(), eps, delta)
    assert any(len(lv.ab_family) for lv in chain.levels)
    for i, lv in enumerate(chain.levels):
        assert (lv.ab_family.masks, lv.a_count, lv.b_count) == oracle_parts(chain, i)
    for ext, digest in (("json", json_digest), ("csv", csv_digest)):
        path = tmp_path / f"summary.{ext}"
        write_chain_summary(chain, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# SHA-256 of every level's int64 little-endian member indices, then of the
# cover maps, then of the ab_family rows (little-endian words) followed by
# the level's a_count, b_count and family size, as the all-pairs greedy scan
# and the per-level part sort computed them
PINNED_CHAINS = {
    "bernoulli-128": (
        lambda: random_system(128, 2000, 0.08, 5), 0.25, 0.3, [4, 495, 1826],
        "552fb08af1f5108aa7a7f7d9efa7c3b0ad036baae6ff48e181093c0d5e7e1c28",
        "1433ffebdd81ed0d9369534af1f4334d1240741404cea0b690c1522ef33742d1",
        "2a16ce11971e5820d9fb8924a2c69e65a9dae90f49e91a5a16de80638144fc31",
    ),
    "rectangles-18": (
        lambda: axis_rectangles(random_points(18, 7)), 0.25, 0.3, [28, 116, 348],
        "5b7ab522f004c8096fe63e99cbdb189025eb3db4cf2d0f5add06c4a75c367de9",
        "6f31eb37b0b03ea4ee1bb51f94c128bb70c650e718d177124c3179c142514631",
        "93cf5febcedb0e25b7f334366bb5f4a11c86b4b350ae86b9b32a82c3a708421c",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHAINS))
def test_chains_beyond_intervals_match_pinned_digests(name):
    make, eps, delta, sizes, members_sha, cover_sha, ab_sha = PINNED_CHAINS[name]
    chain = build_chain(make(), eps, delta)
    packings = [lv.packing for lv in chain.levels]
    assert [p.size for p in packings] == sizes

    def digest(arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.asarray(a, dtype="<i8").tobytes())
        return h.hexdigest()

    assert digest(p.member_indices for p in packings) == members_sha
    assert digest(p.cover_map for p in packings) == cover_sha
    h = hashlib.sha256()
    for lv in chain.levels:
        h.update(np.ascontiguousarray(lv.ab_family.packed, dtype="<u8").tobytes())
        h.update(np.array([lv.a_count, lv.b_count, len(lv.ab_family)], dtype="<i8").tobytes())
    assert h.hexdigest() == ab_sha


@st.composite
def small_families(draw, max_n=70, max_sets=40):
    n = draw(st.integers(1, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=max_sets))
    return SetSystem.from_masks(n, masks)


@settings(max_examples=80, deadline=None)
@given(
    small_families(),
    st.sampled_from([0.05, 0.2, 0.25, 0.5, 0.9]),
    st.sampled_from([0.1, 0.3, 0.5, 0.75]),
)
def test_chain_packings_equal_the_public_greedy_seeded_level_by_level(system, eps, delta):
    # build_chain hands each level's nearest-member map down to the next;
    # the pure-Python greedy, seeded with the previous level's members,
    # measures every distance afresh.  At alpha <= 1 every set is admitted,
    # in index order.
    chain = build_chain(system, eps, delta)
    previous = ()
    for level in chain.levels:
        seeds = previous if level.packing.alpha > 1 else ()
        want = reference_greedy(system.masks, level.packing.alpha, seeds)
        assert as_tuples(level.packing) == want
        previous = as_tuples(level.packing)[0]


def test_finest_scale_at_most_eps_n_delta(interval_chain):
    system, chain = interval_chain
    assert 2**chain.k * Fraction(chain.delta) >= 1
    assert Fraction(chain.levels[chain.k].packing.alpha) <= (
        Fraction(chain.eps) * system.n * Fraction(chain.delta)
    )


# --- decomposition ---------------------------------------------------------------


def chain_steps(chain, index: int) -> list[tuple]:
    """The walk from S in F down to its member of P_0 along the cover maps:
    (i, S_{i+1}, S_i, S_{i+1} minus S_i, S_i minus S_{i+1}) as masks, level k
    first, S_{k+1} = S and S_i the parent of S_{i+1} in P_i."""
    path = [index]
    for level in reversed(chain.levels):
        path.append(int(level.packing.cover_map[path[-1]]))
    masks = [chain.system.masks[j] for j in path]
    return [(i, s, p, s & ~p, p & ~s) for i, s, p in zip(range(chain.k, -1, -1), masks, masks[1:])]


def reconstruct(steps) -> int:
    """Replay the walk upward from S_0: S_{i+1} = (S_i minus b) | a."""
    mask = steps[-1][2]
    for _, _, _, a, b in reversed(steps):
        mask = (mask & ~b) | a
    return mask


def test_base_member_has_trivial_chain(interval_chain):
    system, chain = interval_chain
    base_member = chain.levels[0].packing.member_indices[0]
    steps = chain_steps(chain, base_member)
    assert steps[-1][2] == system.masks[base_member]
    assert all(a == 0 and b == 0 for _, _, _, a, b in steps)


@pytest.mark.parametrize(
    "system",
    [
        intervals(60),
        halfplanes(random_points(12, seed=31)),
        random_system(40, 60, 0.3, seed=32),
    ],
    ids=["intervals", "halfplanes", "random"],
)
def test_reconstruction_identity_everywhere(system):
    chain = build_chain(system, 0.25, 0.4)
    for idx in range(len(system)):
        steps = chain_steps(chain, idx)
        assert reconstruct(steps) == system.masks[idx]
        size_slack = sum(b.bit_count() for *_, b in steps)
        assert steps[-1][2].bit_count() <= system.masks[idx].bit_count() + size_slack
        assert size_slack <= 2 * 0.25 * system.n


# --- claim7 ----------------------------------------------------------------------


def test_full_sample_satisfies_all_conditions(interval_chain):
    _, chain = interval_chain
    report = claim7_check(chain, Sample.full(120), gamma=0.25)
    assert report.ok
    assert report.gamma == 0.25
    assert {item.condition for item in report.items} == {
        "finest-level",
        "mid-level",
        "base-packing",
    }


def test_tiny_sample_fails_somewhere():
    system = intervals(100)
    chain = build_chain(system, 0.1, 0.3)
    for seed in (0, 1, 2):
        report = claim7_check(chain, uniform_sample(100, 2, seed))
        assert not report.ok
        assert report.failures


# --- telescoping audit -------------------------------------------------------------


class Ledger(NamedTuple):
    failures: list  # (position, message, names a set) in the audit's order of checks
    total_err: Fraction
    final_bound: Fraction
    part_sizes: list
    base_size: int
    set_size: int


def oracle_audit(chain, sample, index) -> Ledger:
    """The chaining argument for one set, in Fractions: walk chain_steps() from
    the set down to its base member and evaluate every inequality that
    telescoping_audit_all checks, in the same order, so position p of a
    failure is the same check for every set."""
    n, t = chain.system.n, sample.t
    eps, delta = Fraction(chain.eps), Fraction(chain.delta)
    failures = []
    positions = itertools.count()

    def check(ok, message, names_set=True):
        position = next(positions)
        if not ok:
            failures.append((position, message, names_set))

    counts = [0] * n
    for e, c in zip(sample.support, sample.multiplicity or [1] * len(sample.support)):
        counts[e] = c

    def count(mask):
        return sum(c for e, c in enumerate(counts) if mask >> e & 1)

    def size(mask):
        return mask.bit_count()

    def err(mask):
        return abs(Fraction(size(mask), n) - Fraction(count(mask), t))

    steps = chain_steps(chain, index)
    part_sizes, sum_b = [], 0
    for i, before, after, a, b in steps:  # level k down to 0
        scale = eps if i == chain.k else Fraction(chain.level_eps[i])
        check(size(before) == size(after) - size(b) + size(a), f"size identity broken at level {i}")
        check(count(before) == count(after) - count(b) + count(a), f"count identity broken at level {i}")
        check(err(before) <= err(after) + err(a) + err(b), f"triangle step violated at level {i}")
        for name, part in (("a", a), ("b", b)):
            check(
                err(part) <= delta * max(scale, Fraction(size(part), n)),
                f"{name}-part error exceeds its claim bound at level {i}",
            )
            alpha = chain.levels[i].packing.alpha
            check(size(part) < alpha, f"{name}-part size >= alpha at level {i}")
            part_sizes.append(size(part))
        sum_b += size(b)
    whole, base = steps[0][1], steps[-1][2]
    total_err, base_err = err(whole), err(base)
    check(
        base_err <= delta * max(eps, Fraction(size(base), n)),
        "base-packing error exceeds its claim bound",
    )
    eps_sum = sum(Fraction(e) for e in chain.level_eps)
    check(eps_sum <= 6 * eps, f"sum of level scales {float(eps_sum)} exceeds 6 eps", False)
    check(
        total_err <= base_err + 2 * delta * (eps_sum + eps),
        "telescoped error exceeds the chain bound",
    )
    check(size(base) <= size(whole) + sum_b, "base set larger than the set plus removed parts")
    check(sum_b <= 2 * eps * n, "removed parts exceed 2 eps n")
    final_bound = 2 * delta * max(Fraction(size(whole), n), 16 * eps)
    check(total_err <= final_bound, "final bound violated")
    check(eps * n / 2**chain.k <= eps * n * delta, "finest scale exceeds eps n delta", False)
    return Ledger(failures, total_err, final_bound, part_sizes, size(base), size(whole))


def audit_outcome(chain, sample, claim7):
    """telescoping_audit_all's summary, or the AuditFailure message it raises."""
    try:
        return telescoping_audit_all(chain, sample, claim7)
    except AuditFailure as exc:
        return str(exc)


def assert_oracle_agrees(chain, sample, claim7, indices):
    """The oracle and telescoping_audit_all agree on every set in `indices`:
    the audit passes exactly when none of them fails, and the set a failure
    names fails the oracle with the same message.  When `indices` is the
    whole family, the audit must raise the oracle's first failing check,
    named for the lowest set failing it.  Returns the audit's outcome."""
    outcome = audit_outcome(chain, sample, claim7)
    ledgers = {j: oracle_audit(chain, sample, j) for j in indices}
    failures = sorted(
        (pos, j, msg, names_set) for j, lg in ledgers.items() for pos, msg, names_set in lg.failures
    )
    if isinstance(outcome, AuditSummary):
        assert failures == []
        assert outcome.sets_audited == len(chain.system)
        assert outcome.max_final_slack <= 0
        for lg in ledgers.values():
            # the summary's slack is floored to the integer grid of n t
            assert float(lg.total_err - lg.final_bound) <= outcome.max_final_slack
        return outcome
    msg, _, named = outcome.partition(" (first set index ")
    if named:
        j = int(named.rstrip(")"))
        assert msg in [m for _, m, _ in oracle_audit(chain, sample, j).failures]
    if len(ledgers) == len(chain.system):
        assert failures, outcome
        _, j, msg, names_set = failures[0]
        assert outcome == (f"{msg} (first set index {j})" if names_set else msg)
    return outcome


def forged_delta(chain, delta):
    return dataclasses.replace(chain, delta=delta)


def float_below(x: Fraction) -> float:
    """The largest float below x."""
    f = float(x)
    return f if Fraction(f) < x else math.nextafter(f, 0)


def test_audit_requires_claim7(interval_chain):
    system, chain = interval_chain
    bad = uniform_sample(120, 2, seed=5)
    report = claim7_check(chain, bad)
    assert not report.ok
    with pytest.raises(PreconditionFailed, match="failing conditions"):
        telescoping_audit_all(chain, bad, report)


def test_audit_of_base_member_is_tight(interval_chain):
    system, chain = interval_chain
    sample = Sample.full(120)
    report = claim7_check(chain, sample)
    member = chain.levels[0].packing.member_indices[1]
    ledger = oracle_audit(chain, sample, member)
    assert ledger.failures == []
    assert ledger.total_err == 0
    assert all(size == 0 for size in ledger.part_sizes)
    assert ledger.base_size == ledger.set_size
    assert_oracle_agrees(chain, sample, report, [member])


def test_vectorized_audit_matches_scalar(interval_chain):
    system, chain = interval_chain
    passes = 0
    for i in range(8):
        sample = uniform_sample(120, 100, seed=(41, i))
        report = claim7_check(chain, sample)
        if not report.ok:
            continue
        passes += 1
        summary = assert_oracle_agrees(chain, sample, report, range(0, len(system), 13))
        assert isinstance(summary, AuditSummary)
    assert passes > 0


def test_audit_rejects_a_part_bound_missed_by_less_than_float_rounding(interval_chain):
    # the worst Claim 7 ratio of this sample is about 2/7; delta forged to the
    # float just below it leaves a level-0 part over its bound by ~1e-17
    system, chain = interval_chain
    sample = Sample(
        120,
        (
            1, 2, 3, 4, 7, 10, 11, 16, 18, 20, 23, 25, 27, 30, 31, 32, 33, 35, 36, 37, 40,
            41, 42, 44, 46, 47, 48, 49, 50, 52, 54, 55, 56, 58, 61, 62, 63, 67, 68, 72, 74,
            79, 80, 81, 82, 83, 84, 85, 86, 88, 90, 91, 92, 94, 95, 97, 99, 100, 101, 104,
            106, 109, 110, 111, 112, 113, 115, 116, 118, 119
        ),
    )
    report = claim7_check(chain, sample)
    assert report.ok
    worst = max(item.report.worst_ratio for item in report.items)
    assert abs(worst - Fraction(2, 7)) < Fraction(1, 10**15)
    forged = forged_delta(chain, float_below(worst))
    outcome = assert_oracle_agrees(forged, sample, report, range(len(system)))
    assert outcome.startswith("b-part error exceeds its claim bound at level 0")


def test_audit_rejects_a_base_bound_just_missed(interval_chain):
    # the base packing's worst ratio is this sample's largest Claim 7 ratio
    system, chain = interval_chain
    sample = Sample(
        120,
        (
            0, 2, 4, 5, 6, 9, 11, 12, 13, 16, 19, 20, 22, 25, 29, 31, 32, 36, 37, 43, 44,
            45, 46, 49, 51, 52, 53, 55, 57, 58, 59, 60, 63, 64, 66, 67, 69, 70, 71, 72, 73,
            74, 77, 79, 82, 83, 85, 86, 87, 90, 91, 93, 94, 95, 96, 97, 98, 101, 103, 104,
            105, 107, 108, 110, 111, 113, 114, 115, 116, 117
        ),
    )
    report = claim7_check(chain, sample)
    ratios = {item.condition: item.report.worst_ratio for item in report.items}
    assert report.ok and ratios["base-packing"] == max(ratios.values())
    forged = forged_delta(chain, float_below(ratios["base-packing"]))
    outcome = assert_oracle_agrees(forged, sample, report, range(len(system)))
    assert outcome.startswith("base-packing error exceeds its claim bound")


def test_audit_rejects_a_part_of_size_alpha(interval_chain):
    system, chain = interval_chain
    sample = uniform_sample(120, 100, seed=(41, 0))
    report = claim7_check(chain, sample)
    assert report.ok
    level = chain.levels[1]
    widest = int(level.ab_family.sizes_array.max())
    levels = list(chain.levels)
    levels[1] = dataclasses.replace(
        level, packing=dataclasses.replace(level.packing, alpha=float(widest))
    )
    forged = dataclasses.replace(chain, levels=tuple(levels))
    outcome = assert_oracle_agrees(forged, sample, report, range(len(system)))
    assert "-part size >= alpha at level 1" in outcome


def test_audit_names_the_lowest_set_under_a_corrupted_ancestor(interval_chain):
    # below level k the audit checks each distinct ancestor once; a failure
    # there is reported for the lowest set index that descends from it
    system, chain = interval_chain
    sample = uniform_sample(120, 100, seed=(41, 0))
    report = claim7_check(chain, sample)
    assert report.ok
    fine, coarse = chain.levels[chain.k].packing, chain.levels[chain.k - 1].packing
    masks = system.masks
    moved = max(set(fine.member_indices) - set(coarse.member_indices))
    farthest = max(coarse.member_indices, key=lambda j: (masks[moved] ^ masks[j]).bit_count())
    cover = coarse.cover_map.tolist()
    cover[moved] = farthest
    levels = list(chain.levels)
    levels[chain.k - 1] = dataclasses.replace(
        levels[chain.k - 1], packing=dataclasses.replace(coarse, cover_map=tuple(cover))
    )
    forged = dataclasses.replace(chain, levels=tuple(levels))
    outcome = assert_oracle_agrees(forged, sample, report, range(len(system)))
    lowest = fine.cover_map.tolist().index(moved)  # the lowest set whose level-k parent moved
    assert lowest < moved
    assert outcome.endswith(f"at level {chain.k - 1} (first set index {lowest})")


@pytest.fixture(scope="module")
def dyadic_chain():
    # eps n t = 2048 makes every small-set ratio dyadic, and delta = 1/4
    # puts the finest scale at alpha_k = eps n delta = 8 exactly
    system = intervals(128)
    return system, build_chain(system, 0.25, 0.25)


def test_audit_accepts_bounds_met_with_equality(dyadic_chain):
    system, chain = dyadic_chain
    assert chain.k == 2
    assert chain.levels[chain.k].packing.alpha == chain.eps * system.n * chain.delta
    sample = Sample(
        128,
        (
            0, 4, 5, 6, 8, 9, 11, 13, 14, 15, 16, 18, 19, 21, 22, 25, 28, 29, 36, 40, 41,
            44, 45, 46, 50, 52, 53, 54, 59, 60, 61, 62, 63, 65, 70, 71, 72, 74, 77, 80, 81,
            83, 84, 85, 87, 90, 91, 93, 95, 97, 100, 101, 103, 105, 107, 113, 114, 116, 117,
            118, 119, 120, 121, 123
        ),
    )
    report = claim7_check(chain, sample)
    assert max(item.report.worst_ratio for item in report.items) == Fraction(1, 4)
    summary = assert_oracle_agrees(chain, sample, report, range(len(system)))
    assert isinstance(summary, AuditSummary)
    below = forged_delta(chain, float_below(Fraction(1, 4)))
    outcome = assert_oracle_agrees(below, sample, report, range(len(system)))
    assert outcome.startswith("b-part error exceeds its claim bound at level 1")


def test_audit_rejects_a_finest_scale_above_eps_n_delta(dyadic_chain):
    # every Claim 7 ratio is at most 3/16, so only 2^k delta = 3/4 < 1 fails
    system, chain = dyadic_chain
    sample = uniform_sample(128, 64, seed=(43, 0))
    report = claim7_check(chain, sample)
    assert max(item.report.worst_ratio for item in report.items) == Fraction(3, 16)
    forged = forged_delta(chain, 3 / 16)
    outcome = assert_oracle_agrees(forged, sample, report, range(len(system)))
    assert outcome == "finest scale exceeds eps n delta"


def test_vectorized_audit_requires_claim7(interval_chain):
    _, chain = interval_chain
    bad = uniform_sample(120, 2, seed=6)
    with pytest.raises(PreconditionFailed):
        telescoping_audit_all(chain, bad)


@pytest.mark.slow
def test_claim7_implies_audit_for_every_set(interval_chain):
    system, chain = interval_chain
    passes = 0
    for i in range(25):
        sample = uniform_sample(120, 105, seed=(900, i))
        report = claim7_check(chain, sample)
        if not report.ok:
            continue
        passes += 1
        summary = telescoping_audit_all(chain, sample, report)
        assert summary.sets_audited == len(system)
        assert summary.max_final_slack <= 0
    assert passes > 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_definition_monotone_in_eps_and_delta(seed):
    system = random_system(12, 10, 0.4, seed=seed)
    if len(system) == 0:
        return
    sample = uniform_sample(12, 5, seed=seed)
    for eps, delta, eps2, delta2 in [(0.2, 0.3, 0.5, 0.3), (0.2, 0.3, 0.2, 0.8)]:
        if relative_error(system, sample, eps).passes(delta):
            assert relative_error(system, sample, eps2).passes(delta2)


# --- summaries -----------------------------------------------------------------------


def test_chain_summary_and_files(tmp_path, interval_chain):
    system, chain = interval_chain
    summary = chain_summary(chain)
    assert summary["k"] == chain.k
    assert len(summary["levels"]) == chain.k + 1
    jpath = tmp_path / "chain.json"
    write_chain_summary(chain, jpath)
    assert json.loads(jpath.read_text())["levels"] == summary["levels"]
    cpath = tmp_path / "chain.csv"
    write_chain_summary(chain, cpath)
    lines = cpath.read_text().strip().splitlines()
    assert lines[0].startswith("level,alpha,packing_size")
    assert len(lines) == chain.k + 2


# --- the packed store -------------------------------------------------------------


def test_hot_paths_never_derive_masks():
    params = ApproxParams(0.25, 0.45, 0.3)
    for system in (intervals(120), random_system(300, 200, 0.05, 7)):
        chain = build_chain(system, 0.25, 0.4)
        for level in chain.levels:
            verify_packing(system, level.packing)
        for sample in (Sample.full(system.n), uniform_sample(system.n, 90, 3, mode=WITH)):
            claim7 = claim7_check(chain, sample)
            if claim7.ok:
                telescoping_audit_all(chain, sample, claim7)
            relative_error(system, sample, Fraction(1, 4))
            relative_error(system, sample, 0.25)
        combined_construction(system, params, 2, Constants(2, 2, 2), seed=8)
        assert "masks" not in vars(system)
