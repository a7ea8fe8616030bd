import dataclasses
import itertools
import json
import math
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relapprox.chaining import (
    AuditSummary,
    build_chain,
    chain_summary,
    claim7_check,
    decompose,
    parent_distances,
    rescale_and_verify,
    telescoping_audit_all,
    write_chain_summary,
)
from relapprox.errors import AuditFailure, ConstructionError, PreconditionFailed
from relapprox.generators import halfplanes, intervals, power_set, random_points, random_system
from relapprox.sampling import ApproxParams, Sample, relative_error, uniform_sample
from relapprox.set_system import SetSystem


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
    assert chain.levels[2].alpha == pytest.approx(0.2 * 40 / 4)
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
    system, chain = interval_chain
    for i in range(chain.k + 1):
        d = parent_distances(chain, i)
        assert (d < chain.levels[i].alpha).all()


def test_difference_family_sizes(interval_chain):
    system, chain = interval_chain
    fam = len(system)
    for i, lv in enumerate(chain.levels):
        fine_size = chain.levels[i + 1].packing.size if i < chain.k else fam
        assert len(lv.a_family) <= fine_size
        assert len(lv.b_family) <= fine_size
        assert len(lv.ab_family) <= 2 * fine_size
        assert all(s < lv.alpha for s in lv.ab_family.sizes)


def test_finest_scale_at_most_eps_n_delta(interval_chain):
    system, chain = interval_chain
    assert 2**chain.k * Fraction(chain.delta) >= 1
    assert Fraction(chain.levels[chain.k].alpha) <= (
        Fraction(chain.eps) * system.n * Fraction(chain.delta)
    )


# --- decomposition ---------------------------------------------------------------


def test_base_member_has_trivial_chain(interval_chain):
    system, chain = interval_chain
    base_member = chain.levels[0].packing.member_indices[0]
    record = decompose(chain, base_member)
    assert record.base_mask == system.masks[base_member]
    assert all(st.a_part == 0 and st.b_part == 0 for st in record.steps)


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
        record = decompose(chain, idx)
        assert record.reconstruct() == system.masks[idx]
        size_slack = sum(step.b_part.bit_count() for step in record.steps)
        assert record.base_mask.bit_count() <= system.masks[idx].bit_count() + size_slack
        assert size_slack <= 2 * 0.25 * system.n


def test_decompose_rejects_bad_index(interval_chain):
    _, chain = interval_chain
    with pytest.raises(ConstructionError):
        decompose(chain, 10**9)


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
    """The chaining argument for one set, in Fractions: walk decompose() from
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

    def count(mask):
        return sum((mask & plane).bit_count() << k for k, plane in enumerate(sample.planes))

    def size(mask):
        return mask.bit_count()

    def err(mask):
        return abs(Fraction(size(mask), n) - Fraction(count(mask), t))

    record = decompose(chain, index)
    part_sizes, sum_b = [], 0
    for step in record.steps:  # level k down to 0
        i, a, b = step.level, step.a_part, step.b_part
        scale = eps if i == chain.k else Fraction(chain.level_eps[i])
        before, after = step.set_before, step.set_after
        check(size(before) == size(after) - size(b) + size(a), f"size identity broken at level {i}")
        check(count(before) == count(after) - count(b) + count(a), f"count identity broken at level {i}")
        check(err(before) <= err(after) + err(a) + err(b), f"triangle step violated at level {i}")
        for name, part in (("a", a), ("b", b)):
            check(
                err(part) <= delta * max(scale, Fraction(size(part), n)),
                f"{name}-part error exceeds its claim bound at level {i}",
            )
            check(size(part) < chain.levels[i].alpha, f"{name}-part size >= alpha at level {i}")
            part_sizes.append(size(part))
        sum_b += size(b)
    whole, base = record.steps[0].set_before, record.base_mask
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
    sample = uniform_sample(120, 70, seed=(41, 2))
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
    sample = uniform_sample(120, 70, seed=(41, 3))
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
    widest = max(level.ab_family.sizes)
    levels = list(chain.levels)
    levels[1] = dataclasses.replace(level, alpha=float(widest))
    forged = dataclasses.replace(chain, levels=tuple(levels))
    outcome = assert_oracle_agrees(forged, sample, report, range(len(system)))
    assert "-part size >= alpha at level 1" in outcome


@pytest.fixture(scope="module")
def dyadic_chain():
    # eps n t = 2048 makes every small-set ratio dyadic, and delta = 1/4
    # puts the finest scale at alpha_k = eps n delta = 8 exactly
    system = intervals(128)
    return system, build_chain(system, 0.25, 0.25)


def test_audit_accepts_bounds_met_with_equality(dyadic_chain):
    system, chain = dyadic_chain
    assert chain.k == 2 and chain.levels[chain.k].alpha == chain.eps * system.n * chain.delta
    sample = uniform_sample(128, 64, seed=(43, 1))
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


# --- rescaling bridge ---------------------------------------------------------------


def test_rescale_accepts_full_sample():
    system = intervals(60)
    assert rescale_and_verify(system, Sample.full(60), 0.5, 0.4)


def test_rescale_rejects_bad_sample():
    system = intervals(60)
    assert not rescale_and_verify(system, uniform_sample(60, 2, seed=3), 0.5, 0.4)


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
