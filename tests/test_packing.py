import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relapprox.errors import AuditFailure, ConstructionError, PreconditionFailed
from relapprox.packing import (
    Packing,
    delta_system,
    greedy_maximal_packing,
    packing_size_bound,
    packing_trace_property,
    verify_packing,
)
from relapprox.sampling import Sample
from relapprox.set_system import SetSystem, new_set_system


def oracle_all_maximal_packings(system: SetSystem, alpha) -> list[frozenset]:
    """Exhaustive enumeration of maximal alpha-packings (tiny families only)."""
    fam = len(system)
    dist = {
        (a, b): (system.masks[a] ^ system.masks[b]).bit_count()
        for a in range(fam)
        for b in range(fam)
    }
    packings = []
    for r in range(fam + 1):
        for combo in itertools.combinations(range(fam), r):
            if all(dist[a, b] >= alpha for a, b in itertools.combinations(combo, 2)):
                chosen = set(combo)
                addable = any(
                    k not in chosen and all(dist[k, c] >= alpha for c in chosen)
                    for k in range(fam)
                )
                if not addable:
                    packings.append(frozenset(combo))
    return packings


@st.composite
def small_systems(draw, max_n=9, max_sets=10):
    n = draw(st.integers(1, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=max_sets))
    return SetSystem.from_masks(n, masks)


def reference_greedy(masks, alpha, seeds=()) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Seeds, then every set >= alpha from all admitted members, in index
    order; each set's cover is its nearest member, ties to the lowest index."""

    def dist(a, b):
        return (masks[a] ^ masks[b]).bit_count()

    members = list(seeds)
    for k in range(len(masks)):
        if all(dist(k, j) >= alpha for j in members):
            members.append(k)
    cover = tuple(min(members, key=lambda j: (dist(i, j), j)) for i in range(len(masks)))
    return tuple(members), cover


@st.composite
def tied_systems(draw):
    """Families over a handful of positions spread across the words of [0, n),
    so symmetric-difference sizes take few values and tie often."""
    n = draw(st.sampled_from([1, 63, 64, 65, 130]))
    spots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6, unique=True))
    picks = draw(st.lists(st.integers(0, (1 << len(spots)) - 1), min_size=1, max_size=40))
    masks = [sum(1 << e for j, e in enumerate(spots) if p >> j & 1) for p in picks]
    return SetSystem.from_masks(n, masks)


# --- greedy construction -------------------------------------------------------


def test_four_singletons_all_admitted():
    system = new_set_system(4, [[0], [1], [2], [3]])
    packing = greedy_maximal_packing(system, 2.0)
    assert packing.member_indices == (0, 1, 2, 3)
    verify_packing(system, packing)


def test_cover_map_of_dominated_set():
    system = new_set_system(2, [[], [0]])
    packing = greedy_maximal_packing(system, 2.0)
    assert packing.member_indices == (0,)
    assert packing.cover_map == (0, 0)


def test_alpha_one_admits_every_distinct_set():
    system = new_set_system(4, [[0], [0, 1], [2], [], [1, 2, 3]])
    packing = greedy_maximal_packing(system, 1.0)
    assert packing.member_indices == tuple(range(5))
    assert packing.cover_map == tuple(range(5))


def test_cover_tie_breaks_to_lowest_member_index():
    system = new_set_system(2, [[0], [1], [0, 1]])
    packing = greedy_maximal_packing(system, 2.0)
    assert packing.member_indices == (0, 1)
    # {0,1} is at distance 1 from both members; the tie goes to member 0
    assert packing.cover_map[2] == 0


def test_empty_family():
    system = SetSystem(3, ())
    packing = greedy_maximal_packing(system, 2.0)
    assert packing.member_indices == () and packing.cover_map == ()


def test_alpha_must_be_positive():
    with pytest.raises(ConstructionError):
        greedy_maximal_packing(new_set_system(2, [[0]]), 0.0)


def test_seeded_greedy_contains_seeds_and_stays_maximal():
    system = new_set_system(6, [[0], [0, 1], [2, 3], [4], [4, 5], [1, 2]])
    coarse = greedy_maximal_packing(system, 3.0)
    fine = greedy_maximal_packing(system, 2.0, seed_members=coarse.member_indices)
    assert set(coarse.member_indices) <= set(fine.member_indices)
    verify_packing(system, fine)


def test_seeded_greedy_rejects_invalid_seeds():
    system = new_set_system(3, [[0], [1]])
    with pytest.raises(ConstructionError, match="seed member"):
        greedy_maximal_packing(system, 3.0, seed_members=(0, 1))


@settings(max_examples=60, deadline=None)
@given(small_systems(), st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0]))
def test_greedy_passes_independent_verifier(system, alpha):
    packing = greedy_maximal_packing(system, alpha)
    verify_packing(system, packing)


@settings(max_examples=30, deadline=None)
@given(small_systems(max_n=7, max_sets=7), st.sampled_from([2.0, 3.0]))
def test_greedy_is_one_of_the_exhaustive_maximal_packings(system, alpha):
    packing = greedy_maximal_packing(system, alpha)
    assert frozenset(packing.member_indices) in oracle_all_maximal_packings(system, alpha)


@settings(max_examples=80, deadline=None)
@given(tied_systems(), st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0]), st.data())
def test_greedy_matches_pure_python_reference(system, alpha, data):
    packing = greedy_maximal_packing(system, alpha)
    assert (packing.member_indices, packing.cover_map) == reference_greedy(system.masks, alpha)
    if alpha > 1:
        # a coarser reference packing, admitted first in an arbitrary order
        coarse, _ = reference_greedy(system.masks, data.draw(st.sampled_from([alpha, 2 * alpha])))
        seeds = data.draw(st.permutations(coarse))
        seeded = greedy_maximal_packing(system, alpha, seed_members=seeds)
        want = reference_greedy(system.masks, alpha, seeds)
        assert (seeded.member_indices, seeded.cover_map) == want
        verify_packing(system, seeded)


# --- corrupted certificates ---------------------------------------------------------


def singletons_packing():
    system = new_set_system(4, [[0], [1], [2], [3], [0, 1]])
    packing = greedy_maximal_packing(system, 2.0)
    assert packing.member_indices == (0, 1, 2, 3)
    assert packing.cover_map == (0, 1, 2, 3, 0)
    verify_packing(system, packing)
    return system, packing


def test_verify_rejects_cover_by_non_member():
    system, packing = singletons_packing()
    # set 4 is not a member; the lowest offending set is named
    bad = Packing(2.0, packing.member_indices, (0, 1, 4, 3, 4))
    with pytest.raises(AuditFailure, match="set 2 covered by non-member 4"):
        verify_packing(system, bad)


def test_verify_rejects_cover_that_is_not_nearest():
    system, packing = singletons_packing()
    # {0, 1} is 1 from both 0 and 1 but 3 from member 2
    bad = Packing(2.0, packing.member_indices, (0, 1, 2, 3, 2))
    with pytest.raises(AuditFailure, match="set 4: cover 2 is not the nearest member"):
        verify_packing(system, bad)
    # a tie must go to the lowest member index
    bad = Packing(2.0, packing.member_indices, (0, 1, 2, 3, 1))
    with pytest.raises(AuditFailure, match="set 4: cover 1 is not the nearest member"):
        verify_packing(system, bad)


def test_verify_rejects_member_not_covering_itself():
    system, packing = singletons_packing()
    # a member is at distance 0 from itself only, so it is its own nearest member
    bad = Packing(2.0, packing.member_indices, (0, 0, 2, 3, 0))
    with pytest.raises(AuditFailure, match="set 1: cover 0 is not the nearest member"):
        verify_packing(system, bad)


def test_verify_rejects_set_far_from_every_member():
    system, packing = singletons_packing()
    bad = Packing(2.0, (0, 1, 2), (0, 1, 2, 0, 0))
    with pytest.raises(AuditFailure, match="set 3 is 2 >= alpha from every member"):
        verify_packing(system, bad)


def test_verify_rejects_members_closer_than_alpha():
    system, packing = singletons_packing()
    bad = Packing(2.0, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4))
    with pytest.raises(AuditFailure, match="members 0 and 4 are 1 apart"):
        verify_packing(system, bad)


# --- delta system ----------------------------------------------------------------


def test_delta_system_of_two_singletons():
    system = new_set_system(2, [[0], [1]])
    packing = greedy_maximal_packing(system, 2.0)
    deltas = delta_system(system, packing)
    assert deltas.masks == (0b11,)


def test_delta_system_of_four_singletons():
    system = new_set_system(4, [[0], [1], [2], [3]])
    packing = greedy_maximal_packing(system, 2.0)
    deltas = delta_system(system, packing)
    assert len(deltas) == 6
    assert all(s == 2 for s in deltas.sizes)


@settings(max_examples=40, deadline=None)
@given(small_systems(), st.sampled_from([1.0, 2.0, 3.0]))
def test_delta_system_size_bound(system, alpha):
    packing = greedy_maximal_packing(system, alpha)
    m = packing.size
    assert len(delta_system(system, packing)) <= m * (m - 1) // 2


# --- trace distinctness property ---------------------------------------------------


def test_full_sample_separates_members():
    system = new_set_system(5, [[0, 1], [2, 3], [0, 4]])
    packing = greedy_maximal_packing(system, 2.0)
    assert packing_trace_property(system, packing, Sample.full(5))


def test_invalid_approximation_is_rejected_not_false():
    system = new_set_system(6, [[0, 1], [2, 3]])
    packing = greedy_maximal_packing(system, 4.0)
    # delta system is {0,1,2,3}; a sample at {4} has density 0 on it
    bad = Sample.from_mask(6, 0b010000)
    with pytest.raises(PreconditionFailed):
        packing_trace_property(system, packing, bad)


def test_sample_over_another_ground_set_is_rejected():
    system = new_set_system(5, [[0, 1]])
    packing = greedy_maximal_packing(system, 2.0)  # one member: no delta system
    with pytest.raises(ConstructionError, match="sample over"):
        packing_trace_property(system, packing, Sample.full(200))


@settings(max_examples=25, deadline=None)
@given(small_systems(max_n=8, max_sets=8), st.sampled_from([2, 3, 4]))
def test_trace_property_holds_for_every_valid_sample(system, alpha):
    # exhaustive over all nonempty sample candidates, exact arithmetic
    packing = greedy_maximal_packing(system, alpha)
    checked = 0
    for bits in range(1, 1 << system.n):
        sample = Sample.from_mask(system.n, bits)
        try:
            ok = packing_trace_property(system, packing, sample)
        except PreconditionFailed:
            continue
        checked += 1
        assert ok
    assert checked >= 1  # the full set always qualifies


def test_trace_property_exact_arithmetic():
    system = new_set_system(4, [[0, 1], [2, 3], [0, 2]])
    packing = greedy_maximal_packing(system, Fraction(2))
    assert packing_trace_property(system, packing, Sample.full(4))


# --- size bound -------------------------------------------------------------------


@pytest.mark.parametrize("frac", [0.5, 0.25, 0.125, 0.0625])
def test_calibrated_bound_covers_generator_packings(frac, calibrated_constants):
    from relapprox.generators import axis_rectangles, halfplanes, intervals, random_points

    for system, d in [
        (intervals(150), 2),
        (halfplanes(random_points(25, seed=51)), 3),
        (axis_rectangles(random_points(25, seed=52)), 4),
    ]:
        alpha = max(2.0, frac * system.n)
        packing = greedy_maximal_packing(system, alpha)
        assert packing.size <= packing_size_bound(
            system.n, alpha, d, c3=calibrated_constants.c3
        )


def test_packing_size_bound_monotonicity():
    base = packing_size_bound(100, 10.0, 2, c3=2.0)
    assert packing_size_bound(200, 10.0, 2, c3=2.0) > base
    assert packing_size_bound(100, 5.0, 2, c3=2.0) > base
    assert packing_size_bound(100, 10.0, 3, c3=2.0) > base


def test_packing_dataclass_validation():
    with pytest.raises(ConstructionError):
        Packing(0.0, (), ())
