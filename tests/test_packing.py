import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relapprox import _bitops
from relapprox.chaining import build_chain
from relapprox.errors import AuditFailure, ConstructionError
from relapprox.generators import intervals, random_system
from relapprox.packing import Packing, _nearest_member, greedy_maximal_packing, verify_packing
from relapprox.sampling import Sample, relative_error
from relapprox.set_system import SetSystem, new_set_system

from oracles import mask_sample


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


def as_tuples(packing) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The packing's members and cover map as tuples of ints, as `reference_greedy` gives them."""
    return tuple(packing.member_indices.tolist()), tuple(packing.cover_map.tolist())


def reference_verdict(masks, alpha, members, cover) -> str | None:
    """The first failure a brute-force recheck of a packing certificate
    finds, as its `AuditFailure` message, or None when it holds."""

    def dist(a, b):
        return (masks[a] ^ masks[b]).bit_count()

    if len(set(members)) != len(members):
        return "duplicate member indices"
    for k in members:
        others = [j for j in members if j != k]
        if others:
            j = min(others, key=lambda j: (dist(k, j), members.index(j)))
            if dist(k, j) < alpha:
                return f"members {k} and {j} are {dist(k, j)} apart"
    if len(cover) != len(masks):
        return "cover map is not total"
    for i, c in enumerate(cover):
        if c not in members:
            return f"set {i} covered by non-member {c}"
        nearest = min(members, key=lambda j: (dist(i, j), j))
        if dist(i, nearest) >= alpha:
            return f"set {i} is {dist(i, nearest)} >= alpha from every member"
        if c != nearest:
            return f"set {i}: cover {c} is not the nearest member"
    return None


def farthest_members(masks, members) -> tuple[int, ...]:
    """Every set's farthest member, ties to the lowest index."""
    return tuple(
        max(members, key=lambda j: ((masks[i] ^ masks[j]).bit_count(), -j))
        for i in range(len(masks))
    )


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
    assert packing.member_indices.tolist() == [0, 1, 2, 3]
    verify_packing(system, packing)


def test_cover_map_of_dominated_set():
    system = new_set_system(2, [[], [0]])
    packing = greedy_maximal_packing(system, 2.0)
    assert as_tuples(packing) == ((0,), (0, 0))


def test_alpha_one_admits_every_distinct_set():
    system = new_set_system(4, [[0], [0, 1], [2], [], [1, 2, 3]])
    packing = greedy_maximal_packing(system, 1.0)
    assert as_tuples(packing) == (tuple(range(5)), tuple(range(5)))


def test_cover_tie_breaks_to_lowest_member_index():
    system = new_set_system(2, [[0], [1], [0, 1]])
    packing = greedy_maximal_packing(system, 2.0)
    assert packing.member_indices.tolist() == [0, 1]
    # {0,1} is at distance 1 from both members; the tie goes to member 0
    assert packing.cover_map[2] == 0


def test_empty_family():
    system = SetSystem.from_masks(3, ())
    packing = greedy_maximal_packing(system, 2.0)
    assert as_tuples(packing) == ((), ())


def test_alpha_must_be_positive():
    with pytest.raises(ConstructionError):
        greedy_maximal_packing(new_set_system(2, [[0]]), 0.0)
    for alpha in (math.inf, math.nan):
        with pytest.raises(ConstructionError, match="positive and finite"):
            greedy_maximal_packing(new_set_system(2, [[0]]), alpha)


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
@given(tied_systems(), st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0]))
def test_greedy_matches_pure_python_reference(system, alpha):
    packing = greedy_maximal_packing(system, alpha)
    assert as_tuples(packing) == reference_greedy(system.masks, alpha)


# SHA-256 of the int64 little-endian member indices, then of the cover maps,
# of every level of build_chain(intervals(400), eps, delta), level by level,
# as the all-pairs greedy scan and verifier computed them.
PINNED_INTERVAL_CHAINS = [
    (
        0.25,
        0.4,
        [17, 65, 186],
        "baeeacd4c363071d8877587070a5f8b06a3713e91b81a32b28b50668c0f50861",
        "68808d437584ca13d679a0bcbdeabf254cbf265f77f1faecaa05d2aeb0f3c134",
    ),
    (
        0.1,
        0.25,
        [101, 401, 1601],
        "7ed64af96ca530cf281b2614bf01cf97e35560c4f033fbf58c2fe57363818c36",
        "2f06d56faadf0860fba860f46bd834a8f758e11fc5d2f0f02f3a4d837caa5810",
    ),
]


@pytest.mark.parametrize(
    "eps, delta, sizes, members_sha, cover_sha",
    PINNED_INTERVAL_CHAINS,
    ids=[f"eps{p[0]}-delta{p[1]}" for p in PINNED_INTERVAL_CHAINS],
)
def test_interval_chain_packings_match_pinned_digests(eps, delta, sizes, members_sha, cover_sha):
    system = intervals(400)
    packings = [level.packing for level in build_chain(system, eps, delta).levels]
    assert [p.size for p in packings] == sizes

    def digest(arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.asarray(a, dtype="<i8").tobytes())
        return h.hexdigest()

    assert digest(p.member_indices for p in packings) == members_sha
    assert digest(p.cover_map for p in packings) == cover_sha
    for p in packings:
        verify_packing(system, p)


# --- nearest-member search -----------------------------------------------------------

HINTS = ("nearest", "farthest", "tied-higher", "any", "none")


@settings(max_examples=100, deadline=None)
@given(tied_systems(), st.data())
def test_hinted_nearest_member_matches_unpruned_scan(system, data):
    fam, masks = len(system), system.masks
    members = data.draw(st.lists(st.integers(0, fam - 1), min_size=1, unique=True))
    want = [min(members, key=lambda m: ((masks[i] ^ masks[m]).bit_count(), m)) for i in range(fam)]
    want_dist = [(masks[i] ^ masks[m]).bit_count() for i, m in enumerate(want)]
    farthest = farthest_members(masks, members)
    kinds = data.draw(st.lists(st.sampled_from(HINTS), min_size=fam, max_size=fam))
    hint = []
    for i, kind in enumerate(kinds):
        if kind == "tied-higher":
            tied = [m for m in members if (masks[i] ^ masks[m]).bit_count() == want_dist[i]]
            hint.append(max(tied))
        elif kind == "any":
            hint.append(data.draw(st.sampled_from(members)))
        else:
            hint.append({"nearest": want[i], "farthest": farthest[i], "none": -1}[kind])
    for block in (_bitops._BLOCK_BYTES, 64):  # then a set or two a block
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_bitops, "_BLOCK_BYTES", block)
            dist, got = _nearest_member(system, np.array(members), np.array(hint))
        assert dist.tolist() == want_dist
        assert got.tolist() == want


def test_distance_table_in_small_row_blocks(monkeypatch):
    system = random_system(130, 60, 0.3, 8)
    a, b = np.arange(0, 60, 2), np.arange(59, -1, -3)
    want = [[(system.masks[i] ^ system.masks[j]).bit_count() for j in b] for i in a]
    words_a, words_b = system.packed[a].T, system.packed[b].T

    def table():
        return _bitops.symdiff_sizes(words_a[:, :, None], words_b[:, None]).tolist()

    assert table() == want
    monkeypatch.setattr(_bitops, "_BLOCK_BYTES", 64)  # one or two rows a block
    assert table() == want


# --- corrupted certificates ---------------------------------------------------------


def singletons_packing():
    system = new_set_system(4, [[0], [1], [2], [3], [0, 1]])
    packing = greedy_maximal_packing(system, 2.0)
    assert as_tuples(packing) == ((0, 1, 2, 3), (0, 1, 2, 3, 0))
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


def test_verify_rejects_non_member_cover_after_a_wrong_nearest_one():
    system, packing = singletons_packing()
    # set 2 is member 2 but claims member 3; the later set 4 claims non-member 4
    bad = Packing(2.0, packing.member_indices, (0, 1, 3, 3, 4))
    with pytest.raises(AuditFailure) as err:
        verify_packing(system, bad)
    assert str(err.value) == "set 2: cover 3 is not the nearest member"


def test_verify_rejects_farthest_member_covers():
    system = intervals(20)
    packing = greedy_maximal_packing(system, 5)
    verify_packing(system, packing)
    members = packing.member_indices
    farthest = farthest_members(system.masks, members)
    with pytest.raises(AuditFailure) as err:
        verify_packing(system, Packing(5, members, farthest))
    assert str(err.value) == "set 0: cover 20 is not the nearest member"
    # the right covers up to set 149, every later set sent to its farthest member
    late = as_tuples(packing)[1][:150] + farthest[150:]
    with pytest.raises(AuditFailure) as err:
        verify_packing(system, Packing(5, members, late))
    assert str(err.value) == "set 150: cover 10 is not the nearest member"


@settings(max_examples=100, deadline=None)
@given(tied_systems(), st.sampled_from([1.5, 2.0, 3.0, 4.0]), st.data())
def test_verify_agrees_with_brute_force_on_corrupted_certificates(system, alpha, data):
    fam, masks = len(system), system.masks
    packing = greedy_maximal_packing(system, alpha)
    members = packing.member_indices.tolist()
    if data.draw(st.booleans()):
        # a random member list: members dropped, sets admitted too close to others
        members = data.draw(st.lists(st.integers(0, fam - 1), min_size=1, unique=True))
    farthest = farthest_members(masks, members)
    cover = [
        data.draw(st.sampled_from([c, farthest[i], data.draw(st.integers(0, fam - 1))]))
        for i, c in enumerate(packing.cover_map.tolist())
    ]
    want = reference_verdict(masks, alpha, members, cover)
    if want is None:
        verify_packing(system, Packing(alpha, tuple(members), tuple(cover)))
    else:
        with pytest.raises(AuditFailure) as err:
            verify_packing(system, Packing(alpha, tuple(members), tuple(cover)))
        assert str(err.value) == want


def test_verify_rejects_members_outside_the_family():
    # -1 would alias the last set, which then looks like a valid member
    system = new_set_system(3, [[0], [1]])
    for members, bad in (((0, -1), -1), ((0, 5), 5), ((2,), 2)):
        with pytest.raises(AuditFailure) as err:
            verify_packing(system, Packing(3.0, members, (0, members[-1])))
        assert str(err.value) == f"member {bad} is outside the family's [0, 2)"


def test_verify_rejects_members_closer_than_alpha():
    system, packing = singletons_packing()
    bad = Packing(2.0, (0, 1, 2, 3, 4), (0, 1, 2, 3, 4))
    with pytest.raises(AuditFailure, match="members 0 and 4 are 1 apart"):
        verify_packing(system, bad)


# --- trace distinctness property ---------------------------------------------------


def member_traces_distinct(system, packing, sample) -> bool | None:
    """Whether the packing's members have distinct traces on the sample; None
    unless the sample is a relative (alpha/n, 1/2)-approximation of the
    family of their pairwise differences, which makes the traces distinct."""
    members = system.packed[packing.member_indices]
    a, b = np.triu_indices(len(members), 1)
    differences = SetSystem.from_packed(system.n, members[a] ^ members[b])
    eps = packing.alpha / system.n
    if len(differences) and not relative_error(differences, sample, eps).passes(0.5):
        return None
    return len(SetSystem.from_packed(system.n, members).trace_on(sample)) == len(members)


def test_full_sample_separates_members():
    system = new_set_system(5, [[0, 1], [2, 3], [0, 4]])
    packing = greedy_maximal_packing(system, 2.0)
    assert member_traces_distinct(system, packing, Sample.full(5))


def test_invalid_approximation_is_rejected_not_false():
    system = new_set_system(6, [[0, 1], [2, 3]])
    packing = greedy_maximal_packing(system, 4.0)
    # the difference family is {0,1,2,3}; a sample at {4} has density 0 on it
    bad = mask_sample(6, 0b010000)
    assert member_traces_distinct(system, packing, bad) is None


def test_sample_over_another_ground_set_is_rejected():
    system = new_set_system(5, [[0, 1]])
    packing = greedy_maximal_packing(system, 2.0)  # one member: no differences
    with pytest.raises(ConstructionError, match="sample over"):
        member_traces_distinct(system, packing, Sample.full(200))


@settings(max_examples=25, deadline=None)
@given(small_systems(max_n=8, max_sets=8), st.sampled_from([2, 3, 4]))
def test_trace_property_holds_for_every_valid_sample(system, alpha):
    # exhaustive over all nonempty sample candidates, exact arithmetic
    packing = greedy_maximal_packing(system, alpha)
    checked = 0
    for bits in range(1, 1 << system.n):
        ok = member_traces_distinct(system, packing, mask_sample(system.n, bits))
        if ok is None:
            continue
        checked += 1
        assert ok
    assert checked >= 1  # the full set always qualifies


def test_trace_property_exact_arithmetic():
    system = new_set_system(4, [[0, 1], [2, 3], [0, 2]])
    packing = greedy_maximal_packing(system, Fraction(2))
    assert member_traces_distinct(system, packing, Sample.full(4))


def test_packing_dataclass_validation():
    with pytest.raises(ConstructionError):
        Packing(0.0, (), ())
    # an infinite alpha would overflow the verifier's ceil
    with pytest.raises(ConstructionError, match="alpha must be positive and finite, got inf"):
        Packing(math.inf, (), ())
    # a float or a bool is refused, not truncated, and a value past int64 is
    # refused, not left to overflow
    system = SetSystem.from_masks(4, [1, 3, 12, 14])
    verify_packing(system, Packing(2.0, (0, 2), (0, 0, 2, 2)))
    for members, cover, message in [
        ((0, 2), (0.7, 0.7, 2.7, 2.7), "cover_map must be integers"),
        ((0.2, 2.0), (0, 0, 2, 2), "member_indices must be integers"),
        ((0, 2), np.array([0.0, 0.0, 2.0, 2.0]), "cover_map must be integers"),
        ((0, 2), (0, 0, 2, True), "cover_map must be integers"),
        ((0, 2), (0, 0, 2, 2**70), "cover_map must fit in int64"),
        ((0, 2**70), (0, 0, 2, 2), "member_indices must fit in int64"),
        ((0, 2), np.array([0, 0, 2, 2**63], dtype=np.uint64), "cover_map must fit in int64"),
        ((0, 2), [[0, 0], [2, 2]], "cover_map must be one-dimensional"),
    ]:
        with pytest.raises(ConstructionError, match=message):
            Packing(2.0, members, cover)
    with pytest.raises(ConstructionError, match="alpha must be positive and finite, got True"):
        Packing(True, (0, 2), (0, 0, 2, 2))


def test_packings_hold_read_only_int64_arrays():
    system = intervals(60)
    chain = build_chain(system, 0.25, 0.4)
    seeds = ()
    for level in chain.levels:
        packing = level.packing
        for values in (packing.member_indices, packing.cover_map):
            assert values.dtype == np.int64 and not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 1
        doc = json.loads(json.dumps(packing.to_json_dict()))
        members, cover = reference_greedy(system.masks, packing.alpha, seeds)
        want = {"alpha": packing.alpha, "member_indices": list(members), "cover_map": list(cover)}
        assert doc == want
        seeds = members
