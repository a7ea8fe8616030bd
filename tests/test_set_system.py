import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relapprox._bitops import indices_from_mask
from relapprox.errors import ConstructionError
from relapprox.generators import halfplanes, intervals, random_points, random_system
from relapprox.sampling import WITH, WITHOUT, Sample, relative_error, uniform_sample
from relapprox.set_system import SetSystem, new_set_system, read_json, write_json

from oracles import (
    growth_checks,
    mask_sample,
    sauer_shelah,
    shattered,
    trace_dimension,
    vc_dimension,
)


# --- oracles -----------------------------------------------------------------


def oracle_traces(system: SetSystem, y_bits: int) -> set[int]:
    return {m & y_bits for m in system.masks}


def restrict(system: SetSystem, y_bits: int):
    """The restriction F|_Y, the trace on Y materialized over [0, |Y|), and
    the trace's map from each element of Y to its element there."""
    trace = system.trace_on(mask_sample(system.n, y_bits))
    return trace.materialize(), dict(zip(trace.columns.tolist(), range(trace.n)))


def is_shattered(system: SetSystem, y_bits: int) -> bool:
    """Whether the library's trace on Y has all 2^|Y| subsets of Y."""
    return len(system.trace_on(mask_sample(system.n, y_bits))) == 1 << y_bits.bit_count()


def interval_masks(n: int) -> list[int]:
    out = [0]
    for i in range(n):
        for j in range(i, n):
            out.append(sum(1 << k for k in range(i, j + 1)))
    return out


@st.composite
def small_systems(draw, max_n=10, max_sets=16):
    n = draw(st.integers(1, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=0, max_size=max_sets))
    return SetSystem.from_masks(n, masks)


# --- construction ------------------------------------------------------------


def test_dedup_of_equal_sets():
    system = new_set_system(3, [[0, 1], [1, 0], [1, 2]])
    assert system.n == 3
    assert system.masks == (0b011, 0b110)


def test_empty_set_allowed():
    system = new_set_system(1, [[]])
    assert system.masks == (0,)


def test_power_set_of_two():
    system = new_set_system(2, [[0], [1], [0, 1], []])
    assert len(system) == 4
    assert set(system.masks) == {0, 1, 2, 3}


def test_construction_errors():
    with pytest.raises(ConstructionError, match="index 2"):
        new_set_system(2, [[0, 2]])
    for bad in (1.0, True):
        with pytest.raises(ConstructionError, match=f"index {bad}, not an integer"):
            new_set_system(4, [[0], [bad, 2]])
    with pytest.raises(ConstructionError):
        new_set_system(0, [])


@pytest.mark.parametrize(
    "bad, message",
    [
        (2**70, "set #300 has index 1180591620717411303424, not an integer in [0, 4096)"),
        (-1, "set #300 has index -1, not an integer in [0, 4096)"),
        (4096, "set #300 has index 4096, not an integer in [0, 4096)"),
        (False, "set #300 has index False, not an integer in [0, 4096)"),
    ],
)
def test_a_bad_index_past_the_first_block_is_numbered_among_all_sets(bad, message):
    # 128 sets over n = 4,096 make a block; set #300 is in the third
    with pytest.raises(ConstructionError) as excinfo:
        new_set_system(4096, [[k % 4096] for k in range(300)] + [[5, bad]])
    assert str(excinfo.value) == message


def test_numpy_integer_members_build_the_same_family_as_ints():
    # numpy integers take the member-by-member check, Python ints the array one
    sets = [[0, 5], [], [4095, 64, 63]]
    numpy_sets = [list(np.array(s, dtype=np.int32)) for s in sets]
    assert new_set_system(4096, numpy_sets) == new_set_system(4096, sets)
    assert new_set_system(4096, sets).sizes_array.tolist() == [2, 0, 3]


def test_new_set_system_never_holds_the_dense_flags():
    # the flags are filled and packed one row block at a time: 5,000 sets
    # over n = 4,096 peak below the m n = 20.5 MB of their dense bool flags
    # (34.2 MB when the whole flag matrix was built first)
    system = random_system(4096, 5000, 0.05, 7)
    sets = [indices_from_mask(m).tolist() for m in system.masks]
    tracemalloc.start()
    try:
        built = new_set_system(4096, sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built == system and len(built) == 5000
    assert peak < 5000 * 4096


def test_duplicate_indices_collapse():
    system = new_set_system(3, [[0, 0, 1]])
    assert system.sizes_array.tolist() == [2]


@given(small_systems())
def test_cached_sizes_match_popcount(system):
    assert system.sizes_array.tolist() == [m.bit_count() for m in system.masks]
    assert len(set(system.masks)) == len(system.masks)


# --- restrict ----------------------------------------------------------------


def test_restrict_collapses_traces():
    system = new_set_system(3, [[0, 1], [1, 2]])
    traced, index_map = restrict(system, 0b010)
    assert traced.n == 1
    assert traced.masks == (1,)
    assert index_map == {1: 0}


def test_restrict_of_shattered_pair():
    system = new_set_system(2, [[], [0], [1], [0, 1]])
    traced, _ = restrict(system, 0b11)
    assert len(traced) == 4


def test_restrict_intervals_on_three_points():
    # brute-force oracle: distinct traces of the interval family on {0, 2, 4}
    system = SetSystem.from_masks(5, interval_masks(5))
    y = 0b10101
    expected = {m & y for m in interval_masks(5)}
    traced, _ = restrict(system, y)
    assert len(traced) == len(expected) == 7


@given(small_systems(), st.data())
def test_restrict_composition(system, data):
    y = data.draw(st.integers(1, (1 << system.n) - 1))
    fy, index_map = restrict(system, y)
    z = data.draw(st.integers(1, (1 << fy.n) - 1))
    fyz, _ = restrict(fy, z)
    preimage = sum(1 << orig for orig, new in index_map.items() if (z >> new) & 1)
    direct, _ = restrict(system, preimage)
    assert len(fyz) == len(direct)


def oracle_restrict(system: SetSystem, y_bits: int):
    """Per-bit trace: element members[j] of Y becomes bit j; first occurrence wins."""
    members = [e for e in range(system.n) if y_bits >> e & 1]
    traced = [sum(1 << j for j, e in enumerate(members) if s >> e & 1) for s in system.masks]
    return len(members), tuple(dict.fromkeys(traced)), dict(zip(members, range(len(members))))


@st.composite
def restrictions(draw):
    n = draw(st.sampled_from([1, 2, 63, 65, 100, 130, 191]))
    family = draw(st.sampled_from(["random", "intervals", "halfplanes"]))
    seed = draw(st.integers(0, 2**32))
    # intervals and halfplanes: many sets share each trace on Y
    if family == "intervals":
        n = min(n, 65)
        system = intervals(n)
    elif family == "halfplanes":
        n = min(n, 40)
        system = halfplanes(random_points(n, seed))
    else:
        p = draw(st.sampled_from([0.05, 0.3, 0.5, 0.9]))
        rows = np.random.default_rng(seed).random((draw(st.integers(0, 40)), n)) < p
        system = SetSystem.from_masks(n, [sum(1 << int(e) for e in np.flatnonzero(r)) for r in rows])
    full = (1 << n) - 1
    kind = draw(st.sampled_from(["ground", "single", "last-word", "any"]))
    if kind == "ground":
        y = full
    elif kind == "single":
        y = 1 << draw(st.sampled_from([0, n - 1, draw(st.integers(0, n - 1))]))
    else:
        y = draw(st.integers(1, full))
        if kind == "last-word":
            y |= 1 << (n - 1)
    return system, y


@settings(max_examples=80, deadline=None)
@given(restrictions())
def test_restrict_matches_per_bit_reference(case):
    system, y = case
    traced, index_map = restrict(system, y)
    n, masks, want_map = oracle_restrict(system, y)
    assert (traced.n, traced.masks) == (n, masks)
    assert index_map == want_map and list(index_map) == sorted(index_map)


def test_restrict_across_row_blocks():
    # 5,000 rows of 4 words span several unpacked row blocks
    rng = np.random.default_rng(7)
    masks = [int(rng.integers(0, 2**62)) << 138 | int(rng.integers(0, 2**62)) for _ in range(5000)]
    system = SetSystem.from_masks(200, masks)
    y = int(rng.integers(0, 2**62)) << 138 | int(rng.integers(0, 2**62)) | 1 << 199
    traced, index_map = restrict(system, y)
    assert (traced.n, traced.masks, index_map) == oracle_restrict(system, y)


# --- shattering and VC dimension ----------------------------------------------


def test_power_set_is_shattered():
    system = SetSystem.from_masks(3, tuple(range(8)))
    assert is_shattered(system, 0b111)


def test_intervals_do_not_shatter_three_points():
    system = SetSystem.from_masks(4, interval_masks(4))
    assert shattered(system.masks, 0b0111) is False
    assert not is_shattered(system, 0b0111)


def test_empty_set_is_shattered_by_nonempty_family():
    system = new_set_system(2, [[0]])
    assert is_shattered(system, 0)


def test_vc_dimension_of_intervals():
    system = SetSystem.from_masks(6, interval_masks(6))
    assert trace_dimension(system) == vc_dimension(system.masks, system.n) == 2


def test_vc_dimension_of_power_set():
    assert trace_dimension(SetSystem.from_masks(3, tuple(range(8)))) == 3


def test_vc_dimension_of_single_empty_set():
    assert trace_dimension(new_set_system(2, [[]])) == 0


@settings(max_examples=40, deadline=None)
@given(small_systems(max_n=8, max_sets=24))
def test_vc_dimension_matches_exhaustive_oracle(system):
    assert trace_dimension(system) == vc_dimension(system.masks, system.n)


@settings(max_examples=25, deadline=None)
@given(small_systems(max_n=8, max_sets=24))
def test_vc_witness_sizes(system):
    dim = trace_dimension(system)
    if dim >= 0:
        witnesses = [
            y for y in range(1 << system.n) if y.bit_count() == dim and is_shattered(system, y)
        ]
        assert witnesses and all(shattered(system.masks, y) for y in witnesses)
    assert not any(
        shattered(system.masks, y)
        for y in range(1 << system.n)
        if y.bit_count() == dim + 1
    )


# --- growth bound ---------------------------------------------------------------
#
# Sauer-Shelah: a family of VC dimension d has at most sum_{i <= d} C(|Y|, i)
# traces on Y, at most (e |Y| / d)^d once |Y| >= d.


def test_growth_bound_intervals():
    system = SetSystem.from_masks(20, interval_masks(20))
    assert len(system) == 211
    checks = growth_checks(system, d=2, samples=20, seed=5)
    assert len(checks) == 21
    for y_size, traces in checks:
        assert traces <= sauer_shelah(y_size, 2) <= (math.e * y_size / 2) ** 2
    # intervals meet the bound on X exactly
    assert checks[0] == (20, 211) == (20, sauer_shelah(20, 2))
    assert (math.e * 20 / 2) ** 2 > 700


def test_growth_bound_violation_reported():
    system = SetSystem.from_masks(5, tuple(range(32)))
    checks = growth_checks(system, d=1, samples=10, seed=0)
    # the power set on 5 points has VC dimension 5: its 32 traces on X
    # exceed both bounds at d = 1
    assert (5, 32) in checks and 32 > sauer_shelah(5, 1) and 32 > math.e * 5


def test_growth_bound_trivial_when_d_large():
    system = SetSystem.from_masks(6, interval_masks(6))
    d = math.ceil(math.log2(len(system)))
    checks = growth_checks(system, d, samples=10, seed=1)
    full = [traces for y_size, traces in checks if y_size == system.n]
    assert full and all(traces <= sauer_shelah(6, d) <= (math.e * 6 / d) ** d for traces in full)


# --- trace count + JSON ---------------------------------------------------------


@given(small_systems(), st.data())
def test_trace_count_matches_oracle(system, data):
    y = data.draw(st.integers(0, (1 << system.n) - 1))
    assert len(system.trace_on(mask_sample(system.n, y))) == len(oracle_traces(system, y))


@st.composite
def samples_over(draw, n, mode):
    support = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
    if mode == WITHOUT:
        return Sample(n, support)
    k = len(support)
    return Sample(n, support, draw(st.lists(st.integers(1, 5), min_size=k, max_size=k)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 5, 63, 64, 65, 130]), st.data())
def test_trace_error_report_equals_the_built_trace(built_trace, n, data):
    within = data.draw(samples_over(n, data.draw(st.sampled_from([WITHOUT, WITH]))))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=30))
    # the first sets with every element outside `within` flipped, put first:
    # distinct sets with the same trace
    outside = (1 << n) - 1 - sum(1 << e for e in within.support)
    system = SetSystem.from_masks(n, [mask ^ outside for mask in masks[:3]] + masks)
    m = len(within.support_array)
    sample = data.draw(samples_over(m, data.draw(st.sampled_from([WITHOUT, WITH]))))
    eps = data.draw(
        st.one_of(st.fractions(Fraction(1, 50), Fraction(49, 50)), st.floats(0.02, 0.98))
    )
    trace, built = system.trace_on(within), built_trace(system, within)
    assert (trace.n, len(trace)) == (built.n, len(built))
    assert trace.materialize() == built
    got = trace.error_report(sample, eps)
    want = built.error_report(sample, eps)
    assert (got, type(got.worst_ratio), got.exact_ratio) == (
        want, type(want.worst_ratio), want.exact_ratio
    )
    assert (len(system) == 0) == (got.worst_set_index is None)


def test_trace_error_report_rejects_mismatched_ground_sets(built_trace):
    system = SetSystem.from_masks(10, [0b1011, 0b110, 0b1111111111])
    within = Sample(10, [1, 4, 5, 8])
    cases = [(within, Sample(5, [0, 3])), (within, Sample(3, [0, 1])), (within, Sample(4, []))]
    cases.append((Sample(11, [1, 4]), Sample(2, [0])))
    for within, sample in cases:
        with pytest.raises(ConstructionError):
            system.trace_on(within).error_report(sample, 0.2)
        with pytest.raises(ConstructionError):  # as the built trace does
            built_trace(system, within).error_report(sample, 0.2)


@pytest.mark.parametrize("mode", [WITHOUT, WITH])
def test_trace_on_an_empty_support_has_one_set(mode):
    # every set traces to the empty set; an empty family has no trace at all
    empty = Sample(70, [], [] if mode == WITH else None)
    system = SetSystem.from_masks(70, [0, 0b101, 1 << 69])
    trace = system.trace_on(empty)
    assert (trace.n, len(trace)) == (0, 1)
    assert len(SetSystem.from_masks(70, ()).trace_on(empty)) == 0
    assert is_shattered(system, 0)
    assert not is_shattered(SetSystem.from_masks(70, ()), 0)


def test_json_roundtrip(tmp_path):
    system = new_set_system(5, [[0, 2], [], [1, 3, 4]])
    path = tmp_path / "sys.json"
    write_json(system, path)
    assert read_json(path) == system


def test_json_reader_dedups_and_flags(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"n": 3, "sets": [[0, 1], [0, 1], [2]]}')
    # three sets in the file, two distinct
    assert len(read_json(path)) == 2


def test_json_reader_rejects_non_ascending(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "sets": [[1, 0]]}')
    with pytest.raises(ConstructionError, match="ascending"):
        read_json(path)


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"n": 3, "sets": [[0], [0, 3]]}', "set #1 has index 3, not an integer in [0, 3)"),
        ('{"n": 3, "sets": [[1, 0], [-1]]}', "set #1 has index -1, not an integer in [0, 3)"),
        ('{"n": 3, "sets": [[0, true]]}', "set #0 has index True, not an integer in [0, 3)"),
        ('{"n": 3, "sets": [[0, 1.0]]}', "set #0 has index 1.0, not an integer in [0, 3)"),
        ('{"n": 3, "sets": [["a"]]}', "set #0 has index 'a', not an integer in [0, 3)"),
        ('{"n": 0, "sets": []}', "ground set must be nonempty, got n=0"),
        ('{"n": 3, "sets": [[0], [2, 1]]}', "set #1 is not strictly ascending"),
    ],
)
def test_json_reader_names_the_file_in_every_member_error(tmp_path, doc, message):
    # the members are checked once, by new_set_system, before their order
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(ConstructionError) as excinfo:
        read_json(path)
    assert str(excinfo.value) == f"{path}: {message}"


# --- the SetSystem contract -------------------------------------------------------


def test_ground_set_must_be_nonempty():
    for n in (0, -3):
        with pytest.raises(ConstructionError, match="ground set must be nonempty"):
            SetSystem.from_masks(n, [])


def test_negative_mask_rejected():
    with pytest.raises(ConstructionError, match=r"set #1 has members outside \[0, 3\)"):
        SetSystem.from_masks(3, (0b101, -1))
    with pytest.raises(ConstructionError, match=r"set #0 has members outside \[0, 3\)"):
        SetSystem.from_masks(3, [-2, 1])


@pytest.mark.parametrize("n", [63, 64, 65, 128])
def test_member_at_position_n_rejected(n):
    with pytest.raises(ConstructionError, match=rf"set #2 has members outside \[0, {n}\)"):
        SetSystem.from_masks(n, (0, 1 << (n - 1), 1 << n))
    with pytest.raises(ConstructionError, match=rf"set #1 has members outside \[0, {n}\)"):
        SetSystem.from_masks(n, [1, 1, (1 << n) | 1])
    assert len(SetSystem.from_masks(n, (0, 1 << (n - 1), (1 << n) - 1))) == 3


@pytest.mark.parametrize("n", [1, 64, 100])
def test_mask_wider_than_last_word_rejected(n):
    wide = 1 << (64 * ((n + 63) // 64) + 5)
    with pytest.raises(ConstructionError, match=rf"set #1 has members outside \[0, {n}\)"):
        SetSystem.from_masks(n, (0, wide))
    with pytest.raises(ConstructionError, match=rf"set #0 has members outside \[0, {n}\)"):
        SetSystem.from_masks(n, [wide | 1, 0])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 3, 64, 65, 130]), st.data())
def test_from_masks_keeps_first_occurrences(n, data):
    pool = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6))
    masks = data.draw(st.lists(st.sampled_from(pool), min_size=0, max_size=20))
    system = SetSystem.from_masks(n, masks)
    assert system.masks == tuple(dict.fromkeys(masks))
    assert system.sizes_array.tolist() == [m.bit_count() for m in dict.fromkeys(masks)]
    assert len(system) == len(set(masks))


def test_equal_families_compare_and_hash_equal():
    masks = (0b1, 1 << 70, 0, (1 << 100) - 1)
    once = SetSystem.from_masks(100, masks)
    deduped = SetSystem.from_masks(100, masks + masks[:2])
    assert once == deduped and hash(once) == hash(deduped)
    assert once != SetSystem.from_masks(100, masks[::-1])
    assert once != SetSystem.from_masks(101, masks)
    assert SetSystem.from_masks(5, ()) != SetSystem.from_masks(6, ())


def test_packed_is_read_only():
    system = SetSystem.from_masks(70, (1, 1 << 69))
    assert not system.packed.flags.writeable
    with pytest.raises(ValueError):
        system.packed[0, 0] = 5


def test_cached_arrays_are_read_only():
    # a write through a cached array would change every later verdict on the family
    system = random_system(64, 50, 0.2, 1)
    sample = uniform_sample(64, 10, 3)
    before = relative_error(system, sample, 0.1)
    trace = system.trace_on(sample)
    arrays = [system.sizes_array, *system.incidence, trace.sizes, trace.rows]
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[:] = 0
    assert relative_error(system, sample, 0.1) == before


def test_from_packed_matches_the_int_constructors():
    masks = [0b1, 1 << 70, 0, (1 << 100) - 1]
    words = [[m >> 64 * j & (2**64 - 1) for j in range(2)] for m in masks + masks[:2]]
    system = SetSystem.from_packed(100, np.array(words, dtype=np.uint64))
    assert system.masks == tuple(masks)
    for other in (SetSystem.from_masks(100, tuple(masks)), SetSystem.from_masks(100, masks * 2)):
        assert system == other and hash(system) == hash(other)
    assert not system.packed.flags.writeable
    with pytest.raises(AttributeError):
        system.n = 5


@pytest.mark.parametrize("n", [63, 64, 65, 128])
def test_from_packed_rejects_members_outside(n):
    rows = SetSystem.from_masks(n, [1, 1 << (n - 1)]).packed
    if n % 64:  # a member at position n, in the last word's spare bits
        wide = np.array(rows)
        wide[:, -1] |= np.uint64(1) << np.uint64(n % 64)
        with pytest.raises(ConstructionError, match=rf"set #1 has members outside \[0, {n}\)"):
            SetSystem.from_packed(n, np.concatenate((rows[:1], rows[:1], wide[1:])))
    with pytest.raises(ConstructionError, match="uint64 array"):
        SetSystem.from_packed(n, rows.astype(np.int64))
    with pytest.raises(ConstructionError, match="uint64 array"):
        SetSystem.from_packed(n + 64, rows)
