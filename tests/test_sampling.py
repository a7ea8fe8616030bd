import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relapprox import _bitops
from relapprox.errors import ConstructionError
from relapprox.generators import ImplicitIntervals, intervals, random_system
from relapprox.halving import _subsample_without
from relapprox.harness import monte_carlo_rows
from relapprox.sampling import (
    WITH,
    WITHOUT,
    ApproxParams,
    Sample,
    basic_sample_size,
    chaining_sample_size,
    chernoff_bound,
    exact_dtype,
    halving_sample_size,
    is_eps_approximation,
    is_eps_net,
    is_relative_approx,
    main_sample_size,
    make_rng,
    relative_error,
    read_sample_json,
    uniform_sample,
    worst_of_counts,
    write_sample_json,
)
from relapprox.sampling import Constants
from relapprox.set_system import SetSystem, new_set_system

CONST1 = Constants(1.0, 1.0, 1.0, 1.0)


def oracle_count(mask, sample) -> int:
    """|A & S| from the sample's support and multiplicities, element by element."""
    mult = sample.multiplicity or (1,) * len(sample.support)
    return sum(c for e, c in zip(sample.support, mult) if mask >> e & 1)


def oracle_definition_holds(system, sample, eps, delta) -> bool:
    """Direct per-set re-evaluation of the defining inequality, in Fractions."""
    n, t, e, d = system.n, sample.t, Fraction(eps), Fraction(delta)
    for mask, size in zip(system.masks, system.sizes):
        cnt = oracle_count(mask, sample)
        if abs(Fraction(size, n) - Fraction(cnt, t)) > d * max(Fraction(size, n), e):
            return False
    return True


@st.composite
def system_and_sample(draw, max_n=10, max_sets=14):
    n = draw(st.integers(1, max_n))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=max_sets))
    bits = draw(st.integers(1, (1 << n) - 1))
    return SetSystem.from_masks(n, masks), Sample.from_mask(n, bits)


# --- params ------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.5])
def test_params_rejects_out_of_range(bad):
    with pytest.raises(ConstructionError):
        ApproxParams(bad, 0.5, 0.5)
    with pytest.raises(ConstructionError):
        ApproxParams(0.5, bad, 0.5)
    with pytest.raises(ConstructionError):
        ApproxParams(0.5, 0.5, bad)


def test_constants_must_be_at_least_one():
    with pytest.raises(ConstructionError):
        Constants(0.5, 1, 1, 1)


# --- uniform sampling ----------------------------------------------------------


def test_full_sample_when_t_equals_n():
    sample = uniform_sample(5, 5, seed=42)
    assert sample.support == (0, 1, 2, 3, 4)
    assert sample.t == 5


def test_determinism_of_sampling():
    for mode in (WITHOUT, WITH):
        a = uniform_sample(50, 12, seed=7, mode=mode)
        b = uniform_sample(50, 12, seed=7, mode=mode)
        assert a == b
    assert uniform_sample(50, 12, seed=7) != uniform_sample(50, 12, seed=8)


def test_a_spawned_seed_sequence_is_refused():
    # a path keeps a SeedSequence's entropy but not its spawn key, so both
    # children of one parent would draw the parent's stream
    root = np.random.SeedSequence(5)
    assert uniform_sample(1000, 5, root).support == (22, 468, 668, 802, 807)
    for child in root.spawn(2):
        with pytest.raises(ConstructionError, match="spawned SeedSequence"):
            uniform_sample(1000, 5, child)


def test_t_larger_than_n_without_replacement_is_an_error():
    with pytest.raises(ConstructionError):
        uniform_sample(5, 6, seed=0)
    # but fine with replacement
    s = uniform_sample(5, 12, seed=0, mode=WITH)
    assert s.t == 12 and len(s.support) <= 5


@pytest.mark.parametrize("route", ["uniform_sample", "subsample_without"])
def test_draws_without_replacement_include_each_element_at_rate_t_over_n(route):
    # 5-sigma check of every element's inclusion count over 20,000 seeds
    n, t, trials = 10, 3, 20_000
    pool = Sample(1000, np.arange(7, 1000, 100))
    counts = np.zeros(n, dtype=np.int64)
    for seed in range(trials):
        if route == "uniform_sample":
            drawn = uniform_sample(n, t, seed).support_array
        else:
            sub = _subsample_without(pool, t, make_rng(seed))
            drawn = np.searchsorted(pool.support_array, sub.support_array)
            assert np.array_equal(pool.support_array[drawn], sub.support_array)
        assert len(drawn) == t
        counts[drawn] += 1
    p = t / n
    assert np.all(np.abs(counts - trials * p) <= 5 * math.sqrt(trials * p * (1 - p)))


def test_sparse_draw_from_a_huge_ground_set():
    # the draw is O(t): a permutation of all 10^12 elements would need 8 TB
    s = uniform_sample(10**12, 5, seed=3)
    assert s.t == 5 and len(set(s.support)) == 5
    assert list(s.support) == sorted(s.support) and 0 <= s.support[0] < s.support[-1] < 10**12


def test_with_replacement_invariants():
    s = uniform_sample(30, 100, seed=3, mode=WITH)
    assert s.t == sum(s.multiplicity) == 100
    assert len(set(s.support)) == len(s.support)


# --- Sample storage ----------------------------------------------------------------


def test_sample_equality_and_hash_do_not_depend_on_the_input_type():
    forms = [
        ((0, 2, 5), (1, 3, 2)),
        ([0, 2, 5], [1, 3, 2]),
        (np.array([0, 2, 5]), np.array([1, 3, 2], dtype=np.int32)),
    ]
    samples = [Sample(7, sup, mult, seed=4) for sup, mult in forms]
    for s in samples:
        assert s == samples[0] and hash(s) == hash(samples[0])
        assert s.support == (0, 2, 5) and s.multiplicity == (1, 3, 2) and s.t == 6
        assert all(type(v) is int for v in s.support + s.multiplicity)
    assert len(set(samples)) == 1
    assert Sample(7, (0, 2, 5)) != Sample(7, (0, 2, 5), (1, 1, 1))
    assert Sample(7, (0, 2, 5), seed=4) != Sample(7, (0, 2, 5))
    assert Sample(7, (0, 2)) != Sample(8, (0, 2))


def test_sample_arrays_are_read_only_copies():
    support, mult = np.array([1, 4, 6]), np.array([2, 1, 5])
    s = Sample(9, support, mult)
    for arr in (s.support_array, s.multiplicity_array):
        assert arr.dtype == np.int64
        with pytest.raises(ValueError):
            arr[0] = 3
    support[0], mult[0] = 0, 7  # the caller's arrays stay writable and unshared
    assert s.support == (1, 4, 6) and s.multiplicity == (2, 1, 5) and s.t == 8
    assert np.array_equal(s.planes, _bitops.pack_masks([0b1010000, 0b10, 0b1000000], 9))
    with pytest.raises(AttributeError):
        s.seed = 3


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_sample_mask_round_trips(n):
    full = Sample.full(n)
    assert full.support == tuple(range(n)) and full.t == n
    assert Sample.from_mask(n, (1 << n) - 1) == full
    empty = Sample(n, ())
    assert empty.t == 0 and Sample.from_mask(n, 0) == empty
    members = np.flatnonzero(make_rng(n).random(n) < 0.5)
    s = Sample(n, members)
    assert Sample.from_mask(n, sum(1 << int(e) for e in members)) == s
    assert Sample.from_mask(n, 1 << (n - 1)).support == (n - 1,)
    with pytest.raises(ConstructionError, match="outside the ground set"):
        Sample.from_mask(n, 1 << n)


@pytest.mark.parametrize(
    "support, mult, message",
    [
        ((3, 1), None, "strictly ascending"),
        ((1, 1), None, "strictly ascending"),
        ((-1, 2), None, "outside the ground set"),
        ((0, 5), None, "outside the ground set"),
        ((0, 2), (1,), "multiplicity vector does not match support"),
        ((0, 2), (1, 0), "multiplicities must be >= 1"),
    ],
)
def test_sample_validation_messages(support, mult, message):
    for form in (tuple, list, np.array):
        with pytest.raises(ConstructionError, match=message):
            Sample(5, form(support), None if mult is None else form(mult))


@pytest.mark.parametrize(
    "support, mult",
    [
        ([1.5, 2.7], None),
        ([1.0, 2.0], None),
        ([True], None),
        ([0, True], None),
        ((0, 2), [1, 2.0]),
        ((0, 2), [True, 1]),
        (np.array([1.0, 2.0]), None),
        (np.array([True, False]), None),
        ((0, 2), np.array([1.5, 1.0])),
        ((0, 2), np.array([1, 2.0], dtype=object)),
        ("ab", None),
    ],
)
def test_sample_members_and_counts_must_be_integers(support, mult):
    with pytest.raises(ConstructionError, match="must be integers"):
        Sample(10, support, mult)
    assert Sample(10, np.array([1, 2], dtype=object), [np.int32(1), 3]).multiplicity == (1, 3)
    for shape in (5, [[1, 2]]):
        with pytest.raises(ConstructionError, match="one-dimensional"):
            Sample(10, np.array(shape))


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32, np.uint64])
def test_sample_takes_any_integer_array_in_one_copy(dtype):
    members = np.arange(0, 2 * 10**5, 2, dtype=dtype)
    tracemalloc.start()
    try:
        s = Sample(2 * 10**5, members)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert s.support == tuple(range(0, 2 * 10**5, 2)) and s.support_array.dtype == np.int64
    assert not np.shares_memory(s.support_array, members)
    # one int64 copy plus the ascending check's bools, no second copy
    assert peak < 1.5 * 8 * len(members)
    assert Sample(10, np.array([], dtype=float)) == Sample(10, [])


def test_totals_beyond_int64_are_rejected_up_front():
    # Such samples used to be accepted: at t = 2^63 the interval verifiers
    # reported a wrong worst set from wrapped int64 counts, and a
    # multiplicity of 2^63 raised OverflowError only when counted.
    with pytest.raises(ConstructionError, match="t = 9223372036854775808 does not fit"):
        Sample(3, (0, 1), (2**62, 2**62))
    with pytest.raises(ConstructionError, match="t = 18446744073709551616 does not fit"):
        Sample(8, range(8), [2**61] * 8)  # an int64 sum wraps to exactly 0
    for big in ((2**63, 1), (-(2**63) - 1, 1), np.array([2**63, 1], dtype=np.uint64)):
        with pytest.raises(ConstructionError, match="multiplicities must fit in int64"):
            Sample(3, (0, 1), big)
    # just below the limit t is exact and both verifiers find the worst set, {2}
    s = Sample(3, (0, 1), (2**62, 2**62 - 1))
    assert s.t == 2**63 - 1 and type(s.t) is int
    for family in (ImplicitIntervals(3), intervals(3)):
        report = relative_error(family, s, Fraction(1, 4))
        assert (report.worst_ratio, report.worst_set_index) == (1, 6)


@pytest.mark.slow
def test_uniformity_of_singleton_draws():
    # bucketed 5-sigma check: 10^5 singleton draws from n = 10^6, aggregated
    # into 100 equal buckets (a per-element check at this scale is vacuous:
    # expected per-element count is 0.1)
    n, trials, buckets = 10**6, 10**5, 100
    rng = make_rng(2024)
    counts = np.zeros(buckets, dtype=np.int64)
    width = n // buckets
    for _ in range(trials):
        e = int(rng.integers(0, n))
        counts[e // width] += 1
    expected = trials / buckets
    sigma = math.sqrt(trials * (1 / buckets) * (1 - 1 / buckets))
    assert np.all(np.abs(counts - expected) <= 5 * sigma)


# --- verifier ------------------------------------------------------------------


def test_full_ground_set_has_zero_error():
    system = new_set_system(6, [[0, 1], [2], [0, 1, 2, 3, 4, 5], []])
    report = relative_error(system, Sample.full(6), 0.3)
    assert report.worst_ratio == 0.0


def test_hand_evaluated_case():
    # F = {{0}} on n=2, A = {1}: error 1/2, denominator max(1/2, 1/2)
    system = new_set_system(2, [[0]])
    report = relative_error(system, Sample.from_mask(2, 0b10), 0.5)
    assert report.worst_ratio == 1.0
    assert report.worst_set_index == 0
    assert not report.passes(0.9)
    assert report.passes(1.0)


def test_family_of_empty_set_has_zero_error():
    system = new_set_system(3, [[]])
    report = relative_error(system, Sample.from_mask(3, 0b001), 0.25)
    assert report.worst_ratio == 0.0


def test_exact_arithmetic_path():
    system = new_set_system(3, [[0], [0, 1, 2]])
    report = relative_error(system, Sample.from_mask(3, 0b110), Fraction(1, 3))
    assert isinstance(report.worst_ratio, Fraction)
    # S={0}: |1/3 - 0| / max(1/3, 1/3) = 1; S=X: |1 - 2/3| / 1 = 1/3
    assert report.worst_ratio == 1
    assert report.worst_set_index == 0


@settings(max_examples=60, deadline=None)
@given(system_and_sample(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_verifier_matches_direct_definition(sys_sample, eps, delta):
    system, sample = sys_sample
    assert is_relative_approx(system, sample, ApproxParams(eps, delta, 0.5)) == (
        oracle_definition_holds(system, sample, eps, delta)
    )


@settings(max_examples=40, deadline=None)
@given(system_and_sample(), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_equivalent_displayed_form(sys_sample, eps, delta):
    # |A & S| = |S| t / n +- delta t max(|S|/n, eps), the second displayed form,
    # in Fractions: a set that meets the bound exactly passes
    system, sample = sys_sample
    n, t, e, d = system.n, sample.t, Fraction(eps), Fraction(delta)
    second_form = all(
        abs(cnt - Fraction(size * t, n)) <= d * t * max(Fraction(size, n), e)
        for cnt, size in zip(system.counts(sample), system.sizes)
    )
    assert is_relative_approx(system, sample, ApproxParams(eps, delta, 0.5)) == second_form


def test_a_sample_meeting_the_bound_exactly_passes():
    # |5/9 - 1/3| / (5/9) is exactly 2/5, below the float 0.4, though the float
    # ratio rounds to 0.4000000000000001; 1/3 is above the float 1/3
    system, sample = SetSystem.from_masks(9, [0b101111]), Sample(9, (1, 4, 6))
    report = relative_error(system, sample, 0.5)
    assert report.worst_ratio > 0.4 and report.exact_ratio == Fraction(2, 5)
    assert report.passes(0.4) and is_relative_approx(system, sample, ApproxParams(0.5, 0.4, 0.5))
    system, sample = SetSystem.from_masks(4, [0b0111]), Sample(4, (2, 3))
    report = relative_error(system, sample, 0.5)
    assert report.exact_ratio == Fraction(1, 3) and not report.passes(1 / 3)


def fraction_oracle(system, sample, eps):
    """Brute-force worst ratio in Fractions and the lowest index attaining it."""
    n, t, e = system.n, sample.t, Fraction(eps)
    ratios = []
    for mask, size in zip(system.masks, system.sizes):
        cnt = oracle_count(mask, sample)
        ratios.append(abs(Fraction(size, n) - Fraction(cnt, t)) / max(Fraction(size, n), e))
    worst = max(ratios)
    return worst, ratios.index(worst)


@pytest.mark.parametrize("family_size", [20, 300])
@pytest.mark.parametrize("mode", [WITHOUT, WITH])
def test_verifier_matches_fraction_oracle(family_size, mode):
    # 40 points and t = 25 make many sets share (size, count): ties are common
    rng = make_rng(11, family_size)
    n = 40
    masks = [int(rng.integers(0, 1 << 62)) & ((1 << n) - 1) for _ in range(family_size)]
    system = SetSystem.from_masks(n, masks)
    for seed in range(6):
        sample = uniform_sample(n, 25, seed=seed, mode=mode)
        for eps in (0.21, Fraction(21, 100), 0.1, Fraction(1, 8), 0.7, Fraction(3, 5)):
            worst, index = fraction_oracle(system, sample, eps)
            report = relative_error(system, sample, eps)
            assert report.worst_set_index == index
            if isinstance(eps, Fraction):
                assert isinstance(report.worst_ratio, Fraction)
                assert report.worst_ratio == worst
            else:
                mask, s = system.masks[index], system.sizes[index]
                c = oracle_count(mask, sample)
                assert report.worst_ratio == abs(s / n - c / sample.t) / max(s / n, eps)


@pytest.mark.parametrize("eps", [0.125, Fraction(1, 8)])
def test_ties_break_toward_lowest_index(eps):
    sample = Sample(40, tuple(range(20, 40)))  # t = 20; eps n = 5
    large = [*range(7), 20, 21, 22]  # s = 10, c = 3: |1/4 - 3/20| / (1/4) = 2/5
    small = [7, 8]  # s = 2, c = 0: (1/20) / (1/8) = 2/5
    for sets in ([large, small], [small, large]):
        report = relative_error(new_set_system(40, sets), sample, eps)
        assert report.worst_set_index == 0
        assert report.worst_ratio == pytest.approx(0.4)
    # two large sets of ratio 1; the one with the larger numerator comes second
    report = relative_error(new_set_system(40, [range(10), range(20)]), sample, eps)
    assert report.worst_set_index == 0
    assert report.worst_ratio == 1


def test_empty_family_reports_zero_in_the_type_of_eps():
    system = SetSystem(3, ())
    exact = relative_error(system, Sample.full(3), Fraction(1, 4))
    assert isinstance(exact.worst_ratio, Fraction) and exact.worst_ratio == 0
    assert exact.worst_set_index is None
    inexact = relative_error(system, Sample.full(3), 0.25)
    assert isinstance(inexact.worst_ratio, float) and inexact.worst_ratio == 0.0


def test_verifier_products_beyond_int64():
    # 2 n^2 t >= 2^63: the verifier must switch to Python integers
    n, t = 1000, 10**13 + 7
    assert exact_dtype(n, t) is object
    rng = make_rng(3)
    sizes = np.array([0, 1, 7, 49, 50, 51, 400, 999, 1000], dtype=np.int64)
    counts = np.array(
        [0 if s == 0 else int(s * t // n + rng.integers(-10**9, 10**9)) for s in sizes],
        dtype=np.int64,
    )
    for eps in (Fraction(1, 20), 0.05, Fraction(1, 2)):
        e = Fraction(eps)
        ratios = [
            abs(Fraction(int(s), n) - Fraction(int(c), t)) / max(Fraction(int(s), n), e)
            for s, c in zip(sizes, counts)
        ]
        report = worst_of_counts(n, t, eps, sizes, counts)
        assert report.worst_set_index == ratios.index(max(ratios))
        if isinstance(eps, Fraction):
            assert report.worst_ratio == max(ratios)


def test_with_replacement_counts_use_multiplicity():
    system = new_set_system(3, [[0], [0, 1]])
    sample = Sample(3, (0, 2), (3, 1))  # 3 copies of element 0, 1 of element 2
    counts = system.counts(sample)
    assert counts.tolist() == [3, 3]
    report = relative_error(system, sample, 0.1)
    # S={0}: |1/3 - 3/4| = 5/12; denominator max(1/3, .1) = 1/3 -> 5/4
    assert report.worst_ratio == pytest.approx(5 / 4)


def test_large_multiplicities_count_in_one_dense_pass(monkeypatch):
    # a scan per multiplicity level made 10^5 passes (91 s CPU); binary planes need 17
    shapes = []
    kernel = _bitops.intersection_sizes

    def recording(packed, planes):
        shapes.append(planes.shape)
        return kernel(packed, planes)

    monkeypatch.setattr(_bitops, "intersection_sizes", recording)
    system = intervals(200)
    sample = Sample(200, (0, 5), (10**5, 1))
    counts = system.counts(sample)
    assert shapes == [(17, 4)]
    assert counts.tolist() == [oracle_count(mask, sample) for mask in system.masks]


def counting_builds(monkeypatch) -> list:
    """Record every incidence index build from now on."""
    builds = []
    build = _bitops.build_incidence

    def counting(packed, n):
        builds.append(packed.shape)
        return build(packed, n)

    monkeypatch.setattr(_bitops, "build_incidence", counting)
    return builds


def test_index_is_built_once_queries_have_paid_for_it(monkeypatch):
    builds = counting_builds(monkeypatch)
    system = random_system(512, 2000, 0.02, seed=4)
    sample = uniform_sample(512, 20, seed=1)
    costs = system.count_costs(sample)
    assert costs.incidence_ns < costs.dense_ns  # the index would serve it better
    relative_error(system, sample, 0.1)
    assert builds == [] and "incidence" not in system.__dict__
    queries = 1
    while not builds:
        relative_error(system, sample, 0.1)
        queries += 1
    build_ns = _bitops.NS_PER_BUILD_WORD * system.packed.size
    assert (queries - 1) * costs.dense_ns < build_ns <= queries * costs.dense_ns * (1 + 1e-9)
    for _ in range(3):
        relative_error(system, sample, 0.1)
    assert builds == [system.packed.shape]


def test_worker_threads_build_the_index_once_and_match_one_worker(monkeypatch):
    builds = counting_builds(monkeypatch)
    params = ApproxParams(0.1, 0.5, 0.2)
    rows = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (4, 2, 1):
            system = random_system(512, 2000, 0.02, seed=4)
            rows[workers] = monte_carlo_rows(system, params, 20, 160, 3, workers=workers)
            assert "incidence" in system.__dict__
            assert len(builds) == 1
            builds.clear()
    finally:
        sys.setswitchinterval(interval)
    assert rows[4] == rows[2] == rows[1]


def test_zero_t_is_rejected():
    system = new_set_system(2, [[0]])
    with pytest.raises(ConstructionError, match="t = 0"):
        relative_error(system, Sample(2, ()), 0.5)


# --- eps-approximations and nets ---------------------------------------------


def test_full_set_is_eps_approx_and_net():
    system = new_set_system(4, [[0, 1], [2, 3]])
    assert is_eps_approximation(system, Sample.full(4), 0.01)
    assert is_eps_net(system, Sample.full(4), 0.01)


def test_eps_net_failure_by_construction():
    system = new_set_system(10, [[0, 1, 2, 3, 4]])
    sample = Sample.from_mask(10, 1 << 7)
    assert not is_eps_net(system, sample, 0.3)


@settings(max_examples=60, deadline=None)
@given(system_and_sample(), st.floats(0.05, 0.9), st.floats(0.05, 0.9))
def test_relative_approx_implies_eps_net(sys_sample, eps, delta):
    system, sample = sys_sample
    if is_relative_approx(system, sample, ApproxParams(eps, delta, 0.5)):
        assert is_eps_net(system, sample, eps)


# --- Chernoff bound -------------------------------------------------------------


def test_chernoff_frozen_value():
    # eta^2 n = 2500, 2 s t + eta n = 1500, so the value is 2 exp(-5/3)
    value = chernoff_bound(100, 10, 50, 5.0)
    assert value == pytest.approx(2.0 * math.exp(-5.0 / 3.0), rel=1e-12)
    assert value == pytest.approx(0.377751, abs=5e-6)


def test_chernoff_specialization_bound():
    # with s <= eps n delta and eta = delta t eps the bound sharpens to
    # 2 exp(-delta eps t / 3)
    rng = make_rng(4)
    for _ in range(50):
        n = int(rng.integers(10, 10**4))
        t = int(rng.integers(1, 5000))
        eps = float(rng.uniform(0.01, 0.9))
        delta = float(rng.uniform(0.01, 0.9))
        s = int(rng.uniform(0, eps * n * delta))
        eta = delta * t * eps
        assert chernoff_bound(n, s, t, eta) <= 2.0 * math.exp(-delta * eps * t / 3.0) * (
            1 + 1e-12
        )


def test_chernoff_monotone_in_eta():
    values = [chernoff_bound(1000, 100, 200, eta) for eta in (0.5, 1, 2, 4, 8, 16, 1e6)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-12


def test_chernoff_argument_validation():
    with pytest.raises(ConstructionError):
        chernoff_bound(10, 5, 10, 0.0)
    with pytest.raises(ConstructionError):
        chernoff_bound(10, 11, 10, 1.0)


def test_per_set_failure_dominated_by_specialized_bound():
    # union-bound building block: per-set empirical failure frequency at
    # eta = delta t max(|S|/n, eps)
    from relapprox.harness import wilson_interval

    n, t, trials = 60, 30, 2000
    eps, delta = 0.2, 0.4
    system = new_set_system(n, [range(0, 9), range(0, 30), range(20, 25)])
    bound = min(1.0, 2.0 * math.exp(-eps * delta * delta * t / 3.0))
    fails = np.zeros(len(system), dtype=np.int64)
    for i in range(trials):
        sample = uniform_sample(n, t, seed=(99, i))
        counts = system.counts(sample)
        for k, (cnt, size) in enumerate(zip(counts, system.sizes)):
            eta = delta * t * max(size / n, eps)
            if abs(cnt - size * t / n) > eta:
                fails[k] += 1
    for k in range(len(system)):
        lo, hi = wilson_interval(int(fails[k]), trials)
        assert fails[k] / trials <= bound + 3 * (hi - lo)


# --- sample-size formulas --------------------------------------------------------


def test_basic_size_frozen_values():
    assert basic_sample_size(ApproxParams(0.1, 0.5, 0.1), 1000) == 1189
    assert basic_sample_size(ApproxParams(0.5, 0.5, 0.5), 1) == 34


def test_basic_size_monotone_in_family():
    params = ApproxParams(0.2, 0.3, 0.2)
    sizes = [basic_sample_size(params, f) for f in (1, 10, 100, 1000)]
    assert sizes == sorted(sizes)


def test_halving_size_frozen_value():
    assert halving_sample_size(ApproxParams(0.5, 0.5, 0.5), 1, CONST1) == 17


def test_chaining_size_frozen_value():
    assert chaining_sample_size(ApproxParams(0.1, 0.5, 0.5), 2, 10, CONST1) == 212


def test_main_size_direct_evaluation():
    params = ApproxParams(0.1, 0.5, 0.2)
    expected = math.ceil(1.0 / (0.1 * 0.25) * (2 * math.log(10) + math.log(5)))
    assert main_sample_size(params, 2, CONST1) == expected


@given(
    st.floats(0.05, 0.9),
    st.floats(0.05, 0.9),
    st.floats(0.05, 0.45),
    st.integers(1, 6),
)
def test_sizes_monotone_in_gamma_and_d(eps, delta, gamma, d):
    lo = ApproxParams(eps, delta, gamma)
    hi = ApproxParams(eps, delta, min(0.95, 2 * gamma))
    for fn in (
        lambda p, dd: main_sample_size(p, dd, CONST1),
        lambda p, dd: halving_sample_size(p, dd, CONST1),
        lambda p, dd: chaining_sample_size(p, dd, 50, CONST1),
    ):
        assert fn(lo, d) >= fn(hi, d)
        assert fn(lo, d + 1) >= fn(lo, d)
    assert basic_sample_size(lo, 50) >= basic_sample_size(hi, 50)


# --- JSON ------------------------------------------------------------------------


def test_sample_json_roundtrip(tmp_path):
    for mode in (WITHOUT, WITH):
        sample = uniform_sample(20, 8, seed=13, mode=mode)
        path = tmp_path / f"{mode}.json"
        write_sample_json(sample, path)
        assert read_sample_json(path) == sample
