import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relapprox.errors import ConstructionError
from relapprox.generators import (
    ImplicitIntervals,
    PointSet2D,
    axis_rectangles,
    halfplanes,
    intervals,
    power_set,
    random_points,
    random_system,
)
from relapprox.generators import _integer_coords, _max_slope_at_least, _window_max_diff
from relapprox.sampling import WITH, WITHOUT, Sample, make_rng, relative_error, uniform_sample
from relapprox.set_system import SetSystem

from oracles import growth_checks, mask_sample, sauer_shelah, vc_dimension


# --- halfplane oracle: exact strict-separability via convex hull disjointness --


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _on_segment(p, a, b):
    if _cross(a, b, p) != 0:
        return False
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def _point_in_hull(p, hull):
    if len(hull) == 1:
        return p == hull[0]
    if len(hull) == 2:
        return _on_segment(p, hull[0], hull[1])
    for a, b in zip(hull, hull[1:] + hull[:1]):
        if _cross(a, b, p) < 0:
            return False
    return True


def _segments_intersect(a, b, c, d):
    d1, d2 = _cross(c, d, a), _cross(c, d, b)
    d3, d4 = _cross(a, b, c), _cross(a, b, d)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != d2 and d3 != d4:
        return True
    return any(
        _on_segment(p, u, v) for p, u, v in ((a, c, d), (b, c, d), (c, a, b), (d, a, b))
    )


def _hulls_intersect(h1, h2):
    if not h1 or not h2:
        return False
    if any(_point_in_hull(p, h2) for p in h1) or any(_point_in_hull(p, h1) for p in h2):
        return True
    e1 = list(zip(h1, h1[1:] + h1[:1])) if len(h1) > 1 else []
    e2 = list(zip(h2, h2[1:] + h2[:1])) if len(h2) > 1 else []
    return any(_segments_intersect(a, b, c, d) for a, b in e1 for c, d in e2)


def oracle_halfplane_traces(points) -> set[int]:
    """Every subset strictly separable from its complement (exact arithmetic)."""
    pts = [(Fraction(x), Fraction(y)) for x, y in points]
    m = len(pts)
    out = set()
    for mask in range(1 << m):
        inside = [pts[i] for i in range(m) if (mask >> i) & 1]
        outside = [pts[i] for i in range(m) if not (mask >> i) & 1]
        if not _hulls_intersect(_convex_hull(inside), _convex_hull(outside)):
            out.add(mask)
    return out


def oracle_rectangle_traces(points) -> set[int]:
    """T is a closed-rectangle trace iff bbox(T) contains no other point."""
    m = len(points)
    out = {0}
    for mask in range(1, 1 << m):
        chosen = [points[i] for i in range(m) if (mask >> i) & 1]
        x1 = min(p[0] for p in chosen)
        x2 = max(p[0] for p in chosen)
        y1 = min(p[1] for p in chosen)
        y2 = max(p[1] for p in chosen)
        ok = all(
            (mask >> i) & 1 or not (x1 <= points[i][0] <= x2 and y1 <= points[i][1] <= y2)
            for i in range(m)
        )
        if ok:
            out.add(mask)
    return out


# --- intervals --------------------------------------------------------------


def test_interval_counts():
    assert len(intervals(3)) == 7
    assert intervals(1).masks == (0, 1)
    assert len(intervals(20)) == 211


def test_interval_vc_dimension_is_two():
    for n in (4, 5, 6):
        assert vc_dimension(intervals(n).masks, n) == 2


def test_implicit_matches_materialized():
    imp = ImplicitIntervals(9)
    mat = imp.materialize()
    assert len(imp) == len(mat)
    k = 0
    for i in range(9):
        for j in range(i, 9):
            k += 1
            assert imp.index_of(i, j) == k
            expected = sum(1 << b for b in range(i, j + 1))
            assert mat.masks[imp.index_of(i, j)] == expected


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 40), st.data())
def test_implicit_trace_count_closed_form(n, data):
    imp = ImplicitIntervals(n)
    mat = imp.materialize()
    y = mask_sample(n, data.draw(st.integers(0, (1 << n) - 1)))
    assert len(imp.trace_on(y)) == len(mat.trace_on(y))


@pytest.mark.parametrize("mode", [WITHOUT, WITH])
def test_implicit_trace_on_an_empty_support_is_the_empty_family_of_one_set(mode):
    empty = Sample(9, [], [] if mode == WITH else None)
    trace = ImplicitIntervals(9).trace_on(empty)
    assert trace == ImplicitIntervals(0)
    assert len(trace) == len(intervals(9).trace_on(empty)) == 1


def test_implicit_intervals_on_no_points():
    # the family {empty set} over [0, 0): one set, nothing to sample or build
    family = ImplicitIntervals(0)
    assert (family.n, len(family)) == (0, 1)
    with pytest.raises(ConstructionError, match="nonempty"):
        family.materialize()
    with pytest.raises(ConstructionError, match="t = 0"):
        family.error_report(Sample(0, []), 0.5)
    with pytest.raises(ConstructionError, match="n >= 0"):
        ImplicitIntervals(-1)


@pytest.mark.parametrize("mode", [WITHOUT, WITH])
@pytest.mark.parametrize("n", [1, 2, 17, 64, 65])
def test_both_interval_forms_answer_the_family_protocol_alike(built_trace, n, mode):
    imp, mat = ImplicitIntervals(n), intervals(n)
    rng = make_rng(n, 9)
    eps = Fraction(1, 4)
    for seed in range(12):
        t = int(rng.integers(1, 2 * n + 1)) if mode == WITH else int(rng.integers(1, n + 1))
        a1 = uniform_sample(n, t, seed, mode=mode)
        trace = built_trace(mat, a1)
        assert imp.trace_on(a1).materialize() == mat.trace_on(a1).materialize() == trace
        assert len(imp.trace_on(a1)) == len(mat.trace_on(a1)) == len(trace)
        s2 = uniform_sample(trace.n, 1 + seed % trace.n, seed, mode=mode)
        want = trace.error_report(s2, eps)
        for family in (imp, mat):
            got = family.trace_on(a1).error_report(s2, eps)
            assert (got, got.exact_ratio) == (want, want.exact_ratio)
        if mode == WITHOUT:
            # s2 carried back into a1 meets the composed bound of both stage errors
            a2 = Sample(n, a1.support_array[s2.support_array])
            d1 = relative_error(mat, a1, eps).worst_ratio
            d2 = want.worst_ratio
            for family in (imp, mat):
                assert relative_error(family, a2, eps).passes(d1 + d2 + d1 * d2)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 50), st.data())
def test_implicit_verifier_agrees_with_generic(n, data):
    imp = ImplicitIntervals(n)
    mat = imp.materialize()
    t = data.draw(st.integers(1, n))
    mode = data.draw(st.sampled_from([WITHOUT, WITH]))
    seed = data.draw(st.integers(0, 2**32))
    eps = data.draw(st.floats(0.02, 0.97))
    sample = uniform_sample(n, t, seed, mode=mode)
    generic = relative_error(mat, sample, eps)
    fast = relative_error(imp, sample, eps)
    # both break exact ties toward the lowest family index, so they report
    # the same set and the same float
    assert fast.worst_set_index == generic.worst_set_index
    assert fast.worst_ratio == generic.worst_ratio
    assert fast.passes(0.41) == generic.passes(0.41)
    # the reported index attains the reported ratio
    mask = mat.masks[fast.worst_set_index]
    mult = sample.multiplicity or (1,) * len(sample.support)
    cnt = sum(c for e, c in zip(sample.support, mult) if mask >> e & 1)
    direct = abs(mask.bit_count() / n - cnt / sample.t) / max(mask.bit_count() / n, eps)
    assert direct == fast.worst_ratio
    # with Fraction eps both verifiers report the same exact ratio
    exact_eps = Fraction(data.draw(st.integers(1, 99)), 100)
    exact = relative_error(imp, sample, exact_eps)
    exact_generic = relative_error(mat, sample, exact_eps)
    assert isinstance(exact.worst_ratio, Fraction)
    assert exact.worst_ratio == exact_generic.worst_ratio
    assert exact.worst_set_index == exact_generic.worst_set_index
    # at eps = 1 every set is small: the ratio is the additive error
    additive = relative_error(imp, sample, Fraction(1))
    assert additive.worst_ratio == relative_error(mat, sample, Fraction(1)).worst_ratio


def test_eps_net_size_threshold_is_exact():
    # a set of size s >= eps n that the sample misses has ratio exactly 1, a
    # missed smaller set s / (eps n) < 1, so a sample is an eps-net where no
    # missed set reaches 1.  0.2 * 5 rounds to 1.0, but the double nearest 0.2
    # is above 1/5, so a single element is not a set of size >= eps n
    assert 0.2 * 5 == 1.0 and Fraction(0.2) * 5 > 1
    imp = ImplicitIntervals(5)
    mat = imp.materialize()
    one_gaps, two_gap = Sample(5, (0, 2, 4)), Sample(5, (0, 3, 4))
    for family in (imp, mat):
        assert relative_error(family, one_gaps, 0.2).exact_ratio < 1
        missed = relative_error(family, two_gap, 0.2)
        assert missed.exact_ratio == 1 and missed.worst_set_index == imp.index_of(1, 2)
        assert relative_error(family, one_gaps, Fraction(1, 5)).exact_ratio == 1
        with pytest.raises(ConstructionError, match="sample over"):
            relative_error(family, Sample(10, (7,)), 0.5)


def test_eps_approximation_threshold_is_exact():
    # Fraction(0.3) < 3/10, so a worst additive error of exactly 3/10 fails
    # eps = 0.3; the float comparisons answered it both ways across families
    imp = ImplicitIntervals(10)
    mat = imp.materialize()
    assert not relative_error(mat, Sample(10, range(7)), 1).passes(0.3)
    for support in itertools.combinations(range(10), 7):
        sample = Sample(10, support)
        worst = max(
            abs(Fraction(m.bit_count(), 10) - Fraction(sum(m >> e & 1 for e in support), 7))
            for m in mat.masks
        )
        for family in (imp, mat):
            assert relative_error(family, sample, Fraction(1)).worst_ratio == worst
            for eps in (0.1, 0.2, 0.3, 0.4, 0.6, 0.7):
                assert relative_error(family, sample, 1).passes(eps) == (worst <= Fraction(eps))


def test_additive_error_rejects_sample_over_another_ground_set():
    imp = ImplicitIntervals(5)
    for family in (imp, imp.materialize()):
        with pytest.raises(ConstructionError, match="sample over"):
            relative_error(family, Sample(10, (7,)), 1)


def test_implicit_large_n_worst_ratio_smoke():
    imp = ImplicitIntervals(5000)
    sample = uniform_sample(5000, 700, seed=1)
    report = relative_error(imp, sample, 0.1)
    assert 0.0 < report.worst_ratio < 1.0


def interval_oracle(n, sample, eps):
    """Exact worst ratio over every interval, one size at a time, in Python ints."""
    t, e = sample.t, Fraction(eps)
    counts = [0] * n
    for elem, c in zip(sample.support, sample.multiplicity or [1] * len(sample.support)):
        counts[elem] = c
    prefix = [0, *itertools.accumulate(counts)]
    u = np.array([x * t - prefix[x] * n for x in range(n + 1)], dtype=object)
    worst = Fraction(0)
    for s in range(1, n + 1):
        num = max(abs(d) for d in (u[s:] - u[:-s]))
        worst = max(worst, Fraction(num, n * t) / max(Fraction(s, n), e))
    return worst, prefix


def interval_at(imp, index):
    """Boundaries (a, b) of the interval {a .. b-1} at a family index > 0."""
    a = max(i for i in range(imp.n) if imp.index_of(i, i) <= index)
    return a, a + index - imp.index_of(a, a) + 1


def check_against_oracle(imp, sample, eps):
    n, t = imp.n, sample.t
    worst, prefix = interval_oracle(n, sample, eps)
    report = relative_error(imp, sample, eps)
    a, b = interval_at(imp, report.worst_set_index) if report.worst_set_index else (0, 0)
    s, c = b - a, prefix[b] - prefix[a]
    e = Fraction(eps)
    assert abs(Fraction(s, n) - Fraction(c, t)) / max(Fraction(s, n), e) == worst
    if isinstance(eps, Fraction):
        assert report.worst_ratio == worst
    else:
        assert report.worst_ratio == abs(s / n - c / t) / max(s / n, eps)


@pytest.mark.parametrize("mode", [WITHOUT, WITH])
def test_implicit_verifier_matches_oracle_above_old_switch(mode):
    n = 3000
    imp = ImplicitIntervals(n)
    for seed, t in ((1, 400), (2, 2900)):
        sample = uniform_sample(n, t, seed=seed, mode=mode)
        for eps in (0.1, Fraction(1, 10), Fraction(1, 3)):
            check_against_oracle(imp, sample, eps)


def test_implicit_verifier_beyond_int64_products():
    # one element drawn 10^13 times at the end: u grows to about n t, and the
    # Dinkelbach margins (up to 2 n^2 t) pass 2^63, which int64 would wrap
    n = 1000
    mult = np.random.default_rng(5).integers(1, 1000, size=n)
    mult[-1] = 10**13
    sample = Sample(n, tuple(range(n)), tuple(int(c) for c in mult))
    assert 2 * n * n * sample.t >= 2**63
    imp = ImplicitIntervals(n)
    assert imp._u(sample).dtype == object
    for eps in (Fraction(1, 50), 0.02, Fraction(1, 2)):
        check_against_oracle(imp, sample, eps)


# small values make equal slopes and differences common
VALUES = st.lists(st.integers(-3, 3) | st.integers(-10**6, 10**6), min_size=2, max_size=60)


def _scratch(u):
    """The (2, len(u)) scratch buffer the searches take, filled with junk:
    a search must not read what it did not write."""
    return np.full((2, len(u)), 7, dtype=u.dtype)


@settings(max_examples=200, deadline=None)
@given(VALUES, st.data())
def test_max_slope_matches_brute_force(values, data):
    u = np.array(values, dtype=np.int64)
    k = len(u)
    min_gap = data.draw(st.integers(1, k - 1))
    pairs = [(i, j) for i in range(k) for j in range(i + min_gap, k)]
    for sign in (1, -1):
        slope = {(i, j): Fraction(sign * int(u[j] - u[i]), j - i) for i, j in pairs}
        best = max(slope.values())
        got = _max_slope_at_least(u, min_gap, sign, np.arange(k), _scratch(u))
        assert got == min(p for p in pairs if slope[p] == best)


def _brute_window_max_diff(u, w):
    k = len(u)
    pairs = [(i, j) for i in range(k) for j in range(i + 1, min(i + w, k - 1) + 1)]
    best = max(int(u[j] - u[i]) for i, j in pairs)
    return min(p for p in pairs if u[p[1]] - u[p[0]] == best)


@settings(max_examples=200, deadline=None)
@given(VALUES, st.data())
def test_window_max_diff_matches_brute_force(values, data):
    u = np.array(values, dtype=np.int64)
    w = data.draw(st.integers(1, len(u)))
    for sign in (1, -1):
        assert _window_max_diff(u, w, sign, _scratch(u)) == _brute_window_max_diff(sign * u, w)


@pytest.mark.parametrize("w", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_window_max_diff_at_block_edges(w, extra, blocks):
    # the trailing minima run over u[:-1]: its length is blocks * w (w
    # divides it) or blocks * w + 1 (one element past a block; at
    # blocks = 1, w is that length minus 1)
    u = make_rng(w, extra, blocks).integers(-20, 20, size=blocks * w + extra + 1)
    for values in (u, u[::-1], np.sort(u), np.sort(u)[::-1]):
        for sign in (1, -1):
            got = _window_max_diff(values, w, sign, _scratch(values))
            assert got == _brute_window_max_diff(sign * values, w)


# --- halfplanes ---------------------------------------------------------------


def test_halfplanes_shatter_a_triangle():
    pts = PointSet2D(((0.0, 0.0), (4.0, 0.0), (1.0, 3.0)))
    system = halfplanes(pts)
    assert len(system) == 8
    assert vc_dimension(system.masks, system.n) == 3


def test_halfplanes_single_point():
    system = halfplanes(PointSet2D(((2.0, 5.0),)))
    assert set(system.masks) == {0, 1}


def test_halfplanes_collinear_points_trace_to_runs():
    pts = PointSet2D(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)))
    system = halfplanes(pts)
    # prefixes and suffixes along the line only
    expected = {0b0000, 0b0001, 0b0011, 0b0111, 0b1111, 0b1000, 0b1100, 0b1110}
    assert set(system.masks) == expected


def test_halfplanes_duplicate_points_never_split():
    pts = PointSet2D(((1.0, 1.0), (1.0, 1.0), (3.0, 0.0)))
    system = halfplanes(pts)
    for mask in system.masks:
        assert ((mask >> 0) & 1) == ((mask >> 1) & 1)


@settings(max_examples=45, deadline=None)
@given(
    st.integers(2, 7), st.integers(0, 10**6), st.integers(2, 8),
    st.sampled_from([1.0, 0.1, 1 / 3]),
)
def test_halfplanes_match_exact_oracle(m, seed, box, unit):
    # small coordinate boxes force collinear and duplicate-free degeneracies;
    # units of 0.1 and 1/3 give non-lattice floats, whose exact keys need
    # Python ints
    rng = np.random.default_rng(seed)
    pts = tuple(
        (float(x) * unit, float(y) * unit)
        for x, y in {tuple(rng.integers(0, box, 2)) for _ in range(m)}
    )
    system = halfplanes(PointSet2D(pts))
    assert system.masks == tuple(sorted(oracle_halfplane_traces(pts)))


def test_halfplanes_keys_past_int64_stay_exact():
    pts = ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (2.0, 0.0), (1.0, 1.0), (0.0, 3.0))
    far = PointSet2D(tuple((x * 2.0**40 - 7.0, y * 2.0**40 + 5.0) for x, y in pts))
    assert _integer_coords(far).dtype == object
    assert halfplanes(far) == halfplanes(PointSet2D(pts))


def test_halfplanes_rows_are_pinned():
    # any change to the family or to its order shows in the digest
    system = halfplanes(random_points(120, 77))
    assert len(system) == 14282
    digest = hashlib.sha256(system.packed.astype("<u8").tobytes()).hexdigest()
    assert digest == "3a7570b7836ab3c5d057a0e643eeb623d9393fb30e04ddcaf8fbaf2a61932e7f"


def test_halfplane_family_size_quadratic():
    pts = random_points(15, seed=3)
    system = halfplanes(pts)
    assert len(system) <= 15 * 14 + 2


# --- axis-aligned rectangles -----------------------------------------------------


def test_rectangles_shatter_a_diamond():
    pts = PointSet2D(((0.0, 1.0), (1.0, 0.0), (2.0, 1.0), (1.0, 2.0)))
    system = axis_rectangles(pts)
    assert vc_dimension(system.masks, system.n) == 4


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10**6), st.integers(2, 7))
def test_rectangles_match_oracle(m, seed, box):
    rng = np.random.default_rng(seed)
    pts = tuple(
        (float(x), float(y)) for x, y in {tuple(rng.integers(0, box, 2)) for _ in range(m)}
    )
    system = axis_rectangles(PointSet2D(pts))
    assert set(system.masks) == oracle_rectangle_traces(pts)


# --- random systems and power sets ------------------------------------------------


@pytest.mark.parametrize("n", [1, 64, 301])
def test_random_system_matches_per_bit_construction(n):
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(12)))
    masks = []
    for _ in range(40):
        mask = 0
        for k, hit in enumerate(rng.random(n) < 0.3):
            if hit:
                mask |= 1 << k
        masks.append(mask)
    assert random_system(n, 40, 0.3, 12) == SetSystem.from_masks(n, masks)


def test_random_system_degenerate_p():
    assert random_system(5, 10, 0.0, seed=1).masks == (0,)
    assert random_system(5, 10, 1.0, seed=1).masks == (31,)
    assert len(random_system(5, 0, 0.5, seed=1)) == 0


def test_power_set_basics():
    system = power_set(3)
    assert len(system) == 8
    assert vc_dimension(system.masks, system.n) == 3
    with pytest.raises(ConstructionError, match="guard"):
        power_set(21)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: random_system(0, 3, 0.5, 0), "n must be an integer >= 1, got 0"),
        (lambda: random_system(5.0, 3, 0.5, 0), "n must be an integer >= 1, got 5.0"),
        (lambda: random_system(5, -1, 0.5, 0), "m must be an integer >= 0, got -1"),
        (lambda: random_system(5, True, 0.5, 0), "m must be an integer >= 0, got True"),
        (lambda: power_set(-1), "n must be an integer >= 0, got -1"),
        (lambda: power_set(2.0), "n must be an integer >= 0, got 2.0"),
        (lambda: power_set(0), "ground set must be nonempty, got n=0"),
    ],
)
def test_generators_refuse_sizes_they_cannot_build(make, message):
    # n = 0 would divide by zero in random_system; m = -1 and n = -1 would reach numpy
    with pytest.raises(ConstructionError) as excinfo:
        make()
    assert str(excinfo.value) == message


# --- growth-function consistency across generators --------------------------------


@pytest.mark.parametrize(
    "system,d",
    [
        (intervals(30), 2),
        (halfplanes(random_points(12, seed=8)), 3),
        (axis_rectangles(random_points(12, seed=9)), 4),
        (power_set(4), 4),
    ],
    ids=["intervals", "halfplanes", "rectangles", "power_set"],
)
def test_growth_bound_holds_with_claimed_dimension(system, d):
    checks = growth_checks(system, d, samples=25, seed=17)
    assert len(checks) == 26
    for y_size, traces in checks:
        assert traces <= sauer_shelah(y_size, d) <= (math.e * y_size / d) ** d


@pytest.mark.parametrize(
    "make,claimed",
    [
        (lambda: halfplanes(random_points(7, seed=21)), 3),
        (lambda: axis_rectangles(random_points(7, seed=22)), 4),
    ],
    ids=["halfplanes", "rectangles"],
)
def test_generator_vc_dimension_at_most_claimed(make, claimed):
    system = make()
    assert vc_dimension(system.masks, system.n) <= claimed


def test_random_points_are_distinct():
    pts = random_points(50, seed=0)
    assert len(set(pts.points)) == len(pts) == 50


def test_random_points_needs_room_in_the_box():
    assert len(set(random_points(4, seed=0, box=2).points)) == 4
    for m, box in ((5, 2), (1, 0)):
        with pytest.raises(ConstructionError, match="distinct lattice points"):
            random_points(m, seed=0, box=box)
