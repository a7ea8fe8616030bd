import bisect
import itertools
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relapprox import halving
from relapprox.errors import ConstructionError, RetriesExhausted
from relapprox.generators import ImplicitIntervals, intervals, random_system
from relapprox.halving import (
    _subsample_with,
    _subsample_without,
    certified_halving,
    combined_construction,
    iterated_halving,
    write_trace_json,
)
from relapprox.sampling import (
    WITH,
    WITHOUT,
    ApproxParams,
    ApproximationReport,
    Constants,
    Sample,
    chaining_sample_size,
    make_rng,
    relative_error,
    seed_sequence,
    uniform_sample,
)
from relapprox.set_system import SetSystem, new_set_system

from oracles import mask_sample


# --- recursion structure ------------------------------------------------------


def test_base_case_returns_ground_set():
    system = intervals(4)
    sample, trace = iterated_halving(system, ApproxParams(0.3, 0.5, 0.5), seed=1)
    # delta = 0.5 <= 1/sqrt(4): one base level, no sampling
    assert sample.support == (0, 1, 2, 3)
    assert len(trace.levels) == 1


def test_depth_matches_closed_form():
    # one level below the output for each factor 3 in delta sqrt(n)
    for n, delta in [(100, 0.5), (10**4, 0.25), (10**4, 0.5), (900, 0.9)]:
        _, trace = iterated_halving(
            ImplicitIntervals(n), ApproxParams(0.4, delta, 0.5), seed=3
        )
        assert len(trace.levels) - 1 == math.ceil(math.log(delta * math.sqrt(n), 3))


def test_trace_schedule_and_sizes():
    _, trace = iterated_halving(ImplicitIntervals(10**4), ApproxParams(0.5, 0.5, 0.5), seed=5)
    levels = trace.levels
    for deeper, shallower in zip(levels, levels[1:]):
        assert shallower.delta_level == pytest.approx(deeper.delta_level * 3)
        assert shallower.gamma_level == pytest.approx(deeper.gamma_level * 2)
        assert shallower.set_size_after <= deeper.set_size_after  # nonincreasing outward
        assert shallower.set_size_before == deeper.set_size_after
    assert levels[0].set_size_after == 10**4  # base keeps everything


def test_determinism():
    imp = ImplicitIntervals(3000)
    p = ApproxParams(0.5, 0.5, 0.5)
    for mode in (WITHOUT, WITH):
        a, ta = iterated_halving(imp, p, seed=11, mode=mode)
        b, tb = iterated_halving(imp, p, seed=11, mode=mode)
        assert a == b and ta == tb
        c, _ = iterated_halving(imp, p, seed=12, mode=mode)
        assert a != c


def test_subsample_helpers_nest():
    rng = make_rng(0)
    base = uniform_sample(200, 80, seed=9)
    sub = _subsample_without(base, 30, rng)
    assert sub.t == 30
    assert set(sub.support) <= set(base.support)
    multi = _subsample_with(base, 500, rng)
    assert multi.t == 500
    assert set(multi.support) <= set(base.support)
    assert sum(multi.multiplicity) == 500


# --- the with-replacement draw ------------------------------------------------


def _multinomial_pmf(k, p):
    return math.factorial(sum(k)) * math.prod(pi**ki / math.factorial(ki) for ki, pi in zip(k, p))


@pytest.mark.parametrize("t", [1, 3, 50])
@pytest.mark.parametrize("mult", [(1, 2, 3, 4), None])
def test_with_replacement_draw_is_multinomial(t, mult):
    # the outcome frequencies of a fixed-seed run against Multinomial(t, w / W):
    # a chi-square statistic over the outcomes expected at least 5 times,
    # the rest pooled, below the 1 - 3e-5 quantile (Wilson-Hilferty)
    sample = Sample(50, (10, 20, 30, 40), mult)
    w = mult or (1, 1, 1, 1)
    p = [Fraction(wi, sum(w)) for wi in w]
    draws = 10_000
    rng = make_rng(7, t)
    seen = Counter()
    for _ in range(draws):
        sub = _subsample_with(sample, t, rng)
        counts = dict(zip(sub.support, sub.multiplicity))
        seen[tuple(counts.get(e, 0) for e in sample.support)] += 1
    outcomes = [k for k in itertools.product(range(t + 1), repeat=4) if sum(k) == t]
    assert set(seen) <= set(outcomes)
    expected = {k: draws * float(_multinomial_pmf(k, p)) for k in outcomes}
    bins = [k for k in outcomes if expected[k] >= 5]
    rest = [k for k in outcomes if expected[k] < 5]
    obs = [seen[k] for k in bins] + [sum(seen[k] for k in rest)]
    exp = [expected[k] for k in bins] + [sum(expected[k] for k in rest)]
    chi2 = sum((o - e) ** 2 / e for o, e in zip(obs, exp) if e > 0)
    df = len(bins) - (not rest)
    z = 4.0
    assert chi2 < df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


@pytest.mark.parametrize("t", [1, 7, 16])
def test_with_replacement_draw_at_most_16_is_t_slot_draws(t):
    # lam = max(0, t - 4 sqrt(t)) is 0 up to t = 16: no Poisson count is
    # drawn above 0 and all t draws are slots, integers over [0, W)
    sample = Sample(30, (3, 9, 12, 20), (5, 1, 2, 4))
    ends = list(itertools.accumulate(sample.multiplicity))
    for seed in range(5):
        slots = make_rng(seed).integers(0, sample.t, size=t)
        drawn = Counter(sample.support[bisect.bisect_right(ends, int(s))] for s in slots)
        sub = _subsample_with(sample, t, make_rng(seed))
        assert dict(zip(sub.support, sub.multiplicity)) == drawn


def test_a_level_that_keeps_its_whole_set_reuses_its_trace(monkeypatch):
    # without replacement every level here keeps all 400 points, so the one
    # trace of the full set serves every level
    system = random_system(400, 200, 0.3, seed=2)
    traced = []
    trace_on = SetSystem.trace_on
    monkeypatch.setattr(
        SetSystem, "trace_on", lambda self, sample: traced.append(sample) or trace_on(self, sample)
    )
    _, trace = iterated_halving(system, ApproxParams(0.5, 0.5, 0.5), seed=3)
    assert len(trace.levels) > 2
    assert all(lv.set_size_after == 400 for lv in trace.levels)
    assert traced == [Sample.full(400)]


def test_final_sample_within_ground_set_and_seeded():
    imp = ImplicitIntervals(4000)
    sample, _ = iterated_halving(imp, ApproxParams(0.5, 0.5, 0.5), seed=21)
    assert sample.support[-1] < 4000
    assert sample.seed == 21


# --- probabilistic behaviour -----------------------------------------------------


@pytest.mark.slow
def test_success_rate_without_replacement():
    # guarantee: verified with probability >= 1 - gamma; empirically near 1
    imp = ImplicitIntervals(10**4)
    p = ApproxParams(0.5, 0.5, 0.5)
    ok = 0
    for i in range(60):
        sample, _ = iterated_halving(imp, p, seed=(77, i))
        ok += relative_error(imp, sample, p.eps).passes(p.delta)
    assert ok >= 54  # 90% of 60


@pytest.mark.slow
def test_with_replacement_sizes_stable_across_n():
    p = ApproxParams(0.1, 0.25, 0.1)
    sizes = {}
    for n in (10**3, 10**4):
        ts = []
        for i in range(5):
            s = certified_halving(ImplicitIntervals(n), p, (5, i), mode=WITH)
            ts.append(s.t)
        sizes[n] = sum(ts) / len(ts)
    assert max(sizes.values()) <= 2 * min(sizes.values())


def test_certified_trivial_base_case():
    system = intervals(4)
    sample = certified_halving(system, ApproxParams(0.3, 0.5, 0.5), seed=2)
    assert sample.support == (0, 1, 2, 3)


def test_certified_retries_exhausted_surfaces_worst_ratio():
    # a Fraction worst ratio (from Fraction eps) must format in the message too
    for worst in (1.0, Fraction(1)):

        class AlwaysBad:
            n = 50

            def trace_on(self, sample):
                return range(len(sample.support_array) + 1)  # only its length is read

            def error_report(self, sample, eps):
                return ApproximationReport(worst, 0, sample.t, eps)

        with pytest.raises(RetriesExhausted, match="observed: 1[)]") as err:
            certified_halving(AlwaysBad(), ApproxParams(0.3, 0.4, 0.5), seed=0, max_retries=3)
        assert err.value.best_worst_ratio == 1


def test_stage_two_retries_exhausted_surfaces_its_best_ratio():
    # stage 1 always certifies; every stage-2 attempt fails, the second least badly
    stage2_ratios = iter([0.9, 0.7, 0.8])

    class BadTrace:
        def __init__(self, m):
            self.n = m

        def __len__(self):
            return self.n + 1

        def error_report(self, sample, eps):
            return ApproximationReport(next(stage2_ratios), 0, sample.t, eps)

    class GoodFamilyBadTraces:
        n = 50

        def trace_on(self, sample):
            return BadTrace(len(sample.support_array))

        def error_report(self, sample, eps):
            return ApproximationReport(0.0, 0, sample.t, eps)

    with pytest.raises(RetriesExhausted, match=r"stage-2 .* observed: 0\.7[)]") as err:
        combined_construction(
            GoodFamilyBadTraces(), ApproxParams(0.3, 0.6, 0.5), 2, Constants(1, 1, 1),
            seed=0, max_retries=3,
        )
    assert err.value.best_worst_ratio == 0.7


def test_certified_requires_positive_retries():
    with pytest.raises(ConstructionError):
        certified_halving(intervals(4), ApproxParams(0.3, 0.5, 0.5), 0, max_retries=0)


def test_unknown_mode_is_rejected_before_any_level():
    # delta = 0.4 <= 1/sqrt(4): the schedule is empty, so no level checks the mode
    p = ApproxParams(0.5, 0.4, 0.5)
    for run in (iterated_halving, certified_halving):
        with pytest.raises(ConstructionError, match="unknown sampling mode 'bogus'"):
            run(intervals(4), p, 1, mode="bogus")


# --- composition ------------------------------------------------------------------


def test_composition_with_full_first_stage():
    # the full set has no error, and the trace on it is the family itself
    system = new_set_system(6, [[0, 1, 2], [3], [2, 4, 5], []])
    a1, a2 = Sample.full(6), mask_sample(6, 0b011011)
    eps = Fraction(1, 4)
    d1 = relative_error(system, a1, eps).worst_ratio
    d2 = system.trace_on(a1).error_report(a2, eps).worst_ratio
    assert d1 == 0
    assert relative_error(system, a2, eps).passes(d1 + d2 + d1 * d2)


def test_paper_style_delta_split_stays_within_budget():
    for delta in np.linspace(0.01, 0.99, 25):
        d = delta / 3
        assert d + d + d * d <= delta


@settings(max_examples=20, deadline=None)
@given(st.integers(3, 9), st.integers(0, 10**6))
def test_composition_property_randomized(n, seed):
    # sampled pairs with their exact stage errors as the deltas; the
    # preconditions then hold with equality and everything is rational
    rng = make_rng(seed)
    system = SetSystem.from_masks(n, [int(rng.integers(0, 1 << n)) for _ in range(6)])
    eps = Fraction(1, 3)
    found = 0
    for _ in range(30):
        m1 = int(rng.integers(1, 1 << n))
        sub = int(rng.integers(1, 1 << n)) & m1
        if sub == 0:
            continue
        a1, a2 = mask_sample(n, m1), mask_sample(n, sub)
        d1 = relative_error(system, a1, eps).worst_ratio
        traced_sys = system.trace_on(a1).materialize()
        index_map = {e: j for j, e in enumerate(a1.support)}
        a2t = Sample(len(a1.support), tuple(index_map[e] for e in a2.support))
        d2 = relative_error(traced_sys, a2t, eps).worst_ratio
        found += 1
        assert relative_error(system, a2, eps).passes(d1 + d2 + d1 * d2)
    assert found > 0


# --- combined two-stage construction ----------------------------------------------


def test_combined_construction_produces_verified_sample():
    system = intervals(150)
    params = ApproxParams(0.25, 0.45, 0.3)
    constants = Constants(2, 2, 2)
    sample = combined_construction(system, params, d=2, constants=constants, seed=8)
    assert relative_error(system, sample, params.eps).passes(params.delta)
    assert sample.t <= 150


def test_combined_construction_on_implicit_intervals_at_scale(calibrated_constants):
    # the paper's two-stage pipeline on 10^5 points with nothing materialized:
    # stage 2 samples the trace ImplicitIntervals(m1) at the chaining size,
    # which does not grow with n
    family = ImplicitIntervals(10**5)
    params = ApproxParams(0.1, 0.25, 0.1)
    stage = ApproxParams(params.eps, params.delta / 3.0, params.gamma / 2.0)
    sample = combined_construction(family, params, d=2, constants=calibrated_constants, seed=0)
    assert relative_error(family, sample, params.eps).passes(params.delta)
    a1 = certified_halving(family, stage, seed_sequence(0, 0))
    trace = family.trace_on(a1)
    assert np.isin(sample.support_array, a1.support_array).all()
    assert sample.t <= chaining_sample_size(stage, 2, len(trace), calibrated_constants)
    assert sample.t < family.n


def test_trace_json(tmp_path):
    _, trace = iterated_halving(ImplicitIntervals(2000), ApproxParams(0.5, 0.5, 0.5), seed=4)
    path = tmp_path / "trace.json"
    write_trace_json(trace, path)
    import json

    doc = json.loads(path.read_text())
    assert doc["final_size"] == trace.final_sample.t
    assert [lv["set_size_after"] for lv in doc["levels"]][0] == 2000


# --- RNG stream of the array subsampling -------------------------------------------
#
# The tuple-based subsampling and stage-2 mapping that the array code replaced,
# kept as a pure-Python oracle: the constructions must draw and return exactly
# what it does.


def _tuple_subsample_without(sample, t, rng):
    pool = sample.support
    chosen = rng.choice(len(pool), t, replace=False)
    return Sample(sample.n, tuple(sorted(pool[int(i)] for i in chosen)))


def _tuple_subsample_with(sample, t, rng):
    # the Poisson split of `_subsample_with`, one element and one slot at a time
    weights = sample.multiplicity or (1,) * len(sample.support)
    total = sum(weights)
    lam = max(0.0, t - 4.0 * math.sqrt(t))
    while True:
        counts = [int(rng.poisson(lam * (w / total))) for w in weights]
        if sum(counts) <= t:
            break
    ends = list(itertools.accumulate(weights))
    for _ in range(t - sum(counts)):
        counts[bisect.bisect_right(ends, int(rng.integers(0, total)))] += 1
    kept = [(e, c) for e, c in zip(sample.support, counts) if c]
    return Sample(sample.n, tuple(e for e, _ in kept), tuple(c for _, c in kept))


def _tuple_combined_construction(system, params, d, constants, seed, max_retries=5):
    stage = ApproxParams(params.eps, params.delta / 3.0, params.gamma / 2.0)
    a1 = certified_halving(system, stage, seed_sequence(seed, 0), max_retries)
    traced = system.trace_on(a1).materialize()
    m1 = len(a1.support)
    t2 = min(m1, chaining_sample_size(stage, d, len(traced), constants))
    for attempt in range(max_retries):
        cand = uniform_sample(m1, t2, seed_sequence(seed, 1, attempt))
        if relative_error(traced, cand, params.eps).passes(stage.delta):
            return Sample(system.n, tuple(a1.support[i] for i in cand.support))
    raise AssertionError("no stage-2 sample")


@pytest.fixture()
def tuple_oracle(monkeypatch):
    """Call a function with halving's subsampling swapped for the tuple oracle."""

    def call(fn, *args, **kwargs):
        with monkeypatch.context() as m:
            m.setattr(halving, "_subsample_without", _tuple_subsample_without)
            m.setattr(halving, "_subsample_with", _tuple_subsample_with)
            return fn(*args, **kwargs)

    return call


@pytest.mark.parametrize("mode", [WITHOUT, WITH])
@pytest.mark.parametrize("family", ["implicit", "random"])
def test_array_subsampling_matches_the_tuple_oracle(tuple_oracle, mode, family):
    system = (
        ImplicitIntervals(3000) if family == "implicit" else random_system(400, 200, 0.3, seed=2)
    )
    p = ApproxParams(0.9, 0.9, 0.5)
    for seed in (11, 12, (5, 1)):
        got = iterated_halving(system, p, seed, mode=mode)
        assert got == tuple_oracle(iterated_halving, system, p, seed, mode=mode)
        _, trace = got
        assert any(lv.set_size_after < lv.set_size_before for lv in trace.levels)
        assert certified_halving(system, p, seed, mode=mode) == tuple_oracle(
            certified_halving, system, p, seed, mode=mode
        )


def test_combined_construction_matches_the_tuple_oracle(tuple_oracle):
    system = random_system(3000, 100, 0.3, seed=2)
    p, constants = ApproxParams(0.9, 0.9, 0.5), Constants(1, 1, 1)
    stage = ApproxParams(p.eps, p.delta / 3.0, p.gamma / 2.0)
    for seed in (3, 4):
        # stage 1 subsamples, so the stage-2 mapping is not the identity
        assert certified_halving(system, stage, seed_sequence(seed, 0)).t < system.n
        got = combined_construction(system, p, 2, constants, seed)
        assert got.t < 100
        assert got == tuple_oracle(_tuple_combined_construction, system, p, 2, constants, seed)


def test_halving_sweep_script_prints_a_row_per_size_and_mode():
    script = Path(__file__).parents[1] / "scripts" / "halving_sweep.py"
    out = subprocess.run(
        [sys.executable, str(script), "--trials", "1", "--sizes", "100", "200"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    rows = [line.split() for line in out[2:]]
    assert [(n, mode) for n, mode, *_ in rows] == [
        (n, mode) for n in ("100", "200") for mode in ("without", "with", "combined")
    ]
    # without replacement the construction keeps the whole ground set
    assert all(row[3] == "1/1" for row in rows) and rows[0][2] == "100"
