"""Acceptance suite: one test per acceptance criterion, run by plain pytest.

Each test prints a PASS line with its measured quantities (visible with
pytest -s); tolerances and trial counts are fixed here, not tuned at runtime.
Criteria that need calibrated size-formula constants load constants.json,
written by `relapprox calibrate --suite calibration_suite.json --out
constants.json --workers 2`.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from relapprox.chaining import build_chain, claim7_check, telescoping_audit_all
from relapprox.errors import RetriesExhausted
from relapprox.generators import (
    ImplicitIntervals,
    halfplanes,
    intervals,
    random_points,
    random_system,
)
from relapprox.halving import certified_halving
from relapprox.harness import monte_carlo_failure, run_sweep, wilson_interval, write_sweep_csv
from relapprox.packing import greedy_maximal_packing
from relapprox.sampling import (
    WITH,
    WITHOUT,
    ApproxParams,
    Sample,
    basic_sample_size,
    chaining_sample_size,
    make_rng,
    relative_error,
    uniform_sample,
)
from relapprox.set_system import SetSystem

from oracles import chernoff_tail, mask_sample, trace_dimension, vc_dimension
from test_chaining import assert_oracle_agrees, chain_steps, reconstruct
from test_packing import member_traces_distinct


def _report(name: str, detail: str) -> None:
    print(f"[{name}] PASS: {detail}")


def three_widths(failures: int, trials: int) -> float:
    """Three widths of the Wilson interval: the slack on an empirical rate."""
    lo, hi = wilson_interval(failures, trials)
    return 3 * (hi - lo)


# --- criterion 1: union-bound size formula, quantitative -----------------------


def test_c1_basic_formula_quantitative_reproduction():
    # intervals on n=200; the formula size exceeds n, so the i.i.d.
    # (with-replacement) mode is the meaningful one to exercise
    started = time.monotonic()
    system = intervals(200)
    assert len(system) == 20101
    params = ApproxParams(0.1, 0.5, 0.2)
    t = basic_sample_size(params, len(system))
    expected = math.ceil(3.0 / (0.1 * 0.5**2) * math.log(2 * 20101 / 0.2))
    assert t == expected == 1466
    result = monte_carlo_failure(
        system, params, t, trials=200, master_seed=101, mode=WITH, workers=1
    )
    elapsed = time.monotonic() - started
    assert result.failure_rate <= params.gamma
    assert result.wilson[1] <= params.gamma
    assert elapsed < 60.0
    _report(
        "criterion 1",
        f"t={t}, failures={result.failures}/200, "
        f"wilson_hi={result.wilson[1]:.4f} <= gamma=0.2, {elapsed:.1f}s",
    )


# --- criterion 2: empirical Chernoff domination ---------------------------------


def _tail_frequency(n, member, t, eta, trials, rng, mode) -> float:
    s = int(member.sum())
    center = s * t / n
    fails = 0
    chunk = max(1, 2_000_000 // n) if mode == WITHOUT else max(1, 2_000_000 // t)
    done = 0
    while done < trials:
        c = min(chunk, trials - done)
        if mode == WITHOUT:
            keys = rng.random((c, n))
            idx = np.argpartition(keys, t - 1, axis=1)[:, :t]
            cnt = member[idx].sum(axis=1)
        else:
            draws = rng.integers(0, n, size=(c, t))
            cnt = member[draws].sum(axis=1)
        fails += int((np.abs(cnt - center) >= eta).sum())
        done += c
    return fails / trials


def test_c2_chernoff_empirical_domination():
    trials = 10_000
    rng = make_rng(202)
    checked = []
    for case in range(20):
        n = int(round(10 ** rng.uniform(2.3, 4.0)))
        t = int(rng.integers(20, min(n, 2000)))
        s = int(rng.integers(1, n + 1))
        eta = float(rng.uniform(0.3, 5.0)) * math.sqrt(s * t / n + 1)
        member = np.zeros(n, dtype=np.int64)
        member[rng.permutation(n)[:s]] = 1
        bound = min(1.0, chernoff_tail(n, s, t, eta))
        for mode in (WITHOUT, WITH):
            freq = _tail_frequency(n, member, t, eta, trials, rng, mode)
            slack = three_widths(round(freq * trials), trials)
            assert freq <= bound + slack, (case, mode, n, s, t, eta, freq, bound)
            checked.append(bound)
    informative = sum(1 for b in checked if b < 1)
    assert informative >= 10  # the tuple distribution must exercise real bounds
    _report(
        "criterion 2",
        f"20 tuples x 2 modes x {trials} trials dominated; "
        f"{informative}/40 cases with bound < 1",
    )


# --- criterion 3: composition property, exact arithmetic --------------------------


def test_c3_composition_exhaustive_exact():
    eps = Fraction(1, 3)
    rng = make_rng(303)
    cases = 0
    for n in (8, 11, 14):
        system = SetSystem.from_masks(
            n, [int(rng.integers(0, 1 << n)) for _ in range(8)]
        )
        attempts = 0
        while attempts < 400:
            m1 = int(rng.integers(1, 1 << n))
            sub = int(rng.integers(1, 1 << n)) & m1
            if sub == 0:
                continue
            attempts += 1
            a1, a2 = mask_sample(n, m1), mask_sample(n, sub)
            d1 = relative_error(system, a1, eps).worst_ratio
            traced = system.trace_on(a1).materialize()
            index_map = {e: j for j, e in enumerate(a1.support)}
            a2_traced = Sample(len(a1.support), tuple(index_map[e] for e in a2.support))
            d2 = relative_error(traced, a2_traced, eps).worst_ratio
            # the composition rule at the exactly measured stage errors
            assert relative_error(system, a2, eps).passes(d1 + d2 + d1 * d2)
            cases += 1
    assert cases >= 1000
    _report("criterion 3", f"{cases} precondition-satisfying pairs, zero counterexamples")


# --- criterion 4: chain reconstruction, zero tolerance ------------------------------


@pytest.mark.parametrize(
    "name,system,eps,delta",
    [
        ("intervals-500", intervals(500), 0.1, 0.25),
        ("halfplanes-30", halfplanes(random_points(30, seed=404)), 0.2, 0.25),
        ("random-60", random_system(60, 150, 0.3, seed=405), 0.2, 0.25),
    ],
    ids=["intervals", "halfplanes", "random"],
)
def test_c4_chain_reconstruction(name, system, eps, delta):
    chain = build_chain(system, eps, delta)
    slack_bound = 2 * eps * system.n
    for idx in range(len(system)):
        steps = chain_steps(chain, idx)
        assert all((a | b).bit_count() < chain.levels[i].packing.alpha for i, _, _, a, b in steps)
        assert reconstruct(steps) == system.masks[idx]
        removed = sum(b.bit_count() for *_, b in steps)
        assert steps[-1][2].bit_count() <= system.masks[idx].bit_count() + removed
        assert removed <= slack_bound
    _report(
        "criterion 4",
        f"{name}: |F|={len(system)}, k={chain.k}, all reconstructions bit-exact",
    )


# --- criterion 5: executable chaining theorem ---------------------------------------


@pytest.fixture(scope="module")
def chain_1000():
    system = intervals(1000)
    return system, build_chain(system, 0.2, 0.3)


@pytest.mark.slow
def test_c5_claim7_and_audit(chain_1000, calibrated_constants):
    system, chain = chain_1000
    params = ApproxParams(0.2, 0.3, 0.2)
    t = min(system.n, chaining_sample_size(params, 2, len(system), calibrated_constants))
    assert t < system.n  # the instance is sized to be non-trivial
    trials = 200
    failures = 0
    audited = 0
    for i in range(trials):
        sample = uniform_sample(system.n, t, seed=(505, i))
        report = claim7_check(chain, sample, gamma=params.gamma)
        if not report.ok:
            failures += 1
            continue
        if audited == 0:  # the Fraction oracle agrees on a stride of sets
            assert_oracle_agrees(chain, sample, report, range(0, len(system), 997))
        summary = telescoping_audit_all(chain, sample, report)  # raises on violation
        assert summary.sets_audited == len(system)
        audited += 1
    rate = failures / trials
    assert rate <= params.gamma + three_widths(failures, trials)
    assert audited + failures == trials
    _report(
        "criterion 5",
        f"t={t}, claim7 failures {failures}/{trials} "
        f"(<= gamma+3W), audit passed for every set in {audited} passing runs",
    )


# --- criterion 6: size stability of the halving construction -------------------------


@pytest.mark.slow
def test_c6_halving_size_stability_across_n():
    # the without-replacement construction caps at the ground set for these
    # n (the formula sizes exceed n), so the i.i.d. mode is the one whose
    # output sizes can be compared across n; see the README note
    started = time.monotonic()
    params = ApproxParams(0.1, 0.25, 0.1)
    trials = 200
    sizes: dict[int, list[int]] = {}
    successes: dict[int, int] = {}
    for n in (10**3, 10**4, 10**5):
        family = ImplicitIntervals(n)
        ok = 0
        ts = []
        for i in range(trials):
            try:
                sample = certified_halving(
                    family, params, seed=(606, n, i), max_retries=1, mode=WITH
                )
            except RetriesExhausted:
                continue
            ok += 1
            ts.append(sample.t)
        successes[n] = ok
        sizes[n] = ts
        fails = trials - ok
        assert ok / trials >= 1 - params.gamma - three_widths(fails, trials)
    all_sizes = [t for ts in sizes.values() for t in ts]
    ratio = max(all_sizes) / min(all_sizes)
    elapsed = time.monotonic() - started
    assert ratio <= 2.0
    assert elapsed < 600.0
    mean_sizes = {n: round(sum(ts) / len(ts)) for n, ts in sizes.items()}
    _report(
        "criterion 6",
        f"sizes {mean_sizes} (spread {ratio:.2f}x <= 2), "
        f"successes {successes}, {elapsed:.0f}s < 600s",
    )


# --- criterion 7: packing trace property, exhaustive ----------------------------------


def test_c7_packing_trace_property_exhaustive():
    rng = make_rng(707)
    combos = []
    for seed in range(3):
        masks = [int(rng.integers(0, 1 << 12)) for _ in range(8)]
        combos.append((SetSystem.from_masks(12, masks), 2))
        combos.append((SetSystem.from_masks(12, masks), 3))
    combos.append((SetSystem.from_masks(10, tuple(1 << i for i in range(10))), 2))
    total_valid = 0
    for system, alpha in combos:
        packing = greedy_maximal_packing(system, Fraction(alpha))
        valid = 0
        for bits in range(1, 1 << system.n):
            distinct = member_traces_distinct(system, packing, mask_sample(system.n, bits))
            if distinct is None:
                continue
            valid += 1
            assert distinct, (system.masks, alpha, bits)
        assert valid >= 1
        total_valid += valid
    _report(
        "criterion 7",
        f"{len(combos)} (system, alpha) combos, {total_valid} exhaustively "
        "found valid approximations, zero trace collisions",
    )


# --- criterion 8: oracle equivalence ---------------------------------------------------


def _oracle_relative_ok(system, sample, eps, delta) -> bool:
    n, t = system.n, sample.t
    sample_bits = sum(1 << e for e in sample.support)
    for mask, size in zip(system.masks, system.sizes_array.tolist()):
        cnt = (mask & sample_bits).bit_count()
        if abs(size / n - cnt / t) > delta * max(size / n, eps):
            return False
    return True


def test_c8_verifier_and_vc_oracle_equivalence():
    rng = make_rng(808)
    families = 0
    samples_checked = 0
    for _ in range(20):
        n = int(rng.integers(8, 13))
        size = int(rng.integers(4, 18))
        system = SetSystem.from_masks(n, [int(rng.integers(0, 1 << n)) for _ in range(size)])
        eps = float(rng.choice([0.23, 0.37, 0.52]))
        delta = float(rng.choice([0.19, 0.41, 0.63]))
        for bits in range(1, 1 << n):
            sample = mask_sample(n, bits)
            assert relative_error(system, sample, eps).passes(delta) == _oracle_relative_ok(
                system, sample, eps, delta
            )
            samples_checked += 1
        families += 1
    vc_checked = 0
    for seed in range(10):
        n = int(rng.integers(6, 13))
        system = SetSystem.from_masks(
            n, [int(rng.integers(0, 1 << n)) for _ in range(int(rng.integers(2, 20)))]
        )
        # the VC dimension by the library's trace count against the masks
        assert trace_dimension(system) == vc_dimension(system.masks, n)
        vc_checked += 1
    _report(
        "criterion 8",
        f"{families} families, {samples_checked} samples verified against the "
        f"definition oracle; {vc_checked} exhaustive VC checks",
    )


# --- criterion 9: harness determinism ----------------------------------------------------


def test_c9_byte_identical_csv_across_workers(tmp_path):
    from relapprox.harness import ExperimentSpec

    outputs = {}
    for workers in (1, 8):
        spec = ExperimentSpec(
            system={"family": "intervals", "n": 120},
            eps=(0.1, 0.2),
            delta=(0.3,),
            gamma=(0.2,),
            t_values=(30, 80),
            trials=60,
            master_seed=909,
            workers=workers,
        )
        path = tmp_path / f"workers{workers}.csv"
        write_sweep_csv(run_sweep(spec), path)
        outputs[workers] = path.read_bytes()
    assert outputs[1] == outputs[8]
    # repeated run with the same master seed is also byte-identical
    spec = ExperimentSpec(
        system={"family": "intervals", "n": 120},
        eps=(0.1, 0.2),
        delta=(0.3,),
        gamma=(0.2,),
        t_values=(30, 80),
        trials=60,
        master_seed=909,
        workers=8,
    )
    path = tmp_path / "repeat.csv"
    write_sweep_csv(run_sweep(spec), path)
    assert path.read_bytes() == outputs[8]
    _report("criterion 9", "CSV byte-identical at 1 and 8 workers and across reruns")
