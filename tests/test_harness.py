import json
from pathlib import Path

import pytest

from relapprox import harness
from relapprox.errors import CalibrationError, ConstructionError
from relapprox.generators import intervals
from relapprox.harness import (
    CALIBRATION_GRID,
    CalibrationCase,
    ExperimentSpec,
    calibrate_constants,
    load_suite,
    monte_carlo_failure,
    monte_carlo_rows,
    run_sweep,
    suite_sha256,
    system_from_descriptor,
    wilson_interval,
    write_constants_json,
    write_sweep_csv,
)
from relapprox.sampling import (
    WITH,
    WITHOUT,
    ApproxParams,
    Constants,
    formula_size,
    load_constants,
    main_sample_size,
    seed_sequence,
)
from relapprox.set_system import write_json


# --- Wilson intervals -----------------------------------------------------------


def test_wilson_contains_estimate():
    lo, hi = wilson_interval(3, 100)
    assert lo < 0.03 < hi
    assert 0.0 <= lo and hi <= 1.0


def test_wilson_zero_failures_starts_at_zero():
    lo, hi = wilson_interval(0, 50)
    assert lo == 0.0 and 0 < hi < 0.12


def test_wilson_shrinks_with_trials():
    widths = [hi - lo for lo, hi in (wilson_interval(5, trials) for trials in (400, 100, 25))]
    assert widths[0] < widths[1] < widths[2]


def test_wilson_validation():
    with pytest.raises(ConstructionError):
        wilson_interval(5, 4)


# --- Monte Carlo ------------------------------------------------------------------


def test_full_sample_never_fails():
    system = intervals(30)
    res = monte_carlo_failure(system, ApproxParams(0.2, 0.3, 0.2), 30, 50, master_seed=1)
    assert res.failures == 0
    assert res.failure_rate == 0.0


def test_oversized_t_is_an_error_without_replacement():
    with pytest.raises(ConstructionError, match="replacement"):
        monte_carlo_failure(intervals(10), ApproxParams(0.2, 0.3, 0.2), 11, 5, 0)
    res = monte_carlo_failure(
        intervals(10), ApproxParams(0.2, 0.3, 0.2), 25, 5, 0, mode="with"
    )
    assert res.trials == 5


def test_worker_count_does_not_change_results():
    system = intervals(60)
    params = ApproxParams(0.15, 0.3, 0.2)
    one = monte_carlo_failure(system, params, 25, 40, master_seed=9, workers=1)
    eight = monte_carlo_failure(system, params, 25, 40, master_seed=9, workers=8)
    assert one == eight


@pytest.mark.parametrize("trials, workers", [(40, 0), (40, -1), (40, 2.0), (0, 1), ("40", 1)])
def test_run_loop_rejects_bad_trial_and_worker_counts(trials, workers):
    system = intervals(20)
    params = ApproxParams(0.15, 0.3, 0.2)
    with pytest.raises(ConstructionError, match="must be an integer >= 1"):
        monte_carlo_rows(system, params, 5, trials, master_seed=9, workers=workers)


def test_aggregates_recomputable_from_rows():
    system = intervals(60)
    params = ApproxParams(0.15, 0.3, 0.2)
    rows = monte_carlo_rows(system, params, 25, 40, master_seed=9, workers=4)
    agg = monte_carlo_failure(system, params, 25, 40, master_seed=9)
    assert agg.failures == sum(r.failed for r in rows)
    assert [r.trial for r in rows] == list(range(40))
    again = monte_carlo_rows(system, params, 25, 40, master_seed=9)
    assert rows == again
    # failed iff the trial's worst ratio exceeds delta
    assert all(r.failed == (r.worst_ratio > params.delta) for r in rows)


def test_failure_rate_nonincreasing_in_t_with_shared_seeds():
    system = intervals(80)
    params = ApproxParams(0.15, 0.25, 0.2)
    rates = []
    for t in (10, 30, 60):
        res = monte_carlo_failure(system, params, t, 120, master_seed=4, cell_index=0)
        lo, hi = res.wilson
        rates.append((res.failure_rate, hi - lo))
    for (r1, w1), (r2, w2) in zip(rates, rates[1:]):
        assert r2 <= r1 + 3 * (w1 + w2)


# --- sweeps and CSV -----------------------------------------------------------------


def make_spec(tmp_path, **overrides):
    doc = {
        "system": {"family": "intervals", "n": 50},
        "eps": [0.2],
        "delta": [0.3, 0.5],
        "gamma": [0.2],
        "t": [20, 40],
        "trials": 30,
        "master_seed": 12,
    }
    doc.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return ExperimentSpec.from_json(path)


def test_sweep_rows_and_csv_columns(tmp_path):
    spec = make_spec(tmp_path)
    rows = run_sweep(spec)
    assert len(rows) == 4  # 2 deltas x 2 t values
    out = tmp_path / "out.csv"
    write_sweep_csv(rows, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "eps,delta,gamma,t,trials,failures,failure_rate,wilson_lo,wilson_hi,seed"
    assert len(lines) == 5


def test_sweep_byte_identical_across_workers(tmp_path):
    csvs = []
    for workers in (1, 8):
        spec = make_spec(tmp_path, workers=workers)
        out = tmp_path / f"out{workers}.csv"
        write_sweep_csv(run_sweep(spec), out)
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_formula_sweep_uses_capped_size(tmp_path):
    spec = make_spec(tmp_path, t=[], formula="basic")
    rows = run_sweep(spec)
    assert all(r.t == 50 for r in rows)  # basic size exceeds n here, capped


def test_spec_validation(tmp_path):
    with pytest.raises(ConstructionError):
        make_spec(tmp_path, t=[], formula=None)
    with pytest.raises(ConstructionError):
        make_spec(tmp_path, t=[5], formula="basic")


def test_system_descriptor_from_file(tmp_path):
    path = tmp_path / "sys.json"
    write_json(intervals(7), path)
    system = system_from_descriptor({"path": str(path)})
    assert len(system) == 29


@pytest.mark.parametrize(
    "desc, missing",
    [
        ({"family": "intervals"}, "n"),
        ({"family": "implicit_intervals", "n": None}, "n"),
        ({"family": "random", "n": 10, "p": 0.5}, "m"),
        ({"family": "random", "n": 10, "m": 5}, "p"),
        ({"family": "halfplanes", "seed": 1}, "points"),
    ],
)
def test_system_descriptor_names_its_missing_key(desc, missing):
    with pytest.raises(ConstructionError, match=f"needs '{missing}'"):
        system_from_descriptor(desc)


# --- calibration ----------------------------------------------------------------------


def tiny_suite():
    return [
        CalibrationCase(
            "intervals-implicit",
            {"family": "implicit_intervals", "n": 1500},
            ApproxParams(0.15, 0.5, 0.25),
            d=2,
            use_for=("c", "c1"),
        ),
        CalibrationCase(
            "intervals-chain",
            {"family": "intervals", "n": 90},
            ApproxParams(0.25, 0.4, 0.25),
            d=2,
            use_for=("c2",),
        ),
    ]


@pytest.mark.slow
def test_calibration_smoke(tmp_path):
    constants, provenance = calibrate_constants(tiny_suite(), trials=60, master_seed=3)
    assert constants.c >= 1 and constants.c2 >= 1
    path = tmp_path / "constants.json"
    write_constants_json(constants, provenance, path)
    loaded = load_constants(path)
    assert loaded == constants
    doc = json.loads(path.read_text())
    assert doc["calibrated"] is True
    assert doc["provenance"]["suite_sha256"] == suite_sha256(tiny_suite(), 60, 3)


def test_calibration_requires_cases_per_kind():
    with pytest.raises(CalibrationError, match="no calibration cases"):
        calibrate_constants(
            [tiny_suite()[0]], trials=5, master_seed=0
        )  # no c2 case


@pytest.mark.parametrize("key", ["name", "system", "eps", "delta", "gamma", "d"])
def test_suite_case_without_a_key_names_the_case_and_the_key(tmp_path, key):
    cases = [c.descriptor() for c in tiny_suite()]
    del cases[1][key]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"trials": 40, "master_seed": 17, "cases": cases}))
    name = cases[1].get("name")
    with pytest.raises(ConstructionError, match=rf"case #1 \({name}\).* key '{key}'"):
        load_suite(path)


def test_suite_roundtrip(tmp_path):
    cases = tiny_suite()
    doc = {
        "trials": 40,
        "master_seed": 17,
        "cases": [c.descriptor() for c in cases],
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(doc))
    loaded, trials, seed = load_suite(path)
    assert trials == 40 and seed == 17
    assert loaded == cases


# --- pinned streams ---------------------------------------------------------------------
# Each harness run's random stream is pinned: changing a seed path, the draw
# or the trial order moves these values.


@pytest.fixture()
def judged(monkeypatch):
    """Record each sample the harness judges; the returned function folds the
    record into {judgement: (samples, total t, total of support elements)}."""
    record = []

    def recording(kind, judge):
        def wrapped(target, sample, *args):
            record.append((kind, sample.t, int(sample.support_array.sum())))
            return judge(target, sample, *args)

        return wrapped

    monkeypatch.setattr(harness, "relative_error", recording("verify", harness.relative_error))
    monkeypatch.setattr(harness, "claim7_check", recording("claim7", harness.claim7_check))

    def fold():
        out = {}
        for kind, t, total in record:
            calls, ts, totals = out.get(kind, (0, 0, 0))
            out[kind] = (calls + 1, ts + t, totals + total)
        record.clear()
        return out

    return fold


@pytest.mark.parametrize(
    "mode, ratios, total",
    [
        (WITHOUT, [0.7916666666666666, 1.0416666666666665, 1.0, 0.8518518518518519, 1.0,
                   1.4999999999999998], 1405),
        (WITH, [1.125, 1.3333333333333335, 1.0, 1.3333333333333335, 1.0, 1.1666666666666665],
         1206),
    ],
)
def test_monte_carlo_rows_stream_is_pinned(judged, mode, ratios, total):
    rows = monte_carlo_rows(
        intervals(40), ApproxParams(0.2, 0.4, 0.3), 12, 6, 5, mode=mode, workers=2, cell_index=3
    )
    assert [r.worst_ratio for r in rows] == ratios
    assert all(r.failed and r.t == 12 for r in rows)
    assert judged() == {"verify": (6, 72, total)}


@pytest.mark.parametrize("workers", [1, 2])
def test_calibration_stream_is_pinned(judged, workers):
    # A fine grid, so c and c1 rest on the observed failure rates.  Claim 7
    # never fails on intervals(60), so c2's samples are pinned by the record.
    suite = [
        CalibrationCase("c", {"family": "intervals", "n": 60}, ApproxParams(0.4, 0.9, 0.2), 1,
                        ("c", "c1")),
        CalibrationCase("chain", {"family": "intervals", "n": 60},
                        ApproxParams(0.6, 0.95, 0.02), 1, ("c2",)),
    ]
    grid = tuple(round(1 + 0.1 * i, 1) for i in range(31))
    constants, _ = calibrate_constants(suite, 40, 4, grid=grid, workers=workers)
    assert constants == Constants(c=1.1, c1=1.0, c2=1.0)
    assert judged() == {"verify": (120, 1040, 30960), "claim7": (40, 840, 24950)}


def test_calibration_cells_never_share_a_stream():
    # A grid finer than 0.1 and more than 1,000 positions: a decimal packing collides there.
    grid = (*CALIBRATION_GRID, 1.04, 1.05, 0.1 + 0.2, 0.3)
    paths = [
        harness._cell_path(20260810, kind, position, value)
        for kind in ("c", "c1", "c2")
        for position in range(1001)
        for value in grid
    ]
    assert len(set(paths)) == len(paths)
    # numpy hashes the paths' 32-bit words, so compare the streams themselves
    states = {seed_sequence(path).generate_state(4).tobytes() for path in paths}
    assert len(states) == len(paths)


def test_committed_suite_is_the_one_the_constants_were_calibrated_on():
    root = Path(__file__).resolve().parent.parent
    provenance = json.loads((root / "constants.json").read_text())["provenance"]
    assert suite_sha256(*load_suite(root / "calibration_suite.json")) == provenance["suite_sha256"]


def test_formula_size_caps_at_n_without_replacement_only():
    system, params, constants = intervals(40), ApproxParams(0.2, 0.4, 0.2), Constants(1, 1, 1)
    uncapped = main_sample_size(params, 2, constants)
    assert uncapped > system.n
    assert formula_size("main", params, 2, system, constants) == system.n
    assert formula_size("main", params, 2, system, constants, WITH) == uncapped
    small = ApproxParams(0.9, 0.9, 0.9)
    assert formula_size("main", small, 1, system, constants) == main_sample_size(
        small, 1, constants
    ) < system.n
