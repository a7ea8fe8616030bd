import json

import pytest

from relapprox.cli import main
from relapprox.halving import certified_halving
from relapprox.sampling import (
    WITH,
    ApproxParams,
    ApproximationReport,
    Sample,
    read_sample_json,
    write_sample_json,
)
from relapprox.set_system import SetSystem, read_json


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def interval_file(tmp_path):
    path = tmp_path / "iv.json"
    assert run("generate", "--family", "intervals", "--n", 40, "--out", path) == 0
    return path


def test_generate_families(tmp_path):
    cases = [
        (["--family", "intervals", "--n", "12"], 79),
        (["--family", "power_set", "--n", "3"], 8),
        (["--family", "random", "--n", "10", "--m", "20", "--p", "0.4", "--seed", "1"], None),
        (["--family", "halfplanes", "--points", "6", "--seed", "2"], None),
        (["--family", "rectangles", "--points", "6", "--seed", "2"], None),
    ]
    for argv, expected in cases:
        out = tmp_path / f"{argv[1]}.json"
        assert run("generate", *argv, "--out", out) == 0
        system = read_json(out).system
        if expected is not None:
            assert len(system) == expected


def test_verify_pass_and_fail(tmp_path, interval_file, capsys):
    sample_path = tmp_path / "s.json"
    assert (
        run(
            "sample", "--system", interval_file, "--formula", "basic",
            "--eps", 0.2, "--delta", 0.4, "--gamma", 0.2, "--seed", 5,
            "--out", sample_path,
        )
        == 0
    )
    # basic size exceeds n=40, so the sample is the whole ground set: passes
    code = run(
        "verify", "--system", interval_file, "--sample", sample_path,
        "--eps", 0.2, "--delta", 0.4,
    )
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and report["passes"] is True
    assert set(report) >= {"worst_ratio", "worst_set_index", "t", "eps"}

    tiny = tmp_path / "tiny.json"
    tiny.write_text('{"n": 40, "t": 1, "mode": "without", "members": [7], "seed": null}')
    code = run(
        "verify", "--system", interval_file, "--sample", tiny,
        "--eps", 0.2, "--delta", 0.4,
    )
    assert code == 1


def test_sample_formulas_require_d(tmp_path, interval_file):
    out = tmp_path / "s.json"
    code = run(
        "sample", "--system", interval_file, "--formula", "main",
        "--eps", 0.3, "--delta", 0.4, "--gamma", 0.2, "--seed", 1, "--out", out,
    )
    assert code == 2  # missing --d
    code = run(
        "sample", "--system", interval_file, "--formula", "main",
        "--eps", 0.3, "--delta", 0.4, "--gamma", 0.2, "--seed", 1,
        "--out", out, "--d", 2,
    )
    assert code == 0
    assert read_sample_json(out).t <= 40


def test_halve_writes_sample_and_trace(tmp_path, interval_file, capsys):
    trace_path = tmp_path / "trace.json"
    out_path = tmp_path / "halved.json"
    code = run(
        "halve", "--system", interval_file, "--eps", 0.4, "--delta", 0.5,
        "--gamma", 0.5, "--seed", 3, "--trace", trace_path, "--out", out_path,
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["t"] == read_sample_json(out_path).t
    trace = json.loads(trace_path.read_text())
    assert trace["levels"][0]["set_size_after"] == 40


def test_halved_sample_round_trips_through_json_and_cli(tmp_path, interval_file, capsys):
    # with-replacement output, built from arrays: json.dump rejects numpy ints
    system = read_json(interval_file).system
    sample = certified_halving(system, ApproxParams(0.4, 0.5, 0.5), 3, mode=WITH)
    assert sample.t > system.n  # the levels drew with replacement

    def same(other):
        return (other.support, other.multiplicity, other.t, other.seed) == (
            sample.support, sample.multiplicity, sample.t, sample.seed
        )

    path = tmp_path / "direct.json"
    write_sample_json(sample, path)
    assert same(read_sample_json(path))

    argv = ["halve", "--system", interval_file, "--eps", 0.4, "--delta", 0.5,
            "--gamma", 0.5, "--seed", 3, "--mode", "with"]
    out_path = tmp_path / "halved.json"
    assert run(*argv, "--out", out_path) == 0
    assert same(read_sample_json(out_path))
    capsys.readouterr()
    assert run(*argv) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert same(Sample(system.n, doc["members"], doc["counts"]))


def test_packing_and_chain_outputs(tmp_path, interval_file):
    pack_path = tmp_path / "packing.json"
    assert run("packing", "--system", interval_file, "--alpha", 8, "--out", pack_path) == 0
    doc = json.loads(pack_path.read_text())
    assert doc["alpha"] == 8.0
    assert len(doc["cover_map"]) == 821  # 40*41/2 + 1 sets

    chain_json = tmp_path / "chain.json"
    assert run("chain", "--system", interval_file, "--eps", 0.3, "--delta", 0.4,
               "--out", chain_json) == 0
    assert json.loads(chain_json.read_text())["k"] == 2

    chain_csv = tmp_path / "chain.csv"
    assert run("chain", "--system", interval_file, "--eps", 0.3, "--delta", 0.4,
               "--out", chain_csv) == 0
    assert chain_csv.read_text().startswith("level,alpha,packing_size")


def test_montecarlo_csv(tmp_path, interval_file):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "system": {"path": str(interval_file)},
                "eps": [0.2],
                "delta": [0.4],
                "gamma": [0.2],
                "t": [15, 40],
                "trials": 20,
                "master_seed": 2,
            }
        )
    )
    out = tmp_path / "mc.csv"
    assert run("montecarlo", "--spec", spec, "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "eps,delta,gamma,t,trials,failures,failure_rate,wilson_lo,wilson_hi,seed"
    assert len(lines) == 3
    assert lines[2].split(",")[5] == "0"  # t = n row never fails


@pytest.mark.slow
def test_calibrate_subcommand(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(
        json.dumps(
            {
                "trials": 40,
                "master_seed": 5,
                "cases": [
                    {
                        "name": "iv",
                        "system": {"family": "implicit_intervals", "n": 1200},
                        "eps": 0.2,
                        "delta": 0.5,
                        "gamma": 0.25,
                        "d": 2,
                        "use_for": ["c", "c1"],
                    },
                    {
                        "name": "chain",
                        "system": {"family": "intervals", "n": 80},
                        "eps": 0.25,
                        "delta": 0.4,
                        "gamma": 0.25,
                        "d": 2,
                        "use_for": ["c2", "c3"],
                    },
                ],
            }
        )
    )
    out = tmp_path / "constants.json"
    assert run("calibrate", "--suite", suite, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["calibrated"] is True
    assert {"c", "c1", "c2", "c3"} <= set(doc)


def test_calibrate_rejects_duplicate_case_names(tmp_path, capsys):
    case = {"system": {"family": "intervals", "n": 30}, "eps": 0.2, "delta": 0.5,
            "gamma": 0.25, "d": 2}
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"trials": 10, "master_seed": 1, "cases": [
        {"name": "a", **case}, {"name": "b", **case}, {"name": "a", **case, "d": 3},
    ]}))
    out = tmp_path / "constants.json"
    assert run("calibrate", "--suite", suite, "--out", out) == 2
    assert "'a' is used more than once" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("generate", "--family", "unknown", "--out", tmp_path / "x.json")
    assert err.value.code == 2
    assert run("verify", "--system", tmp_path / "missing.json",
               "--sample", tmp_path / "missing2.json", "--eps", 0.2, "--delta", 0.3) == 2


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["--family", "intervals"], "'n'"),
        (["--family", "random", "--n", "10"], "'m'"),
    ],
)
def test_generate_without_a_family_size_exits_2(tmp_path, capsys, argv, missing):
    out = tmp_path / "x.json"
    assert run("generate", *argv, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"needs {missing}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "system_doc, sample_doc",
    [
        ('{"n": 3, "sets": [5]}', '{"n": 3, "members": [0, 2]}'),
        ('{"n": 3, "sets": 7}', '{"n": 3, "members": [0, 2]}'),
        ('{"n": 3, "sets": [[0], "ab"]}', '{"n": 3, "members": [0, 2]}'),
        ('{"n": 3, "sets": [[0, 1]]}', '{"n": 3, "t": 2}'),
        ('{"n": 3, "sets": [[0, 1]]}', '{"members": [0, 2]}'),
        ('{"n": 3, "sets": [[0, 1]]}', '[0, 2]'),
        # a bool is not an integer: not a mask, not a member, not a size
        ('{"n": 1, "sets": [[false]]}', '{"n": 1, "members": [0]}'),
        ('{"n": 2, "sets": [[0, true]]}', '{"n": 2, "members": [0]}'),
        ('{"n": 3, "sets": [[false, true], [2]]}', '{"n": 3, "members": [0, 2]}'),
        ('{"n": true, "sets": [[0]]}', '{"n": 1, "members": [0]}'),
    ],
)
def test_malformed_input_files_exit_2(tmp_path, capsys, system_doc, sample_doc):
    system_path, sample_path = tmp_path / "sys.json", tmp_path / "s.json"
    system_path.write_text(system_doc)
    sample_path.write_text(sample_doc)
    code = run("verify", "--system", system_path, "--sample", sample_path,
               "--eps", 0.2, "--delta", 0.3)
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("broken", ["system", "sample"])
def test_truncated_json_input_exits_2_naming_the_file(tmp_path, capsys, broken):
    paths = {"system": tmp_path / "sys.json", "sample": tmp_path / "s.json"}
    paths["system"].write_text('{"n": 3, "sets": [[0, 1]]}')
    paths["sample"].write_text('{"n": 3, "members": [0, 2]}')
    paths[broken].write_text('{"n": 3, "sets": [[0]')
    code = run("verify", "--system", paths["system"], "--sample", paths["sample"],
               "--eps", 0.2, "--delta", 0.3)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[broken]}: not valid JSON")
    assert "Traceback" not in err


def test_halve_rejects_fewer_than_one_retry(interval_file, capsys):
    code = run("halve", "--system", interval_file, "--eps", 0.2, "--delta", 0.4,
               "--gamma", 0.2, "--seed", 1, "--max-retries", 0)
    assert code == 2
    assert capsys.readouterr().err == "error: max_retries must be >= 1, got 0\n"


def test_halve_exits_1_when_no_attempt_verifies(interval_file, capsys, monkeypatch):
    # a verifier that rejects every attempt, the second least badly
    ratios = iter([3.0, 2.5, 4.0])
    monkeypatch.setattr(
        SetSystem, "error_report",
        lambda self, sample, eps: ApproximationReport(next(ratios), 0, sample.t, eps),
    )
    code = run("halve", "--system", interval_file, "--eps", 0.4, "--delta", 0.5,
               "--gamma", 0.5, "--seed", 3, "--max-retries", 3)
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "no verified sample in 3 attempts (best worst_ratio observed: 2.5)\n"


def test_montecarlo_spec_missing_a_key_exits_2(tmp_path, interval_file, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "system": {"path": str(interval_file)}, "eps": [0.2], "delta": [0.4],
        "gamma": [0.2], "t": [15], "master_seed": 2,
    }))
    assert run("montecarlo", "--spec", spec, "--out", tmp_path / "mc.csv") == 2
    assert capsys.readouterr().err == f"error: {spec}: expected a JSON object with key 'trials'\n"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("workers", "2", "workers must be an integer >= 1, got '2'"),
        ("workers", 0, "workers must be an integer >= 1, got 0"),
        ("workers", 2.5, "workers must be an integer >= 1, got 2.5"),
        ("trials", "4", "trials must be an integer >= 1, got '4'"),
        ("trials", True, "trials must be an integer >= 1, got True"),
        ("master_seed", -1, "master_seed must be an integer >= 0, got -1"),
        ("master_seed", 1.5, "master_seed must be an integer >= 0, got 1.5"),
        ("t", [5.5], "t must be an integer >= 1, got 5.5"),
        ("t", [True], "t must be an integer >= 1, got True"),
    ],
)
def test_montecarlo_spec_bad_run_integer_exits_2(
    tmp_path, interval_file, capsys, key, value, message
):
    doc = {
        "system": {"path": str(interval_file)}, "eps": [0.2], "delta": [0.4],
        "gamma": [0.2], "t": [15], "trials": 4, "master_seed": 2, key: value,
    }
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "mc.csv"
    assert run("montecarlo", "--spec", spec, "--out", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_calibrate_rejects_zero_workers(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"trials": 10, "master_seed": 1, "cases": [
        {"name": "a", "system": {"family": "intervals", "n": 30}, "eps": 0.2,
         "delta": 0.5, "gamma": 0.25, "d": 2},
    ]}))
    out = tmp_path / "constants.json"
    assert run("calibrate", "--suite", suite, "--out", out, "--workers", 0) == 2
    assert capsys.readouterr().err == "error: workers must be an integer >= 1, got 0\n"
    assert not out.exists()


def test_sample_constants_missing_a_key_exits_2(tmp_path, interval_file, capsys):
    constants = tmp_path / "constants.json"
    constants.write_text('{"c": 8.0, "c2": 8.0, "c3": 12.0}')
    code = run("sample", "--system", interval_file, "--formula", "main", "--d", 2,
               "--eps", 0.2, "--delta", 0.4, "--gamma", 0.2, "--seed", 5,
               "--constants", constants, "--out", tmp_path / "s.json")
    assert code == 2
    assert capsys.readouterr().err == f"error: {constants}: expected a JSON object with key 'c1'\n"


@pytest.mark.parametrize(
    "sample_doc, key",
    [
        ({"n": 40, "t": 99, "mode": "with", "members": [1, 2]}, "'t'"),
        ({"n": 40, "t": 2, "mode": "with", "members": [1, 2]}, "'mode'"),
        ({"n": 40, "t": 3, "members": [1, 2], "counts": [1, 1]}, "'t'"),
        ({"n": 40, "mode": "without", "members": [1, 2], "counts": [1, 3]}, "'mode'"),
    ],
)
def test_verify_rejects_a_sample_whose_t_or_mode_disagrees(
    tmp_path, interval_file, capsys, sample_doc, key
):
    sample = tmp_path / "s.json"
    sample.write_text(json.dumps(sample_doc))
    code = run("verify", "--system", interval_file, "--sample", sample,
               "--eps", 0.2, "--delta", 0.3)
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {sample}: {key} does not match the members and counts\n"
    )


def assert_input_error(capsys, code: int, message: str) -> None:
    """Exit 2 with one `error:` line naming the problem, not a traceback."""
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_sample_with_a_non_integer_member_exits_2(tmp_path, interval_file, capsys):
    sample = tmp_path / "s.json"
    sample.write_text('{"n": 40, "members": ["a"]}')
    code = run("verify", "--system", interval_file, "--sample", sample,
               "--eps", 0.2, "--delta", 0.3)
    assert_input_error(capsys, code, "'members' must be an integer or a list of them")


@pytest.mark.parametrize(
    "eps, message",
    [
        (0.1, "'eps', 'delta', 'gamma' and 't' must be lists"),
        (["x"], "eps must lie strictly in (0, 1), got 'x'"),
    ],
)
def test_montecarlo_spec_with_a_mistyped_grid_exits_2(
    tmp_path, interval_file, capsys, eps, message
):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "system": {"path": str(interval_file)}, "eps": eps, "delta": [0.4],
        "gamma": [0.2], "t": [15], "trials": 4, "master_seed": 2,
    }))
    out = tmp_path / "mc.csv"
    assert_input_error(capsys, run("montecarlo", "--spec", spec, "--out", out), message)
    assert not out.exists()


def test_calibrate_suite_whose_cases_are_not_a_list_exits_2(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text('{"trials": 10, "master_seed": 1, "cases": 5}')
    out = tmp_path / "constants.json"
    code = run("calibrate", "--suite", suite, "--out", out)
    assert_input_error(capsys, code, "'cases' must be a list")
    assert not out.exists()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"system": 5}, "a system descriptor must be a JSON object, got 5"),
        ({"system": {"path": 5}}, "'path' must be a string, got 5"),
        ({"system": {"family": "intervals", "n": "40"}},
         "family 'intervals': 'n' has the wrong type: '40'"),
        ({"t": [], "formula": "main", "d": "x"}, "d must be an integer >= 1, got 'x'"),
        ({"t": [], "formula": "main", "d": True}, "d must be an integer >= 1, got True"),
        ({"t": [], "formula": "main", "d": 2, "constants": "bad-constants.json"},
         "constant c must be a finite number >= 1, got '2'"),
    ],
)
def test_montecarlo_spec_with_a_mistyped_value_exits_2(
    tmp_path, interval_file, capsys, fields, message
):
    (tmp_path / "bad-constants.json").write_text('{"c": "2", "c1": 2, "c2": 2, "c3": 2}')
    doc = {"system": {"path": str(interval_file)}, "eps": [0.2], "delta": [0.4],
           "gamma": [0.2], "t": [15], "trials": 4, "master_seed": 2, **fields}
    if "constants" in doc:
        doc["constants"] = str(tmp_path / doc["constants"])
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "mc.csv"
    assert_input_error(capsys, run("montecarlo", "--spec", spec, "--out", out), message)
    assert not out.exists()


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"d": "2"}, "d must be an integer >= 1, got '2'"),
        ({"d": False}, "d must be an integer >= 1, got False"),
        ({"use_for": "c1"}, "case #0 (a): 'use_for' must be a list"),
        ({"use_for": 5}, "case #0 (a): 'use_for' must be a list"),
        ({"use_for": ["c", "c4"]}, "case 'a': unknown kind in ('c', 'c4')"),
        ({"system": 5}, "case 'a': 'system' must be a JSON object"),
        ({"system": ["intervals"]}, "case 'a': 'system' must be a JSON object"),
        ({"name": 7}, "a calibration case name must be a string, got 7"),
    ],
)
def test_calibrate_suite_case_with_a_mistyped_value_exits_2(tmp_path, capsys, fields, message):
    case = {"name": "a", "system": {"family": "intervals", "n": 30}, "eps": 0.2,
            "delta": 0.5, "gamma": 0.25, "d": 2, **fields}
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"trials": 10, "master_seed": 1, "cases": [case]}))
    out = tmp_path / "constants.json"
    assert_input_error(capsys, run("calibrate", "--suite", suite, "--out", out), message)
    assert not out.exists()


@pytest.mark.parametrize("value", ['"2"', "true", "NaN", "Infinity"])
def test_sample_with_mistyped_constants_exits_2(tmp_path, interval_file, capsys, value):
    constants = tmp_path / "constants.json"
    constants.write_text(f'{{"c": {value}, "c1": 2, "c2": 2, "c3": 2}}')
    code = run("sample", "--system", interval_file, "--formula", "main", "--d", 2,
               "--eps", 0.2, "--delta", 0.4, "--gamma", 0.2, "--seed", 5,
               "--constants", constants, "--out", tmp_path / "s.json")
    assert_input_error(capsys, code, "constant c must be a finite number >= 1")
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("key, doc", [
    ("members", '{"n": 40, "members": [true, 3]}'),
    ("counts", '{"n": 40, "members": [1, 3], "counts": [1, false]}'),
    ("n", '{"n": true, "members": [0]}'),
])
def test_sample_with_a_bool_member_or_count_exits_2(tmp_path, interval_file, capsys, key, doc):
    sample = tmp_path / "s.json"
    sample.write_text(doc)
    code = run("verify", "--system", interval_file, "--sample", sample,
               "--eps", 0.2, "--delta", 0.3)
    assert_input_error(capsys, code, f"'{key}' must be an integer or a list of them")
