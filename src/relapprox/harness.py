"""Monte Carlo harness: failure-rate estimation, sweeps, calibration.

One trial loop draws every trial's uniform sample from the seed path
(master_seed, cell, trial index) and hands it to the caller's judgement, so
results are independent of worker count and execution order; aggregation is
a deterministic fold over trial indices.  Every formula-sized cell and
calibration size, like the CLI's samples and the combined construction's
stage 2, comes from `sampling.formula_size`, and calibration's search for
the smallest passing grid value is the one size search.  Trial and worker
counts, master seeds and sizes go through `sampling._check_int`, which
refuses a bool, a non-integer and a value below the least allowed.
Failure rates carry Wilson score intervals, which stay honest at zero or
few failures.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import generators
from .chaining import build_chain, claim7_check
from .errors import CalibrationError, ConstructionError
from .sampling import (
    WITHOUT,
    ApproxParams,
    Constants,
    _check_int,
    _is_int,
    _read_json_object,
    _require_keys,
    find_constants,
    formula_size,
    relative_error,
    seed_sequence,
    uniform_sample,
)
from .set_system import read_json

CALIBRATION_GRID = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)


def wilson_interval(failures: int, trials: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (95% by default)."""
    if trials < 1 or not 0 <= failures <= trials:
        raise ConstructionError(f"bad counts {(failures, trials)}")
    p = failures / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if failures == 0 else max(0.0, center - half)
    hi = 1.0 if failures == trials else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class CellResult:
    eps: float
    delta: float
    gamma: float
    t: int
    trials: int
    failures: int
    seed: int

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials

    @property
    def wilson(self) -> tuple[float, float]:
        return wilson_interval(self.failures, self.trials)


def _run_trials(judge, n: int, t: int, mode: str, seed_path, trials: int, workers: int) -> list:
    """judge(sample) for trials 0..trials-1, trial i judging
    uniform_sample(n, t, seed_sequence(seed_path, i), mode).  Results are in
    trial order regardless of scheduling (per-trial seeds are pre-assigned,
    so order cannot matter)."""
    _check_int("trials", trials, 1)
    _check_int("workers", workers, 1)

    def one_trial(i: int):
        return judge(uniform_sample(n, t, seed_sequence(seed_path, i), mode=mode))

    if workers == 1:
        return [one_trial(i) for i in range(trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one_trial, range(trials)))


@dataclass(frozen=True)
class TrialRow:
    trial: int
    t: int
    failed: bool
    worst_ratio: float


def monte_carlo_rows(
    system,
    params: ApproxParams,
    t: int,
    trials: int,
    master_seed: int,
    mode: str = WITHOUT,
    workers: int = 1,
    cell_index: int = 0,
) -> list[TrialRow]:
    """Per-trial outcomes; reproducible from (master_seed, cell_index, trial)."""
    if mode == WITHOUT and t > system.n:
        raise ConstructionError(
            f"t={t} exceeds n={system.n}; cap the size or use with-replacement mode"
        )

    reports = _run_trials(
        lambda sample: relative_error(system, sample, params.eps),
        system.n, t, mode, (master_seed, cell_index), trials, workers,
    )
    return [
        TrialRow(i, t, not r.passes(params.delta), float(r.worst_ratio))
        for i, r in enumerate(reports)
    ]


def monte_carlo_failure(
    system,
    params: ApproxParams,
    t: int,
    trials: int,
    master_seed: int,
    mode: str = WITHOUT,
    workers: int = 1,
    cell_index: int = 0,
) -> CellResult:
    """Estimate the probability that a uniform t-sample fails to be a
    relative (eps, delta)-approximation.  The aggregate equals a fold over
    monte_carlo_rows with the same seeds."""
    rows = monte_carlo_rows(
        system, params, t, trials, master_seed, mode=mode, workers=workers,
        cell_index=cell_index,
    )
    failures = sum(r.failed for r in rows)
    return CellResult(
        params.eps, params.delta, params.gamma, t, trials, failures, master_seed
    )


# --- experiment sweeps --------------------------------------------------------


# The keys each generated family needs in its descriptor ("seed" is optional).
_FAMILY_KEYS = dict(
    intervals=("n",), implicit_intervals=("n",), power_set=("n",),
    random=("n", "m", "p"), halfplanes=("points",), rectangles=("points",),
)


def system_from_descriptor(desc: dict):
    """Build a system from a JSON-able descriptor (generator or file path)."""
    if not isinstance(desc, dict):
        raise ConstructionError(f"a system descriptor must be a JSON object, got {desc!r}")
    if "path" in desc:
        if not isinstance(desc["path"], str):
            raise ConstructionError(f"'path' must be a string, got {desc['path']!r}")
        return read_json(desc["path"])
    family = desc.get("family")
    needed = _FAMILY_KEYS.get(family, ())
    for key in needed:
        if desc.get(key) is None:
            raise ConstructionError(f"family {family!r} needs {key!r}")
    for key in (*needed, "seed"):
        value = desc.get(key, 0)
        if not (_is_int(value) or key == "p" and isinstance(value, float)):
            raise ConstructionError(f"family {family!r}: {key!r} has the wrong type: {value!r}")
    if family == "intervals":
        return generators.intervals(desc["n"])
    if family == "implicit_intervals":
        return generators.ImplicitIntervals(desc["n"])
    if family == "power_set":
        return generators.power_set(desc["n"])
    if family == "random":
        return generators.random_system(desc["n"], desc["m"], desc["p"], desc.get("seed", 0))
    if family == "halfplanes":
        return generators.halfplanes(generators.random_points(desc["points"], desc.get("seed", 0)))
    if family == "rectangles":
        return generators.axis_rectangles(
            generators.random_points(desc["points"], desc.get("seed", 0))
        )
    raise ConstructionError(f"unknown system descriptor {desc!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    system: dict
    eps: tuple[float, ...]
    delta: tuple[float, ...]
    gamma: tuple[float, ...]
    trials: int
    master_seed: int
    t_values: tuple[int, ...] = ()
    formula: str | None = None  # basic | main | halving | chaining
    d: int | None = None
    replacement_mode: str = WITHOUT
    workers: int = 1
    constants_path: str | None = None

    def __post_init__(self):
        if not (self.eps and self.delta and self.gamma):
            raise ConstructionError("parameter grids must be nonempty")
        _check_int("trials", self.trials, 1)
        _check_int("workers", self.workers, 1)
        _check_int("master_seed", self.master_seed, 0)
        for t in self.t_values:
            _check_int("t", t, 1)
        if bool(self.t_values) == (self.formula is not None):
            raise ConstructionError("give exactly one of t_values or formula")
        if self.constants_path is not None and not isinstance(self.constants_path, str):
            raise ConstructionError(f"'constants' must be a path, got {self.constants_path!r}")

    @classmethod
    def from_json(cls, path) -> "ExperimentSpec":
        doc = _read_json_object(path, ("system", "eps", "delta", "gamma", "trials", "master_seed"))
        if not all(isinstance(doc.get(k, []), list) for k in ("eps", "delta", "gamma", "t")):
            raise ConstructionError(f"{path}: 'eps', 'delta', 'gamma' and 't' must be lists")
        return cls(
            system=doc["system"],
            eps=tuple(doc["eps"]),
            delta=tuple(doc["delta"]),
            gamma=tuple(doc["gamma"]),
            trials=doc["trials"],
            master_seed=doc["master_seed"],
            t_values=tuple(doc.get("t", ())),
            formula=doc.get("formula"),
            d=doc.get("d"),
            replacement_mode=doc.get("replacement_mode", WITHOUT),
            workers=doc.get("workers", 1),
            constants_path=doc.get("constants"),
        )


def run_sweep(spec: ExperimentSpec) -> list[CellResult]:
    system = system_from_descriptor(spec.system)
    constants = find_constants(spec.constants_path)
    rows = []
    cell_index = 0
    for eps in spec.eps:
        for delta in spec.delta:
            for gamma in spec.gamma:
                params = ApproxParams(eps, delta, gamma)
                sizes = spec.t_values or [
                    formula_size(
                        spec.formula, params, spec.d, system, constants, spec.replacement_mode
                    )
                ]
                for t in sizes:
                    rows.append(
                        monte_carlo_failure(
                            system,
                            params,
                            t,
                            spec.trials,
                            spec.master_seed,
                            mode=spec.replacement_mode,
                            workers=spec.workers,
                            cell_index=cell_index,
                        )
                    )
                    cell_index += 1
    return rows


CSV_COLUMNS = [
    "eps",
    "delta",
    "gamma",
    "t",
    "trials",
    "failures",
    "failure_rate",
    "wilson_lo",
    "wilson_hi",
    "seed",
]


def write_sweep_csv(rows: list[CellResult], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in rows:
            lo, hi = r.wilson
            writer.writerow(
                [
                    repr(r.eps),
                    repr(r.delta),
                    repr(r.gamma),
                    r.t,
                    r.trials,
                    r.failures,
                    repr(r.failure_rate),
                    repr(lo),
                    repr(hi),
                    r.seed,
                ]
            )


# --- constant calibration -------------------------------------------------------

_CASE_KEYS = ("name", "system", "eps", "delta", "gamma", "d")


@dataclass(frozen=True)
class CalibrationCase:
    name: str
    system_desc: dict
    params: ApproxParams
    d: int
    use_for: tuple[str, ...] = ("c", "c1")  # subset of {"c", "c1", "c2"}

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConstructionError(f"a calibration case name must be a string, got {self.name!r}")
        if not isinstance(self.system_desc, dict):
            raise ConstructionError(f"case {self.name!r}: 'system' must be a JSON object")
        _check_int("dimension parameter d", self.d, 1)
        if not set(self.use_for) <= {"c", "c1", "c2"}:
            raise ConstructionError(f"case {self.name!r}: unknown kind in {self.use_for!r}")

    def descriptor(self) -> dict:
        return {
            "name": self.name,
            "system": self.system_desc,
            "eps": self.params.eps,
            "delta": self.params.delta,
            "gamma": self.params.gamma,
            "d": self.d,
            "use_for": list(self.use_for),
        }


def load_suite(path) -> tuple[list[CalibrationCase], int, int]:
    doc = _read_json_object(path, ("cases", "trials", "master_seed"))
    if not isinstance(doc["cases"], list):
        raise ConstructionError(f"{path}: 'cases' must be a list")
    for k, c in enumerate(doc["cases"]):
        name = c.get("name") if isinstance(c, dict) else None
        _require_keys(c, _CASE_KEYS, f"{path}: case #{k} ({name})")
        if not isinstance(c.get("use_for", []), list):
            raise ConstructionError(f"{path}: case #{k} ({name}): 'use_for' must be a list")
    cases = [
        CalibrationCase(
            name=c["name"],
            system_desc=c["system"],
            params=ApproxParams(c["eps"], c["delta"], c["gamma"]),
            d=c["d"],
            use_for=tuple(c.get("use_for", ("c", "c1"))),
        )
        for c in doc["cases"]
    ]
    return cases, doc["trials"], doc["master_seed"]


def suite_sha256(cases: list[CalibrationCase], trials: int, master_seed: int) -> str:
    doc = {
        "cases": [c.descriptor() for c in cases],
        "trials": trials,
        "master_seed": master_seed,
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def calibrate_constants(
    cases: list[CalibrationCase],
    trials: int,
    master_seed: int,
    grid: tuple[float, ...] = CALIBRATION_GRID,
    workers: int = 1,
) -> tuple[Constants, dict]:
    """Smallest grid values making each size formula meet its gamma target
    across the suite (c2 against the simultaneous chain check, the strictest
    downstream use).  Families are keyed by case name, so the names must be
    distinct."""
    _check_int("trials", trials, 1)
    _check_int("workers", workers, 1)
    _check_int("master_seed", master_seed, 0)
    names = [c.name for c in cases]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ConstructionError(f"calibration case name {name!r} is used more than once")
    by_name = dict(zip(names, cases))

    @functools.cache
    def system_of(name: str):
        return system_from_descriptor(by_name[name].system_desc)

    @functools.cache
    def chain_of(name: str):
        params = by_name[name].params
        return build_chain(system_of(name), params.eps, params.delta)

    def fails_delta(case: CalibrationCase):
        system, params = system_of(case.name), case.params
        return lambda sample: not relative_error(system, sample, params.eps).passes(params.delta)

    def fails_claim7(case: CalibrationCase):
        chain = chain_of(case.name)
        return lambda sample: not claim7_check(chain, sample).ok

    def smallest_passing(kind: str, formula: str, judgement) -> float:
        relevant = [(k, c) for k, c in enumerate(cases) if kind in c.use_for]
        if not relevant:
            raise CalibrationError(f"no calibration cases for {kind}")
        failures_log = []
        for value in grid:
            constants = Constants(c=value, c1=value, c2=value)
            for position, case in relevant:
                system = system_of(case.name)
                t = formula_size(formula, case.params, case.d, system, constants)
                path = _cell_path(master_seed, kind, position, value)
                fails = _run_trials(judgement(case), system.n, t, WITHOUT, path, trials, workers)
                rate = sum(fails) / trials
                if rate > case.params.gamma:
                    failures_log.append((kind, value, case.name, rate))
                    break
            else:
                return value
        raise CalibrationError(f"no grid value satisfied {kind}: {failures_log}")

    c = smallest_passing("c", "main", fails_delta)
    c1 = smallest_passing("c1", "halving", fails_delta)
    c2 = smallest_passing("c2", "chaining", fails_claim7)

    constants = Constants(c=c, c1=c1, c2=c2)
    provenance = {
        "suite_sha256": suite_sha256(cases, trials, master_seed),
        "master_seed": master_seed,
        "trials": trials,
        "grid": list(grid),
        "cases": [case.descriptor() for case in cases],
    }
    return constants, provenance


def _cell_path(master_seed: int, kind: str, position: int, grid_value) -> tuple[int, ...]:
    """Calibration cell (kind, suite position, grid value) as a fixed-length
    seed path holding the value exactly.  numpy reads each entry as 32-bit
    words; a float's power-of-two denominator has low words 0 where a
    numerator's top word is not, so distinct cells give distinct words."""
    kind_index = ("c", "c1", "c2").index(kind)
    return (master_seed, kind_index, position, *Fraction(grid_value).as_integer_ratio())


def write_constants_json(constants: Constants, provenance: dict, path) -> None:
    doc = {
        "c": constants.c,
        "c1": constants.c1,
        "c2": constants.c2,
        "calibrated": True,
        "provenance": provenance,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
