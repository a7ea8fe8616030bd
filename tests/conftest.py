import os

import pytest

from relapprox import _bitops, cli
from relapprox.sampling import Constants, Sample, _check_ground_set, load_constants
from relapprox.set_system import SetSystem

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONSTANTS_PATH = os.path.join(REPO_ROOT, "constants.json")


@pytest.fixture(scope="session")
def calibrated_constants() -> Constants:
    """Calibrated constants from the committed config; recalibrate if absent."""
    if not os.path.exists(CONSTANTS_PATH):
        suite_path = os.path.join(REPO_ROOT, "calibration_suite.json")
        argv = ["calibrate", "--suite", suite_path, "--out", CONSTANTS_PATH, "--workers", "2"]
        assert cli.main(argv) == 0
    return load_constants(CONSTANTS_PATH)


def _built_trace(system: SetSystem, sample: Sample) -> SetSystem:
    """The trace F|_A gathered into a SetSystem over [0, |A|), support
    element j becoming element j: the reference for `SetSystem.trace_on`,
    whose trace is never gathered."""
    _check_ground_set(system, sample)
    columns = sample.support_array
    return SetSystem.from_packed(len(columns), _bitops.gather_columns(system.packed, columns))


@pytest.fixture(scope="session")
def built_trace():
    return _built_trace
