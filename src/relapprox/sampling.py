"""Uniform sampling and exact verification of relative approximations.

A sample A of size t is a relative (eps, delta)-approximation for (X, F)
when for every S in F

    | |S|/n - |A & S|/t |  <=  delta * max(|S|/n, eps).

Each family has one exact verifier in integer arithmetic.  A set of size s
that the sample meets c times has error |s t - c n| / (n t); sets with
s <= eps n are compared by that numerator, the others by numerator / s, and
the two side winners are compared exactly (`worst_report`).  The type of
`eps` only chooses the number type of the reported ratio: a Fraction gives
the exact Fraction, a float gives the float abs(s/n - c/t) / max(s/n, eps)
at the worst set.  `passes(delta)` compares the exact ratio to delta, taken
as Fraction(delta), so a sample that meets the bound exactly passes however
the float ratio rounds.

The functions here take any family that answers one protocol: its
ground-set size `n`, its number of sets `len(family)`, and, for a sample
over [0, n), `error_report(sample, eps)` (the report above),
`max_additive_numerator(sample)` (the largest |s t - c n|),
`is_eps_net(sample, eps)` and `trace_on(sample)`: the trace F|_A on the
sample's support A, over [0, |A|), the j-th support element becoming
element j.  A trace answers at least `n`, `len` (the number of distinct
traces), `error_report`, the worst set indexed in the trace's order, and
`materialize()`, the trace as a `SetSystem` over [0, |A|) in that order.
`set_system.SetSystem` answers the protocol from its packed rows and its
own count policy (`SetSystem.counts`), its trace a `set_system.Trace`
whose rows are gathered only by `materialize`, and
`generators.ImplicitIntervals` from prefix sums and closed forms, its
trace `ImplicitIntervals(m)`.  No function here counts |A & S| or looks
at the family's type: they take a family's exact sizes and counts
(`worst_of_counts`, `error_numerators`) or its reports.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _bitops
from .errors import ConstructionError

WITHOUT = "without"
WITH = "with"


@dataclass(frozen=True)
class ApproxParams:
    eps: float
    delta: float
    gamma: float

    def __post_init__(self):
        for name in ("eps", "delta", "gamma"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Real) or not 0 < v < 1:
                raise ConstructionError(f"{name} must lie strictly in (0, 1), got {v!r}")


@dataclass(frozen=True)
class Constants:
    """Leading constants of the four size bounds; values come from calibration."""

    c: float
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        for name in ("c", "c1", "c2", "c3"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not 1 <= v < math.inf:
                raise ConstructionError(f"constant {name} must be a finite number >= 1, got {v!r}")


# Placeholders only; `relapprox calibrate --suite calibration_suite.json
# --out constants.json` writes constants.json, which find_constants prefers.
DEFAULT_CONSTANTS = Constants(c=8.0, c1=8.0, c2=8.0, c3=4.0 * math.sqrt(8.0))


def _read_json_object(path, keys) -> dict:
    """The JSON object in the file at `path`; ConstructionError names the
    path when the file is not JSON, and the first of `keys` that it lacks."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConstructionError(f"{path}: not valid JSON ({exc})") from None
    _require_keys(doc, keys, str(path))
    return doc


def _require_keys(doc, keys, where: str) -> None:
    """ConstructionError naming `where` and the first of `keys` that `doc`
    lacks, or that it is not an object."""
    missing = [k for k in keys if not isinstance(doc, dict) or k not in doc]
    if missing:
        raise ConstructionError(f"{where}: expected a JSON object with key {missing[0]!r}")


def load_constants(path) -> Constants:
    doc = _read_json_object(path, ("c", "c1", "c2", "c3"))
    return Constants(c=doc["c"], c1=doc["c1"], c2=doc["c2"], c3=doc["c3"])


def find_constants(path=None) -> Constants:
    """Calibrated constants if available: explicit path, $RELAPPROX_CONSTANTS,
    ./constants.json, else the uncalibrated defaults."""
    candidates = [path, os.environ.get("RELAPPROX_CONSTANTS"), "constants.json"]
    for cand in candidates:
        if cand and os.path.exists(cand):
            return load_constants(cand)
    return DEFAULT_CONSTANTS


def _is_int(value) -> bool:
    """Whether a value is an integer: a bool is not one, whatever its value."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _read_only(array: np.ndarray) -> np.ndarray:
    """The array, made read-only: a cached array of a shared object stays as built."""
    array.flags.writeable = False
    return array


def _int64_vector(values, overflow: str) -> np.ndarray:
    """A read-only int64 copy of a 1-D sequence of integers or array of an
    integer dtype.  A bool or a float is refused whatever its value, as an
    element or as an array's dtype; ConstructionError(`overflow`) when a
    value does not fit in int64."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        integers = values.dtype.kind in "iu" or values.size == 0
    else:
        values = np.array(values, dtype=object)
        integers = all(map(_is_int, values.flat))
    if not integers:
        raise ConstructionError("sample members and multiplicities must be integers")
    try:
        arr = np.array(values, dtype=np.int64)
    except OverflowError:
        raise ConstructionError(overflow) from None
    if arr.ndim != 1:
        raise ConstructionError("sample vectors must be one-dimensional")
    if values.dtype == np.uint64 and not np.array_equal(arr, values):  # wrapped
        raise ConstructionError(overflow)
    return _read_only(arr)


class Sample:
    """A uniform sample of [0, n): a t-subset, or t draws with multiplicity.

    `support_array` holds the distinct sampled elements, strictly ascending;
    `multiplicity_array` is parallel to it in with-replacement mode and None
    otherwise.  Both are read-only int64 copies of the constructor's
    arguments (a sequence of integers or an integer array; bools and floats
    are refused), and the total t must be below 2^63.  `support` and
    `multiplicity` are the same values as tuples of Python ints, built on
    first access.  `seed` records provenance (None for
    external samples).  Samples are immutable and compare and hash by value.
    """

    def __init__(self, n: int, support, multiplicity=None, seed: int | None = None):
        sup = _int64_vector(support, "sample members outside the ground set")
        if (sup[1:] <= sup[:-1]).any():
            raise ConstructionError("sample support must be strictly ascending")
        if len(sup) and not (0 <= sup[0] and sup[-1] < n):
            raise ConstructionError("sample members outside the ground set")
        mult, t = None, len(sup)
        if multiplicity is not None:
            mult = _int64_vector(multiplicity, "multiplicities must fit in int64")
            if len(mult) != len(sup):
                raise ConstructionError("multiplicity vector does not match support")
            if len(mult) and mult.min() < 1:
                raise ConstructionError("multiplicities must be >= 1")
            # exact: the 32-bit halves of fewer than 2^31 values cannot overflow
            t = (int((mult >> 32).sum()) << 32) + int((mult & 0xFFFFFFFF).sum())
            if t >= 2**63:
                raise ConstructionError(f"total multiplicity t = {t} does not fit in int64")
        vars(self).update(n=n, support_array=sup, multiplicity_array=mult, seed=seed, t=t)

    def __setattr__(self, name, value):
        raise AttributeError(f"Sample is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Sample is immutable; cannot delete {name!r}")

    def _key(self) -> tuple:
        mult = self.multiplicity_array
        return (
            self.n,
            self.support_array.tobytes(),
            None if mult is None else mult.tobytes(),
            self.seed,
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"Sample(n={self.n!r}, support={self.support!r}, "
            f"multiplicity={self.multiplicity!r}, seed={self.seed!r})"
        )

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(self.support_array.tolist())

    @cached_property
    def multiplicity(self) -> tuple[int, ...] | None:
        mult = self.multiplicity_array
        return None if mult is None else tuple(mult.tolist())

    @property
    def mode(self) -> str:
        return WITHOUT if self.multiplicity_array is None else WITH

    @cached_property
    def plane_members(self) -> tuple[np.ndarray, ...]:
        """Read-only ascending arrays, plane k the elements whose multiplicity
        has bit k set: |A & S| = sum_k 2^k |plane_k & S|.  Without replacement
        the one plane is the support."""
        sup, mult = self.support_array, self.multiplicity_array
        if mult is None:
            return (sup,)
        levels = int(mult.max(initial=0)).bit_length()
        return tuple(_read_only(sup[(mult >> k) & 1 == 1]) for k in range(levels))

    @cached_property
    def planes(self) -> np.ndarray:
        """`plane_members` as read-only packed rows over [0, n)."""
        flags = np.zeros((len(self.plane_members), self.n), dtype=bool)
        for k, members in enumerate(self.plane_members):
            flags[k, members] = True
        return _read_only(_bitops.pack_flags(flags))

    def counts_array(self) -> np.ndarray:
        dense = np.zeros(self.n, dtype=np.int64)
        mult = self.multiplicity_array
        dense[self.support_array] = 1 if mult is None else mult
        return dense

    @classmethod
    def from_mask(cls, n: int, bits: int) -> "Sample":
        if bits < 0:
            raise ConstructionError("sample members outside the ground set")
        return cls(n, _bitops.indices_from_mask(bits))

    @classmethod
    def full(cls, n: int) -> "Sample":
        return cls(n, np.arange(n))


def seed_sequence(*entropy) -> np.random.SeedSequence:
    """Deterministic SeedSequence from a path of integers (nesting flattens)."""
    flat = []
    stack = list(reversed(entropy))
    while stack:
        e = stack.pop()
        if isinstance(e, np.random.SeedSequence):
            if e.spawn_key:
                # its state depends on the spawn key, which a path cannot hold
                raise ConstructionError(
                    f"a spawned SeedSequence (spawn_key {e.spawn_key}) has no seed path"
                )
            ent = e.entropy if isinstance(e.entropy, (list, tuple)) else [e.entropy]
            flat.extend(int(v) for v in ent)
        elif isinstance(e, (list, tuple)):
            stack.extend(reversed(e))
        else:
            flat.append(int(e))
    return np.random.SeedSequence(flat)


def make_rng(*entropy) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_sequence(*entropy)))


def uniform_sample(n: int, t: int, seed, mode: str = WITHOUT) -> Sample:
    """Uniform random sample, a deterministic function of (n, t, seed, mode).

    Without replacement it is numpy's `choice(n, t, replace=False)`, a
    partial shuffle that switches to Floyd's algorithm when t is small
    against n, so a sparse draw costs O(t) however large n is.
    """
    if n < 1 or t < 1:
        raise ConstructionError(f"need n >= 1 and t >= 1, got n={n}, t={t}")
    seed_val = seed if isinstance(seed, int) else None
    rng = make_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    if mode == WITHOUT:
        if t > n:
            raise ConstructionError(f"cannot draw {t} distinct elements from {n}")
        return Sample(n, np.sort(rng.choice(n, t, replace=False)), seed=seed_val)
    if mode == WITH:
        draws = rng.integers(0, n, size=t)
        support, counts = np.unique(draws, return_counts=True)
        return Sample(n, support, counts, seed=seed_val)
    raise ConstructionError(f"unknown sampling mode {mode!r}")


# --- verification -----------------------------------------------------------


@dataclass(frozen=True)
class ApproximationReport:
    worst_ratio: float | Fraction
    worst_set_index: int | None
    t: int
    eps: float | Fraction
    exact_ratio: Fraction | None = field(default=None, compare=False, repr=False)

    def passes(self, delta) -> bool:
        """Whether the worst ratio is at most delta, exactly when the report
        carries the exact ratio."""
        ratio = self.worst_ratio if self.exact_ratio is None else self.exact_ratio
        return ratio <= delta

    def to_json_dict(self) -> dict:
        return {
            "worst_ratio": float(self.worst_ratio),
            "worst_set_index": self.worst_set_index,
            "t": self.t,
            "eps": float(self.eps),
        }


def _check_ground_set(system, sample) -> None:
    if sample.n != system.n:
        raise ConstructionError(
            f"sample over [0, {sample.n}) but system over [0, {system.n})"
        )


def _check_verifier_inputs(system, sample) -> None:
    _check_ground_set(system, sample)
    if sample.t < 1:
        raise ConstructionError("sample has t = 0; densities are undefined")


def exact_dtype(n: int, t: int):
    """int64 when every integer product of the verifiers (at most 2 n^2 t in
    absolute value) fits in it, else Python ints in object arrays."""
    return np.int64 if 2 * n * n * t < 2**63 else object


def small_size_limit(n: int, eps) -> int:
    """The largest s with s <= eps n, exactly."""
    return math.floor(Fraction(eps) * n)


def worst_report(n: int, t: int, eps, candidates) -> ApproximationReport:
    """Report on the worst of `candidates`, triples (index, s, c) of a set's
    family index, size and sample count.  Ratios are compared exactly and
    ties go to the lowest index.  The reported ratio is the exact Fraction
    for Fraction eps, else the float abs(s/n - c/t) / max(s/n, eps); the
    exact Fraction rides along as `exact_ratio` for `passes`."""
    exact = isinstance(eps, Fraction)
    e = Fraction(eps)

    def rational(s, c):
        return Fraction(abs(s * t - c * n), n * t) / max(Fraction(s, n), e)

    if not candidates:
        return ApproximationReport(Fraction(0) if exact else 0.0, None, t, eps, Fraction(0))
    index, s, c = max(candidates, key=lambda w: (rational(w[1], w[2]), -w[0]))
    worst = rational(s, c)
    ratio = worst if exact else abs(s / n - c / t) / max(s / n, eps)
    return ApproximationReport(ratio, index, t, eps, worst)


def _argmax_ratio(num: np.ndarray, den: np.ndarray) -> int:
    """Lowest i maximizing num[i] / den[i] (den > 0), by Dinkelbach's
    iteration on the exact margins num * den[i] - num[i] * den."""
    i = int(np.argmax(num))
    while True:
        margin = num * den[i] - num[i] * den
        j = int(np.argmax(margin))
        if margin[j] == 0:  # margin[i] is 0: no ratio beats i's, j is the first to tie it
            return j
        i = j


def error_numerators(n: int, t: int, sizes, counts, dtype=None) -> np.ndarray:
    """|s t - c n| for each set of size s met c times: its additive error
    |s/n - c/t| scaled by n t, exact at `dtype` (default `exact_dtype`)."""
    dtype = exact_dtype(n, t) if dtype is None else dtype
    s = np.asarray(sizes).astype(dtype, copy=False)
    c = np.asarray(counts).astype(dtype, copy=False)
    return np.abs(s * t - c * n)


def worst_of_counts(n: int, t: int, eps, sizes, counts) -> ApproximationReport:
    """Exact worst relative error of a family from its set sizes and the
    sample's intersection counts."""
    dtype = exact_dtype(n, t)
    s = np.asarray(sizes).astype(dtype, copy=False)
    c = np.asarray(counts).astype(dtype, copy=False)
    num = error_numerators(n, t, s, c)
    limit = small_size_limit(n, eps)
    small, large = np.flatnonzero(s <= limit), np.flatnonzero(s > limit)
    winners = []
    if len(small):
        winners.append(small[np.argmax(num[small])])
    if len(large):
        winners.append(large[_argmax_ratio(num[large], s[large])])
    return worst_report(n, t, eps, [(int(i), int(s[i]), int(c[i])) for i in winners])


def relative_error(system, sample: Sample, eps) -> ApproximationReport:
    """Exact worst relative error of the sample over the family.

    Ties for the worst set break toward the lowest family index.  With
    Fraction eps the report carries the exact Fraction ratio, otherwise the
    float abs(s/n - c/t) / max(s/n, eps) of the worst set.
    """
    return system.error_report(sample, eps)


def is_relative_approx(system, sample: Sample, params: ApproxParams) -> bool:
    return relative_error(system, sample, params.eps).passes(params.delta)


def is_eps_approximation(system, sample: Sample, eps) -> bool:
    """Whether every set's additive error is at most eps, compared exactly:
    max |s t - c n| <= floor(eps n t) with eps taken as Fraction(eps)."""
    limit = math.floor(Fraction(eps) * system.n * sample.t)
    return system.max_additive_numerator(sample) <= limit


def big_size_limit(n: int, eps) -> int:
    """The smallest s with s >= eps n, exactly."""
    return math.ceil(Fraction(eps) * n)


def is_eps_net(system, sample: Sample, eps) -> bool:
    """Whether the sample hits every set of size >= eps * n, compared exactly."""
    return system.is_eps_net(sample, eps)


# --- tail bound and sample-size formulas ------------------------------------


def chernoff_bound(n: int, s: int, t: int, eta: float) -> float:
    """Raw tail expression 2 exp(-eta^2 n / (2 s t + eta n)); may exceed 1."""
    if eta <= 0:
        raise ConstructionError(f"eta must be positive, got {eta}")
    if n < 1 or t < 1 or not 0 <= s <= n:
        raise ConstructionError(f"need n, t >= 1 and 0 <= s <= n, got {(n, s, t)}")
    return 2.0 * math.exp(-(eta * eta * n) / (2.0 * s * t + eta * n))


def basic_sample_size(params: ApproxParams, family_size: int) -> int:
    """Union-bound size: ceil( 3/(eps delta^2) * ln(2 |F| / gamma) )."""
    if family_size < 1:
        raise ConstructionError("family_size must be >= 1")
    e, d, g = params.eps, params.delta, params.gamma
    return math.ceil(3.0 / (e * d * d) * math.log(2.0 * family_size / g))


def main_sample_size(params: ApproxParams, d: int, constants: Constants) -> int:
    """ceil( c/(eps delta^2) * (d ln(1/eps) + ln(1/gamma)) )."""
    _check_dim(d)
    e, dl, g = params.eps, params.delta, params.gamma
    return math.ceil(constants.c / (e * dl * dl) * (d * math.log(1 / e) + math.log(1 / g)))


def halving_sample_size(params: ApproxParams, d: int, constants: Constants) -> int:
    """ceil( c1/(eps delta^2) * (d ln(1/(eps delta)) + ln(1/gamma)) )."""
    _check_dim(d)
    e, dl, g = params.eps, params.delta, params.gamma
    return math.ceil(
        constants.c1 / (e * dl * dl) * (d * math.log(1 / (e * dl)) + math.log(1 / g))
    )


def chaining_sample_size(
    params: ApproxParams, d: int, family_size: int, constants: Constants
) -> int:
    """ceil( c2 * max( ln(|F|/gamma)/(eps delta), (d ln(1/eps) + ln(1/gamma))/(eps delta^2) ) )."""
    _check_dim(d)
    if family_size < 1:
        raise ConstructionError("family_size must be >= 1")
    e, dl, g = params.eps, params.delta, params.gamma
    first = math.log(family_size / g) / (e * dl)
    second = (d * math.log(1 / e) + math.log(1 / g)) / (e * dl * dl)
    return math.ceil(constants.c2 * max(first, second))


def formula_sample_size(
    formula: str, params: ApproxParams, d: int | None, family_size: int, constants: Constants
) -> int:
    """The size given by the named formula: basic, main, halving or chaining.
    Every formula but basic needs the dimension parameter d."""
    if formula == "basic":
        return basic_sample_size(params, family_size)
    if formula not in ("main", "halving", "chaining"):
        raise ConstructionError(f"unknown formula {formula!r}")
    if d is None:
        raise ConstructionError(f"formula {formula!r} needs the dimension d")
    if formula == "main":
        return main_sample_size(params, d, constants)
    if formula == "halving":
        return halving_sample_size(params, d, constants)
    return chaining_sample_size(params, d, family_size, constants)


def _check_dim(d: int) -> None:
    if not _is_int(d) or d < 1:
        raise ConstructionError(f"dimension parameter d must be an integer >= 1, got {d!r}")


# --- sample JSON format ------------------------------------------------------


def write_sample_json(sample: Sample, path) -> None:
    doc = {
        "n": sample.n,
        "t": sample.t,
        "mode": sample.mode,
        "members": list(sample.support),
        "seed": sample.seed,
    }
    if sample.multiplicity is not None:
        doc["counts"] = list(sample.multiplicity)
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_sample_json(path) -> Sample:
    """A `write_sample_json` file; its `t` and `mode` must match, if present."""
    doc = _read_json_object(path, ("n", "members"))
    n, members, counts = doc["n"], doc["members"], doc.get("counts")
    for key, value in (("n", [n]), ("members", members), ("counts", counts or [])):
        if not isinstance(value, list) or not all(_is_int(v) for v in value):
            raise ConstructionError(f"{path}: {key!r} must be an integer or a list of them")
    sample = Sample(n, members, counts, seed=doc.get("seed"))
    for key in ("t", "mode"):
        if key in doc and doc[key] != getattr(sample, key):
            raise ConstructionError(f"{path}: {key!r} does not match the members and counts")
    return sample
