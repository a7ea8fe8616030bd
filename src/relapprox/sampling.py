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
at the worst set.  `passes(delta)` compares that reported ratio to delta.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _bitops
from .errors import ConstructionError
from .set_system import SetSystem

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
            if not 0 < v < 1:
                raise ConstructionError(f"{name} must lie strictly in (0, 1), got {v}")


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
            if v < 1:
                raise ConstructionError(f"constant {name} must be >= 1, got {v}")


# Placeholders only; a calibration run (see harness.calibrate_constants and
# scripts/calibrate.py) writes constants.json, which find_constants prefers.
DEFAULT_CONSTANTS = Constants(c=8.0, c1=8.0, c2=8.0, c3=4.0 * math.sqrt(8.0))


def load_constants(path) -> Constants:
    with open(path) as fh:
        doc = json.load(fh)
    return Constants(c=doc["c"], c1=doc["c1"], c2=doc["c2"], c3=doc["c3"])


def find_constants(path=None) -> Constants:
    """Calibrated constants if available: explicit path, $RELAPPROX_CONSTANTS,
    ./constants.json, else the uncalibrated defaults."""
    candidates = [path, os.environ.get("RELAPPROX_CONSTANTS"), "constants.json"]
    for cand in candidates:
        if cand and os.path.exists(cand):
            return load_constants(cand)
    return DEFAULT_CONSTANTS


def _int64_vector(values, overflow: str) -> np.ndarray:
    """A read-only int64 copy of a 1-D integer sequence or array; raises
    ConstructionError(`overflow`) when a value is not an int64."""
    try:
        arr = np.array(values, dtype=np.int64)
    except OverflowError:
        raise ConstructionError(overflow) from None
    if arr.ndim != 1:
        raise ConstructionError("sample vectors must be one-dimensional")
    if isinstance(values, np.ndarray) and values.dtype != np.int64:
        if not np.array_equal(arr, values):  # wrapped uint64 or truncated floats
            raise ConstructionError(overflow)
    arr.flags.writeable = False
    return arr


class Sample:
    """A uniform sample of [0, n): a t-subset, or t draws with multiplicity.

    `support_array` holds the distinct sampled elements, strictly ascending;
    `multiplicity_array` is parallel to it in with-replacement mode and None
    otherwise.  Both are read-only int64 copies of the constructor's
    arguments (any integer sequence or array), and the total t must be below
    2^63.  `support` and `multiplicity` are the same values as tuples of
    Python ints, built on first access.  `seed` records provenance (None for
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
    def bits(self) -> int:
        return _bitops.mask_from_flags(self.counts_array())

    @cached_property
    def planes(self) -> tuple[int, ...]:
        """Binary planes of the multiplicity: plane k is the mask of the
        elements whose multiplicity has bit k set, so |A & S| is
        sum_k 2^k |plane_k & S| over ceil(log2(max multiplicity + 1)) planes."""
        if self.multiplicity_array is None:
            return (self.bits,)
        counts = self.counts_array()
        return tuple(
            _bitops.mask_from_flags((counts >> k) & 1)
            for k in range(int(counts.max()).bit_length())
        )

    def counts_array(self) -> np.ndarray:
        dense = np.zeros(self.n, dtype=np.int64)
        mult = self.multiplicity_array
        dense[self.support_array] = 1 if mult is None else mult
        return dense

    @classmethod
    def from_mask(cls, n: int, bits: int) -> "Sample":
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
            ent = e.entropy if isinstance(e.entropy, (list, tuple)) else [e.entropy]
            flat.extend(int(v) for v in ent)
        elif isinstance(e, (list, tuple)):
            stack.extend(reversed(e))
        else:
            flat.append(int(e))
    return np.random.SeedSequence(flat)


def make_rng(*entropy) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_sequence(*entropy)))


def _partial_fisher_yates(n: int, t: int, rng: np.random.Generator) -> list[int]:
    # first t entries of a uniform permutation, sparse representation
    jumps = rng.integers(low=np.arange(t), high=n)
    perm: dict[int, int] = {}
    out = []
    for i in range(t):
        j = int(jumps[i])
        vj = perm.get(j, j)
        perm[j] = perm.get(i, i)
        out.append(vj)
    return out


def uniform_sample(n: int, t: int, seed, mode: str = WITHOUT) -> Sample:
    """Uniform random sample, a deterministic function of (n, t, seed, mode)."""
    if n < 1 or t < 1:
        raise ConstructionError(f"need n >= 1 and t >= 1, got n={n}, t={t}")
    seed_val = seed if isinstance(seed, int) else None
    rng = make_rng(seed) if not isinstance(seed, np.random.Generator) else seed
    if mode == WITHOUT:
        if t > n:
            raise ConstructionError(f"cannot draw {t} distinct elements from {n}")
        return Sample(n, sorted(_partial_fisher_yates(n, t, rng)), seed=seed_val)
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

    def passes(self, delta) -> bool:
        return self.worst_ratio <= delta

    def to_json_dict(self) -> dict:
        return {
            "worst_ratio": float(self.worst_ratio),
            "worst_set_index": self.worst_set_index,
            "t": self.t,
            "eps": float(self.eps),
        }


class CountCosts(NamedTuple):
    """Model nanoseconds of one `intersection_counts` query by each strategy."""

    incidence_ns: float
    dense_ns: float


def count_costs(system: SetSystem, sample: Sample) -> CountCosts:
    """Price the counts of `sample` over `system` both ways: the expected
    incidence entries touched, t * nnz / n, against the packed words
    scanned, m * words * planes."""
    nnz = int(system.sizes_array.sum())
    return CountCosts(
        _bitops.NS_PER_ENTRY * sample.t * nnz / system.n,
        _bitops.NS_PER_WORD * system.packed.size * len(sample.planes),
    )


def intersection_counts(system: SetSystem, sample: Sample) -> np.ndarray:
    """|A & S| for every S in the family (multiplicity-weighted in WITH mode),
    as exact int64.

    Two strategies, chosen per query by `count_costs`: a popcount scan of the
    packed family against the sample's binary planes, or a bincount over the
    family's incidence index, where each sampled element counts once per
    draw.  The index is built only once the family's queries have paid for
    it (`SetSystem.incidence_when_paid`).
    """
    cost = count_costs(system, sample)
    index = None
    if cost.incidence_ns < cost.dense_ns:
        index = system.incidence_when_paid(cost.dense_ns)
    if index is None:
        return _bitops.intersection_sizes(
            system.packed, _bitops.pack_masks(sample.planes, system.n)
        )
    return _bitops.incidence_counts(
        index, sample.support_array, len(system), sample.multiplicity_array
    )


def _check_verifier_inputs(system, sample) -> None:
    if sample.n != system.n:
        raise ConstructionError(
            f"sample over [0, {sample.n}) but system over [0, {system.n})"
        )
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
    for Fraction eps, else the float abs(s/n - c/t) / max(s/n, eps)."""
    exact = isinstance(eps, Fraction)
    e = Fraction(eps)

    def rational(s, c):
        return Fraction(abs(s * t - c * n), n * t) / max(Fraction(s, n), e)

    if not candidates:
        return ApproximationReport(Fraction(0) if exact else 0.0, None, t, eps)
    index, s, c = max(candidates, key=lambda w: (rational(w[1], w[2]), -w[0]))
    ratio = rational(s, c) if exact else abs(s / n - c / t) / max(s / n, eps)
    return ApproximationReport(ratio, index, t, eps)


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
    if not isinstance(system, SetSystem):
        return system.error_report(sample, eps)
    _check_verifier_inputs(system, sample)
    counts = intersection_counts(system, sample)
    return worst_of_counts(system.n, sample.t, eps, system.sizes_array, counts)


def is_relative_approx(system, sample: Sample, params: ApproxParams) -> bool:
    return relative_error(system, sample, params.eps).passes(params.delta)


def max_additive_numerator(system, sample: Sample) -> int:
    """max over S of |s t - c n|, the largest additive error scaled by n t,
    exactly (0 for an empty family)."""
    if not isinstance(system, SetSystem):
        return system.max_additive_numerator(sample)
    _check_verifier_inputs(system, sample)
    if len(system) == 0:
        return 0
    counts = intersection_counts(system, sample)
    return int(error_numerators(system.n, sample.t, system.sizes_array, counts).max())


def max_additive_error(system, sample: Sample) -> float:
    """max over S of | |S|/n - |A & S|/t |, as the float nearest the exact value."""
    return max_additive_numerator(system, sample) / (system.n * sample.t)


def is_eps_approximation(system, sample: Sample, eps) -> bool:
    """Whether every set's additive error is at most eps, compared exactly:
    max |s t - c n| <= floor(eps n t) with eps taken as Fraction(eps)."""
    limit = math.floor(Fraction(eps) * system.n * sample.t)
    return max_additive_numerator(system, sample) <= limit


def big_size_limit(n: int, eps) -> int:
    """The smallest s with s >= eps n, exactly."""
    return math.ceil(Fraction(eps) * n)


def is_eps_net(system, sample: Sample, eps) -> bool:
    """Whether the sample hits every set of size >= eps * n, compared exactly."""
    if not isinstance(system, SetSystem):
        return system.is_eps_net(sample, eps)
    _check_verifier_inputs(system, sample)
    if len(system) == 0:
        return True
    big = system.sizes_array >= big_size_limit(system.n, eps)
    if not big.any():
        return True
    counts = intersection_counts(system, sample)
    return bool((counts[big] > 0).all())


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


def _check_dim(d: int) -> None:
    if d < 1:
        raise ConstructionError(f"dimension parameter d must be >= 1, got {d}")


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
    with open(path) as fh:
        doc = json.load(fh)
    return Sample(doc["n"], doc["members"], doc.get("counts"), seed=doc.get("seed"))
