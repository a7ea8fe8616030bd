"""Iterated halving: the constructive route to family-size-free sample bounds.

The construction builds nested samples X = A_m ⊇ ... ⊇ A_0.  Level j targets
error delta/3^j with failure budget gamma/2^j; the recursion bottoms out when
delta/3^m <= 1/sqrt(n), where the whole ground set is already small enough to
serve as-is.  Sampling outward, each level draws from the previous one a
union-bound-sized sample for the previous level's trace system, whose
distinct-trace count the family computes exactly (`len(trace_on(A))`).  Each
step degrades the error by the composition rule d1 + d2 + d1*d2, and the
schedule telescopes to delta.  Every function here takes any family of the
`sampling` protocol, materialized or not.

Modes differ in how oversized requests are handled: without replacement the
draw is capped at the available set (taking everything is a zero-error
approximation); with replacement an oversized draw is well-defined, so the
requested size is drawn in full and the output size follows the size formula
rather than n.

Subsampling is array-only: a level indexes the current sample's int64
support (and multiplicity) arrays with the ascending positions that
`uniform_sample` draws or the nonzero multinomial counts, so no level runs
a per-element Python loop.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AuditFailure, ConstructionError, RetriesExhausted
from .sampling import (
    WITH,
    WITHOUT,
    ApproxParams,
    Constants,
    Sample,
    basic_sample_size,
    chaining_sample_size,
    make_rng,
    relative_error,
    seed_sequence,
    uniform_sample,
)


@dataclass(frozen=True)
class HalvingLevel:
    delta_level: float
    gamma_level: float
    set_size_before: int  # size of the set (or multiset) sampled from
    sample_size_requested: int
    set_size_after: int
    seed_used: int | None


@dataclass(frozen=True)
class HalvingTrace:
    """Per-level record of one construction, base level first."""

    levels: tuple[HalvingLevel, ...]
    final_sample: Sample

    def to_json_dict(self) -> dict:
        return {
            "levels": [asdict(lv) for lv in self.levels],
            "final_size": self.final_sample.t,
            "mode": self.final_sample.mode,
        }


def _level_schedule(delta: float, gamma: float, n: int) -> list[tuple[float, float]]:
    """(delta_j, gamma_j) for the recursive levels, j = 0 at the output."""
    out = []
    d, g = delta, gamma
    while d > 1.0 / math.sqrt(n):
        out.append((d, g))
        d, g = d / 3.0, g / 2.0
    return out


def _subsample_without(sample: Sample, t: int, rng: np.random.Generator) -> Sample:
    pool = sample.support_array
    return Sample(sample.n, pool[uniform_sample(len(pool), t, rng).support_array])


def _subsample_with(sample: Sample, t: int, rng: np.random.Generator) -> Sample:
    # t i.i.d. draws from the multiset == a multinomial over its slots
    mult = sample.multiplicity_array
    weights = (
        np.ones(len(sample.support_array), dtype=np.float64)
        if mult is None
        else mult.astype(np.float64)
    )
    counts = rng.multinomial(t, weights / weights.sum())
    keep = counts > 0
    return Sample(sample.n, sample.support_array[keep], counts[keep])


def iterated_halving(system, params: ApproxParams, seed, mode: str = WITHOUT):
    """Run the raw construction; no verification happens here.

    Returns (final sample, trace).  Deterministic in (system, params, seed,
    mode).
    """
    if mode not in (WITHOUT, WITH):
        raise ConstructionError(f"unknown sampling mode {mode!r}")
    n = system.n
    schedule = _level_schedule(params.delta, params.gamma, n)
    seed_val = seed if isinstance(seed, int) else None
    base_delta, base_gamma = (
        (params.delta, params.gamma)
        if not schedule
        else (schedule[-1][0] / 3.0, schedule[-1][1] / 2.0)
    )

    current = Sample.full(n)
    levels = [HalvingLevel(base_delta, base_gamma, n, n, n, None)]
    for j in range(len(schedule) - 1, -1, -1):
        d, g = schedule[j]
        tr = len(system.trace_on(current))
        req = basic_sample_size(ApproxParams(params.eps, d / 3.0, g / 2.0), tr)
        rng = make_rng(seed, j)
        if mode == WITH:
            nxt = _subsample_with(current, req, rng)
        elif req >= current.t:
            nxt = current  # the whole set: zero additional error
        else:
            nxt = _subsample_without(current, req, rng)
        levels.append(HalvingLevel(d, g, current.t, req, nxt.t, seed_val))
        current = nxt

    if seed_val is not None and current.seed is None:
        current = Sample(
            current.n, current.support_array, current.multiplicity_array, seed=seed_val
        )
    return current, HalvingTrace(tuple(levels), current)


def _las_vegas(draw, family, params: ApproxParams, seed, max_retries: int, what: str):
    """The Las Vegas loop: (sample, record) = draw(seed_sequence(seed, attempt))
    until the exact verifier certifies the sample on `family` at (eps,
    delta).  Returns (attempts taken, sample, record, report); raises
    RetriesExhausted with the best worst ratio seen."""
    if max_retries < 1:
        raise ConstructionError(f"max_retries must be >= 1, got {max_retries}")
    best = math.inf
    for attempt in range(max_retries):
        sample, record = draw(seed_sequence(seed, attempt))
        report = relative_error(family, sample, params.eps)
        if report.passes(params.delta):
            return attempt + 1, sample, record, report
        best = min(best, report.worst_ratio)
    raise RetriesExhausted(
        f"no verified {what} in {max_retries} attempts "
        f"(best worst_ratio observed: {float(best):.6g})",
        best,
    )


def _certify(system, params: ApproxParams, seed, max_retries: int = 5, mode: str = WITHOUT):
    """`_las_vegas` over the construction: (attempts, sample, trace, report)."""
    return _las_vegas(
        lambda s: iterated_halving(system, params, s, mode=mode),
        system, params, seed, max_retries, "sample",
    )


def certified_halving(
    system,
    params: ApproxParams,
    seed,
    max_retries: int = 5,
    mode: str = WITHOUT,
) -> Sample:
    """Las Vegas wrapper: retry the construction until the exact verifier
    certifies the output."""
    return _certify(system, params, seed, max_retries, mode)[1]


def combined_construction(
    system,
    params: ApproxParams,
    d: int,
    constants: Constants,
    seed,
    max_retries: int = 5,
) -> Sample:
    """Two-stage construction: certified halving at (eps, delta/3), then a
    chaining-sized verified subsample of the trace at (eps, delta/3).  The
    composition rule makes the result a relative (eps, delta)-approximation.
    Both stages run on the family's own protocol (`sampling`) and retry
    through one Las Vegas loop: stage 2 samples the trace
    `system.trace_on(a1)`, found once, is sized by its length and checks
    each attempt against it with `relative_error`.
    """
    stage = ApproxParams(params.eps, params.delta / 3.0, params.gamma / 2.0)
    a1 = certified_halving(system, stage, seed_sequence(seed, 0), max_retries)
    trace = system.trace_on(a1)
    t2 = min(trace.n, chaining_sample_size(stage, d, len(trace), constants))
    cand = _las_vegas(
        lambda s: (uniform_sample(trace.n, t2, s), None),
        trace, stage, seed_sequence(seed, 1), max_retries, "stage-2 sample",
    )[1]
    final = Sample(system.n, a1.support_array[cand.support_array])
    if not relative_error(system, final, params.eps).passes(params.delta):
        raise AuditFailure(
            "composition violated: both stages verified but the "
            "combined sample fails at the combined delta"
        )
    return final


def write_trace_json(trace: HalvingTrace, path) -> None:
    with open(path, "w") as fh:
        json.dump(trace.to_json_dict(), fh, indent=2)
        fh.write("\n")
