"""The three benchmark workloads, their inputs and their output checks.

Each workload is a closed loop: one client issues the next operation only
after the previous one returns.  Inputs derive from the workload seed alone;
the library receives only the generated inputs.  Each workload puts a
different layer under load and leaves others idle, so an optimisation of one
layer shows on one workload and predicts no change on the others:

- mc-bernoulli: `harness.monte_carlo_failure` cells on a 20,000-set Bernoulli
  family.  The `_bitops` popcount over a 10 MB packed matrix (larger than
  the per-core L2) and `sampling.uniform_sample` do the work; cells alternate
  between without- and with-replacement mode, and with-replacement walks the
  matrix once per multiplicity threshold.  `halving`, `packing`, `chaining`
  and `set_system` are idle.
- halving-implicit: `certified_halving` on the unmaterialized interval family
  over 10^5 points.  `halving`'s subsampling, `Sample` validation and the
  implicit verifier in `generators` do the work; the family is never
  materialized, so `_bitops`, `set_system` and `packing` are idle and set-up
  is nearly free (work moved into set-up shows here).
- chain-materialized: one pass builds the chain decomposition of
  intervals(400), verifies every packing, draws chaining-sized samples until
  the simultaneous check passes, audits every set, re-verifies the sample in
  exact rational arithmetic, then runs the two-stage combined construction
  on a materialized Bernoulli family.  `packing`, `chaining`,
  `set_system.restrict`/`trace_count`, `halving` on a materialized family
  and `sampling`'s exact scalar path do the work.

Checks run outside the timed region and use the benchmark's own reference
computations (`int.bit_count`, prefix sums, `Fraction`), not the library's
kernels.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from relapprox import generators, halving, harness, packing, chaining, sampling
from relapprox.errors import AuditFailure, PreconditionFailed, RetriesExhausted
from relapprox.sampling import WITH, WITHOUT, ApproxParams, seed_sequence

def _derived_rng(workload: str, seed: int, *path) -> random.Random:
    return random.Random("/".join(map(str, (workload, seed, *path))))


def _packed_bytes(system) -> int:
    """Bytes of the family's packed matrix, computed from its shape."""
    return len(system) * max(1, (system.n + 63) // 64) * 8


def _threshold_masks(sample) -> list[int]:
    """Masks of support elements with multiplicity >= k, k = 1, 2, ..."""
    mult = sample.multiplicity or (1,) * len(sample.support)
    out = []
    for k in range(1, max(mult, default=0) + 1):
        m = 0
        for e, c in zip(sample.support, mult):
            if c >= k:
                m |= 1 << e
        out.append(m)
    return out


def reference_worst_ratio(masks, n: int, sample, eps) -> float:
    """Worst relative error by `int.bit_count` on `mask & sample`, with the
    library's float operation order."""
    thresholds = _threshold_masks(sample)
    t = sum(sample.multiplicity) if sample.multiplicity else len(sample.support)
    worst = 0.0
    for m in masks:
        s = m.bit_count()
        cnt = sum((m & thr).bit_count() for thr in thresholds)
        ratio = abs(s / n - cnt / t) / max(s / n, eps)
        if ratio > worst:
            worst = ratio
    return worst


class Workload:
    name: str
    op_name: str  # what one operation is
    unit_name: str  # what work_per_s counts
    rate_name: str  # the report's name for work_per_s
    modes: tuple[str, ...]  # operation i runs in mode modes[i % len(modes)]
    keep_outputs = False  # whether final_checks needs the timed outputs
    # raised by an operation that did not produce a certified result
    errors = (RetriesExhausted, AuditFailure, PreconditionFailed)

    def mode(self, i: int) -> str:
        return self.modes[i % len(self.modes)]

    def setup(self) -> None:
        """Generate and materialize the family and fill its caches."""
        raise NotImplementedError

    def op(self, i: int):
        """Operation i of the closed loop (i = -1 is the warm-up)."""
        raise NotImplementedError

    def units(self, output) -> int:
        return 1

    def check(self, i: int, output) -> list[str]:
        """Problems found in operation i's output; empty when correct."""
        return []

    def final_checks(self, outputs: dict, latencies: dict) -> dict[int, list[str]]:
        """Checks that rerun chosen operations; problems keyed by operation."""
        return {}

    def info(self) -> dict:
        """Descriptive lines for the report: working set, output sizes."""
        return {}


# --- mc-bernoulli ------------------------------------------------------------


class MonteCarlo(Workload):
    name = "mc-bernoulli"
    op_name = "cell"
    unit_name = "trial"
    rate_name = "trials_per_s"
    N, M, P = 4096, 20000, 0.05
    PARAMS = ApproxParams(eps=0.1, delta=0.5, gamma=0.2)
    T = 400
    TRIALS = 32  # per cell: about 0.1-0.3 s, so a run holds enough cells for a tail
    WORKERS = 2
    CHECKED_CELLS = 4  # leading cells rerun for determinism and the reference
    RANDOM_CELLS = 1  # a further cell, chosen by the seed, checked the same way
    TRIALS_REFERENCED = 2  # trials per checked cell recomputed by the reference
    modes = (WITHOUT, WITH)
    keep_outputs = True

    def __init__(self, seed: int):
        self.rng = _derived_rng(self.name, seed)
        self.family_seed = self.rng.getrandbits(32)
        self.master_seed = self.rng.getrandbits(32)
        self.system = None
        self.single_worker_s: list[float] = []
        self.two_worker_s: list[float] = []

    def setup(self) -> None:
        system = generators.random_system(self.N, self.M, self.P, self.family_seed)
        system.packed
        system.sizes_array
        self.system = system

    def cell_index(self, i: int) -> int:
        """Harness cell index of operation i; warm-up operations are negative."""
        return i + len(self.modes)

    def _cell(self, i: int, workers: int):
        return harness.monte_carlo_failure(
            self.system, self.PARAMS, self.T, self.TRIALS, self.master_seed,
            mode=self.mode(i), workers=workers, cell_index=self.cell_index(i),
        )

    def _rows(self, i: int, workers: int):
        return harness.monte_carlo_rows(
            self.system, self.PARAMS, self.T, self.TRIALS, self.master_seed,
            mode=self.mode(i), workers=workers, cell_index=self.cell_index(i),
        )

    def op(self, i: int):
        return self._cell(i, self.WORKERS)

    def units(self, output) -> int:
        return output.trials

    def check(self, i, cell) -> list[str]:
        p = self.PARAMS
        expected = (p.eps, p.delta, p.gamma, self.T, self.TRIALS, self.master_seed)
        got = (cell.eps, cell.delta, cell.gamma, cell.t, cell.trials, cell.seed)
        problems = []
        if got != expected:
            problems.append(f"cell {i} reports {got}, expected {expected}")
        if not 0 <= cell.failures <= cell.trials:
            problems.append(f"cell {i} has {cell.failures} failures in {cell.trials} trials")
        return problems

    def final_checks(self, outputs, latencies):
        timed = sorted(outputs)
        chosen = timed[: self.CHECKED_CELLS]
        rest = timed[self.CHECKED_CELLS :]
        chosen += self.rng.sample(rest, min(self.RANDOM_CELLS, len(rest)))
        problems: dict[int, list[str]] = {}
        for i in chosen:
            found = []
            failures = outputs[i].failures
            rows2 = self._rows(i, self.WORKERS)
            started = time.perf_counter()
            single = self._cell(i, 1)
            self.single_worker_s.append(time.perf_counter() - started)
            self.two_worker_s.append(latencies[i])
            rows1 = self._rows(i, 1)
            if sum(r.failed for r in rows2) != failures:
                found.append(f"cell {i}: per-trial failures do not add up to the cell's {failures}")
            if single.failures != failures:
                found.append(f"cell {i}: {single.failures} failures with 1 worker, {failures} with {self.WORKERS}")
            if [(r.failed, r.worst_ratio) for r in rows1] != [(r.failed, r.worst_ratio) for r in rows2]:
                found.append(f"cell {i}: per-trial results differ between 1 and {self.WORKERS} workers")
            for k in self.rng.sample(range(self.TRIALS), self.TRIALS_REFERENCED):
                sample = sampling.uniform_sample(
                    self.N, self.T, seed_sequence(self.master_seed, self.cell_index(i), k), mode=self.mode(i)
                )
                ref = reference_worst_ratio(self.system.masks, self.N, sample, self.PARAMS.eps)
                row = rows2[k]
                if ref != row.worst_ratio or (ref > self.PARAMS.delta) != row.failed:
                    found.append(
                        f"cell {i} trial {k}: library worst ratio {row.worst_ratio!r} "
                        f"(failed={row.failed}), reference {ref!r}"
                    )
            if found:
                problems[i] = found
        return problems

    def info(self) -> dict:
        out = {"packed_matrix_bytes": _packed_bytes(self.system)}
        if self.single_worker_s:
            out["single_worker_cell_ms"] = 1e3 * statistics.median(self.single_worker_s)
            out["same_cells_two_worker_ms"] = 1e3 * statistics.median(self.two_worker_s)
            out["determinism_cells_checked"] = len(self.single_worker_s)
        return out


# --- halving-implicit -----------------------------------------------------------


class Halving(Workload):
    name = "halving-implicit"
    op_name = "construction"
    unit_name = "construction"
    rate_name = "constructions_per_s"
    N = 100_000
    PARAMS = ApproxParams(eps=0.1, delta=0.25, gamma=0.1)
    RETRIES = 5
    SPOT_INTERVALS = 10_000
    REL_TOL = 1e-9  # the implicit verifier's large-set search is exact to float resolution
    modes = (WITHOUT, WITH)

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = _derived_rng(self.name, seed)
        self.family = None
        self.sizes: dict[str, list[int]] = {WITHOUT: [], WITH: []}
        self.level_sizes: dict[str, list[int]] = {}
        self._row_starts = None

    def setup(self) -> None:
        self.family = generators.ImplicitIntervals(self.N)

    def construction_seed(self, i: int) -> int:
        return _derived_rng(self.name, self.seed, "construction", i).getrandbits(63)

    def op(self, i: int):
        return halving.certified_halving(
            self.family, self.PARAMS, self.construction_seed(i),
            max_retries=self.RETRIES, mode=self.mode(i),
        )

    def _interval(self, index: int) -> tuple[int, int]:
        """(a, b) with the family index's interval {a .. b-1}; (0, 0) is the empty set."""
        if index == 0:
            return 0, 0
        if self._row_starts is None:
            n = self.N
            self._row_starts = [i * n - i * (i - 1) // 2 for i in range(n)]
        k = index - 1
        i = bisect.bisect_right(self._row_starts, k) - 1
        return i, i + (k - self._row_starts[i]) + 1

    def check(self, i, sample) -> list[str]:
        n, eps, delta = self.N, self.PARAMS.eps, self.PARAMS.delta
        mode = self.mode(i)
        if sample.n != n or sample.mode != mode or not sample.support:
            return [f"construction {i}: sample over {sample.n} in mode {sample.mode}"]
        self.sizes[mode].append(sample.t)
        report = sampling.relative_error(self.family, sample, eps)
        problems = []
        if not report.passes(delta):
            problems.append(f"construction {i}: certified sample has worst ratio {report.worst_ratio}")

        counts = np.zeros(n, dtype=np.int64)
        counts[np.array(sample.support)] = sample.multiplicity or 1
        prefix = np.concatenate(([0], np.cumsum(counts)))
        t = int(prefix[-1])
        if t != sample.t:
            problems.append(f"construction {i}: multiplicities add to {t}, sample says t={sample.t}")
        a, b = self._interval(report.worst_set_index)
        s, cnt = b - a, int(prefix[b] - prefix[a])
        ratio = abs(s / n - cnt / t) / max(s / n, eps)
        if ratio != report.worst_ratio:
            problems.append(
                f"construction {i}: worst interval [{a}, {b}) recomputes to {ratio!r}, "
                f"reported {report.worst_ratio!r}"
            )
        rng = np.random.default_rng(self.rng.getrandbits(64))
        ends = np.sort(rng.integers(0, n + 1, size=(self.SPOT_INTERVALS, 2)), axis=1)
        ends = ends[ends[:, 0] < ends[:, 1]]
        size = (ends[:, 1] - ends[:, 0]) / n
        spot = np.abs(size - (prefix[ends[:, 1]] - prefix[ends[:, 0]]) / t) / np.maximum(size, eps)
        worst_spot = float(spot.max())
        if worst_spot > report.worst_ratio * (1 + self.REL_TOL) or worst_spot > delta:
            problems.append(
                f"construction {i}: a spot-checked interval has ratio {worst_spot!r} "
                f"above the reported worst {report.worst_ratio!r} or delta"
            )
        if mode not in self.level_sizes:
            _, trace = halving.iterated_halving(
                self.family, self.PARAMS, seed_sequence(self.construction_seed(i), 0), mode=mode
            )
            self.level_sizes[mode] = [lv.set_size_after for lv in trace.levels]
        return problems

    def info(self) -> dict:
        out = {"packed_matrix_bytes": 0}
        for mode, ts in self.sizes.items():
            if ts:
                out[f"output_t_over_n_{mode}"] = statistics.median(ts) / self.N
        for mode, levels in self.level_sizes.items():
            out[f"halving_level_sizes_{mode}"] = levels
        return out


# --- chain-materialized -----------------------------------------------------------


@dataclass(frozen=True)
class ChainPass:
    """Outputs of one chain-materialized pass."""

    chain: object
    sample: object
    claim7: object
    claim7_attempts: int
    audit: object
    exact: object
    combined: object
    seed: int


class Chain(Workload):
    name = "chain-materialized"
    op_name = "pass"
    unit_name = "pass"
    rate_name = "passes_per_s"
    modes = ("pass",)
    INTERVALS_N = 400
    CHAIN_PARAMS = ApproxParams(eps=0.25, delta=0.4, gamma=0.1)
    CHAIN_D = 2  # VC dimension of intervals
    EXACT_EPS = Fraction(1, 4)
    MAX_CLAIM7 = 50
    RANDOM = (8192, 4000, 0.05)
    COMBINED_PARAMS = ApproxParams(eps=0.5, delta=0.9, gamma=0.25)
    COMBINED_D = 9
    RETRIES = 5

    def __init__(self, seed: int, constants):
        self.seed = seed
        self.rng = _derived_rng(self.name, seed)
        self.family_seed = self.rng.getrandbits(32)
        self.constants = constants
        self.intervals = None
        self.random = None
        self.chain_t = None
        self.records: list[dict] = []

    def setup(self) -> None:
        iv = generators.intervals(self.INTERVALS_N)
        iv.packed
        iv.sizes_array
        rs = generators.random_system(*self.RANDOM, self.family_seed)
        rs.packed
        rs.sizes_array
        self.intervals, self.random = iv, rs
        self.chain_t = sampling.chaining_sample_size(
            self.CHAIN_PARAMS, self.CHAIN_D, len(iv), constants=self.constants
        )

    def pass_seed(self, i: int) -> int:
        return _derived_rng(self.name, self.seed, "pass", i).getrandbits(63)

    def op(self, i: int):
        iv, p = self.intervals, self.CHAIN_PARAMS
        seed = self.pass_seed(i)
        chain = chaining.build_chain(iv, p.eps, p.delta)
        for level in chain.levels:
            packing.verify_packing(iv, level.packing)
        for attempt in range(self.MAX_CLAIM7):
            sample = sampling.uniform_sample(iv.n, self.chain_t, seed_sequence(seed, 1, attempt))
            claim7 = chaining.claim7_check(chain, sample, gamma=p.gamma)
            if claim7.ok:
                break
        else:
            raise RetriesExhausted(f"claim7_check failed {self.MAX_CLAIM7} samples", math.nan)
        audit = chaining.telescoping_audit_all(chain, sample, claim7)
        exact = sampling.relative_error(iv, sample, self.EXACT_EPS)
        combined = halving.combined_construction(
            self.random, self.COMBINED_PARAMS, self.COMBINED_D, self.constants,
            seed_sequence(seed, 2), max_retries=self.RETRIES,
        )
        return ChainPass(
            chain=chain, sample=sample, claim7=claim7, claim7_attempts=attempt + 1,
            audit=audit, exact=exact, combined=combined, seed=seed,
        )

    def check(self, i, r: ChainPass) -> list[str]:
        iv, rs = self.intervals, self.random
        problems = []
        sizes = [lv.packing.size for lv in r.chain.levels]
        if any(a > b for a, b in zip(sizes, sizes[1:])):
            problems.append(f"pass {i}: packing sizes {sizes} are not nested")
        if r.audit.sets_audited != len(iv) or r.audit.max_final_slack > 0:
            problems.append(f"pass {i}: audit {r.audit} does not cover every set within its bound")

        # exact re-verification: recompute the worst set in Fraction arithmetic
        # and compare the decision with the float verifier
        n, t, eps = iv.n, len(r.sample.support), self.EXACT_EPS
        worst_mask = iv.masks[r.exact.worst_set_index]
        sample_bits = sum(1 << e for e in r.sample.support)
        s, cnt = worst_mask.bit_count(), (worst_mask & sample_bits).bit_count()
        exact_ratio = abs(Fraction(s, n) - Fraction(cnt, t)) / max(Fraction(s, n), eps)
        if not isinstance(r.exact.worst_ratio, Fraction) or exact_ratio != r.exact.worst_ratio:
            problems.append(f"pass {i}: exact worst ratio {r.exact.worst_ratio} recomputes to {exact_ratio}")
        delta = self.CHAIN_PARAMS.delta
        direct_pass = r.exact.worst_ratio <= Fraction(delta)
        float_ratio = sampling.relative_error(iv, r.sample, float(eps)).worst_ratio
        if not math.isclose(float_ratio, float(r.exact.worst_ratio), rel_tol=1e-12) or (
            (float_ratio <= delta) != direct_pass and not math.isclose(float_ratio, delta)
        ):
            problems.append(
                f"pass {i}: float verifier {float_ratio!r} disagrees with exact {r.exact.worst_ratio}"
            )

        # combined construction: certified, a subset of its stage-1 sample, and
        # not the whole ground set
        c, cp = r.combined, self.COMBINED_PARAMS
        if c.n != rs.n or c.multiplicity is not None or c.t >= rs.n:
            problems.append(f"pass {i}: combined construction returned {c.t} of {rs.n} elements")
        # replay stage 1 as combined_construction runs it
        stage = ApproxParams(cp.eps, cp.delta / 3.0, cp.gamma / 2.0)
        stage1_seed = seed_sequence(seed_sequence(r.seed, 2), 0)
        stage1 = halving.certified_halving(rs, stage, stage1_seed, self.RETRIES)
        if not set(c.support) <= set(stage1.support):
            problems.append(f"pass {i}: combined sample is not inside its stage-1 sample")
        ref = reference_worst_ratio(rs.masks, rs.n, c, cp.eps)
        if ref > cp.delta:
            problems.append(f"pass {i}: combined sample has reference worst ratio {ref!r} > {cp.delta}")
        _, trace = halving.iterated_halving(rs, stage, seed_sequence(stage1_seed, 0))
        self.records.append(
            {
                "packing_sizes": sizes,
                "claim7_attempts": r.claim7_attempts,
                "direct_pass": direct_pass,
                "stage1_t": stage1.t,
                "final_t": c.t,
                "levels": [lv.set_size_after for lv in trace.levels],
            }
        )
        return problems

    def info(self) -> dict:
        out = {
            "packed_matrix_bytes": _packed_bytes(self.intervals) + _packed_bytes(self.random),
            "packed_matrix_bytes_intervals": _packed_bytes(self.intervals),
            "packed_matrix_bytes_random": _packed_bytes(self.random),
            "chain_sample_t": self.chain_t,
        }
        if self.records:
            last = self.records[-1]
            out["packing_sizes"] = last["packing_sizes"]
            out["claim7_attempts_per_pass"] = statistics.mean(r["claim7_attempts"] for r in self.records)
            passed = sum(r["direct_pass"] for r in self.records)
            out["samples_passing_direct_eps_delta"] = f"{passed} of {len(self.records)}"
            out["combined_stage1_t_over_n"] = [r["stage1_t"] / self.random.n for r in self.records]
            out["combined_final_t_over_n"] = [r["final_t"] / self.random.n for r in self.records]
            out["combined_stage1_level_sizes"] = last["levels"]
        return out


def make(name: str, seed: int, constants) -> Workload:
    if name == MonteCarlo.name:
        return MonteCarlo(seed)
    if name == Halving.name:
        return Halving(seed)
    if name == Chain.name:
        return Chain(seed, constants)
    raise ValueError(f"unknown workload {name!r}")
