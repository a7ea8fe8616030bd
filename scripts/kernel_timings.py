#!/usr/bin/env python3
"""Re-measure the per-unit costs of the `_bitops` kernels and print them as JSON.

Run from the repository root:

    python scripts/kernel_timings.py [--repeats 5] [--seed 0]

For packed rows of 7, 64 and 128 words (a matrix of about 4 MB, each bit set
with probability 1/16) it reports, as the median process-CPU time over the
repeats:

- `ns_per_word`: `intersection_sizes` against one plane, per packed word
  (`_bitops.NS_PER_WORD`);
- `ns_per_entry`: `incidence_counts` for t = 200 distinct elements (one
  binary plane), per incidence entry gathered (`_bitops.NS_PER_ENTRY`);
- `ns_per_entry_two_threads`: the same counts made by two threads at once
  (each makes `THREAD_CALLS` calls), as the CPU of both threads per entry.
  It stays near `ns_per_entry` while the kernel holds the GIL between its
  few numpy calls; a kernel that drops and retakes the GIL many times per
  call (once per sampled element, say) costs more CPU here than alone;
- `ns_per_build_word`: `build_incidence`, per packed word
  (`_bitops.NS_PER_BUILD_WORD`).

The report repeats the constants stated in `_bitops` beside the measured
figures.  `SetSystem.count_costs` prices each count query with those
constants and `SetSystem.counts` runs the cheaper kernel, so a change to
them changes which kernel runs.

A second section, `chain_stages`, times the stages of one chain pass on
intervals(400) at eps = 0.25, delta = 0.4, as medians of process-CPU
milliseconds: each level's admit loop and final nearest-member search (a
level's seed map is the previous level's final search, so there is no
seeded search to time), `verify_packing` on each level, and the
telescoping audit on a sample of n / 2 elements that passes claim7_check.

A third section, `implicit_verify`, follows one with-replacement
`iterated_halving` on `ImplicitIntervals(10**5)` at the `halving-implicit`
parameters (eps = 0.1, delta = 0.25, gamma = 0.1) and reports the median
process-CPU milliseconds and minor page faults (`ru_minflt`) of
`error_report` on `Sample.full(n)`, of `error_report` on the construction's
output, and of each level's with-replacement draw (`halving._subsample_with`,
its generator made inside the timing).

A fourth section, `families`, reports the median process-CPU milliseconds
and the tracemalloc peak (MB, the built family included) of building:
`random_system` at the two shapes of the benchmark's Bernoulli families,
(n, m, p) = (4096, 20000, 0.05) and (8192, 4000, 0.05); `intervals(400)`;
and `new_set_system` on the index lists of a (4096, 5000, 0.05) Bernoulli
family, about 1.02 M members.
"""

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
import tracemalloc

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from relapprox import _bitops, chaining, generators, halving, packing, sampling, set_system  # noqa: E402

WIDTHS = (7, 64, 128)
MATRIX_BYTES = 4 << 20
SAMPLE_T = 200
THREAD_CALLS = 4


def cpu_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.process_time()
        fn()
        times.append(time.process_time() - t0)
    return statistics.median(times)


def cpu_seconds_two_threads(fn, repeats: int) -> float:
    """Median process-CPU time per call of fn while two threads make
    `THREAD_CALLS` calls each, released together."""
    times = []
    for _ in range(repeats):
        start = threading.Barrier(2)

        def calls():
            start.wait()
            for _ in range(THREAD_CALLS):
                fn()

        threads = [threading.Thread(target=calls) for _ in range(2)]
        t0 = time.process_time()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        times.append((time.process_time() - t0) / (2 * THREAD_CALLS))
    return statistics.median(times)


def random_packed(m: int, w: int, rng) -> np.ndarray:
    words = [rng.integers(0, 2**64, size=(m, w), dtype=np.uint64) for _ in range(4)]
    return words[0] & words[1] & words[2] & words[3]


def measure(w: int, repeats: int, rng) -> dict:
    m = MATRIX_BYTES // (8 * w)
    n = 64 * w
    packed = random_packed(m, w, rng)
    plane = random_packed(1, w, rng)[0]
    words = m * w
    out = {"rows": m, "words": w}
    out["ns_per_word"] = (
        cpu_seconds(lambda: _bitops.intersection_sizes(packed, plane), repeats) / words * 1e9
    )
    out["ns_per_build_word"] = (
        cpu_seconds(lambda: _bitops.build_incidence(packed, n), repeats) / words * 1e9
    )
    index = _bitops.build_incidence(packed, n)
    elements = np.sort(rng.choice(n, size=SAMPLE_T, replace=False))
    entries = int((index.indptr[elements + 1] - index.indptr[elements]).sum())
    counts = functools.partial(_bitops.incidence_counts, index, [elements], m)
    out["ns_per_entry"] = cpu_seconds(counts, repeats) / entries * 1e9
    out["ns_per_entry_two_threads"] = cpu_seconds_two_threads(counts, repeats) / entries * 1e9
    return out


def chain_stages(system, eps: float, delta: float, repeats: int) -> dict:
    """Median process-CPU milliseconds of each stage of one chain pass."""

    def ms(fn) -> float:
        return round(cpu_seconds(fn, repeats) * 1e3, 2)

    chain = chaining.build_chain(system, eps, delta)
    fam = len(system)
    members = np.empty(0, dtype=np.int64)
    dist, cover = np.full(fam, packing._BIG), np.full(fam, -1)
    levels = []
    for i, level in enumerate(chain.levels):
        need = math.ceil(level.packing.alpha)
        seeds, seed_dist, seed_arg = members, dist, cover

        def admit():
            return packing._admit(system, need, seeds, seed_dist, seed_arg)

        def final():
            return packing._cover(system, members, hint, reach)

        members, hint, reach = admit()
        levels.append(
            {
                "level": i,
                "members": level.packing.size,
                "admit_ms": ms(admit),
                "final_search_ms": ms(final),
                "verify_ms": ms(lambda: packing.verify_packing(system, level.packing)),
            }
        )
        dist, cover = final()
    for attempt in range(50):
        sample = sampling.uniform_sample(system.n, max(1, system.n // 2), (attempt,))
        claim7 = chaining.claim7_check(chain, sample)
        if claim7.ok:
            break
    audit = ms(lambda: chaining.telescoping_audit_all(chain, sample, claim7)) if claim7.ok else None
    return {
        "family_sets": fam,
        "eps": eps,
        "delta": delta,
        "build_chain_ms": ms(lambda: chaining.build_chain(system, eps, delta)),
        "levels": levels,
        "audit_ms": audit,
    }


def cpu_ms_and_faults(fn, repeats: int) -> dict:
    """Median process-CPU milliseconds and minor page faults of fn()."""
    ms, faults = [], []
    for _ in range(repeats):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.process_time()
        fn()
        ms.append((time.process_time() - t0) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    return {"cpu_ms": round(statistics.median(ms), 3), "minor_faults": statistics.median(faults)}


def implicit_verify(n: int, repeats: int, seed: int = 0) -> dict:
    """The implicit verifier and the with-replacement level draws of one
    with-replacement construction on ImplicitIntervals(n)."""
    family = generators.ImplicitIntervals(n)
    params = sampling.ApproxParams(0.1, 0.25, 0.1)
    output, trace = halving.iterated_halving(family, params, seed, mode=sampling.WITH)
    full = sampling.Sample.full(n)
    report = {"n": n, "levels": []}
    for name, sample in (("error_report_full", full), ("error_report_with_output", output)):
        report[name] = cpu_ms_and_faults(lambda: family.error_report(sample, params.eps), repeats)
    # level k of the trace after the base draws with make_rng(seed, j), j counting down to 0
    current = full
    for k, level in enumerate(trace.levels[1:]):
        j = len(trace.levels) - 2 - k
        req = level.sample_size_requested

        def draw():
            return halving._subsample_with(current, req, sampling.make_rng(seed, j))

        cost = cpu_ms_and_faults(draw, repeats)
        report["levels"].append({"from_t": current.t, "draws": req, **cost})
        current = draw()
    return report


def families(repeats: int, seed: int = 0) -> dict:
    """Median process-CPU milliseconds and tracemalloc peak of each build."""
    lists = [
        _bitops.indices_from_mask(mask).tolist()
        for mask in generators.random_system(4096, 5000, 0.05, seed).masks
    ]
    builds = {
        f"random_system{shape}": functools.partial(generators.random_system, *shape, seed)
        for shape in ((4096, 20000, 0.05), (8192, 4000, 0.05))
    }
    builds["intervals(400)"] = functools.partial(generators.intervals, 400)
    members = sum(map(len, lists))
    builds[f"new_set_system({members} members)"] = functools.partial(
        set_system.new_set_system, 4096, lists
    )
    report = {}
    for name, build in builds.items():
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        report[name] = {
            "cpu_ms": round(cpu_seconds(build, repeats) * 1e3, 2),
            "peak_mb": round(peak / 2**20, 2),
        }
    return report


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    rng = np.random.default_rng(args.seed)
    report = {
        "machine": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stated": {
            "NS_PER_WORD": _bitops.NS_PER_WORD,
            "NS_PER_ENTRY": _bitops.NS_PER_ENTRY,
            "NS_PER_BUILD_WORD": _bitops.NS_PER_BUILD_WORD,
        },
        "measured": [measure(w, args.repeats, rng) for w in WIDTHS],
        "chain_stages": chain_stages(generators.intervals(400), 0.25, 0.4, args.repeats),
        "implicit_verify": implicit_verify(10**5, args.repeats, args.seed),
        "families": families(args.repeats, args.seed),
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
