"""The paper's side results, restated as brute-force oracles for the tests.

The library keeps its products: the certified sample, the constructions
and their exact verifier.  The lemmas that the tests check those products
against live here instead, each as the smallest exhaustive check that a
test needs, over Python-int masks and `itertools`: Chernoff's tail,
shattering and the VC dimension, and the Sauer-Shelah growth bound.
"""

import itertools
import math

from relapprox.sampling import Sample, make_rng


def mask_sample(n: int, bits: int) -> Sample:
    """The sample without replacement whose members are the set bits of `bits`."""
    return Sample(n, [e for e in range(n) if bits >> e & 1])


def chernoff_tail(n: int, s: int, t: int, eta: float) -> float:
    """2 exp(-eta^2 n / (2 s t + eta n)), the paper's bound on the chance that
    a uniform t-sample meets a set of size s at least eta away from s t / n
    (the raw expression, which may exceed 1)."""
    return 2.0 * math.exp(-(eta * eta * n) / (2.0 * s * t + eta * n))


def shattered(masks, y: int) -> bool:
    """Whether the family's traces on Y are all 2^|Y| subsets of Y."""
    return len({m & y for m in masks}) == 1 << y.bit_count()


def vc_dimension(masks, n: int) -> int:
    """The largest |Y| that the family shatters, over every Y in [0, n);
    -1 for the empty family, which shatters nothing."""
    return max((y.bit_count() for y in range(1 << n) if shattered(masks, y)), default=-1)


def trace_dimension(system) -> int:
    """The VC dimension by the library's trace count: the largest d for which
    some d-subset Y has len(system.trace_on(Y)) = 2^d.  A subset of a
    shattered set is shattered, so the search stops at the first size that
    no subset reaches; -1 for the empty family."""
    if len(system) == 0:
        return -1
    d = 0
    while d < system.n and any(
        len(system.trace_on(Sample(system.n, y))) == 1 << (d + 1)
        for y in itertools.combinations(range(system.n), d + 1)
    ):
        d += 1
    return d


def sauer_shelah(y_size: int, d: int) -> int:
    """The Sauer-Shelah bound on the traces of a family of VC dimension d on
    y_size points: the sum of C(y_size, i) over i <= d."""
    return sum(math.comb(y_size, i) for i in range(d + 1))


def growth_checks(system, d: int, samples: int, seed: int) -> list[tuple[int, int]]:
    """(|Y|, |F|_Y|) for Y = X and for `samples` uniform random Y with
    d <= |Y| <= n, the traces counted over the masks; no Y when n < d."""
    if system.n < d:
        return []
    rng = make_rng(seed)
    sizes = [system.n] + [int(rng.integers(d, system.n + 1)) for _ in range(samples)]
    checks = []
    for size in sizes:
        y = sum(1 << int(e) for e in rng.choice(system.n, size, replace=False))
        checks.append((size, len({m & y for m in system.masks})))
    return checks
