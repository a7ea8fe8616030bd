"""Range spaces of known VC dimension, used as ground truth everywhere.

`intervals`, `halfplanes`, `axis_rectangles`, `random_system`, `power_set`
return materialized SetSystems, each built from packed flag rows.
`ImplicitIntervals` is the same interval family without materialization: the
family of all intervals on n points has n(n+1)/2 + 1 sets, so at n = 10^5 it
can only be handled through its structure.  It answers the same family
protocol as SetSystem (see `sampling`): its verifiers work from prefix sums,
exactly in integer arithmetic, accept float or Fraction eps like the
materialized ones and agree with them; and since intervals on any m points
trace to all intervals on m points, its trace on a sample is
`ImplicitIntervals(m)`, whose length is the closed form m(m+1)/2 + 1.  So
every construction, the two-stage one included, runs on it unmaterialized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _bitops
from .errors import ConstructionError
from .sampling import (
    ApproximationReport,
    Sample,
    _check_ground_set,
    _check_verifier_inputs,
    big_size_limit,
    exact_dtype,
    make_rng,
    small_size_limit,
    worst_report,
)
from .set_system import SetSystem


# --- intervals ---------------------------------------------------------------


@dataclass(frozen=True)
class ImplicitIntervals:
    """All intervals {i..j} on [0, n), plus the empty set, unmaterialized
    (for n = 0, the trace on an empty support, the empty set alone).

    Family order (shared with the materialized form): index 0 is the empty
    set, then intervals in lexicographic (i, j) order.  VC dimension is 2
    for n >= 4.
    """

    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ConstructionError(f"need n >= 0, got {self.n}")

    def __len__(self) -> int:
        return self.n * (self.n + 1) // 2 + 1

    def trace_on(self, sample: Sample) -> "ImplicitIntervals":
        """Intervals on any m points trace to all intervals on m points, and
        their first occurrences come in the same order as the family's."""
        _check_ground_set(self, sample)
        return ImplicitIntervals(len(sample.support_array))

    def index_of(self, i: int, j: int) -> int:
        """Family index of the interval {i..j}, 0 <= i <= j < n."""
        return 1 + i * self.n - i * (i - 1) // 2 + (j - i)

    def materialize(self) -> SetSystem:
        # {i..j} is [0, j + 1) minus [0, i), in index_of order after the empty set
        below = _bitops.pack_flags(np.tri(self.n + 1, self.n, -1, dtype=bool))
        starts, ends = np.triu_indices(self.n)
        rows = below[np.append(0, ends + 1)] & ~below[np.append(0, starts)]
        return SetSystem.from_packed(self.n, rows)

    # -- exact verification without materializing ---------------------------
    #
    # For the interval [i, j] with boundaries a = i, b = j + 1 and prefix
    # counts p, the signed error is (u_b - u_a) / (n t) with
    # u_x = x t - p_x n.  Small sets (size <= eps n) maximize |u_b - u_a|
    # over a bounded window; large sets maximize |u_b - u_a| / (b - a),
    # a maximum-slope query answered exactly by Dinkelbach's iteration.

    def _prefix_and_u(self, sample: Sample) -> tuple[np.ndarray, np.ndarray]:
        dtype = exact_dtype(self.n, sample.t)
        p = np.concatenate(([0], np.cumsum(sample.counts_array()))).astype(dtype)
        x = np.arange(self.n + 1).astype(dtype)
        return p, x * sample.t - p * self.n

    def error_report(self, sample: Sample, eps) -> ApproximationReport:
        _check_verifier_inputs(self, sample)
        n = self.n
        p, u = self._prefix_and_u(sample)
        small_max = min(n, small_size_limit(n, eps))
        pairs = []
        for v in (u, -u):
            if small_max >= 1:
                pairs.append(_window_max_diff(v, small_max))
            if small_max < n:
                pairs.append(_max_slope_at_least(v, small_max + 1))
        # the empty set (family index 0) has ratio 0
        candidates = [(0, 0, 0)] + [
            (self.index_of(a, b - 1), b - a, int(p[b] - p[a])) for a, b in pairs
        ]
        return worst_report(n, sample.t, eps, candidates)

    def max_additive_numerator(self, sample: Sample) -> int:
        """max |s t - c n| over the intervals: max u - min u, as every
        boundary pair a < b is an interval."""
        _check_verifier_inputs(self, sample)
        _, u = self._prefix_and_u(sample)
        return int(u.max()) - int(u.min())

    def is_eps_net(self, sample: Sample, eps) -> bool:
        """No empty interval of size >= eps n exists, compared exactly."""
        _check_verifier_inputs(self, sample)
        hits = sample.support_array
        longest = int(np.diff(hits, prepend=-1, append=self.n).max()) - 1
        return longest < big_size_limit(self.n, eps)


def _trailing_min(arr: np.ndarray, w: int) -> np.ndarray:
    """out[i] = min(arr[max(0, i-w+1) .. i]), O(len) via the two-block trick."""
    k = len(arr)
    if w >= k:
        return np.minimum.accumulate(arr)
    # padding with the last element leaves every suffix minimum unchanged
    padded = np.concatenate((arr, np.full((-k) % w, arr[-1], dtype=arr.dtype)))
    blocks = padded.reshape(-1, w)
    pre = np.minimum.accumulate(blocks, axis=1).ravel()[:k]
    suf = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    np.minimum(pre[w - 1 :], suf[: k - w + 1], out=pre[w - 1 :])
    return pre


def _window_max_diff(u: np.ndarray, w: int) -> tuple[int, int]:
    """Lowest (a, b) maximizing u[b] - u[a] over 1 <= b - a <= w; len(u) >= 2.

    The smallest maximizing b with its smallest a is the lowest pair: a
    maximizing pair with a smaller a nests around it, so that a reaches b too.
    """
    b = int(np.argmax(u[1:] - _trailing_min(u[:-1], w))) + 1
    lo = max(0, b - w)
    return lo + int(np.argmin(u[lo:b])), b


def _max_slope_at_least(u: np.ndarray, min_gap: int) -> tuple[int, int]:
    """Lowest (a, b) maximizing (u[b] - u[a]) / (b - a) over b - a >= min_gap,
    for min_gap < len(u).  Dinkelbach's iteration: with du / dx the slope of
    the best pair so far, maximize the integer margin (u[b] - u[a]) dx -
    (b - a) du and move to the pair attaining it, until the largest margin is
    exactly 0; the pair then taken is the lowest of those attaining the slope.
    """
    x = np.arange(len(u)).astype(u.dtype)
    a = int(np.argmax(u[min_gap:] - u[:-min_gap]))  # start at the best shortest pair
    b = a + min_gap
    while True:
        dx, du = b - a, int(u[b] - u[a])
        w = u * dx - x * du
        ahead = np.maximum.accumulate(w[:0:-1])[::-1]  # ahead[i] = max(w[i+1:])
        margins = ahead[min_gap - 1 :] - w[:-min_gap]
        a = int(np.argmax(margins))
        b = a + min_gap + int(np.argmax(w[a + min_gap :]))
        if margins[a] == 0:  # the previous pair's own margin is 0
            return a, b


def intervals(n: int) -> SetSystem:
    """All intervals {i..j} on n points plus the empty set; VC dimension 2."""
    return ImplicitIntervals(n).materialize()


# --- geometric ranges --------------------------------------------------------


@dataclass(frozen=True)
class PointSet2D:
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.points:
            raise ConstructionError("point set must be nonempty")

    def __len__(self) -> int:
        return len(self.points)


def random_points(m: int, seed: int, box: int = 10**6) -> PointSet2D:
    """m distinct lattice points in [0, box)^2; at the default box the keys
    of `halfplanes` stay in int64."""
    if box < 1 or m > box * box:
        raise ConstructionError(f"[0, {box})^2 has no {m} distinct lattice points")
    rng = make_rng(seed)
    seen: set[tuple[int, int]] = set()
    pts = []
    while len(pts) < m:
        x, y = (int(v) for v in rng.integers(0, box, size=2))
        if (x, y) not in seen:
            seen.add((x, y))
            pts.append((float(x), float(y)))
    return PointSet2D(tuple(pts))


def _integer_coords(pts: PointSet2D) -> np.ndarray:
    """The points scaled to exact integers, as an (m, 2) array: int64 when
    every key v.p of `halfplanes` (at most 4 C^2 for coordinates up to C in
    absolute value) fits in it, else Python ints in an object array."""
    fracs = [Fraction(c) for point in pts.points for c in point]
    denom = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom) for f in fracs]
    dtype = np.int64 if 4 * max(map(abs, ints)) ** 2 < 2**63 else object
    return np.array(ints, dtype=dtype).reshape(-1, 2)


def halfplanes(pts: PointSet2D) -> SetSystem:
    """Distinct traces of closed halfplanes on the points; VC dimension <= 3.

    A trace is realizable iff it is strictly linearly separable from its
    complement.  The separating line can then be moved and turned, keeping
    the trace, to within an infinitesimal rotation of a line through a point
    p_i of the trace and another point p_j.  So the trace is the prefix
    {k : (v.p_k, w.p_k) <= (v.p_i, w.p_i)} of a critical direction
    v = +-(p_j - p_i)^perp, compared lexicographically: w, v's CCW
    perpendicular, realizes that rotation exactly and keeps duplicates of
    p_i on its side.
    """
    coords = _integer_coords(pts)
    m = len(coords)
    x, y = coords.T
    blocks = [_bitops.pack_flags(np.repeat([[False], [True]], m, axis=1))]  # the empty set and X
    for i in range(m):
        dx, dy = x - x[i], y - y[i]
        pair = (dx != 0) | (dy != 0)  # every p_j != p_i
        dx, dy = dx[pair, None], dy[pair, None]
        across = dx * y - dy * x  # v.p_k for v = (-dy, dx), whose w is (-dx, -dy)
        along = dx * x + dy * y  # -w.p_k; the keys of -v are (-across, along)
        a, b = across[:, i : i + 1], along[:, i : i + 1]
        below = (across < a) | ((across == a) & (along >= b))
        above = (across > a) | ((across == a) & (along <= b))
        blocks.append(_bitops.pack_flags(np.concatenate((below, above))))
    rows = np.concatenate(blocks)
    return SetSystem.from_packed(m, rows[_bitops.int_order(rows)])


def axis_rectangles(pts: PointSet2D) -> SetSystem:
    """Distinct traces of closed axis-aligned rectangles; VC dimension <= 4."""
    ranges = []
    for coord in np.array(pts.points).T:  # the traces of closed x-, then y-ranges
        vals = np.unique(coord)
        lo, hi = np.triu_indices(len(vals))
        ranges.append(_bitops.pack_flags((coord >= vals[lo, None]) & (coord <= vals[hi, None])))
    x, y = ranges
    rows = np.concatenate((np.zeros_like(x[:1]), (x[:, None] & y).reshape(-1, x.shape[1])))
    return SetSystem.from_packed(len(pts), rows[_bitops.int_order(rows)])


# --- random and exhaustive families ------------------------------------------


def random_system(n: int, m: int, p: float, seed: int) -> SetSystem:
    """m independent Bernoulli(p) subsets of [0, n), deduplicated."""
    if not 0 <= p <= 1:
        raise ConstructionError(f"need 0 <= p <= 1, got {p}")
    rng = make_rng(seed)
    rows = np.empty((m, _bitops.words_needed(n)), dtype=np.uint64)
    # one rng.random(n) per row, in row order, drawn about 4 MB at a time
    step = max(1, (1 << 19) // n)
    for s in range(0, m, step):
        rows[s : s + step] = _bitops.pack_flags(rng.random((min(step, m - s), n)) < p)
    return SetSystem.from_packed(n, rows)


def power_set(n: int) -> SetSystem:
    """All 2^n subsets of [0, n); VC dimension n.  Guarded at n <= 20."""
    if n > 20:
        raise ConstructionError(f"power set of [{n}] is too large (guard: n <= 20)")
    values = np.arange(1 << n, dtype="<u4").view(np.uint8).reshape(-1, 4)
    flags = np.unpackbits(values, axis=1, count=n, bitorder="little")
    return SetSystem.from_packed(n, _bitops.pack_flags(flags))
