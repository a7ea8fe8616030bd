"""Range spaces of known VC dimension, used as ground truth everywhere.

`intervals`, `halfplanes`, `axis_rectangles`, `random_system`, `power_set`
return materialized SetSystems.  `ImplicitIntervals` is the same interval
family without materialization: the family of all intervals on n points has
n(n+1)/2 + 1 sets, so at n = 10^5 it can only be handled through its
structure (prefix sums for intersection counts, a closed form for trace
counts).  Its verifier is exact in integer arithmetic, accepts float or
Fraction eps like the generic one, and agrees with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _bitops
from .errors import ConstructionError
from .sampling import (
    ApproximationReport,
    Sample,
    _check_verifier_inputs,
    big_size_limit,
    exact_dtype,
    small_size_limit,
    worst_report,
)
from .set_system import SetSystem


# --- intervals ---------------------------------------------------------------


@dataclass(frozen=True)
class ImplicitIntervals:
    """All intervals {i..j} on [0, n), plus the empty set, unmaterialized.

    Family order (shared with the materialized form): index 0 is the empty
    set, then intervals in lexicographic (i, j) order.  VC dimension is 2
    for n >= 4.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConstructionError(f"need n >= 1, got {self.n}")

    @property
    def family_size(self) -> int:
        return self.n * (self.n + 1) // 2 + 1

    def __len__(self) -> int:
        return self.family_size

    def trace_count_for_support(self, m: int) -> int:
        """|F|_Y| depends only on |Y|: intervals trace to intervals."""
        if m < 0:
            raise ConstructionError("support size must be >= 0")
        return m * (m + 1) // 2 + 1 if m else 1

    def index_of(self, i: int, j: int) -> int:
        """Family index of the interval {i..j}, 0 <= i <= j < n."""
        return 1 + i * self.n - i * (i - 1) // 2 + (j - i)

    def materialize(self) -> SetSystem:
        masks = [0]
        for i in range(self.n):
            run = 0
            for j in range(i, self.n):
                run |= 1 << j
                masks.append(run)
        # mask for {i..j} built incrementally; orders match index_of
        return SetSystem(self.n, tuple(masks))

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
    pad = (-k) % w
    padded = np.concatenate((arr, np.full(pad, arr.max(), dtype=arr.dtype)))
    blocks = padded.reshape(-1, w)
    pre = np.minimum.accumulate(blocks, axis=1).ravel()[:k]
    suf = np.minimum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    out = pre.copy()
    idx = np.arange(w - 1, k)
    out[idx] = np.minimum(pre[idx], suf[idx - w + 1])
    return out


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

    @cached_property
    def has_duplicates(self) -> bool:
        return len(set(self.points)) != len(self.points)


def random_points(m: int, seed: int, box: int = 10**6) -> PointSet2D:
    """m distinct lattice points in [0, box)^2; lattice coords keep the
    halfplane sweep exact."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    seen: set[tuple[int, int]] = set()
    pts = []
    while len(pts) < m:
        x, y = (int(v) for v in rng.integers(0, box, size=2))
        if (x, y) not in seen:
            seen.add((x, y))
            pts.append((float(x), float(y)))
    return PointSet2D(tuple(pts))


def _integer_coords(pts: PointSet2D) -> list[tuple[int, int]]:
    fracs = [(Fraction(x), Fraction(y)) for x, y in pts.points]
    denom = 1
    for fx, fy in fracs:
        denom = denom * fx.denominator // math.gcd(denom, fx.denominator)
        denom = denom * fy.denominator // math.gcd(denom, fy.denominator)
    return [(int(fx * denom), int(fy * denom)) for fx, fy in fracs]


def halfplanes(pts: PointSet2D) -> SetSystem:
    """Distinct traces of closed halfplanes on the points; VC dimension <= 3.

    A trace is realizable iff it is strictly linearly separable from its
    complement, so it survives an infinitesimal rotation.  It therefore
    appears as a prefix of the projection order just after some critical
    direction (one perpendicular to a pair difference); ties in the primary
    projection break by the perpendicular key, which realizes that
    infinitesimal rotation exactly.
    """
    coords = _integer_coords(pts)
    m = len(coords)
    full = (1 << m) - 1
    traces = {0, full}
    directions: set[tuple[int, int]] = set()
    for i in range(m):
        xi, yi = coords[i]
        for j in range(m):
            if i == j:
                continue
            dx, dy = coords[j][0] - xi, coords[j][1] - yi
            if dx == 0 and dy == 0:
                continue
            for vx, vy in ((-dy, dx), (dy, -dx)):
                g = math.gcd(abs(vx), abs(vy))
                directions.add((vx // g, vy // g))
    for vx, vy in directions:
        wx, wy = -vy, vx  # CCW perpendicular: the tie-break key
        keyed = sorted(
            ((vx * coords[k][0] + vy * coords[k][1],
              wx * coords[k][0] + wy * coords[k][1]), k)
            for k in range(m)
        )
        mask = 0
        for (key, k), (nxt_key, _) in zip(keyed, keyed[1:]):
            mask |= 1 << k
            if key != nxt_key:  # equal keys = duplicate points; never split them
                traces.add(mask)
    return SetSystem.from_masks(m, sorted(traces))


def axis_rectangles(pts: PointSet2D) -> SetSystem:
    """Distinct traces of closed axis-aligned rectangles; VC dimension <= 4."""
    xs = sorted({x for x, _ in pts.points})
    ys = sorted({y for _, y in pts.points})
    px = np.array([x for x, _ in pts.points])
    py = np.array([y for _, y in pts.points])
    x_masks = set()
    for i, x1 in enumerate(xs):
        for x2 in xs[i:]:
            x_masks.add(_bitops.mask_from_flags((px >= x1) & (px <= x2)))
    y_masks = set()
    for i, y1 in enumerate(ys):
        for y2 in ys[i:]:
            y_masks.add(_bitops.mask_from_flags((py >= y1) & (py <= y2)))
    traces = {0}
    for xm in x_masks:
        for ym in y_masks:
            traces.add(xm & ym)
    return SetSystem.from_masks(len(pts), sorted(traces))


# --- random and exhaustive families ------------------------------------------


def random_system(n: int, m: int, p: float, seed: int) -> SetSystem:
    """m independent Bernoulli(p) subsets of [0, n), deduplicated."""
    if not 0 <= p <= 1:
        raise ConstructionError(f"need 0 <= p <= 1, got {p}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    masks = []
    for _ in range(m):
        row = rng.random(n) < p
        masks.append(_bitops.mask_from_flags(row))
    return SetSystem.from_masks(n, masks)


def power_set(n: int) -> SetSystem:
    """All 2^n subsets of [0, n); VC dimension n.  Guarded at n <= 20."""
    if n > 20:
        raise ConstructionError(f"power set of [{n}] is too large (guard: n <= 20)")
    return SetSystem(n, tuple(range(1 << n)))
