import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from relapprox import _bitops
from relapprox.sampling import (
    WITH,
    WITHOUT,
    Sample,
    count_costs,
    intersection_counts,
    make_rng,
    uniform_sample,
)
from relapprox.set_system import SetSystem


def oracle_counts(masks, sample) -> list[int]:
    """|A & S| per set from the sample's support and multiplicities, bit by bit."""
    mult = sample.multiplicity or (1,) * len(sample.support)
    return [sum(c for e, c in zip(sample.support, mult) if mask >> e & 1) for mask in masks]


def random_masks(n: int, m: int, p: float, rng) -> list[int]:
    masks = []
    for _ in range(m):
        mask = 0
        for e in np.flatnonzero(rng.random(n) < p):
            mask |= 1 << int(e)
        masks.append(mask)
    return masks


def dense_counts(system: SetSystem, sample: Sample) -> np.ndarray:
    return _bitops.intersection_sizes(system.packed, sample.planes)


def incidence_counts(system: SetSystem, sample: Sample) -> np.ndarray:
    repeats = None if sample.multiplicity is None else np.array(sample.multiplicity)
    return _bitops.incidence_counts(
        system.incidence, np.array(sample.support), len(system), repeats
    )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 260),
    m=st.integers(0, 300),
    p=st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]),
    mode=st.sampled_from([WITHOUT, WITH]),
    scale=st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
    heavy=st.booleans(),
    seed=st.integers(0, 2**32),
)
def test_incidence_dense_and_oracle_counts_agree(n, m, p, mode, scale, heavy, seed):
    rng = make_rng(seed)
    system = SetSystem.from_masks(n, random_masks(n, m, p, rng))
    if heavy:
        # few elements, multiplicities up to 2^11: many binary planes
        support = np.unique(rng.integers(0, n, size=min(n, 12)))
        mult = rng.integers(1, 2**11, size=len(support))
        if mode == WITHOUT:
            mult[:] = 1
        sample = Sample(n, tuple(map(int, support)), tuple(map(int, mult)) if mode == WITH else None)
    else:
        # t a multiple of the cost model's crossover, where the strategies tie
        nnz = max(1, int(system.sizes_array.sum()))
        crossover = _bitops.NS_PER_WORD * max(1, system.packed.size) * n / (
            _bitops.NS_PER_ENTRY * nnz
        )
        t = int(min(n if mode == WITHOUT else 4 * n, max(1, scale * crossover)))
        sample = uniform_sample(n, t, seed, mode=mode)
    want = oracle_counts(system.masks, sample)
    for got in (
        dense_counts(system, sample),
        incidence_counts(system, sample),
        intersection_counts(system, sample),
    ):
        assert got.dtype == np.int64
        assert got.tolist() == want
    planes = len(sample.planes)
    assert planes == max(1, max(sample.multiplicity or (1,)).bit_length())
    costs = count_costs(system, sample)
    assert costs.dense_ns == _bitops.NS_PER_WORD * system.packed.size * planes


def test_incidence_uses_int32_ids_past_65536_sets():
    n, m = 70, 70_000
    rng = make_rng(5)
    words = rng.integers(0, 2**63, size=(m, 2), dtype=np.uint64)
    words[:, 1] &= np.uint64((1 << (n - 64)) - 1)  # members inside [0, n)
    words[-1] = [(1 << 64) - 1, (1 << (n - 64)) - 1]  # the last set holds every element
    packed = np.ascontiguousarray(words)
    index = _bitops.build_incidence(packed, n)
    assert index.ids.dtype == np.int32
    assert len(index.indptr) == n + 1 and index.indptr[-1] == len(index.ids)
    assert index.ids[index.indptr[n - 1] : index.indptr[n]][-1] == m - 1
    for mode in (WITHOUT, WITH):
        sample = uniform_sample(n, 40, 9, mode=mode)
        repeats = None if sample.multiplicity is None else np.array(sample.multiplicity)
        planes = sample.planes
        assert np.array_equal(
            _bitops.incidence_counts(index, np.array(sample.support), m, repeats),
            _bitops.intersection_sizes(packed, planes),
        )


def test_incidence_uses_uint16_ids_up_to_65536_sets():
    system = SetSystem.from_masks(20, range(1 << 16))
    index = system.incidence
    assert index.ids.dtype == np.uint16
    # element e lies in the 2^15 sets whose index has bit e set
    members = index.ids[index.indptr[3] : index.indptr[4]]
    assert members.tolist() == [k for k in range(1 << 16) if k >> 3 & 1]


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 7, 64, 65, 200]),
    m=st.integers(0, 120),
    k=st.integers(0, 12),
    spots=st.integers(1, 6),
    seed=st.integers(0, 2**32),
)
def test_nearest_rows_matches_brute_force(n, m, k, spots, seed):
    # sets over a few positions, so distances tie often
    rng = make_rng(seed)
    pos = rng.choice(n, size=min(n, spots), replace=False)

    def draw(count):
        return [sum(1 << int(e) for e in pos if rng.random() < 0.5) for _ in range(count)]
    rows, queries = draw(m), draw(k)
    dist, arg = _bitops.nearest_rows(_bitops.pack_masks(rows, n), _bitops.pack_masks(queries, n))
    for i, r in enumerate(rows):
        if not queries:
            assert (dist[i], arg[i]) == (np.iinfo(np.int64).max, -1)
            continue
        d = [(r ^ q).bit_count() for q in queries]
        assert (dist[i], arg[i]) == (min(d), d.index(min(d)))


def test_nearest_rows_across_row_blocks_matches_xor_scans():
    # 200 query rows make row blocks of about 200 rows, so 3,000 rows span many
    rng = make_rng(3)
    rows = [int(rng.integers(0, 2**40)) << int(rng.integers(0, 160)) for _ in range(3000)]
    packed = _bitops.pack_masks(rows, 200)
    queries = packed[rng.choice(3000, size=200, replace=False)]
    dist, arg = _bitops.nearest_rows(packed, queries)
    scans = np.stack([_bitops.xor_sizes(packed, q) for q in queries], axis=1)
    assert (dist == scans.min(axis=1)).all()
    assert (arg == scans.argmin(axis=1)).all()
