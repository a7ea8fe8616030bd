import importlib.util
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relapprox import _bitops
from relapprox.chaining import build_chain
from relapprox.generators import ImplicitIntervals, intervals
from relapprox.halving import iterated_halving
from relapprox.sampling import (
    WITH,
    WITHOUT,
    ApproxParams,
    Sample,
    make_rng,
    uniform_sample,
)
from relapprox.set_system import SetSystem


def oracle_counts(masks, sample) -> list[int]:
    """|A & S| per set from the sample's support and multiplicities, bit by bit."""
    mult = sample.multiplicity or (1,) * len(sample.support)
    return [sum(c for e, c in zip(sample.support, mult) if mask >> e & 1) for mask in masks]


def mask_from_indices(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


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
    return index_counts(system.incidence, len(system), sample)


def index_counts(index: _bitops.Incidence, m: int, sample: Sample) -> np.ndarray:
    """The kernel's counts over the sample's binary planes, split here
    element by element: plane k lists the elements whose count has bit k set."""
    mult = sample.multiplicity or (1,) * len(sample.support)
    planes = [
        np.array([e for e, c in zip(sample.support, mult) if c >> k & 1], dtype=np.int64)
        for k in range(max(mult, default=0).bit_length())
    ]
    return _bitops.incidence_counts(index, planes, m)


def assert_threads_count_like_one(index: _bitops.Incidence, packed: np.ndarray, samples) -> None:
    """Counts made by two threads at once, the interpreter offering a thread
    switch every microsecond, equal the serial ones, which equal the dense
    popcount scan."""
    m = len(packed)
    serial = [index_counts(index, m, sample) for sample in samples]
    for sample, counts in zip(samples, serial):
        assert np.array_equal(counts, _bitops.intersection_sizes(packed, sample.planes))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda sample: index_counts(index, m, sample), samples))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(threaded, serial))


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
        system.counts(sample),
    ):
        assert got.dtype == np.int64
        assert got.tolist() == want
    planes = len(sample.planes)
    assert planes == max(1, max(sample.multiplicity or (1,)).bit_length())
    costs = system.count_costs(sample)
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
    samples = [uniform_sample(n, 40, seed, mode) for seed in (9, 10) for mode in (WITHOUT, WITH)]
    assert_threads_count_like_one(index, packed, samples)


@pytest.mark.parametrize("mode", [WITHOUT, WITH])
def test_incidence_counts_never_pack_the_sample(mode):
    # the incidence kernel and its cost model read the planes' element
    # arrays; only the dense scan packs them
    system = SetSystem.from_masks(64, range(1, 1 << 12))
    system.incidence  # bought up front, so every cheaper query uses it
    sample = uniform_sample(64, 3, 4, mode)
    costs = system.count_costs(sample)
    assert costs.incidence_ns < costs.dense_ns
    assert system.counts(sample).tolist() == oracle_counts(system.masks, sample)
    assert "planes" not in sample.__dict__


def test_incidence_uses_uint16_ids_up_to_65536_sets():
    system = SetSystem.from_masks(20, range(1 << 16))
    index = system.incidence
    assert index.ids.dtype == np.uint16
    # element e lies in the 2^15 sets whose index has bit e set
    members = index.ids[index.indptr[3] : index.indptr[4]]
    assert members.tolist() == [k for k in range(1 << 16) if k >> 3 & 1]
    samples = [uniform_sample(20, 8, seed, mode) for seed in (1, 2, 3) for mode in (WITHOUT, WITH)]
    assert_threads_count_like_one(index, system.packed, samples)


def reference_pack_flags(flags: np.ndarray) -> np.ndarray:
    """Packed rows by a per-row pack (axis=1), padded to whole words."""
    rows, n = flags.shape
    out = np.zeros((rows, 8 * _bitops.words_needed(n)), dtype=np.uint8)
    out[:, : (n + 7) // 8] = np.packbits(flags, axis=1, bitorder="little")
    return out.view("<u8")


@pytest.mark.parametrize("n", [1, 7, 8, 63, 64, 65, 400, 7056])
@pytest.mark.parametrize("rows", [0, 1, 37])
def test_pack_flags_matches_the_per_row_pack(n, rows):
    flags = make_rng(n + rows).random((rows, n)) < 0.3
    want = reference_pack_flags(flags)
    for given_flags in (flags, flags.astype(np.uint8), flags.astype(np.int64)):
        got = _bitops.pack_flags(given_flags)
        assert got.dtype == np.dtype("<u8") and got.shape == (rows, _bitops.words_needed(n))
        assert np.array_equal(got, want)
    if rows:
        assert _bitops.unpack_masks(want) == tuple(
            mask_from_indices(np.flatnonzero(row).tolist()) for row in flags
        )


@pytest.mark.parametrize("n", [5, 64, 130])
@pytest.mark.parametrize("keep", [0, 1, 7, 9, 63, 65, 100])
def test_gather_columns_matches_int_masks(monkeypatch, n, keep):
    rng = make_rng(7 * n + keep)
    masks = random_masks(n, 50, 0.4, rng)
    columns = np.sort(rng.choice(n, size=min(keep, n), replace=False))
    want = [
        sum(1 << j for j, e in enumerate(columns.tolist()) if mask >> e & 1) for mask in masks
    ]
    packed = _bitops.pack_masks(masks, n)
    for block in (1 << 19, 64):  # one row block, then one or a few rows a block
        monkeypatch.setattr(_bitops, "_BLOCK_BYTES", block)
        got = _bitops.gather_columns(packed, columns)
        assert got.shape == (50, _bitops.words_needed(len(columns)))
        assert list(_bitops.unpack_masks(got)) == want


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 7), max_size=30), st.sampled_from([1, 65]))
def test_distinct_rows_first_occurrences_and_labels(values, n):
    packed = _bitops.pack_masks([v << (n - 1) for v in values], n + 2)
    want = sorted({v: i for i, v in reversed(list(enumerate(values)))}.values())
    for block in (_bitops._BLOCK_BYTES, 16):  # then a row or two a block
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_bitops, "_BLOCK_BYTES", block)
            first, label = _bitops.distinct_rows(packed, labels=True)
            assert np.array_equal(_bitops.distinct_rows(packed), first)
        assert first.tolist() == want
        assert np.array_equal(packed[first][label], packed)


# 1984 and 2048 bits sit on either side of the narrow-row sum (32 words), and
# 65,472 and 65,536 on either side of the 16-bit symmetric-difference sums
# (1,024 words, where a row of 65,536 members no longer fits)
@pytest.mark.parametrize("n", [1, 7, 64, 65, 130, 1984, 2048, 65472, 65536])
@pytest.mark.parametrize("block", [1 << 19, 1])  # then one row a block
def test_row_and_symdiff_sizes_match_int_bit_count(monkeypatch, n, block):
    masks = [0, (1 << n) - 1] + random_masks(n, 21, 0.4, make_rng(n))
    packed = _bitops.pack_masks(masks, n)
    words = packed.T  # word-major
    monkeypatch.setattr(_bitops, "_BLOCK_BYTES", block)

    sizes = _bitops.row_sizes(packed)
    assert sizes.dtype == np.int64
    assert sizes.tolist() == [m.bit_count() for m in masks]
    common = _bitops.intersection_sizes(packed, packed[1])
    assert common.tolist() == [(m & masks[1]).bit_count() for m in masks]

    one = _bitops.symdiff_sizes(words[:, 1:], words[:, 1:2])
    assert one.dtype == np.int64
    assert one.tolist() == [(m ^ masks[1]).bit_count() for m in masks[1:]]

    flipped = np.arange(len(masks))[::-1]
    paired = _bitops.symdiff_sizes(words, words, flipped)
    assert paired.tolist() == [(a ^ b).bit_count() for a, b in zip(masks, masks[::-1])]

    table = _bitops.symdiff_sizes(words[:, :9, None], packed[::-1].T[:, None])
    assert table.shape == (9, len(masks))
    assert table.tolist() == [[(a ^ b).bit_count() for b in masks[::-1]] for a in masks[:9]]

    assert _bitops.symdiff_sizes(words[:, :0], words[:, :1]).shape == (0,)


def test_kernel_timings_script_measures_one_width(monkeypatch):
    # the script calls the kernels directly, so a signature change shows here
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "kernel_timings.py")
    spec = importlib.util.spec_from_file_location("kernel_timings", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "MATRIX_BYTES", 1 << 16)
    out = script.measure(7, 1, np.random.default_rng(0))
    assert (out["rows"], out["words"]) == ((1 << 16) // 56, 7)
    for key in ("ns_per_word", "ns_per_build_word", "ns_per_entry", "ns_per_entry_two_threads"):
        assert math.isfinite(out[key]) and out[key] >= 0
    stages = script.chain_stages(intervals(60), 0.25, 0.4, 1)
    assert [lv["members"] for lv in stages["levels"]] == [
        lv.packing.size for lv in build_chain(intervals(60), 0.25, 0.4).levels
    ]
    times = [stages["build_chain_ms"], stages["audit_ms"]]
    times += [lv[k] for lv in stages["levels"] for k in ("admit_ms", "final_search_ms", "verify_ms")]
    assert all(math.isfinite(x) and x >= 0 for x in times)
    verify = script.implicit_verify(2000, 1)
    params = ApproxParams(0.1, 0.25, 0.1)
    _, trace = iterated_halving(ImplicitIntervals(2000), params, 0, mode=WITH)
    assert [(lv["from_t"], lv["draws"]) for lv in verify["levels"]] == [
        (lv.set_size_before, lv.sample_size_requested) for lv in trace.levels[1:]
    ]
    costs = [verify["error_report_full"], verify["error_report_with_output"], *verify["levels"]]
    assert all(c["cpu_ms"] >= 0 and c["minor_faults"] >= 0 for c in costs)
