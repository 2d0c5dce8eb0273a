"""The bulk stream kernel against numpy's own SeedSequence, Philox and Generator."""

import numpy as np
import pytest

from arccover import _philox
from arccover._philox import check_seed, philox4x64, replication_keys, uniforms

SEEDS = [0, 1, 7, 123456789, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 1, 2**127 + 2**64 + 3,
         (1 << 200) + 5]


def numpy_stream(seed: int, r: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(r,))))


def numpy_words(key0, key1, first: int, count: int) -> np.ndarray:
    """numpy's Philox words for blocks first..first+count-1 of each key, shape (R, count, 4)."""
    counter = np.array([first, 0, 0, 0], dtype=np.uint64)
    return np.stack([np.random.Philox(key=np.array([k0, k1], dtype=np.uint64), counter=counter)
                     .random_raw(4 * count) for k0, k1 in zip(key0, key1)]).reshape(-1, count, 4)


def grid_edges(rows: int) -> list[int]:
    """Block counts 1, step - 1, step and step + 1 for the columns a tile of ``rows`` holds."""
    step = max(1, _philox._TILE_BUDGET // rows)
    return sorted({1, step - 1, step, step + 1} - {0})


@pytest.mark.parametrize("rows, cols", [(rows, cols) for rows in (1, 20000) for cols in grid_edges(rows)])
def test_tiled_kernel_matches_numpy_philox_across_tile_edges(rows, cols):
    keys = np.random.default_rng(rows + cols).integers(0, 2**64, size=(2, rows), dtype=np.uint64,
                                                        endpoint=False)
    first = 2**40 + 3
    got = philox4x64(keys[0], keys[1], np.arange(first, first + cols, dtype=np.uint64))
    np.testing.assert_array_equal(got, numpy_words(keys[0], keys[1], first, cols))


def test_small_tiles_straddle_rows_and_columns(monkeypatch):
    monkeypatch.setattr(_philox, "_TILE_BUDGET", 48)
    keys = np.random.default_rng(5).integers(0, 2**64, size=(2, 101), dtype=np.uint64, endpoint=False)
    for rows, cols in [(7, 5), (7, 6), (7, 7), (7, 13), (47, 2), (48, 1), (49, 3), (101, 2)]:
        got = philox4x64(keys[0, :rows], keys[1, :rows], np.arange(cols, dtype=np.uint64))
        np.testing.assert_array_equal(got, numpy_words(keys[0, :rows], keys[1, :rows], 0, cols))
    reps = np.arange(0, 1300, 13)
    got = uniforms(77, reps, 9, 61)
    for row, r in zip(got, reps):
        np.testing.assert_array_equal(row, numpy_stream(77, int(r)).random(61)[9:])


def test_empty_grids():
    key = np.zeros(3, dtype=np.uint64)
    assert philox4x64(key, key, np.arange(0, dtype=np.uint64)).shape == (3, 0, 4)
    assert philox4x64(key[:0], key[:0], np.arange(5, dtype=np.uint64)).shape == (0, 5, 4)


@pytest.mark.parametrize("seed", SEEDS)
def test_keys_match_seed_sequence(seed):
    reps = np.concatenate((np.arange(2000), [2**31, 2**32 - 1]))
    key0, key1 = replication_keys(seed, reps)
    want = np.array([np.random.SeedSequence(entropy=seed, spawn_key=(int(r),)).generate_state(2, np.uint64)
                     for r in reps])
    np.testing.assert_array_equal(key0, want[:, 0])
    np.testing.assert_array_equal(key1, want[:, 1])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [1, 3, 4, 13, 64])
def test_uniforms_match_generator(seed, n):
    reps = np.array([0, 1, 2, 5, 99, 4096, 2**32 - 1])
    got = uniforms(seed, reps, 0, n)
    assert got.shape == (reps.size, n)
    for row, r in zip(got, reps):
        np.testing.assert_array_equal(row, numpy_stream(seed, int(r)).random(n))


# Ranges of 127, 128 and 129 columns straddle _ROW_DRAW_MIN, from the
# start of a block, from inside one and from a multiple of 64.
ROW_PATH_EDGES = [(start, start + width) for start in (0, 5, 61, 64) for width in (127, 128, 129)]


@pytest.mark.parametrize("start, stop", [(5, 23), (3, 4), (4, 8), (7, 7), (61, 130)] + ROW_PATH_EDGES)
def test_column_range_inside_stream(start, stop):
    reps = np.arange(0, 300, 13)
    got = uniforms(2**40 + 9, reps, start, stop)
    for row, r in zip(got, reps):
        np.testing.assert_array_equal(row, numpy_stream(2**40 + 9, int(r)).random(stop)[start:])


@pytest.mark.parametrize("start, stop", [(0, 0), (6, 6), (0, 3), (5, 23), (61, 130), (64, 200)]
                         + ROW_PATH_EDGES)
@pytest.mark.parametrize("reps", [np.arange(0), np.array([0, 7, 2**32 - 1])], ids=["empty", "three"])
def test_row_and_tile_paths_agree(start, stop, reps, monkeypatch):
    monkeypatch.setattr(_philox, "_ROW_DRAW_MIN", 0)
    by_rows = uniforms(31, reps, start, stop)
    monkeypatch.setattr(_philox, "_ROW_DRAW_MIN", 1 << 62)
    by_tiles = uniforms(31, reps, start, stop)
    assert by_rows.shape == by_tiles.shape == (reps.size, stop - start)
    np.testing.assert_array_equal(by_rows, by_tiles)


@pytest.mark.parametrize("start, stop", [(5, 23), (64, 200)])
def test_out_rows_inside_a_wider_buffer(start, stop):
    reps = np.arange(9)
    buffer = np.full((reps.size + 2, stop + 3), np.nan)
    view = buffer[:reps.size, start:stop]
    assert uniforms(3, reps, start, stop, out=view) is view
    np.testing.assert_array_equal(view, uniforms(3, reps, start, stop))
    assert np.isnan(buffer[:, :start]).all() and np.isnan(buffer[:, stop:]).all()
    assert np.isnan(buffer[reps.size:]).all()


def test_bad_arguments():
    for seed in (-1, 2.7, "5"):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            check_seed(seed)
    assert check_seed(np.int64(5)) == 5 and type(check_seed(np.int64(5))) is int
    with pytest.raises(ValueError, match="seed"):
        uniforms(-5, np.arange(3), 0, 4)
    with pytest.raises(ValueError, match="replication"):
        uniforms(1, np.array([2**32]), 0, 4)
    with pytest.raises(ValueError, match="start"):
        uniforms(1, np.arange(3), 5, 4)
