"""The bulk stream kernel against numpy's own SeedSequence, Philox and Generator."""

import numpy as np
import pytest

from arccover._philox import check_seed, replication_keys, uniforms

SEEDS = [0, 1, 7, 123456789, 2**31 - 1, 2**32 - 1, 2**32, 2**64 + 1, 2**127 + 2**64 + 3,
         (1 << 200) + 5]


def numpy_stream(seed: int, r: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(r,))))


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


@pytest.mark.parametrize("start, stop", [(5, 23), (3, 4), (4, 8), (7, 7), (61, 130)])
def test_column_range_inside_stream(start, stop):
    reps = np.arange(0, 300, 13)
    got = uniforms(2**40 + 9, reps, start, stop)
    for row, r in zip(got, reps):
        np.testing.assert_array_equal(row, numpy_stream(2**40 + 9, int(r)).random(stop)[start:])


def test_bad_arguments():
    with pytest.raises(ValueError, match="seed"):
        check_seed(-1)
    with pytest.raises(ValueError, match="seed"):
        uniforms(-5, np.arange(3), 0, 4)
    with pytest.raises(ValueError, match="replication"):
        uniforms(1, np.array([2**32]), 0, 4)
    with pytest.raises(ValueError, match="start"):
        uniforms(1, np.arange(3), 5, 4)
