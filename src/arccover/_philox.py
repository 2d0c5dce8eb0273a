"""Uniform draws of many per-replication Philox streams at once.

Replication r of a simulation with master seed s draws its uniforms from
``Generator(Philox(SeedSequence(entropy=s, spawn_key=(r,)))).random``.
Building those objects costs about 20 µs per replication, far more than
the few draws a short replication makes.  This module computes the same
doubles for a whole array of replications with numpy array operations:

* the key is SeedSequence's 32-bit hash pool (numpy's
  ``bit_generator.pyx``) run on uint32 arrays, one entropy word at a time
  for every replication, then ``generate_state(2, np.uint64)``;
* the stream is Philox4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel
  random numbers: as easy as 1, 2, 3", SC'11): word j of a stream is lane
  ``j % 4`` of the block for counter ``(j // 4 + 1, 0, 0, 0)``, which is
  numpy's order, so any column range costs only the blocks it touches;
* a double is ``(word >> 11) * 2**-53``, as ``Generator.random`` makes it.

The tests check every piece bit for bit against numpy's own classes.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10

_U32 = np.uint32
_LOW = np.uint64(_MASK32)
_32 = np.uint64(32)


def check_seed(seed: int) -> int:
    """The seed as a Python int; a SeedSequence entropy value must be >= 0."""
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int; 0 is one zero word."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def replication_keys(seed: int, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Philox keys of ``SeedSequence(entropy=seed, spawn_key=(r,))`` for each r in ``indices``.

    Returns the two uint64 key words, each shaped like ``indices``.  Every
    r must be below 2**32, so that the spawn key is one entropy word.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size and not (indices.min() >= 0 and indices.max() <= _MASK32):
        raise ValueError("replication indices must lie in [0, 2**32)")
    seed_words = _words(check_seed(seed))
    # A spawned sequence pads short run entropy with zeros to the pool size.
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    entropy = [_U32(w) for w in seed_words] + [indices.astype(_U32)]

    with np.errstate(over="ignore"):
        hashmix = _hasher(_INIT_A, _MULT_A)
        pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for word in entropy[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                pool[dst] = _mix(pool[dst], hashmix(word))
        # generate_state(2, uint64): four 32-bit words, little-endian pairs.
        output = _hasher(_INIT_B, _MULT_B)
        state = [output(word).astype(np.uint64) for word in pool]
    return state[0] | (state[1] << _32), state[2] | (state[3] << _32)


def _hasher(init: int, mult: int):
    """SeedSequence's ``hashmix`` with its own running constant, starting at ``init``."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ _U32(const)
        const = (const * mult) & _MASK32
        value = value * _U32(const)
        return value ^ (value >> _U32(16))

    return hashmix


def _mix(x, y):
    """SeedSequence's ``mix`` of two 32-bit words."""
    result = _U32(_MIX_MULT_L) * x - _U32(_MIX_MULT_R) * y
    return result ^ (result >> _U32(16))


def _mulhilo(a: np.uint64, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit product of a constant and uint64 array."""
    a_lo, a_hi = a & _LOW, a >> _32
    b_lo, b_hi = b & _LOW, b >> _32
    mid = a_hi * b_lo + ((a_lo * b_lo) >> _32)
    cross = a_lo * b_hi + (mid & _LOW)
    return a_hi * b_hi + (mid >> _32) + (cross >> _32), a * b


def philox4x64(key0: np.ndarray, key1: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Philox4x64-10 output words for counter ``(b + 1, 0, 0, 0)`` of every block b.

    ``key0``/``key1`` have shape (R,) and ``blocks`` shape (B,); the result
    has shape (R, B, 4), lane-ordered as numpy's Philox emits its words.
    """
    k0, k1 = key0[:, None], key1[:, None]
    shape = (key0.size, blocks.size)
    c0 = np.broadcast_to(blocks.astype(np.uint64) + np.uint64(1), shape)
    c1 = c2 = c3 = np.zeros(shape, dtype=np.uint64)
    for i in range(_PHILOX_ROUNDS):
        if i:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return np.stack((c0, c1, c2, c3), axis=-1)


def uniforms(seed: int, indices: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Columns ``start:stop`` of each replication's ``Generator.random`` stream.

    Row i equals ``Generator(Philox(SeedSequence(entropy=seed,
    spawn_key=(indices[i],)))).random(stop)[start:]`` bit for bit.
    """
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    if not 0 <= start <= stop:
        raise ValueError(f"need 0 <= start <= stop, got {start}, {stop}")
    key0, key1 = replication_keys(seed, indices)
    first, last = start // 4, -(-stop // 4)
    words = philox4x64(key0, key1, np.arange(first, last, dtype=np.uint64))
    words = words.reshape(indices.size, -1)[:, start - 4 * first:stop - 4 * first]
    return (words >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
