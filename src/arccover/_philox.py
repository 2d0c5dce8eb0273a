"""Uniform draws of many per-replication Philox streams at once.

Replication r of a simulation with master seed s draws its uniforms from
``Generator(Philox(SeedSequence(entropy=s, spawn_key=(r,)))).random``.
Building those objects costs about 20 µs per replication, far more than
the few draws a short replication makes.  This module computes the same
doubles for a whole array of replications:

* the key is SeedSequence's 32-bit hash pool (numpy's
  ``bit_generator.pyx``) run on uint32 arrays, one entropy word at a time
  for every replication, then ``generate_state(2, np.uint64)``;
* the stream is Philox4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel
  random numbers: as easy as 1, 2, 3", SC'11): word j of a stream is lane
  ``j % 4`` of the block for counter ``(j // 4 + 1, 0, 0, 0)``, which is
  numpy's order, so any column range costs only the blocks it touches;
* a double is ``(word >> 11) * 2**-53``, as ``Generator.random`` makes it.

The words come by one of two paths, chosen by the number of columns a
call asks of each row.  From ``_ROW_DRAW_MIN`` columns up, one numpy
``Philox`` is built per call, and for each row its state is set to the
row's key and first counter and its ``Generator.random`` fills the row:
3-6 µs per row, then about 8 ns per word.  Below that, the rounds run as
numpy array operations, in place, with ufunc ``out=`` arguments, on
cache-sized tiles of the (replications x blocks) counter grid: about
50 ns per word, with no per-row cost.

The tests check every piece bit for bit against numpy's own classes.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
# Cells of the (replications x blocks) counter grid whose ten rounds run
# together, in place.  Nine working arrays of this many words take
# 2.25 MiB, about one core's L2 cache on the 2-core Xeon (2 MiB L2 per
# core) where 2**15 ran as fast as or faster than 2**13, 2**14 and 2**16.
_TILE_BUDGET = 1 << 15
# Columns per row from which ``uniforms`` draws each row through numpy's
# own Philox.  There a row costs 3-6 µs to set up and a word about 8 ns,
# against about 50 ns a word in the tiled kernel (2-core x86-64 VM), so
# the two break even near 100 columns.
_ROW_DRAW_MIN = 128

_U32 = np.uint32
_LOW = np.uint64(_MASK32)
_32 = np.uint64(32)
_PHILOX_M_HALVES = tuple((m & _LOW, m >> _32) for m in _PHILOX_M)


def check_seed(seed: int) -> int:
    """The seed as a Python int; like SeedSequence entropy, an integer >= 0 (not a float)."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = None
    if value is None or value < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return value


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


def _mulhi(a_lo: np.uint64, a_hi: np.uint64, b: np.ndarray, out: np.ndarray,
           t0: np.ndarray, t1: np.ndarray, t2: np.ndarray) -> None:
    """High word of the 128-bit product of ``a_hi * 2**32 + a_lo`` and ``b``, into ``out``.

    ``b`` is kept; ``t0``, ``t1`` and ``t2`` are scratch of ``b``'s shape.
    """
    np.bitwise_and(b, _LOW, out=t0)
    np.right_shift(b, _32, out=out)
    np.multiply(t0, a_lo, out=t1)
    np.right_shift(t1, _32, out=t1)
    np.multiply(t0, a_hi, out=t0)
    np.add(t0, t1, out=t0)  # mid = a_hi * b_lo + (a_lo * b_lo >> 32)
    np.multiply(out, a_lo, out=t1)
    np.multiply(out, a_hi, out=out)
    np.bitwise_and(t0, _LOW, out=t2)
    np.add(t1, t2, out=t1)  # cross = a_lo * b_hi + (mid & LOW)
    np.right_shift(t0, _32, out=t0)
    np.add(out, t0, out=out)
    np.right_shift(t1, _32, out=t1)
    np.add(out, t1, out=out)  # a_hi * b_hi + (mid >> 32) + (cross >> 32)


def _rounds(k0: np.ndarray, k1: np.ndarray, counters: np.ndarray, out: np.ndarray,
            work: np.ndarray) -> None:
    """Philox4x64-10 of one tile: rows keyed by ``k0``/``k1`` (shape (r, 1)),
    columns by ``counters``, written to ``out`` of shape (r, c, 4).

    The four counter words, two high words and three scratch arrays are
    views of the rows of ``work``; each round writes over them in place.
    """
    shape = out.shape[:2]
    c0, c1, c2, c3, hi0, hi1, t0, t1, t2 = (w[:shape[0] * shape[1]].reshape(shape) for w in work)
    c0[...] = counters
    for c in (c1, c2, c3):
        c.fill(0)
    for i in range(_PHILOX_ROUNDS):
        if i:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        _mulhi(*_PHILOX_M_HALVES[0], c0, hi0, t0, t1, t2)
        _mulhi(*_PHILOX_M_HALVES[1], c2, hi1, t0, t1, t2)
        np.multiply(c0, _PHILOX_M[0], out=c0)  # the next c3
        np.multiply(c2, _PHILOX_M[1], out=c2)  # the next c1
        np.bitwise_xor(c1, hi1, out=c1)
        np.bitwise_xor(c1, k0, out=c1)  # the next c0
        np.bitwise_xor(c3, hi0, out=c3)
        np.bitwise_xor(c3, k1, out=c3)  # the next c2
        c0, c1, c2, c3 = c1, c2, c3, c0
    for lane, c in enumerate((c0, c1, c2, c3)):
        out[..., lane] = c


def philox4x64(key0: np.ndarray, key1: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Philox4x64-10 output words for counter ``(b + 1, 0, 0, 0)`` of every block b.

    ``key0``/``key1`` have shape (R,) and ``blocks`` shape (B,); the result
    has shape (R, B, 4), lane-ordered as numpy's Philox emits its words.
    The grid is cut into tiles of at most ``_TILE_BUDGET`` cells: every
    row (or ``_TILE_BUDGET`` rows, if R is larger) and as many columns
    as then fit.  Nine working arrays of one tile's size are allocated
    once per call, and each tile's ten rounds run in them in place, so
    the words stay in cache from the first round to the last.
    """
    rows, cols = key0.size, blocks.size
    out = np.empty((rows, cols, 4), dtype=np.uint64)
    if not out.size:
        return out
    tile_rows = min(rows, _TILE_BUDGET)
    tile_cols = min(cols, max(1, _TILE_BUDGET // tile_rows))
    work = np.empty((9, tile_rows * tile_cols), dtype=np.uint64)
    counters = blocks.astype(np.uint64) + np.uint64(1)
    for r in range(0, rows, tile_rows):
        keys = key0[r:r + tile_rows, None], key1[r:r + tile_rows, None]
        for j in range(0, cols, tile_cols):
            _rounds(*keys, counters[j:j + tile_cols], out[r:r + tile_rows, j:j + tile_cols], work)
    return out


def uniforms(seed: int, indices: np.ndarray, start: int, stop: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """Columns ``start:stop`` of each replication's ``Generator.random`` stream.

    Row i equals ``Generator(Philox(SeedSequence(entropy=seed,
    spawn_key=(indices[i],)))).random(stop)[start:]`` bit for bit.  The
    rows are written to ``out`` when given: float64 of shape
    ``(len(indices), stop - start)`` whose rows are contiguous.
    """
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    if not 0 <= start <= stop:
        raise ValueError(f"need 0 <= start <= stop, got {start}, {stop}")
    if out is None:
        out = np.empty((indices.size, stop - start), dtype=np.float64)
    key0, key1 = replication_keys(seed, indices)
    first = start // 4
    if stop - start >= _ROW_DRAW_MIN:
        _draw_rows(np.stack((key0, key1), axis=1), first, start - 4 * first, out)
        return out
    blocks = np.arange(first, -(-stop // 4), dtype=np.uint64)
    words = philox4x64(key0, key1, blocks).reshape(indices.size, 4 * blocks.size)
    words = words[:, start - 4 * first:stop - 4 * first]
    np.right_shift(words, np.uint64(11), out=words)
    np.multiply(words, 1.0 / 9007199254740992.0, out=out)
    return out


def _draw_rows(keys: np.ndarray, block: int, skip: int, out: np.ndarray) -> None:
    """Fill row i of ``out`` from the stream keyed by ``keys[i]``, from word
    ``4 * block + skip`` on, through one numpy ``Philox``.

    numpy's Philox bumps its counter before it makes a block, so a state
    with counter ``block`` and an empty buffer starts at that block's
    first word.  The generator is built here rather than at import, so
    that importing the package does not load ``numpy.random``.
    """
    bitgen = np.random.Philox(0)
    draw = np.random.Generator(bitgen).random
    state = bitgen.state
    state["state"]["counter"] = np.array([block, 0, 0, 0], dtype=np.uint64)
    state["buffer_pos"] = 4
    for key, row in zip(keys, out):
        state["state"]["key"] = key
        bitgen.state = state
        if skip:
            bitgen.random_raw(skip)
        draw(out=row)
