"""Randomness utilities: seed management and replayable random tapes.

The paper's protocols are driven entirely by with-replacement uniform
choices made by clients.  To let two independent implementations (the
vectorized engine in :mod:`repro.core` and the faithful agent simulator
in :mod:`repro.agents`) execute *bit-identical* runs, all protocol
randomness is funneled through a :class:`RandomTape`: a pre-drawn (or
lazily grown) sequence of uniforms in ``[0, 1)`` consumed in the
canonical order documented in :mod:`repro.core.engine` (round-major,
then client index, then ball slot).

Seed handling follows NumPy best practice: a single
:class:`numpy.random.SeedSequence` is spawned into independent child
streams, so Monte-Carlo trials running in separate processes never share
a stream.  :func:`spawn_seeds` returns those children as a
:class:`SeedBlock`: the parent's entropy, spawn key and pool size plus
a range of child keys, with no per-child object.  Indexing a block
builds the very ``SeedSequence`` that ``SeedSequence.spawn`` builds,
slicing gives a block, :meth:`SeedBlock.child` takes every element to
one fixed descendant, and :meth:`SeedBlock.pcg64_rows` derives every
element's PCG64 state (numpy's SeedSequence hash, then PCG64's seeding)
in one vectorized numpy pass, bit for bit what
``np.random.default_rng(block[i])`` holds.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .errors import TapeExhaustedError

__all__ = [
    "make_rng",
    "SeedBlock",
    "spawn_seeds",
    "child_seed",
    "spawn_rngs",
    "RandomTape",
    "TapeRecorder",
]


def make_rng(seed: int | None | np.random.SeedSequence | np.random.Generator) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from any seed-like value.

    Accepts ``None`` (OS entropy), an integer, a ``SeedSequence``, or an
    existing ``Generator`` (returned unchanged, so call sites can be
    agnostic about what they were handed).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) on uint32
# words, and PCG64's 128-bit LCG multiplier as (high, low) 64-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT_HI, _PCG64_MULT_LO = 2549297995355413924, 4865540595714422341


def _uint32_words(x) -> list[int]:
    """numpy's coercion of SeedSequence entropy to uint32 words, for ints
    and (nested) int sequences: an int becomes its little-endian 32-bit
    words (one ``0`` for zero), a sequence the concatenation of its
    items' words.  Any other value raises ``TypeError``."""
    if isinstance(x, (int, np.integer)):
        n = int(x)
        if n < 0:
            raise ValueError(f"entropy words must be non-negative; got {n}")
        words = [n & _MASK32]
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
        return words
    if isinstance(x, (str, bytes)) or not isinstance(x, (Sequence, np.ndarray)):
        raise TypeError(f"no uint32 words for {type(x).__name__}")
    return [w for v in x for w in _uint32_words(v)]


def _hashmix(value: int, hc: int) -> tuple[int, int]:
    """numpy's ``hashmix`` of one word under the hash constant ``hc``;
    returns the hash and the advanced constant."""
    hc_next = (hc * _MULT_A) & _MASK32
    value = ((value ^ hc) * hc_next) & _MASK32
    return value ^ (value >> 16), hc_next


def _mix(x, y):
    """numpy's ``mix`` of two words (ints or uint32 arrays)."""
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ (r >> 16)


def _hash_consts(hc: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The ``count`` (xor, multiply) constant pairs of successive hash
    steps from ``hc``, and the constant after them."""
    xs = np.empty(count, dtype=np.uint32)
    ms = np.empty(count, dtype=np.uint32)
    for j in range(count):
        xs[j] = hc
        hc = (hc * mult) & _MASK32
        ms[j] = hc
    return xs, ms, hc


def _mul_hi64(a: np.ndarray, m: int) -> np.ndarray:
    """The high 64 bits of ``a * m`` for a uint64 array and a 64-bit int,
    from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> 32
    m0, m1 = m & _MASK32, m >> 32
    p01, p10 = a0 * m1, a1 * m0
    mid = ((a0 * m0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg64_seed(words: np.ndarray, out: np.ndarray) -> None:
    """numpy's PCG64 seeding from rows of ``generate_state(4, np.uint64)``
    ``[seed_hi, seed_lo, seq_hi, seq_lo]``: ``inc = seq << 1 | 1``, then
    ``state = ((inc + seed)·M + inc) mod 2¹²⁸``.  Writes ``out`` rows
    ``[state_hi, state_lo, inc_hi, inc_lo]``."""
    seed_hi, seed_lo, seq_hi, seq_lo = words.T
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    step_lo = lo * _PCG64_MULT_LO
    step_hi = _mul_hi64(lo, _PCG64_MULT_LO) + lo * _PCG64_MULT_HI + hi * _PCG64_MULT_LO
    out[:, 1] = step_lo + inc_lo
    out[:, 0] = step_hi + inc_hi + (out[:, 1] < inc_lo)
    out[:, 2] = inc_hi
    out[:, 3] = inc_lo


@dataclass(frozen=True)
class SeedBlock(Sequence):
    """Children of one :class:`~numpy.random.SeedSequence`'s spawn, as data.

    Element ``i`` is ``SeedSequence(entropy, spawn_key=spawn_key +
    (keys[i],) + suffix, pool_size=pool_size)``: for the block
    :func:`spawn_seeds` returns, element ``i`` of ``ss.spawn(n)``.
    :meth:`child` appends to ``suffix``, so ``block.child(k)[i]`` is
    ``child_seed(block[i], k)``.  A block holds no ``SeedSequence``: it
    pickles in a few dozen bytes, slicing gives a block, and
    :meth:`pcg64_rows` seeds every element's PCG64 in one numpy pass.
    """

    entropy: object
    spawn_key: tuple
    pool_size: int
    keys: range
    suffix: tuple = ()

    def __post_init__(self) -> None:
        if self.keys and min(self.keys[0], self.keys[-1]) < 0:
            raise ValueError(f"spawn keys must be non-negative; got {self.keys}")

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return replace(self, keys=self.keys[i])
        return self._element(self.keys[i])

    def __iter__(self):
        return map(self._element, self.keys)

    def _element(self, key: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(
            self.entropy,
            spawn_key=self.spawn_key + (key,) + self.suffix,
            pool_size=self.pool_size,
        )

    def child(self, k: int) -> "SeedBlock":
        """Child ``k`` of every element (:func:`child_seed`), as a block."""
        k = operator.index(k)
        if k < 0:
            raise ValueError(f"child index must be non-negative; got {k}")
        return replace(self, suffix=self.suffix + (k,))

    def pcg64_rows(self, out: np.ndarray | None = None) -> np.ndarray:
        """Every element's PCG64 state as ``(R, 4)`` uint64 rows
        ``[state_hi, state_lo, inc_hi, inc_lo]``: what
        ``np.random.default_rng(block[i]).bit_generator.state`` holds.
        Filled into ``out`` when given (shape ``(R, 4)``, uint64)."""
        if out is None:
            out = np.empty((len(self), 4), dtype=np.uint64)
        if len(self):
            _pcg64_seed(self._state_words(), out)
        return out

    def _state_words(self) -> np.ndarray:
        """``generate_state(4, np.uint64)`` of every element, ``[R, 4]``.

        numpy's ``mix_entropy`` over words every element shares (the
        entropy, zero-padded to the pool, and the spawn key) runs once on
        scalars; the one word that varies, the key, and the suffix after
        it are mixed into all pools at once.  Keys of more than one word
        (≥ 2³²) or entropy that is not ints take one ``SeedSequence`` per
        element instead.
        """
        pool_size = self.pool_size
        try:
            run = _uint32_words(self.entropy)
            shared = (
                run + [0] * (pool_size - len(run)) + _uint32_words(self.spawn_key)
            )
            suffix = _uint32_words(self.suffix)
        except TypeError:  # entropy numpy coerces and this copy does not
            shared = None
        if shared is None or max(self.keys[0], self.keys[-1]) > _MASK32:
            return np.array(
                [s.generate_state(4, np.uint64) for s in self], dtype=np.uint64
            )
        hc = _INIT_A
        pool = []
        for w in shared[:pool_size]:
            h, hc = _hashmix(w, hc)
            pool.append(h)
        for src in range(pool_size):
            for dst in range(pool_size):
                if src != dst:
                    h, hc = _hashmix(pool[src], hc)
                    pool[dst] = _mix(pool[dst], h)
        pool = np.array(pool, dtype=np.uint32)
        keys = np.arange(
            self.keys.start, self.keys.stop, self.keys.step, dtype=np.int64
        ).astype(np.uint32)
        # Each later word is hashed once per pool word, in pool order.
        for word in (*shared[pool_size:], keys[:, None], *suffix):
            xs, ms, hc = _hash_consts(hc, _MULT_A, pool_size)
            h = (word ^ xs) * ms
            pool = _mix(pool, h ^ (h >> 16))
        # generate_state: 8 words cycling over the pool, paired little-endian.
        xs, ms, _ = _hash_consts(_INIT_B, _MULT_B, 8)
        d = (pool[:, np.arange(8) % pool_size] ^ xs) * ms
        d ^= d >> 16
        return (d[:, 1::2].astype(np.uint64) << 32) | d[:, 0::2]


def spawn_seeds(seed: int | None | np.random.SeedSequence, n: int) -> SeedBlock:
    """Spawn ``n`` statistically independent child seed sequences.

    This is the only sanctioned way the library derives per-trial seeds:
    it guarantees non-overlapping streams across processes (see the
    mpi4py/NumPy parallel-RNG guidance).  The children come as a
    :class:`SeedBlock` with the elements of ``SeedSequence.spawn(n)``;
    a ``SeedSequence`` passed in advances its spawn count by ``n``, as
    ``spawn`` would advance it.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of seeds: {n}")
    if isinstance(seed, np.random.SeedSequence):
        ss, start = seed, seed.n_children_spawned
        # The count is read-only from Python: spawning is the only way
        # to advance it.  A root built here from an int is never read again.
        ss.spawn(n)
    else:
        ss, start = np.random.SeedSequence(seed), 0
    return SeedBlock(ss.entropy, ss.spawn_key, ss.pool_size, range(start, start + n))


def child_seed(parent: np.random.SeedSequence, k: int) -> np.random.SeedSequence:
    """Child ``k`` of ``parent``'s spawn: the ``SeedSequence`` that
    ``parent.spawn(k + 1)[k]`` builds on a fresh ``parent``, without
    building the ``k`` before it or advancing ``parent``'s spawn count."""
    return np.random.SeedSequence(
        parent.entropy, spawn_key=parent.spawn_key + (k,), pool_size=parent.pool_size
    )


def spawn_rngs(seed: int | None | np.random.SeedSequence, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` independent generators (convenience over :func:`spawn_seeds`)."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, n)]


class RandomTape:
    """A replayable stream of uniform floats in ``[0, 1)``.

    Two modes:

    * **Live** (``values=None``): draws are generated on demand from an
      internal :class:`~numpy.random.Generator` *and recorded*, so the
      same tape object can later be :meth:`rewind`-ed and replayed.
    * **Fixed** (``values`` given): the tape replays exactly the provided
      values and raises :class:`~repro.errors.TapeExhaustedError` when
      they run out.

    The tape is the contract between the vectorized engine and the agent
    simulator: both consume uniforms in the same canonical order, so a
    rewound tape reproduces an identical protocol execution.
    """

    def __init__(
        self,
        seed: int | None | np.random.SeedSequence | np.random.Generator = None,
        values: Sequence[float] | np.ndarray | None = None,
    ):
        if values is not None:
            arr = np.asarray(values, dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError("tape values must be one-dimensional")
            if arr.size and (arr.min() < 0.0 or arr.max() >= 1.0):
                raise ValueError("tape values must lie in [0, 1)")
            self._values = arr
            self._fixed = True
            self._rng = None
        else:
            self._values = np.empty(0, dtype=np.float64)
            self._fixed = False
            self._rng = make_rng(seed)
        self._pos = 0

    # -- core draw ---------------------------------------------------------

    def draw(self, k: int) -> np.ndarray:
        """Return the next ``k`` uniforms as a float64 array.

        In live mode, grows the recording as needed.  In fixed mode,
        raises :class:`TapeExhaustedError` if fewer than ``k`` values
        remain.
        """
        if k < 0:
            raise ValueError(f"cannot draw a negative count: {k}")
        end = self._pos + k
        if end > self._values.size:
            if self._fixed:
                raise TapeExhaustedError(
                    f"tape exhausted: requested {k} values at position {self._pos}, "
                    f"tape holds {self._values.size}"
                )
            fresh = self._rng.random(end - self._values.size)
            self._values = np.concatenate([self._values, fresh])
        out = self._values[self._pos : end]
        self._pos = end
        return out

    def draw_one(self) -> float:
        """Return a single uniform (scalar convenience over :meth:`draw`)."""
        return float(self.draw(1)[0])

    # -- replay ------------------------------------------------------------

    def rewind(self) -> None:
        """Reset the read head to the beginning without discarding history."""
        self._pos = 0

    def fork(self) -> "RandomTape":
        """Return a fixed tape replaying everything recorded so far.

        Useful for handing the exact same randomness to a second engine:
        the fork starts at position 0 and is independent of this tape's
        read head.
        """
        return RandomTape(values=self._values[: max(self._pos, self._values.size)].copy())

    @property
    def position(self) -> int:
        """Current read position (number of values consumed)."""
        return self._pos

    @property
    def recorded(self) -> np.ndarray:
        """A copy of every value drawn/provided so far."""
        return self._values.copy()

    def __len__(self) -> int:
        return int(self._values.size)


class TapeRecorder:
    """Accumulates draws into a flat array for later fixed-tape replay.

    Thin helper used by tests that want to pre-script randomness: append
    uniforms (scalars or arrays) and then :meth:`to_tape`.
    """

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []

    def append(self, values: float | Iterable[float]) -> None:
        arr = np.atleast_1d(np.asarray(values, dtype=np.float64))
        self._chunks.append(arr)

    def to_tape(self) -> RandomTape:
        if self._chunks:
            flat = np.concatenate(self._chunks)
        else:
            flat = np.empty(0, dtype=np.float64)
        return RandomTape(values=flat)
