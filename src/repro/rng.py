"""Randomness utilities: seed management and replayable random tapes.

The paper's protocols are driven entirely by with-replacement uniform
choices made by clients.  To let two independent implementations (the
vectorized engine in :mod:`repro.core` and the faithful agent simulator
in :mod:`repro.agents`) execute *bit-identical* runs, all protocol
randomness is funneled through a :class:`RandomTape`: a pre-drawn (or
lazily grown) sequence of uniforms in ``[0, 1)`` consumed in a canonical
order documented in DESIGN.md §6 (round-major, then client index, then
ball slot).

Seed handling follows NumPy best practice: a single
:class:`numpy.random.SeedSequence` is spawned into independent child
streams, so Monte-Carlo trials running in separate processes never share
a stream.

Counter-based lineage (Philox)
------------------------------
The PCG64 streams above are *sequential*: draw ``k`` depends on having
drawn ``k-1`` values first, which forces the batched engine to fill its
per-round uniforms through a stateful read-ahead.  The **Philox4x32-10**
lineage here is *counter-based*: the uniform for (trial, round, slot) is
a pure function of a 128-bit counter and a 64-bit key, so any chunking,
thread count or kernel gate produces identical bits.  A
trial's identity is four ``uint32`` words ``(k0, k1, c2, c3)`` derived
from its normally-spawned :class:`~numpy.random.SeedSequence`
(:func:`philox_seed_words`), and draw ``s`` of round ``r`` reads counter
``(s >> 1, r, c2, c3)`` under key ``(k0, k1)`` — two doubles per
counter block, high word first (:func:`philox_uniforms`).  This is an
explicit *new* seed lineage (``SeedSpec(mode="philox")``), pinned by its
own goldens — it is deliberately **not** bit-compatible with the PCG64
streams.  The core function is verified against the Random123
known-answer vectors (``tests/test_philox.py``).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import TapeExhaustedError

__all__ = [
    "make_rng",
    "spawn_seeds",
    "spawn_rngs",
    "philox4x32",
    "philox_seed_words",
    "philox_trial_words",
    "philox_uniforms",
    "RandomTape",
    "TapeRecorder",
]

# Philox4x32 round constants (Random123): two 32→64-bit multipliers and
# the Weyl key schedule increments.  10 rounds is the Random123 default
# (7 already passes BigCrush; 10 keeps the standard safety margin and
# matches the published known-answer vectors).
PHILOX_M0 = 0xD2511F53
PHILOX_M1 = 0xCD9E8D57
PHILOX_W0 = 0x9E3779B9
PHILOX_W1 = 0xBB67AE85
PHILOX_ROUNDS = 10

_U32 = np.uint64(0xFFFFFFFF)
_SCALE_53 = 1.0 / 9007199254740992.0  # 2^-53


def philox4x32(counter, key, rounds: int = PHILOX_ROUNDS):
    """Vectorized Philox4x32: ``counter`` (4, n) × ``key`` (2,) or (2, n) → (4, n).

    Inputs are ``uint32``-valued (any integer dtype is accepted and
    masked); the return is the four ``uint32`` output words per column.
    This is the reference implementation the C fill and run entry in
    ``repro/batch/_kernels.c`` are parity-pinned against; it matches
    the Random123 ``philox4x32`` known-answer vectors at ``rounds=10``.
    """
    ctr = np.atleast_2d(np.asarray(counter))
    if ctr.shape[0] != 4:
        raise ValueError(f"philox4x32 counter must have 4 words; got shape {ctr.shape}")
    k = np.asarray(key)
    if k.shape[0] != 2:
        raise ValueError(f"philox4x32 key must have 2 words; got shape {k.shape}")
    # Work in uint64 with explicit masking: the 32×32→64 products are
    # then exact and no per-round astype copies are needed.
    c0, c1, c2, c3 = (w.astype(np.uint64) & _U32 for w in ctr)
    k0 = (k[0].astype(np.uint64) if k.ndim else np.uint64(k[0])) & _U32
    k1 = (k[1].astype(np.uint64) if k.ndim else np.uint64(k[1])) & _U32
    k0, k1 = np.asarray(k0).copy(), np.asarray(k1).copy()
    m0, m1 = np.uint64(PHILOX_M0), np.uint64(PHILOX_M1)
    w0, w1 = np.uint64(PHILOX_W0), np.uint64(PHILOX_W1)
    sh = np.uint64(32)
    for _ in range(rounds):
        p0 = c0 * m0
        p1 = c2 * m1
        c0, c1, c2, c3 = (
            (p1 >> sh) ^ c1 ^ k0,
            p1 & _U32,
            (p0 >> sh) ^ c3 ^ k1,
            p0 & _U32,
        )
        k0 = (k0 + w0) & _U32
        k1 = (k1 + w1) & _U32
    out = np.empty((4,) + c0.shape, dtype=np.uint32)
    out[0], out[1], out[2], out[3] = c0, c1, c2, c3
    return out


def philox_seed_words(seed: int | None | np.random.SeedSequence) -> np.ndarray:
    """Derive one trial's four Philox words ``(k0, k1, c2, c3)``.

    The words come from ``SeedSequence.generate_state(4, uint32)`` of
    the trial's normally-spawned seed, so the philox lineage rides the
    exact same :func:`spawn_seeds` tree as the PCG64 one — only the
    uniform *source* changes, never the seed plumbing.
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError(
            "the philox seed lineage is derived from seed-likes (int or "
            "SeedSequence); a live Generator carries no counter identity"
        )
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return ss.generate_state(4, np.uint32)


def philox_trial_words(seeds: Sequence) -> np.ndarray:
    """Stack :func:`philox_seed_words` for a trial list → ``(R, 4) uint32``."""
    if len(seeds) == 0:
        return np.empty((0, 4), dtype=np.uint32)
    return np.stack([philox_seed_words(s) for s in seeds])


def philox_uniforms(
    words: np.ndarray, round_no: int, n: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The first ``n`` uniforms of round ``round_no`` for one trial.

    ``words`` is the trial's ``(k0, k1, c2, c3)`` from
    :func:`philox_seed_words`.  Counter block ``b`` is
    ``(b, round_no, c2, c3)`` under key ``(k0, k1)`` and yields two
    doubles — ``((x0 << 32 | x1) >> 11) · 2⁻⁵³`` then the same from
    ``(x2, x3)`` — so draw ``s`` depends only on ``(words, round_no,
    s)``: any prefix, chunking, or over-fill produces identical bits.
    """
    if out is None:
        out = np.empty(n, dtype=np.float64)
    if n <= 0:
        return out[:0]
    nb = (n + 1) >> 1
    ctr = np.empty((4, nb), dtype=np.uint64)
    ctr[0] = np.arange(nb, dtype=np.uint64)
    ctr[1] = np.uint64(int(round_no) & 0xFFFFFFFF)
    ctr[2] = np.uint64(int(words[2]))
    ctr[3] = np.uint64(int(words[3]))
    x = philox4x32(ctr, np.asarray(words[:2], dtype=np.uint64))
    x64 = x.astype(np.uint64)
    hi = ((x64[0] << np.uint64(32)) | x64[1]) >> np.uint64(11)
    lo = ((x64[2] << np.uint64(32)) | x64[3]) >> np.uint64(11)
    seg = out[:n]
    seg[0::2] = hi.astype(np.float64)[: (n + 1) >> 1]
    seg[1::2] = lo.astype(np.float64)[: n >> 1]
    seg *= _SCALE_53
    return seg


def make_rng(seed: int | None | np.random.SeedSequence | np.random.Generator) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from any seed-like value.

    Accepts ``None`` (OS entropy), an integer, a ``SeedSequence``, or an
    existing ``Generator`` (returned unchanged, so call sites can be
    agnostic about what they were handed).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(seed: int | None | np.random.SeedSequence, n: int) -> list[np.random.SeedSequence]:
    """Spawn ``n`` statistically independent child seed sequences.

    This is the only sanctioned way the library derives per-trial seeds:
    it guarantees non-overlapping streams across processes (see the
    mpi4py/NumPy parallel-RNG guidance).
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of seeds: {n}")
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return ss.spawn(n)


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
