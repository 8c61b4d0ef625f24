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
a stream.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import TapeExhaustedError

__all__ = [
    "make_rng",
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
