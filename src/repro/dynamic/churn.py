"""Random topology churn for the dynamic scenario (E12).

The paper's §4 mentions "some random topology change may happen during
the protocol execution".  We model the trust-subset flavour: each round,
every client independently resamples its *entire* server set with
probability ``rate`` (keeping its degree), as if its trust relations
were refreshed.  This preserves the degree profile on the client side
while continuously mixing the server side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RewireChurn"]


@dataclass(frozen=True)
class RewireChurn:
    """Per-round full-neighborhood rewiring with probability ``rate``.

    ``apply(rng, indptr, indices, n_servers)`` rewrites each flipped
    client's row of the serving state's CSR copy in place in
    ``indices`` (every row keeps its degree, so ``indptr`` is only read;
    the immutable :class:`~repro.graphs.bipartite.BipartiteGraph` is
    never touched) and returns how many clients flipped.
    """

    rate: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must be in [0, 1]")

    def apply(
        self,
        rng: np.random.Generator,
        indptr: np.ndarray,
        indices: np.ndarray,
        n_servers: int,
    ) -> int:
        if self.rate == 0.0:
            return 0
        flips = np.flatnonzero(rng.random(indptr.size - 1) < self.rate)
        for lo, hi in zip(indptr[flips].tolist(), indptr[flips + 1].tolist()):
            k = hi - lo
            if k == 0 or k > n_servers:
                continue
            # Distinct resample, degree preserved.  k is polylog-sized in
            # every E12 workload, so rejection sampling is O(k) expected.
            if k > n_servers // 8:
                fresh = rng.permutation(n_servers)[:k]
            else:
                fresh = np.unique(rng.integers(0, n_servers, size=int(k * 1.3) + 8))
                while fresh.size < k:
                    fresh = np.unique(
                        np.concatenate([fresh, rng.integers(0, n_servers, size=k)])
                    )
                if fresh.size > k:
                    fresh = rng.choice(fresh, size=k, replace=False)
            indices[lo:hi] = np.sort(fresh)
        return int(flips.size)
