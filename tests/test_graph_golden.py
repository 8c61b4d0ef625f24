"""Graph golden: the exact bits of every CSR-building generator path.

``tests/data/graph_golden.json`` pins, per case, the sha256 and dtype of
the four CSR arrays (``client_indptr``, ``client_indices``,
``server_indptr``, ``server_indices``) plus the graph's name.  The
on-disk graph cache is keyed by generator arguments only, with no
generator version, so a cached graph stays correct only while these
bits do not move.  The perfbench digests see E1's regular family only
through protocol outputs; this file pins the graphs themselves, on the
gate ``REPRO_KERNELS`` selects (numpy by default) and again on cext,
whose exact-degree builds run the compiled repair pass.

Regenerate only when a generator's output is meant to change::

    PYTHONPATH=src python tests/test_graph_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.graphs import (
    BipartiteGraph,
    biregular,
    complete_bipartite,
    geometric_bipartite,
    near_regular,
    paper_extremal,
    random_regular_bipartite,
    trust_subsets,
)
from repro.graphs import generators

GOLDEN = Path(__file__).parent / "data" / "graph_golden.json"
ARRAYS = ("client_indptr", "client_indices", "server_indptr", "server_indices")


def _shuffled_from_edges() -> BipartiteGraph:
    edges = trust_subsets(200, 150, 12, seed=5).edges()
    edges = edges[np.random.default_rng(7).permutation(len(edges))]
    return BipartiteGraph.from_edges(200, 150, edges, name="shuffled")


def _restarted_regular() -> BipartiteGraph:
    # A two-check repair budget stalls on this seed's first pairings, so
    # the build only succeeds after restarts draw fresh permutations.
    with mock.patch.object(generators, "_MAX_REPAIR_PASSES", 2):
        return random_regular_bipartite(128, 8, seed=2)


CASES = {
    **{
        f"regular-{n}x{deg}-s{seed}": partial(random_regular_bipartite, n, deg, seed=seed)
        for n, deg in ((256, 64), (1024, 100))
        for seed in (1, 2)
    },
    **{
        f"biregular-{nc}x{ns}x{cdeg}-s{seed}": partial(biregular, nc, ns, cdeg, seed=seed)
        for nc, ns, cdeg in ((300, 200, 31), (1000, 1500, 60))
        for seed in (1, 2)
    },
    **{
        f"near_regular-{n}-{lo}-{hi}-s{seed}": partial(near_regular, n, lo, hi, seed=seed)
        for n, lo, hi in ((256, 16, 48), (1024, 50, 150))
        for seed in (1, 2)
    },
    **{
        f"paper_extremal-{n}-s{seed}": partial(paper_extremal, n, seed=seed)
        for n in (256, 1024)
        for seed in (1, 2)
    },
    # Degree above n/2: realised through the complement sequence.
    "regular-dense-64x48-s3": partial(random_regular_bipartite, 64, 48, seed=3),
    "near_regular-dense-64-40-60-s3": partial(near_regular, 64, 40, 60, seed=3),
    # Degree n: the complete graph under the regular family's name.
    "regular-complete-32x32-s1": partial(random_regular_bipartite, 32, 32, seed=1),
    "complete-37x23": partial(complete_bipartite, 37, 23),
    "from_edges-shuffled": _shuffled_from_edges,
    # Radius > 1/3 takes the all-pairs branch through from_edges.
    "geometric-coarse-60x50": partial(geometric_bipartite, 60, 50, 0.4, seed=1),
    "regular-restart-128x8-s2": _restarted_regular,
    # E1's largest point.
    "regular-4096x144-s1": partial(random_regular_bipartite, 4096, 144, seed=1),
    # Client degrees over four power-of-two classes (17-32 up to 129-256).
    "near_regular-2048-20-200-s1": partial(near_regular, 2048, 20, 200, seed=1),
    # degree_hi = n: three clients of degree n, so the complement
    # sequence the walk realises has degree-0 clients.
    "near_regular-dense-96-60-96-s1": partial(near_regular, 96, 60, 96, seed=1),
    "paper_extremal-8192-s1": partial(paper_extremal, 8192, seed=1),
}


def fingerprint(g: BipartiteGraph) -> dict:
    out = {"name": g.name}
    for field in ARRAYS:
        arr = np.ascontiguousarray(getattr(g, field))
        out[field] = {"dtype": arr.dtype.str, "sha256": hashlib.sha256(arr.tobytes()).hexdigest()}
    return out


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_graph_matches_golden(case):
    assert fingerprint(CASES[case]()) == json.loads(GOLDEN.read_text())[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_graph_matches_golden_on_cext(cext_gate, case):
    """The same bits when exact-degree builds run the compiled repair pass."""
    test_graph_matches_golden(case)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_graph_golden.py --write")
    GOLDEN.write_text(
        json.dumps({case: fingerprint(build()) for case, build in sorted(CASES.items())},
                   indent=1, sort_keys=True) + "\n"
    )
