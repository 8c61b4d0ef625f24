"""The configuration model's repair walk against the flat reference walk.

``generators._repair_walk`` sorts each degree class as a padded row
matrix, and on the cext gate ``generators._compiled_walk`` runs each
pass as one call of the compiled ``repro_repair_pass``.  The walk they
replaced sorted every ``client * n_servers + server`` key of the pairing
as one flat array; that walk is kept here, apart from reading the pass
budget from ``generators``, as the oracle, together with the build's
rule for a dense active part once every restart has stalled.  All three
must make the same draws and the same swaps, so a build through any of
them leaves the same CSR arrays and the same generator state behind,
restarts and stalls included.  The ``*_on_cext`` tests repeat the
comparison with ``REPRO_KERNELS=cext``, so the builds take the compiled
pass; the others run on the gate the environment selects (numpy by
default).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.batch import available_kernels, resolve_kernel
from repro.errors import GraphConstructionError
from repro.graphs import BipartiteGraph, near_regular, paper_extremal, random_regular_bipartite
from repro.graphs import generators

ARRAYS = ("client_indptr", "client_indices", "server_indptr", "server_indices")


# --- the flat walk -------------------------------------------------------


def _duplicate_edges(keys: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The duplicate edges of a sorted key array, in stable order.

    ``keys`` is sorted and ``order`` holds the edge index of each slot,
    ties in any order.  An edge is a duplicate when a smaller edge index
    has the same key; the duplicates come back by key, then edge index,
    exactly as a stable sort would list them.  Only the slots of runs of
    equal keys are re-sorted, and there are few of them.
    """
    same = keys[1:] == keys[:-1]
    in_run = np.zeros(keys.size, dtype=bool)
    in_run[1:] = same
    in_run[:-1] |= same
    run_keys, run_edges = keys[in_run], order[in_run]
    by_edge = np.lexsort((run_edges, run_keys))
    run_keys, run_edges = run_keys[by_edge], run_edges[by_edge]
    return run_edges[1:][run_keys[1:] == run_keys[:-1]]


def _repair_duplicates(
    client: np.ndarray,
    servers: np.ndarray,
    n_clients: int,
    n_servers: int,
    rng: np.random.Generator,
) -> np.ndarray | None:
    """Make a configuration-model pairing simple via endpoint swaps.

    Edge ``e`` joins ``client[e]`` (non-decreasing, so each client's
    edges are one contiguous row) to ``servers[e]``.  Each pass finds the
    duplicate edges in stable (client, server) key order and swaps each
    one's server with that of a uniformly random edge.  Swapping the
    server endpoints of two edges preserves every degree on both sides,
    so the repaired graph keeps the prescribed degree sequence exactly.

    Returns the sorted ``client * n_servers + server`` keys of the
    duplicate-free pairing, or None if duplicates remain after
    ``_MAX_REPAIR_PASSES`` checks (caller then restarts from a fresh
    pairing).  ``servers`` is repaired in place.

    Only the first pass sorts every key.  A row can gain a duplicate only
    if a swap touched it, so later passes re-sort just the rows that held
    a duplicate or a swap partner; the sorted keys keep every row in the
    same slots, and the duplicates come out in the same order a full
    re-sort would give, so the walk's draws and swaps do not depend on
    which rows were re-sorted.  The sorts are numpy's default argsort,
    about twice as fast on int64 keys as the stable one; its tie order is
    settled by :func:`_duplicate_edges`.
    """
    m = servers.size
    width = np.int64(n_servers)
    keys = client * width
    keys += servers
    order = np.argsort(keys)
    sorted_keys = keys = keys[order]
    touched = np.zeros(n_clients, dtype=bool)
    for check in range(generators._MAX_REPAIR_PASSES):
        if check:
            edges = np.flatnonzero(touched[client])
            keys = client[edges] * width
            keys += servers[edges]
            order = np.argsort(keys)
            keys = keys[order]
            sorted_keys[edges] = keys
            order = edges[order]
        dup_idx = _duplicate_edges(keys, order)
        if dup_idx.size == 0:
            return sorted_keys
        partners = rng.integers(0, m, size=dup_idx.size)
        for i, j in zip(dup_idx.tolist(), partners.tolist()):
            servers[i], servers[j] = servers[j], servers[i]
        touched[:] = False
        touched[client[dup_idx]] = True
        touched[client[partners]] = True
    return None


def flat_configuration(client_degrees, server_degrees, rng) -> BipartiteGraph:
    """``_configuration_bipartite``'s sparse branch over the flat walk."""
    client_degrees = np.asarray(client_degrees, dtype=np.int64)
    server_degrees = np.asarray(server_degrees, dtype=np.int64)
    n_clients, n_servers = client_degrees.size, server_degrees.size
    indptr = np.zeros(n_clients + 1, dtype=np.int64)
    np.cumsum(client_degrees, out=indptr[1:])
    client = np.repeat(np.arange(n_clients, dtype=np.int64), client_degrees)
    for _ in range(generators._MAX_RESTARTS):
        servers = rng.permutation(np.repeat(np.arange(n_servers, dtype=np.int64), server_degrees))
        keys = _repair_duplicates(client, servers, n_clients, n_servers, rng)
        if keys is not None:
            break
    else:
        # Every restart stalled.  A dense active part (the clients and
        # servers of nonzero degree) is realized through its complement
        # there, and inverted.
        live_c, live_s = np.flatnonzero(client_degrees), np.flatnonzero(server_degrees)
        if 2 * int(client_degrees.sum()) <= live_c.size * live_s.size:
            raise GraphConstructionError(
                "configuration model failed to produce a simple graph "
                f"(n_clients={n_clients}, n_servers={n_servers}); degrees too close to complete?"
            )
        comp = flat_configuration(
            live_s.size - client_degrees[live_c], live_c.size - server_degrees[live_s], rng
        )
        keep = np.ones((live_c.size, live_s.size), dtype=bool)
        keep[comp.edges()[:, 0], comp.edges()[:, 1]] = False
        indices = live_s[np.nonzero(keep)[1]]
        return BipartiteGraph.from_csr(n_clients, n_servers, indptr, indices, name="flat")
    del servers
    client *= np.int64(n_servers)
    keys -= client
    del client
    return BipartiteGraph.from_csr(n_clients, n_servers, indptr, keys, name="flat")


# --- the comparison ------------------------------------------------------


def _build(builder, cdeg, sdeg, seed):
    """(CSR arrays or the error message, generator state) after a build."""
    rng = np.random.default_rng(seed)
    try:
        g = builder(cdeg, sdeg, rng)
        out = tuple(getattr(g, a).tolist() for a in ARRAYS)
    except GraphConstructionError as exc:
        out = str(exc)
    return out, rng.bit_generator.state


def assert_same_build(cdeg, sdeg, seed, passes=None):
    cdeg = np.asarray(cdeg, dtype=np.int64)
    sdeg = np.asarray(sdeg, dtype=np.int64)
    assert 2 * cdeg.sum() <= cdeg.size * sdeg.size  # the walk's regime
    budget = passes or generators._MAX_REPAIR_PASSES
    with mock.patch.object(generators, "_MAX_REPAIR_PASSES", budget):
        got = _build(
            lambda c, s, rng: generators._configuration_bipartite(c, s, rng, "blocked"),
            cdeg, sdeg, seed,
        )
        want = _build(flat_configuration, cdeg, sdeg, seed)
    assert got[0] == want[0]
    assert got[1] == want[1]


def _realizable(cdeg: np.ndarray, sdeg: np.ndarray) -> bool:
    """Gale–Ryser: some simple bipartite graph has these degrees."""
    a = np.sort(cdeg)[::-1]
    return all(
        a[: k + 1].sum() <= np.minimum(sdeg, k + 1).sum() for k in range(a.size)
    )


@st.composite
def degree_sequences(draw):
    """Equal-sum client and server degree sequences in the walk's sparse
    regime (at most half of all pairs are edges)."""
    shape = draw(st.sampled_from(["uniform", "classes", "heavy", "empty"]))
    n_clients = draw(st.integers(3, 40))
    n_servers = draw(st.integers(16 if shape == "classes" else 2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "uniform":
        cdeg = np.full(n_clients, draw(st.integers(1, n_servers // 2)))
    elif shape == "classes":
        # Degrees 2, 3-4 and 5-8 at least: three power-of-two classes.
        cdeg = rng.integers(1, n_servers // 2 + 1, size=n_clients)
        cdeg[:3] = (2, 4, 8)
    elif shape == "heavy":
        cdeg = rng.integers(0, 4, size=n_clients)
        cdeg[rng.integers(n_clients)] = draw(st.integers(n_servers // 2, 3 * n_servers // 4))
    else:
        cdeg = np.zeros(n_clients, dtype=np.int64)
    if draw(st.booleans()):  # some degree-0 clients
        cdeg[rng.random(n_clients) < 0.3] = 0
    total = int(cdeg.sum())
    assume(2 * total <= n_clients * n_servers)
    # Spread the stubs evenly over a random subset of the servers; a
    # small subset leaves degree-0 servers.  The subset keeps server
    # degrees near n_clients / 2 or below and client degrees at most
    # half of it: rows or columns closer to complete within the active
    # part stall every restart of either walk.
    fewest = max(-(-2 * total // n_clients), 2 * int(cdeg.max()))
    n_active = draw(st.integers(min(n_servers, fewest), n_servers))
    base, rem = divmod(total, max(n_active, 1))
    sdeg = np.zeros(n_servers, dtype=np.int64)
    active = rng.permutation(n_servers)[:n_active]
    sdeg[active] = base
    sdeg[active[:rem]] += 1
    assume(_realizable(cdeg, sdeg))
    return cdeg, sdeg


def _against_flat_reference(test):
    """The property both walk tests check: the same CSR and generator
    state as the flat walk; a budget of 1-3 passes forces restarts and,
    when every restart stalls, the same complement or the same error."""
    # A dense active part (13 edges among 7 × 3 pairs): with one pass per
    # restart every restart stalls, and both realize the complement.
    test = example(([3, 2, 2, 1, 1, 0, 0, 0, 0, 3, 1], [5, 4, 4]), 0, 1)(test)
    test = given(
        degree_sequences(), st.integers(0, 2**32 - 1), st.sampled_from([None, 1, 2, 3])
    )(test)
    return settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                               HealthCheck.function_scoped_fixture],
    )(test)


@_against_flat_reference
def test_walk_matches_flat_reference(seqs, seed, passes):
    assert_same_build(*seqs, seed, passes)


@_against_flat_reference
def test_walk_matches_flat_reference_on_cext(cext_gate, seqs, seed, passes):
    assert_same_build(*seqs, seed, passes)


FAMILIES = pytest.mark.parametrize("build", [
    lambda: random_regular_bipartite(512, 81, seed=4),
    lambda: near_regular(1024, 10, 200, seed=4),
    lambda: paper_extremal(2048, seed=4),
], ids=["regular", "near_regular-5-classes", "paper_extremal"])


@FAMILIES
@pytest.mark.parametrize("seed", [0, 1])
def test_family_degree_sequences(build, seed):
    """Thousands of duplicates in the first pass, many of them sharing
    a swap index with another pair."""
    g = build()
    assert_same_build(g.client_degrees, g.server_degrees, seed)


@FAMILIES
@pytest.mark.parametrize("seed", [0, 1])
def test_family_degree_sequences_on_cext(cext_gate, build, seed):
    test_family_degree_sequences(build, seed)


def test_int64_blocks_match():
    """Server ids too large to pack into int32 take int64 blocks."""
    n_clients, n_servers, seed = 40, 2**40, 3
    rng = np.random.default_rng(seed)
    degrees = rng.integers(0, 300, size=n_clients)
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    # 1,000 distinct servers, so each row holds dozens of duplicates.
    pool = rng.integers(0, n_servers, size=1000)
    servers = rng.choice(pool, size=indptr[-1])
    client = np.repeat(np.arange(n_clients, dtype=np.int64), degrees)
    blocked, flat = servers.copy(), servers.copy()
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ok = generators._repair_walk(indptr, blocked, n_servers, got_rng)
    keys = _repair_duplicates(client, flat, n_clients, n_servers, want_rng)
    assert ok and keys is not None
    assert np.array_equal(blocked, keys - client * np.int64(n_servers))
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_stalled_dense_active_part_builds_through_its_complement():
    """K(34, 11) less one edge, beside 25 servers of degree 0: the whole
    sequence is sparse, so the walk runs and stalls on every restart,
    and the active part's complement (one edge) is inverted instead.
    Small budgets keep the stalled restarts short."""
    cdeg = [10] + [11] * 33
    sdeg = [33] + [34] * 10 + [0] * 25
    with mock.patch.object(generators, "_MAX_RESTARTS", 3):
        assert_same_build(cdeg, sdeg, seed=5, passes=4)
        g = generators._configuration_bipartite(cdeg, sdeg, np.random.default_rng(5), "k")
    g.validate()
    assert g.client_indices[:10].tolist() == list(range(1, 11))
    assert np.array_equal(g.client_indices[10:], np.tile(np.arange(11), 33))
    assert g.server_degrees.tolist() == sdeg


# --- the compiled pass ---------------------------------------------------

needs_cext = pytest.mark.skipif(
    "cext" not in available_kernels(), reason="needs a working C compiler"
)


def _hub(rng):
    # One hub of degree 200 over 40 servers (160 duplicates, more than
    # the first list's 64 slots hold) among rows of degree 0 to 11, about
    # a third of them of degree 0 or 1.
    degrees = rng.integers(0, 12, size=60)
    degrees[rng.random(60) < 0.3] = rng.integers(0, 2)
    degrees[17] = 200
    servers = rng.choice(400, size=degrees.sum())
    servers[degrees[:17].sum():degrees[:18].sum()] = rng.choice(40, size=200)
    return degrees, servers, 400


def _sparse_servers(rng):
    # Every third server id never appears (degree-0 servers), and many
    # rows of degree 0 and 1.
    degrees = rng.integers(0, 4, size=300)
    return degrees, rng.choice(np.arange(0, 900, 3), size=degrees.sum()), 900


def _regular(rng):
    return np.full(64, 20), rng.permutation(np.repeat(np.arange(64), 20)), 64


@needs_cext
@pytest.mark.parametrize("shape", [_hub, _sparse_servers, _regular],
                         ids=["hub", "sparse-servers", "regular"])
@pytest.mark.parametrize("passes", [None, 1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compiled_pass_matches_numpy_walk(shape, passes, seed):
    """``_compiled_walk`` against ``_repair_walk`` on one pairing: the
    same verdict, the same generator state and, when both finish, the
    same sorted rows.  A stalled walk's pairing is thrown away by the
    build, so only its draws are compared."""
    degrees, servers, n_servers = shape(np.random.default_rng(100 + seed))
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    repair_pass = resolve_kernel("cext").repair_pass_fn()
    listed = []

    def spy(*args):
        k = repair_pass(*args)
        listed.append(k > args[6])  # more duplicates than the list holds
        return k

    got, want = servers.copy(), servers.copy()
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    budget = passes or generators._MAX_REPAIR_PASSES
    with mock.patch.object(generators, "_MAX_REPAIR_PASSES", budget):
        ok = generators._compiled_walk(spy, 64, indptr, got, n_servers, got_rng)
        assert ok == generators._repair_walk(indptr, want, n_servers, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    if ok:
        assert np.array_equal(got, want)
    if shape is _hub:
        assert listed[0]


def test_shape_rule_picks_the_walk(monkeypatch):
    """The compiled pass only where every id fits in int32 and a stamp
    per server is no larger than the edge array; the numpy walk
    elsewhere, and always on the numpy gate.  The stub shuffle follows
    the same rule."""
    numpy_pair = (np.random.Generator.shuffle, generators._repair_walk)

    def choose(n_clients, n_servers, m):
        def degrees(n):  # zero-stride, so huge sides cost nothing
            return np.broadcast_to(np.int64(1), (n,))

        return generators._choose_walk(degrees(n_clients), degrees(n_servers), m)

    monkeypatch.setenv("REPRO_KERNELS", "numpy")
    assert choose(100, 100, 1000) == numpy_pair
    if "cext" not in available_kernels():
        return
    monkeypatch.setenv("REPRO_KERNELS", "cext")
    for shape in [(100, 100, 1000), (100, 200, 100)]:
        shuffle, walk = choose(*shape)
        assert walk.func is generators._compiled_walk
        assert shuffle is not np.random.Generator.shuffle
    for shape in [(100, 201, 100), (40, 2**40, 6000), (2**31, 100, 2**32), (10, 10, 2**31)]:
        assert choose(*shape) == numpy_pair
    # A build past the rule (4 stubs over 1,000 servers) takes the numpy walk.
    with mock.patch.object(generators, "_compiled_walk", side_effect=AssertionError):
        sdeg = np.zeros(1000, dtype=np.int64)
        sdeg[[3, 500]] = 2
        g = generators._configuration_bipartite([2, 2], sdeg, np.random.default_rng(0), "x")
    assert g.client_indices.tolist() == [3, 500, 3, 500]
