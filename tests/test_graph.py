"""Temporal network construction, time-sliced queries, Katz, peer tags."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import peerfx
from peerfx import (NEVER, DivergedError, InvalidParameterError, NotFoundError, PeerTags,
                    TagConfig, build_network, katz_centrality, tag_peers, week_of_unix)
from peerfx.graph import _WIDE_SLOT, _lookup, _quantile, second_degree_counts

from conftest import (adjacency_oracle, katz_alpha_oracle, katz_dense_oracle,
                      neighbors_oracle, random_edges, second_degree_oracle)


def test_week_of_unix_floor_division():
    assert week_of_unix(0, 0) == 0
    assert week_of_unix(604799, 0) == 0
    assert week_of_unix(604800, 0) == 1
    assert week_of_unix(604800 * 5 + 3, 604800) == 4


def test_dedup_keeps_earliest_week():
    net = build_network([(1, 2, 5), (2, 1, 7)])
    assert net.n_edges == 1
    assert list(net.neighbors_at(1, 5)) == [2]
    assert list(net.neighbors_at(1, 4)) == []


def test_empty_stream():
    net = build_network([])
    assert net.n_nodes == 0
    assert net.n_edges == 0


def test_self_loops_counted_not_fatal():
    net = build_network([(3, 3, 1), (1, 2, 2)])
    assert net.n_edges == 1
    assert net.diagnostics["self_loops"] == 1


def test_malformed_negative_id_fatal():
    with pytest.raises(InvalidParameterError):
        build_network([(-1, 2, 3)])


def test_node_filter_drops_incident_edges():
    for keep in ({1, 2}, np.array([2, 1]), [1, 2, 2]):
        net = build_network([(1, 2, 0), (2, 3, 0)], node_filter=keep)
        assert set(net.nodes.tolist()) == {1, 2}
        assert net.n_edges == 1
        assert net.diagnostics["filtered_edges"] == 1


def test_tuple_of_three_edges_is_rows():
    # a tuple of tuples is rows, also when it holds exactly three
    rows = ((1, 2, 0), (2, 3, 0), (3, 4, 0))
    for edges in (rows, tuple(map(list, rows)), tuple(map(np.array, zip(*rows)))):
        net = build_network(edges)
        assert net.n_edges == 3
        assert net.neighbors_at(3, 0).tolist() == [2, 4]
    with pytest.raises(InvalidParameterError):
        build_network(((1, 2), (2, 3)))


def test_adjacency_matches_hash_set_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        edges = random_edges(rng, 6, 10)
        net = build_network(edges)
        adj = adjacency_oracle(edges)
        for i in net.nodes.tolist():
            for t in (0, 7, 15, 30):
                assert set(net.neighbors_at(i, t).tolist()) == neighbors_oracle(adj, i, t)


def test_neighbors_at_path_formation_filter():
    net = build_network([(1, 2, 0), (2, 3, 10)])
    assert set(net.neighbors_at(2, 5).tolist()) == {1}
    assert set(net.neighbors_at(2, 10).tolist()) == {1, 3}


def test_neighbors_unknown_player():
    net = build_network([(1, 2, 0)])
    with pytest.raises(NotFoundError):
        net.neighbors_at(99, 5)


def test_second_degree_path_and_triangle():
    path = build_network([(1, 2, 0), (2, 3, 0)])
    assert set(path.second_degree_at(1, 0).tolist()) == {3}
    tri = build_network([(1, 2, 0), (2, 3, 0), (1, 3, 0)])
    assert set(tri.second_degree_at(1, 0).tolist()) == set()


def test_second_degree_matches_bfs_oracle():
    rng = np.random.default_rng(7)
    for trial in range(20):
        edges = random_edges(rng, 50, 120)
        net = build_network(edges)
        adj = adjacency_oracle(edges)
        for i in net.nodes.tolist()[::5]:
            for t in (3, 12, 30):
                got = set(net.second_degree_at(i, t).tolist())
                assert got == second_degree_oracle(adj, i, t), (trial, i, t)


def test_symmetry_and_monotonicity():
    rng = np.random.default_rng(3)
    edges = random_edges(rng, 25, 60)
    net = build_network(edges)
    for i in net.nodes.tolist():
        for t in (5, 20):
            for j in net.neighbors_at(i, t).tolist():
                assert i in net.neighbors_at(j, t).tolist()
        early = set(net.neighbors_at(i, 5).tolist())
        late = set(net.neighbors_at(i, 25).tolist())
        assert early <= late


def test_second_degree_exclusion_invariant():
    rng = np.random.default_rng(11)
    edges = random_edges(rng, 30, 80)
    net = build_network(edges)
    for i in net.nodes.tolist():
        sd = set(net.second_degree_at(i, 15).tolist())
        direct = set(net.neighbors_at(i, 15).tolist())
        assert not sd & direct
        assert i not in sd


def test_second_degree_counts_blocked_matches_per_node():
    rng = np.random.default_rng(19)
    edges = random_edges(rng, 60, 150)
    net = build_network(edges)
    players = net.nodes
    counts = second_degree_counts(net, players, 20, block=7)
    expect = [net.second_degree_at(int(p), 20).size for p in players]
    assert counts.tolist() == expect


def entries_by_slicing(net, idx):
    """(r, pos) of :meth:`TemporalNetwork.entries` from one slice per row."""
    r, pos = [], []
    for k, i in enumerate(idx):
        slots = range(net.indptr[i], net.indptr[i + 1])
        r += [k] * len(slots)
        pos += list(slots)
    return r, pos


def test_entries_match_per_row_slices():
    # node 9 has no edge; rows repeat and come unsorted
    net = build_network([(1, 2, 0), (1, 3, 4), (2, 3, 1), (3, 4, 2)],
                        nodes=[1, 2, 3, 4, 9])
    zero = int(net.index_of(9))
    for idx in ([], [zero], [3, 0, 3, zero, 1, 0], list(range(net.n_nodes))):
        r, pos = net.entries(np.asarray(idx, dtype=np.int64))
        assert r.dtype == pos.dtype == np.int64
        assert (r.tolist(), pos.tolist()) == entries_by_slicing(net, idx)
    rng = np.random.default_rng(29)
    net = build_network(random_edges(rng, 50, 120), nodes=range(60))
    idx = rng.integers(0, net.n_nodes, 80)
    got = net.entries(idx)
    assert tuple(a.tolist() for a in got) == entries_by_slicing(net, idx.tolist())
    # neighbor-ascending within each row
    r, pos = got
    same_row = r[1:] == r[:-1]
    assert (net.nbr[pos][1:][same_row] > net.nbr[pos][:-1][same_row]).all()


def test_friend_sum_equals_sparse_product():
    rng = np.random.default_rng(31)
    net = build_network(random_edges(rng, 300, 1500), nodes=range(320))
    # mixed magnitudes make the summation order visible in the last bits
    v = rng.normal(0.0, 1.0, net.n_nodes) * 10.0 ** rng.integers(-12, 13, net.n_nodes)
    want = net.csr_at(int(NEVER) - 1) @ v
    assert np.array_equal(net.friend_sum(v), want)
    assert (net.friend_sum(v)[net.degrees() == 0] == 0.0).all()


@pytest.mark.parametrize("t", [15, -1, int(NEVER) - 1])
def test_matvec_at_equals_sparse_product(t):
    # a mid week, a week before any edge formed, and the all-weeks view
    rng = np.random.default_rng(33)
    net = build_network(random_edges(rng, 300, 1500), nodes=range(320))
    v = rng.normal(0.0, 1.0, net.n_nodes) * 10.0 ** rng.integers(-12, 13, net.n_nodes)
    got = net.matvec_at(t)(v)
    assert got.dtype == np.float64
    assert np.array_equal(got, net.csr_at(t) @ v)
    if t < 0:
        assert not got.any()


def slot_world():
    """4,000 rows on a ring with 16 neighbours each (weeks 0-100), plus three
    hubs of degree ~600: thousands of rows reach the first slots, which are
    wider than ``_WIDE_SLOT``, and only the hubs reach the last ones."""
    rng = np.random.default_rng(37)
    n = 4000
    ring = np.arange(n)
    a = np.concatenate([ring] * 8)
    b = np.concatenate([(ring + d) % n for d in range(1, 9)])
    hubs = np.repeat([0, 1500, 3000], 600)
    fans = rng.integers(0, n, hubs.size)
    a, b = np.concatenate((a, hubs)), np.concatenate((b, fans))
    return build_network((a, b, rng.integers(0, 101, a.size)))


def mixed_vector(rng, n):
    # mixed magnitudes and signs make the summation order visible in the
    # last bits; -0.0 checks that an empty row stays +0.0 as in CSR
    v = rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-12, 13, n)
    v[::9] = -0.0
    return v


@pytest.mark.parametrize("t", [50, -1, int(NEVER) - 1])
def test_matvec_at_slot_and_tail_paths_equal_sparse_product(t):
    net = slot_world()
    deg = np.diff(net.csr_at(t).indptr)
    if t >= 0:  # both paths run: wide slots and a long tail of narrow ones
        width = (deg[:, None] > np.arange(deg.max())).sum(axis=0)  # rows per slot
        assert (width >= _WIDE_SLOT).sum() >= 8
        assert (width < _WIDE_SLOT).sum() >= 250
    v = mixed_vector(np.random.default_rng(39), net.n_nodes)
    got = net.matvec_at(t)(v)
    assert got.dtype == np.float64
    assert np.array_equal(got, net.csr_at(t) @ v)
    assert not np.signbit(got[deg == 0]).any()
    if t < 0:
        assert not got.any()


def test_friend_sum_bool_and_int64_on_the_slot_path():
    net = slot_world()
    A = net.csr_at(int(NEVER) - 1)
    rng = np.random.default_rng(41)
    flags = rng.random(net.n_nodes) < 0.3
    counts = rng.integers(-2**40, 2**40, net.n_nodes)
    for values in (flags, counts, net.degrees()):
        got = net.friend_sum(values)
        assert got.dtype == np.float64
        assert np.array_equal(got, A @ values.astype(np.float64))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_has_flagged_friend_equals_friend_sum_rule(seed):
    # random records repeat pairs and hold self-loops, and 20 of the 100
    # nodes have no edge at all
    rng = np.random.default_rng(seed)
    net = build_network(random_edges(rng, 80, 400), nodes=range(100))
    assert net.diagnostics["self_loops"] > 0 and net.diagnostics["duplicates"] > 0
    assert (net.degrees() == 0).sum() >= 20
    for share in (0.0, 0.02, 0.3, 1.0):
        flag = rng.random(net.n_nodes) < share
        got = net.has_flagged_friend(flag)
        assert got.dtype == bool
        assert np.array_equal(got, net.friend_sum(flag) > 0)


def test_degree_cap_enforced():
    edges = [(0, j, 0) for j in range(1, 6)]
    with pytest.raises(InvalidParameterError, match="degree"):
        build_network(edges, max_degree=4)


def test_katz_complete_graph_symmetric_scores():
    net = build_network([(0, 1, 0), (1, 2, 0), (0, 2, 0)])
    scores = katz_centrality(net, 0, alpha=0.1)
    assert scores.converged
    assert np.allclose(scores.values, scores.values[0])


def test_katz_star_matches_dense_solve():
    edges = [(0, j, 0) for j in range(1, 5)]
    net = build_network(edges)
    scores = katz_centrality(net, 0, alpha=0.1)
    adj = adjacency_oracle(edges)
    dense = katz_dense_oracle(adj, net.nodes.tolist(), 0, 0.1)
    assert np.abs(scores.values - dense).max() < 1e-8


def test_katz_empty_graph_all_ones():
    net = build_network([], nodes=[1, 2, 3])
    scores = katz_centrality(net, 0)
    assert np.all(scores.values == 1.0)
    assert scores.converged


def test_katz_invalid_alpha_and_divergence():
    net = build_network([(0, 1, 0)])
    with pytest.raises(InvalidParameterError):
        katz_centrality(net, 0, alpha=-0.5)
    with pytest.raises(DivergedError):
        katz_centrality(net, 0, alpha=5.0)  # rho = 1, alpha far beyond 1/rho


def test_katz_default_alpha_converges_on_random_graph():
    rng = np.random.default_rng(23)
    net = build_network(random_edges(rng, 40, 120))
    scores = katz_centrality(net, 30)
    assert scores.converged
    assert scores.alpha > 0
    assert np.all(scores.values >= 1.0)  # x = 1 + alpha * A x with A, x >= 0


def test_katz_max_iter_reports_not_converged():
    # a 12-node path: the all-ones right-hand side spans 6 eigen-directions,
    # so CG needs more than 2 steps
    net = build_network([(i, i + 1, 0) for i in range(11)])
    assert katz_centrality(net, 0, alpha=0.45).iterations > 2
    scores = katz_centrality(net, 0, alpha=0.45, max_iter=2)
    assert not scores.converged
    assert scores.iterations == 2


def test_katz_default_alpha_matches_power_estimate_bit_for_bit():
    rng = np.random.default_rng(41)
    for _ in range(10):
        net = build_network(random_edges(rng, 80, 200))
        t = int(rng.integers(5, 31))
        assert katz_centrality(net, t).alpha == katz_alpha_oracle(net.csr_at(t))


def test_katz_beyond_inverse_spectral_radius_diverges():
    rng = np.random.default_rng(43)
    net = build_network(random_edges(rng, 60, 150))
    rho = float(np.linalg.eigvalsh(net.csr_at(30).toarray().astype(float)).max())
    assert katz_centrality(net, 30, alpha=0.98 / rho).converged
    with pytest.raises(DivergedError):
        katz_centrality(net, 30, alpha=1.02 / rho)


def _katz_at_thread_counts(n_players, seed):
    """Week-56 Katz alpha, CG steps and score hash of a generated graph, run
    in a fresh process at 1 and at 2 BLAS threads."""
    probe = (
        "import hashlib\n"
        "from peerfx import SimConfig, gen_network, katz_centrality\n"
        f"net = gen_network(SimConfig(n_players={n_players}, mean_degree=6.0, seed={seed}))\n"
        "s = katz_centrality(net, 56)\n"
        "print(s.alpha.hex(), s.iterations,\n"
        "      hashlib.sha256(s.values.tobytes()).hexdigest())\n")
    src = str(Path(peerfx.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                              text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    return outs


def test_katz_scores_identical_across_thread_counts():
    outs = _katz_at_thread_counts(5000, 3)
    assert outs[0] == outs[1]


def test_katz_default_alpha_identical_across_thread_counts_on_a_long_vector():
    # 20k nodes: long enough that a BLAS norm splits its sum across threads
    outs = _katz_at_thread_counts(20000, 1)
    assert outs[0] == outs[1]


def test_katz_time_slice_uses_only_formed_edges():
    net = build_network([(0, 1, 0), (1, 2, 50)])
    early = katz_centrality(net, 0, alpha=0.2)
    # node 2 is isolated before week 50
    assert early.values[early.players.tolist().index(2)] == pytest.approx(1.0)


def test_tag_peers_top_percentile_with_ties():
    edges = [(i, i + 1, 0) for i in range(99)]
    net = build_network(edges)
    scores = katz_centrality(net, 0, alpha=0.05)
    tags = tag_peers(net, scores, TagConfig(60, kp_percentile=0.99))
    assert tags.key_players.size >= 1
    threshold = np.quantile(scores.values, 0.99)
    expect = net.nodes[scores.values >= threshold]
    assert tags.key_players.tolist() == expect.tolist()
    assert tags.threshold == threshold


def _quantile_cases(rng):
    yield "random", rng.random(1000)
    yield "tied", rng.integers(0, 4, 997).astype(np.float64)
    for n in (1, 2):
        yield f"n={n}", rng.normal(0.0, 1.0, n)
    yield "negative zero", np.array([-0.0, -0.0, 1.0])
    yield "infinite", np.array([-np.inf, 1.0, 2.0, np.inf])
    yield "nan", np.array([3.0, np.nan, 1.0, 2.0])
    yield "subnormal", rng.random(500) * 1e-310
    yield "cauchy", rng.standard_cauchy(2000)
    yield "lognormal", np.exp(rng.normal(0.0, 30.0, 2000))
    for trial in range(300):
        yield f"random n #{trial}", rng.normal(0.0, 1.0, int(rng.integers(1, 200)))


def test_quantile_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(45)
    for name, vals in _quantile_cases(rng):
        for q in (0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0, *rng.random(5)):
            with np.errstate(invalid="ignore"):  # inf - inf in the lerp
                want = np.quantile(vals, q)
                got = _quantile(vals, q)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), (name, q)


def test_public_api_resolves_lazily_to_the_defining_modules():
    import peerfx.fileio
    import peerfx.panel
    import peerfx.settings
    import peerfx.simulate
    for name in peerfx.__all__:
        assert getattr(peerfx, name) is not None, name
    assert set(peerfx.__all__) <= set(dir(peerfx))
    namespace = {}
    exec("from peerfx import *", namespace)
    assert set(peerfx.__all__) <= set(namespace)
    assert peerfx.graph.TagConfig is peerfx.TagConfig is peerfx.settings.TagConfig
    assert peerfx.panel.PanelConfig is peerfx.PanelConfig
    assert peerfx.simulate.SimConfig is peerfx.SimConfig
    assert peerfx.simulate.SimTruth is peerfx.SimTruth
    assert peerfx.panel.PanelDataset is peerfx.PanelDataset is peerfx.fileio.PanelDataset
    with pytest.raises(AttributeError):
        peerfx.no_such_name


def test_tag_peers_old_friend_boundary():
    net = build_network([(1, 2, 8), (2, 3, 9)])
    scores = katz_centrality(net, 56, alpha=0.1)
    tags = tag_peers(net, scores, TagConfig(60, min_age_weeks=52))
    # reference = 56, cutoff = 4: neither edge qualifies
    assert tags.old_friend_pairs.shape[0] == 0
    net2 = build_network([(1, 2, 0), (2, 3, 9)])
    tags2 = tag_peers(net2, katz_centrality(net2, 56, alpha=0.1), TagConfig(60))
    assert tags2.old_friend_pairs.tolist() == [[1, 2]]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_old_friend_pairs_on_demand_equal_the_eager_edge_list(seed):
    # tag_peers used to stack these pairs on every call: each unordered pair
    # once, smaller id first, in (a, b) order, when its earliest week is by
    # the cutoff.  Records repeat pairs, in both orientations, and hold loops.
    rng = np.random.default_rng(seed)
    records = random_edges(rng, 60, 300, max_week=60)
    net = build_network(records, nodes=range(70))
    tags = tag_peers(net, katz_centrality(net, 56), TagConfig(60, min_age_weeks=30))
    adj = adjacency_oracle(records)
    want = sorted((i, j) for i, row in adj.items() for j, w in row.items()
                  if i < j and w <= tags.old_friend_cutoff)
    got = tags.old_friend_pairs
    assert got.dtype == np.int64 and got.shape == (len(want), 2)
    assert [tuple(p) for p in got.tolist()] == want
    # the count simulate writes to truth.json, read from the CSR weeks
    assert np.count_nonzero(net.formed <= tags.old_friend_cutoff) // 2 == len(want)


def test_old_friend_pairs_need_the_network():
    tags = PeerTags(np.zeros(0, dtype=np.int64), 56, 4, 0.99, float("inf"))
    with pytest.raises(InvalidParameterError, match="no network"):
        tags.old_friend_pairs


def test_tag_peers_traced_memory_at_mean_degree_32():
    # 320,000 records on 20,000 nodes, the dense benchmark's size.  Stacking
    # the old-friend id pairs on every call peaked at 16.5 MiB of traced
    # memory; tags that list them only on request take 0.2 MiB.
    rng = np.random.default_rng(47)
    m = 320_000
    net = build_network((rng.integers(0, 20_000, m), rng.integers(0, 20_000, m),
                         rng.integers(0, 100, m)))
    scores = katz_centrality(net, 56)
    tracemalloc.start()
    try:
        tags = tag_peers(net, scores, TagConfig(60))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tags.key_players.size > 0
    assert peak < 4 * 2**20, f"tag_peers traced peak {peak / 2**20:.1f} MiB"


def test_tag_peers_release_too_early():
    net = build_network([(1, 2, 0)])
    scores = katz_centrality(net, 0, alpha=0.1)
    with pytest.raises(InvalidParameterError, match="release_week must be at least 4, got 3"):
        tag_peers(net, scores, TagConfig(3))


@pytest.mark.parametrize("kwargs, message", [
    (dict(release_week=60, kp_percentile=0.0), "kp_percentile must be in (0, 1), got 0.0"),
    (dict(release_week=60, kp_percentile=1.0), "kp_percentile must be in (0, 1), got 1.0"),
    (dict(release_week=60, kp_percentile=float("nan")), "kp_percentile must be in (0, 1), got nan"),
    (dict(release_week=None), "release_week is required (or set window_start)"),
    (dict(release_week=3), "release_week must be at least 4, got 3"),
    # a negative age would tag edges formed after the reference week as old
    (dict(release_week=60, min_age_weeks=-5), "min_age_weeks must be non-negative, got -5"),
    # the percentile is checked first, then the age, then a missing, then an
    # early release week
    (dict(release_week=None, kp_percentile=1.5), "kp_percentile must be in (0, 1), got 1.5"),
    (dict(release_week=2, kp_percentile=float("nan")), "kp_percentile must be in (0, 1), got nan"),
    (dict(release_week=None, min_age_weeks=-1), "min_age_weeks must be non-negative, got -1"),
], ids=["kp-0", "kp-1", "kp-nan", "release-missing", "release-3", "min-age-negative",
        "kp-before-missing-release", "kp-before-early-release", "age-before-missing-release"])
def test_tag_config_rules_and_their_order(kwargs, message):
    with pytest.raises(InvalidParameterError) as err:
        TagConfig(**kwargs)
    assert str(err.value) == message


def test_tag_config_derived_weeks():
    tc = TagConfig(4)  # the earliest release week: the reference week is 0
    assert (tc.reference_week, tc.old_friend_cutoff) == (0, -52)
    assert TagConfig(4, min_age_weeks=0).old_friend_cutoff == 0
    with pytest.raises(AttributeError):
        tc.release_week = 60  # frozen


def test_tag_peers_quantile_matches_sort_oracle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        net = build_network(random_edges(rng, 40, 90))
        scores = katz_centrality(net, 30)
        pct = float(rng.uniform(0.5, 0.95))
        tags = tag_peers(net, scores, TagConfig(60, kp_percentile=pct))
        vals = np.sort(scores.values)
        thr = np.quantile(vals, pct)  # sort-based quantile
        expect = {int(p) for p, v in zip(net.nodes, scores.values) if v >= thr}
        assert set(tags.key_players.tolist()) == expect


def test_tag_peers_connected_only_flag():
    net = build_network([(0, 1, 0)], nodes=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    scores = katz_centrality(net, 0, alpha=0.1)
    all_nodes = tag_peers(net, scores, TagConfig(60, kp_percentile=0.5))
    connected = tag_peers(net, scores, TagConfig(60, kp_percentile=0.5, connected_only=True))
    # isolated nodes drag the all-nodes quantile down
    assert connected.threshold >= all_nodes.threshold


def test_key_player_set_stable_under_tolerance():
    rng = np.random.default_rng(37)
    for _ in range(5):
        net = build_network(random_edges(rng, 50, 130))
        a = katz_centrality(net, 30, tol=1e-10)
        b = katz_centrality(net, 30, tol=1e-12)
        ka = tag_peers(net, a, TagConfig(60, kp_percentile=0.99)).key_players
        kb = tag_peers(net, b, TagConfig(60, kp_percentile=0.99)).key_players
        assert ka.tolist() == kb.tolist()


def test_build_determinism():
    rng = np.random.default_rng(5)
    edges = random_edges(rng, 30, 70)
    n1, n2 = build_network(edges), build_network(list(edges))
    assert n1.nbr.tolist() == n2.nbr.tolist()
    assert n1.formed.tolist() == n2.formed.tolist()
    assert n1.indptr.tolist() == n2.indptr.tolist()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_build_is_order_free_and_matches_oracle(seed):
    # Both orientations, repeated pairs and tied formation weeks, given in
    # sorted and in shuffled order: the packed pair-key sorts must give one
    # CSR, the oracle's, with every repeat counted as a duplicate.
    rng = np.random.default_rng(seed)
    base = random_edges(rng, 40, 300, max_week=4)
    edges = base + [(b, a, w) for a, b, w in base[::3]] + \
        [(a, b, w + 1) for a, b, w in base[::5]]
    shuffled = [edges[q] for q in rng.permutation(len(edges))]
    nets = [build_network(sorted(edges)), build_network(shuffled),
            build_network(tuple(np.asarray(c) for c in zip(*shuffled)))]
    adj = adjacency_oracle(edges)
    n_pairs = sum(len(v) for v in adj.values()) // 2
    n_loops = sum(a == b for a, b, _ in edges)
    for net in nets:
        for name in ("nodes", "indptr", "nbr", "formed"):
            assert np.array_equal(getattr(net, name), getattr(nets[0], name)), name
        assert net.diagnostics["duplicates"] == len(edges) - n_loops - n_pairs
        assert net.nodes.tolist() == sorted(adj)
        for ix, i in enumerate(net.nodes.tolist()):
            lo, hi = net.indptr[ix], net.indptr[ix + 1]
            got = dict(zip(net.nodes[net.nbr[lo:hi]].tolist(), net.formed[lo:hi].tolist()))
            assert list(got) == sorted(adj[i])
            assert got == adj[i]


def test_build_network_traced_memory_at_mean_degree_32():
    # 320,000 records on 20,000 nodes, the dense benchmark's size.  A dedupe
    # sort followed by a second CSR sort peaked at ~53 MiB of traced memory;
    # one sort of the symmetric keys peaked at 18.5 MiB, and with the keys
    # sorted in place and no gathered copy of them it peaks at 15.7 MiB.
    rng = np.random.default_rng(43)
    m = 320_000
    cols = (rng.integers(0, 20_000, m), rng.integers(0, 20_000, m),
            rng.integers(0, 100, m))
    tracemalloc.start()
    try:
        net = build_network(cols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.n_edges > 300_000
    assert peak < 17 * 2**20, f"build_network traced peak {peak / 2**20:.1f} MiB"


def test_formation_week_at_never_is_fatal():
    # A microsecond timestamp read as seconds buckets to ~2.8e9 weeks; stored
    # as int32 it wrapped to a negative week, so the edge counted from week 0.
    with pytest.raises(InvalidParameterError, match="3000000000"):
        build_network((np.array([1, 2]), np.array([2, 3]),
                       np.array([3_000_000_000, NEVER])))
    with pytest.raises(InvalidParameterError, match=str(int(NEVER))):
        build_network([(2, 3, int(NEVER))])
    net = build_network([(1, 2, 0), (2, 3, int(NEVER) - 1)])
    assert net.formed.max() == NEVER - 1
    assert net.neighbors_at(3, 10).tolist() == []


STEAM_BASE = 76561197960265728  # 64-bit Steam id of account 0


def test_lookup_matches_dict_oracle():
    # small ids, odd Steam ids above 2**53 (a float64 round-trip would merge
    # neighbours) and the int64 maximum
    known = np.array([0, 3, 7, STEAM_BASE + 1, STEAM_BASE + 3, STEAM_BASE + 5,
                      2**63 - 1], dtype=np.int64)
    queries = np.array([-2**63, -1, 0, 1, 3, 7, 8, STEAM_BASE, STEAM_BASE + 1,
                        STEAM_BASE + 2, STEAM_BASE + 3, STEAM_BASE + 5,
                        STEAM_BASE + 6, 2**63 - 2, 2**63 - 1], dtype=np.int64)
    # full, without the minimum (0 falls below), without the maximum
    # (2**63 - 1 falls above) and empty
    for ids in (known, known[1:], known[:-1], known[:0]):
        oracle = {int(v): i for i, v in enumerate(ids)}
        for q in (queries, queries[::-1], queries[:0]):
            pos, hit = _lookup(ids, q)
            assert pos.shape == hit.shape == q.shape
            assert hit.tolist() == [int(v) in oracle for v in q]
            assert pos[hit].tolist() == [oracle[int(v)] for v in q[hit]]
            assert ((pos >= 0) & (pos < max(ids.size, 1))).all()
            assert _lookup(ids, q.tolist())[1].tolist() == hit.tolist()
