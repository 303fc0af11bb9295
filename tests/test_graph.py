"""Temporal network construction, time-sliced queries, Katz, peer tags."""

import numpy as np
import pytest

from peerfx import (NEVER, DivergedError, InvalidParameterError, NotFoundError,
                    build_network, katz_centrality, tag_peers, week_of_unix)
from peerfx.graph import _lookup, second_degree_counts

from conftest import (adjacency_oracle, katz_dense_oracle, neighbors_oracle,
                      random_edges, second_degree_oracle)


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
    net = build_network([(0, 1, 0), (1, 2, 0)])
    scores = katz_centrality(net, 0, alpha=0.45, max_iter=2)
    assert not scores.converged
    assert scores.iterations == 2


def test_katz_time_slice_uses_only_formed_edges():
    net = build_network([(0, 1, 0), (1, 2, 50)])
    early = katz_centrality(net, 0, alpha=0.2)
    # node 2 is isolated before week 50
    assert early.values[early.players.tolist().index(2)] == pytest.approx(1.0)


def test_tag_peers_top_percentile_with_ties():
    edges = [(i, i + 1, 0) for i in range(99)]
    net = build_network(edges)
    scores = katz_centrality(net, 0, alpha=0.05)
    tags = tag_peers(net, scores, release_week=60, percentile=0.99)
    assert tags.key_players.size >= 1
    threshold = np.quantile(scores.values, 0.99)
    expect = net.nodes[scores.values >= threshold]
    assert tags.key_players.tolist() == expect.tolist()


def test_tag_peers_old_friend_boundary():
    net = build_network([(1, 2, 8), (2, 3, 9)])
    scores = katz_centrality(net, 56, alpha=0.1)
    tags = tag_peers(net, scores, release_week=60, min_age_weeks=52)
    # reference = 56, cutoff = 4: neither edge qualifies
    assert tags.old_friend_pairs.shape[0] == 0
    net2 = build_network([(1, 2, 0), (2, 3, 9)])
    tags2 = tag_peers(net2, katz_centrality(net2, 56, alpha=0.1), 60)
    assert tags2.old_friend_pairs.tolist() == [[1, 2]]


def test_tag_peers_release_too_early():
    net = build_network([(1, 2, 0)])
    scores = katz_centrality(net, 0, alpha=0.1)
    with pytest.raises(InvalidParameterError):
        tag_peers(net, scores, release_week=3)


def test_tag_peers_quantile_matches_sort_oracle():
    rng = np.random.default_rng(31)
    for _ in range(10):
        net = build_network(random_edges(rng, 40, 90))
        scores = katz_centrality(net, 30)
        pct = float(rng.uniform(0.5, 0.95))
        tags = tag_peers(net, scores, 60, percentile=pct)
        vals = np.sort(scores.values)
        thr = np.quantile(vals, pct)  # sort-based quantile
        expect = {int(p) for p, v in zip(net.nodes, scores.values) if v >= thr}
        assert set(tags.key_players.tolist()) == expect


def test_tag_peers_connected_only_flag():
    net = build_network([(0, 1, 0)], nodes=[0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
    scores = katz_centrality(net, 0, alpha=0.1)
    all_nodes = tag_peers(net, scores, 60, percentile=0.5)
    connected = tag_peers(net, scores, 60, percentile=0.5, connected_only=True)
    # isolated nodes drag the all-nodes quantile down
    assert connected.threshold >= all_nodes.threshold


def test_key_player_set_stable_under_tolerance():
    rng = np.random.default_rng(37)
    for _ in range(5):
        net = build_network(random_edges(rng, 50, 130))
        a = katz_centrality(net, 30, tol=1e-10)
        b = katz_centrality(net, 30, tol=1e-12)
        ka = tag_peers(net, a, 60, percentile=0.99).key_players
        kb = tag_peers(net, b, 60, percentile=0.99).key_players
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
