"""Schedule derivation, group sampling, and panel assembly tests.

The randomized panel checks rebuild every cell from the time-sliced
neighbor queries (`TemporalNetwork.neighbors_at` / `.second_degree_at`),
which are tested against BFS separately — an independent route to the same
numbers.
"""

import tracemalloc

import numpy as np
import pytest

from peerfx import (
    NEVER,
    AdoptionSchedule,
    GroupAssignment,
    InsufficientPoolError,
    InvalidParameterError,
    PanelConfig,
    PanelDataset,
    PeerTags,
    SimConfig,
    TagConfig,
    assign_groups,
    build_network,
    build_panel,
    build_playtime_crosssection,
    derive_schedule,
    expected_row_count,
    gen_network,
    katz_centrality,
    tag_peers,
)
from peerfx import fileio
from peerfx import panel as panel_mod
from peerfx.panel import (_first_friend, _fisher_yates_prefix, _Pcg64, _sd_block_rows,
                          _sd_blocks, _sd_pairs)

from conftest import adjacency_oracle, first_friend_oracle, random_edges

WEEK = 604800


def make_tags(key_players=(), old_friend_cutoff=-1, reference_week=0):
    """Hand-built tags without a network: build_panel keys off the cutoff."""
    return PeerTags(np.asarray(sorted(key_players), dtype=np.int64),
                    reference_week, old_friend_cutoff, 0.99, float("inf"))


def make_groups(treatment, control=()):
    return GroupAssignment(np.asarray(sorted(treatment), dtype=np.int64),
                           np.asarray(sorted(control), dtype=np.int64),
                           seed=0, n_requested=len(treatment))


# ---------------------------------------------------------------------------
# derive_schedule


def test_schedule_takes_earliest_event():
    events = [(1, "SMB", 5 * WEEK), (1, "SMB", 3 * WEEK), (1, "SMB", 9 * WEEK)]
    s = derive_schedule(events, "SMB")
    assert s.week_of(1) == 3


def test_schedule_filters_game():
    events = [(1, "SMB", 5 * WEEK), (1, "NV", 2 * WEEK), (2, "NV", 0)]
    s = derive_schedule(events, "SMB")
    assert s.week_of(1) == 5
    assert s.week_of(2) is None


def test_schedule_cutoff_is_inclusive():
    events = [(1, "SMB", 10 * WEEK), (2, "SMB", 11 * WEEK)]
    s = derive_schedule(events, "SMB", cutoff_week=10)
    assert s.week_of(1) == 10
    assert s.week_of(2) is None


def test_schedule_empty_game_warns():
    with pytest.warns(UserWarning, match="no achievement events"):
        s = derive_schedule([(1, "NV", 0)], "SMB")
    assert s.n_players == 0


def test_schedule_epoch_offset():
    s = derive_schedule([(1, "SMB", 1000 + 2 * WEEK)], "SMB", epoch_unix=1000)
    assert s.week_of(1) == 2


def test_schedule_tuple_of_three_events_is_rows():
    # a tuple of lists is rows, also when it holds exactly three
    events = ([1, "SMB", 2 * WEEK], [2, "SMB", 5 * WEEK], [3, "NV", 0])
    for form in (events, tuple(map(tuple, events))):
        assert derive_schedule(form, "SMB").to_dict() == {1: 2, 2: 5}
    columns = (np.array([1, 2, 3]), np.array(["SMB", "SMB", "NV"], dtype=object),
               np.array([2 * WEEK, 5 * WEEK, 0]))
    assert derive_schedule(columns, "SMB").to_dict() == {1: 2, 2: 5}


def test_schedule_group_min_oracle():
    rng = np.random.default_rng(7)
    players = rng.integers(0, 200, 1000)
    unix = rng.integers(0, 50 * WEEK, 1000)
    events = [(int(p), "SMB", int(u)) for p, u in zip(players, unix)]
    want = {}
    for p, _, u in events:
        week = u // WEEK
        if p not in want or week < want[p]:
            want[p] = week
    s = derive_schedule(events, "SMB")
    assert s.to_dict() == want


def test_weeks_for_returns_sentinel():
    s = AdoptionSchedule("SMB", np.array([3, 8], dtype=np.int64),
                         np.array([4, 6], dtype=np.int64))
    got = s.weeks_for([1, 3, 8, 9])
    assert got.tolist() == [NEVER, 4, 6, NEVER]


# ---------------------------------------------------------------------------
# assign_groups


def path_network():
    # 1 - 2 - 3, both edges at week 0
    return build_network([(1, 2, 0), (2, 3, 0)])


def test_group_pools_by_adopting_friend():
    net = path_network()
    sched = AdoptionSchedule("SMB", np.array([1], dtype=np.int64),
                             np.array([5], dtype=np.int64))
    g = assign_groups(net, sched, n_per_group=1, seed=0)
    assert g.treatment.tolist() == [2]       # only player 2 has an adopting friend
    assert g.control.tolist() in ([1], [3])  # drawn from {1, 3}


def test_groups_deterministic_and_disjoint():
    rng = np.random.default_rng(3)
    net = build_network(random_edges(rng, 200, 400))
    buyers = np.unique(rng.integers(0, 200, 40))
    sched = AdoptionSchedule("SMB", buyers,
                             rng.integers(0, 20, buyers.size).astype(np.int64))
    a = assign_groups(net, sched, 15, seed=11)
    b = assign_groups(net, sched, 15, seed=11)
    c = assign_groups(net, sched, 15, seed=12)
    assert a.treatment.tolist() == b.treatment.tolist()
    assert a.control.tolist() == b.control.tolist()
    assert not np.intersect1d(a.treatment, a.control).size
    assert a.treatment.tolist() != c.treatment.tolist() or \
        a.control.tolist() != c.control.tolist()


def numpy_prefix(pool, k, rng):
    """The Fisher-Yates prefix drawn with a ``np.random.Generator``."""
    arr = pool.copy()
    draws = rng.integers(0, arr.size - np.arange(k))
    for i in range(k):
        j = i + int(draws[i])
        arr[i], arr[j] = arr[j], arr[i]
    return np.sort(arr[:k])


def test_group_sampling_matches_shuffle_prefix():
    # reference route: Fisher-Yates prefix replayed on independently
    # computed pools with the same generator (treatment drawn first)
    edges = [(2, p, 0) for p in range(10, 40)] + \
        [(100, q, 0) for q in range(101, 141)]
    net = build_network(edges)
    sched = AdoptionSchedule("SMB", np.array([2], dtype=np.int64),
                             np.array([5], dtype=np.int64))
    adopters = {2}
    treat_pool, control_pool = [], []
    for p in net.nodes.tolist():
        friends = set(net.neighbors_at(p, 10**9).tolist())
        (treat_pool if friends & adopters else control_pool).append(p)
    treat_pool = np.asarray(sorted(treat_pool), dtype=np.int64)
    control_pool = np.asarray(sorted(control_pool), dtype=np.int64)
    assert treat_pool.size == 30 and control_pool.size == 42

    k, seed = 5, 123
    rng = np.random.default_rng(seed)
    want_treat = numpy_prefix(treat_pool, k, rng)
    want_control = numpy_prefix(control_pool, k, rng)
    got = assign_groups(net, sched, k, seed=seed)
    assert got.treatment.tolist() == want_treat.tolist()
    assert got.control.tolist() == want_control.tolist()


class _CountingPcg64(_Pcg64):
    """The stream, counting the 32-bit words it takes."""

    calls = 0

    def _next32(self):
        self.calls += 1
        return super()._next32()


# 2**130 has five 32-bit words, one more than SeedSequence's pool
DRAW_SEEDS = [0, 1, 2**32, 2**64 + 1, 2**130]


@pytest.mark.parametrize("seed", DRAW_SEEDS)
def test_draws_equal_default_rng_bit_for_bit(seed):
    # bounds 0, 1, 2, 2**31 and 2**32 - 2 (``integers`` excludes ``high``);
    # the bound 2**31 rejects about half of its 32-bit words
    highs = np.array([1, 2, 3, 2**31 + 1, 2**32 - 1] * 4 + [2**31 + 1] * 40)
    rng, want = _CountingPcg64(seed), np.random.default_rng(seed)
    got = [rng.below(h) for h in highs.tolist()]
    assert got == want.integers(0, highs).tolist()
    assert rng.calls > np.count_nonzero(highs > 1)  # the rejection loop ran
    # a second array from the same state, after the buffered half (if any)
    highs = 4_000_000_000 - np.arange(50)
    assert [rng.below(h) for h in highs.tolist()] == want.integers(0, highs).tolist()


@pytest.mark.parametrize("k", [0, 1, 2, 3, 7])
def test_two_prefixes_share_one_stream_and_its_buffered_half(k):
    # a bound of at most 1000 rejects a word with odds below 2**-22, so these
    # seeds take one word per draw, except for the last place of a whole-pool
    # shuffle (k = 7), whose one value numpy draws no word for; an odd count
    # leaves the high half buffered for the second prefix
    pool, other = np.arange(100, 107), np.arange(500, 1500)
    words = min(k, pool.size - 1)
    for seed in DRAW_SEEDS:
        rng, want = _CountingPcg64(seed), np.random.default_rng(seed)
        first = _fisher_yates_prefix(pool, k, rng)
        assert (rng.calls, rng._high is not None) == (words, words % 2 == 1)
        second = _fisher_yates_prefix(other, 30, rng)
        assert first.tolist() == numpy_prefix(pool, k, want).tolist()
        assert second.tolist() == numpy_prefix(other, 30, want).tolist()


def test_draw_bound_and_seed_outside_the_port_are_rejected():
    with pytest.raises(InvalidParameterError, match="above"):
        _Pcg64(0).below(2**32)
    net = build_network([(1, 2, 0), (2, 3, 0)])
    sched = AdoptionSchedule("SMB", np.array([1], dtype=np.int64),
                             np.array([5], dtype=np.int64))
    with pytest.raises(InvalidParameterError, match="seed must be non-negative, got -1"):
        assign_groups(net, sched, n_per_group=1, seed=-1)


def test_groups_insufficient_pool():
    net = path_network()
    sched = AdoptionSchedule("SMB", np.array([1], dtype=np.int64),
                             np.array([5], dtype=np.int64))
    with pytest.raises(InsufficientPoolError):
        assign_groups(net, sched, n_per_group=3, seed=0)


def test_groups_horizon_drop():
    net = path_network()
    sched = AdoptionSchedule("SMB", np.array([1], dtype=np.int64),
                             np.array([50], dtype=np.int64))
    g = assign_groups(net, sched, 1, seed=0, horizon_week=40)
    assert g.treatment.size == 0
    assert g.n_dropped_treatment == 1
    g2 = assign_groups(net, sched, 1, seed=0, horizon_week=50)
    assert g2.treatment.tolist() == [2]
    assert g2.n_dropped_treatment == 0


# ---------------------------------------------------------------------------
# build_panel: hand cases


def test_panel_second_degree_path_case():
    # i=1 - j=2 - k=3; k buys week 10, j buys week 11; row (1, t=11) sees
    # the friend purchase contemporaneously and the second-degree purchase
    # through the lag
    net = path_network()
    sched = AdoptionSchedule("SMB", np.array([2, 3], dtype=np.int64),
                             np.array([11, 10], dtype=np.int64))
    panel = build_panel(net, sched, make_tags(), make_groups([1]), (10, 13))
    rows = {int(w): q for q, w in enumerate(panel.week)}
    assert panel.column("x_friend")[rows[11]] == 1.0
    assert panel.column("z_sd_lag")[rows[11]] == 1.0
    # absorbing: both stay on through the window end
    assert panel.column("x_friend")[rows[13]] == 1.0
    assert panel.column("z_sd_lag")[rows[13]] == 1.0
    # player 1 itself never buys
    assert not panel.column("y").any()


def test_panel_instrument_uses_only_lagged_data():
    # k's purchase lands at week t*: z at t* must be blind to it, z at t*+1
    # must see it — mutating the current week's data never moves the lag
    net = path_network()
    t_star = 11
    with_k = AdoptionSchedule("SMB", np.array([3], dtype=np.int64),
                              np.array([t_star], dtype=np.int64))
    without = AdoptionSchedule("SMB", np.zeros(0, dtype=np.int64),
                               np.zeros(0, dtype=np.int64))
    pa = build_panel(net, with_k, make_tags(), make_groups([1]), (10, 13))
    pb = build_panel(net, without, make_tags(), make_groups([1]), (10, 13))
    za, zb = pa.column("z_sd_lag"), pb.column("z_sd_lag")
    at = {int(w): q for q, w in enumerate(pa.week)}
    assert za[at[t_star]] == zb[at[t_star]] == 0.0
    assert za[at[t_star + 1]] == 1.0
    assert zb[at[t_star + 1]] == 0.0


def test_panel_balance_and_layout():
    net = path_network()
    sched = AdoptionSchedule("SMB", np.array([3], dtype=np.int64),
                             np.array([10], dtype=np.int64))
    panel = build_panel(net, sched, make_tags(), make_groups([1], [2]), (8, 12))
    assert panel.n_rows == expected_row_count(2, (8, 12)) == 8
    assert panel.player.tolist() == [1, 1, 1, 1, 2, 2, 2, 2]
    assert panel.week.tolist() == [9, 10, 11, 12] * 2
    assert panel.meta["n_rows_balanced"] == 8


def test_panel_meta_records_the_tag_rule_and_the_sample(tmp_path):
    net = path_network()
    sched = AdoptionSchedule("SMB", np.array([3], dtype=np.int64),
                             np.array([10], dtype=np.int64))
    groups = make_groups([1], [2])
    groups.n_dropped_treatment = 2
    panel = build_panel(net, sched, make_tags(key_players=[3], old_friend_cutoff=5),
                        groups, (8, 12))
    want = {"reference_week": 0, "old_friend_cutoff": 5, "kp_percentile": 0.99,
            "kp_threshold": None, "n_key_players": 1, "n_dropped_treatment": 2}
    assert {k: panel.meta[k] for k in want} == want
    # an infinite threshold is written as JSON null, never as Infinity
    fileio.write_panel_csv(tmp_path / "panel.csv", panel)
    text = (tmp_path / "panel.csv.meta.json").read_text()
    assert '"kp_threshold": null' in text and "Infinity" not in text
    tags = make_tags(key_players=[3])
    tags.threshold = 0.25
    assert build_panel(net, sched, tags, groups, (8, 12)).meta["kp_threshold"] == 0.25


def test_panel_window_must_have_post_lag_weeks():
    net = path_network()
    sched = AdoptionSchedule("SMB", np.zeros(0, dtype=np.int64),
                             np.zeros(0, dtype=np.int64))
    with pytest.raises(InvalidParameterError):
        build_panel(net, sched, make_tags(), make_groups([1]), (5, 5))
    with pytest.raises(InvalidParameterError):
        expected_row_count(10, (5, 5))


def test_panel_warns_when_tags_inside_window():
    net = path_network()
    sched = AdoptionSchedule("SMB", np.zeros(0, dtype=np.int64),
                             np.zeros(0, dtype=np.int64))
    with pytest.warns(UserWarning, match="reference_week"):
        build_panel(net, sched, make_tags(reference_week=9),
                    make_groups([1]), (8, 12))


def test_panel_censoring_keeps_purchase_week_row():
    net = path_network()
    sched = AdoptionSchedule("SMB", np.array([1, 3], dtype=np.int64),
                             np.array([10, 9], dtype=np.int64))
    cfg = PanelConfig(censor_after_purchase=True)
    panel = build_panel(net, sched, make_tags(), make_groups([1], [2]),
                        (8, 12), cfg)
    w1 = panel.week[panel.player == 1]
    assert w1.tolist() == [9, 10]  # censored after own purchase at 10
    assert panel.week[panel.player == 2].tolist() == [9, 10, 11, 12]
    y1 = panel.column("y")[panel.player == 1]
    assert y1.tolist() == [0.0, 1.0]
    assert panel.meta["n_rows"] == 6 and panel.meta["n_rows_balanced"] == 8


def test_panel_event_mode_single_spike():
    net = path_network()
    sched = AdoptionSchedule("SMB", np.array([1], dtype=np.int64),
                             np.array([10], dtype=np.int64))
    cfg = PanelConfig(outcome_mode="event")
    panel = build_panel(net, sched, make_tags(), make_groups([1]), (8, 12), cfg)
    assert panel.column("y").tolist() == [0.0, 1.0, 0.0, 0.0]


def test_panel_pre_window_purchase_absorbs_from_start():
    net = path_network()
    sched = AdoptionSchedule("SMB", np.array([1], dtype=np.int64),
                             np.array([3], dtype=np.int64))
    panel = build_panel(net, sched, make_tags(), make_groups([1]), (8, 12))
    assert panel.column("y").tolist() == [1.0, 1.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# build_panel: randomized oracle

CASES = [
    PanelConfig(),
    PanelConfig(outcome_mode="event"),
    PanelConfig(aggregation="sum"),
    PanelConfig(aggregation="mean"),
]


def oracle_cell(net, purchases, formed, tags, i, t, cfg):
    """Recompute one panel row straight from the column definitions."""
    absorbing = cfg.outcome_mode == "absorbing"
    p_i = purchases.get(i)
    y = float(p_i is not None and (p_i <= t if absorbing else p_i == t))

    friends = net.neighbors_at(i, t).tolist()

    def agg(contrib, denom):
        if cfg.aggregation == "any":
            return float(any(contrib))
        if cfg.aggregation == "sum":
            return float(sum(contrib))
        return float(sum(contrib) / denom) if denom else 0.0

    def friend_hit(j):
        p = purchases.get(j)
        if p is None:
            return False
        return p <= t if absorbing else (p == t and formed[(min(i, j), max(i, j))] <= t)

    def x_over(js):
        return agg([friend_hit(j) for j in js], len(js))

    x_friend = x_over(friends)
    x_kp = x_over([j for j in friends if tags.is_key_player(j)])
    x_of = x_over([j for j in friends
                   if formed[(min(i, j), max(i, j))] <= tags.old_friend_cutoff])

    u = t - 1
    friends_u = set(net.neighbors_at(i, u).tolist())

    def sd_through(middle_ok):
        ks = set()
        for j in friends_u:
            if not middle_ok(j):
                continue
            for k in net.neighbors_at(j, u).tolist():
                if k != i and k not in friends_u:
                    ks.add(k)
        return sorted(ks)

    def z_over(ks):
        hits = []
        for k in ks:
            p = purchases.get(k)
            hits.append(p is not None and (p <= u if absorbing else p == u))
        return agg(hits, len(ks))

    z_sd = z_over(sd_through(lambda j: True))
    z_kp = z_over(sd_through(tags.is_key_player))
    z_of = z_over(sd_through(
        lambda j: formed[(min(i, j), max(i, j))] <= tags.old_friend_cutoff))
    return (y, x_friend, x_kp, x_of, z_sd, z_kp, z_of)


@pytest.mark.parametrize("cfg", CASES, ids=["absorbing-any", "event-any",
                                            "sum", "mean"])
def test_panel_matches_neighbor_query_oracle(cfg, monkeypatch):
    # a 37-path budget cuts the ten sampled players into several path blocks
    monkeypatch.setattr(panel_mod, "_SD_PATH_BUDGET", 37)
    rng = np.random.default_rng(42)
    for _ in range(6):
        n = 30
        edges = random_edges(rng, n, 70, max_week=30)
        net = build_network(edges)
        adj = adjacency_oracle(edges)
        formed = {(min(a, b), max(a, b)): w
                  for a, nbrs in adj.items() for b, w in nbrs.items()}
        buyers = np.unique(rng.integers(0, n, 12))
        sched = AdoptionSchedule(
            "SMB", buyers, rng.integers(0, 45, buyers.size).astype(np.int64))
        purchases = sched.to_dict()
        scores = katz_centrality(net, t=26)
        tags = tag_peers(net, scores, TagConfig(30, kp_percentile=0.8, min_age_weeks=20))
        inhabited = [p for p in range(n) if p in adj]
        sample = rng.choice(inhabited, size=10, replace=False)
        groups = make_groups(sample[:6], sample[6:])
        panel = build_panel(net, sched, tags, groups, (27, 34), cfg)

        names = ("y", "x_friend", "x_kp", "x_of", "z_sd_lag", "z_kp_lag",
                 "z_of_lag")
        cols = {m: panel.column(m) for m in names}
        for q in range(panel.n_rows):
            want = oracle_cell(net, purchases, formed, tags,
                               int(panel.player[q]), int(panel.week[q]), cfg)
            got = tuple(float(cols[m][q]) for m in names)
            assert got == pytest.approx(want, abs=1e-12), (
                f"row {q}: player {panel.player[q]} week {panel.week[q]}")


def test_panel_restricted_columns_nest():
    rng = np.random.default_rng(5)
    edges = random_edges(rng, 40, 120, max_week=30)
    net = build_network(edges)
    buyers = np.unique(rng.integers(0, 40, 18))
    sched = AdoptionSchedule(
        "SMB", buyers, rng.integers(0, 40, buyers.size).astype(np.int64))
    tags = tag_peers(net, katz_centrality(net, 26),
                     TagConfig(30, kp_percentile=0.7, min_age_weeks=15))
    inhabited = np.intersect1d(net.nodes, np.arange(40))
    groups = make_groups(inhabited[:10], inhabited[10:20])
    panel = build_panel(net, sched, tags, groups, (27, 35),
                        PanelConfig(aggregation="sum"))
    assert np.all(panel.column("x_kp") <= panel.column("x_friend"))
    assert np.all(panel.column("x_of") <= panel.column("x_friend"))
    assert np.all(panel.column("z_kp_lag") <= panel.column("z_sd_lag"))
    assert np.all(panel.column("z_of_lag") <= panel.column("z_sd_lag"))


def test_panel_absorbing_columns_monotone_per_player():
    rng = np.random.default_rng(9)
    edges = random_edges(rng, 40, 100, max_week=10)
    net = build_network(edges)
    buyers = np.unique(rng.integers(0, 40, 15))
    sched = AdoptionSchedule(
        "SMB", buyers, rng.integers(0, 30, buyers.size).astype(np.int64))
    tags = make_tags(old_friend_cutoff=5)
    groups = make_groups(net.nodes[:8].tolist())
    panel = build_panel(net, sched, tags, groups, (12, 20))
    W = 8
    for name in ("y", "x_friend"):  # friend columns never un-fire
        grid = panel.column(name).reshape(-1, W)
        assert np.all(np.diff(grid, axis=1) >= 0), name


def test_panel_control_rows_never_treated():
    net = path_network()
    sched = AdoptionSchedule("SMB", np.array([1], dtype=np.int64),
                             np.array([5], dtype=np.int64))
    g = assign_groups(net, sched, 1, seed=4)
    panel = build_panel(net, sched, make_tags(), g, (8, 12))
    ctrl = np.isin(panel.player, g.control)
    assert not panel.column("x_friend")[ctrl].any()


def test_panel_determinism(monkeypatch):
    rng = np.random.default_rng(8)
    edges = random_edges(rng, 50, 150)
    net = build_network(edges)
    buyers = np.unique(rng.integers(0, 50, 20))
    sched = AdoptionSchedule(
        "SMB", buyers, rng.integers(0, 40, buyers.size).astype(np.int64))
    tags = make_tags(old_friend_cutoff=3)
    groups = make_groups(net.nodes[:10].tolist(), net.nodes[10:20].tolist())
    a = build_panel(net, sched, tags, groups, (25, 33))
    # a one-path budget gives every player with a two-hop path its own block
    monkeypatch.setattr(panel_mod, "_SD_PATH_BUDGET", 1)
    b = build_panel(net, sched, tags, groups, (25, 33))
    for name in a.columns:
        assert np.array_equal(a.columns[name], b.columns[name]), name


@pytest.mark.parametrize("censor", [False, True], ids=["balanced", "censored"])
@pytest.mark.parametrize("outcome", ["absorbing", "event"])
@pytest.mark.parametrize("aggregation, dtype", [("any", np.int8), ("sum", np.int32),
                                                ("mean", np.float64)])
def test_panel_columns_keep_the_narrowest_exact_dtype(aggregation, dtype, outcome,
                                                      censor, tmp_path):
    # y and "any" columns are int8 0/1, "sum" columns the int32 counts and
    # "mean" columns float64; panel.csv reads the same as from float64 columns
    rng = np.random.default_rng(12)
    edges = random_edges(rng, 40, 160, max_week=30)
    net = build_network(edges)
    buyers = np.unique(rng.integers(0, 40, 24))
    sched = AdoptionSchedule(
        "SMB", buyers, rng.integers(20, 40, buyers.size).astype(np.int64))
    tags = tag_peers(net, katz_centrality(net, 26),
                     TagConfig(30, kp_percentile=0.7, min_age_weeks=15))
    inhabited = np.intersect1d(net.nodes, np.arange(40))
    groups = make_groups(inhabited[:12], inhabited[12:24])
    cfg = PanelConfig(outcome_mode=outcome, aggregation=aggregation,
                      censor_after_purchase=censor)
    panel = build_panel(net, sched, tags, groups, (27, 38), cfg)
    assert panel.column("y").dtype == np.int8 and panel.column("y").any()
    for name in fileio.PANEL_COLUMNS[1:]:
        col = panel.column(name)
        assert col.dtype == dtype and col.flags.c_contiguous, name
        assert col.size == panel.n_rows, name
    x = panel.column("x_friend")
    if aggregation == "mean":
        assert (x != np.round(x)).any()  # fractions print as floats
    else:
        assert x.max() > 1 if aggregation == "sum" else x.max() == 1
    wide = PanelDataset(panel.player, panel.week,
                        {n: c.astype(np.float64) for n, c in panel.columns.items()},
                        panel.meta)
    fileio.write_panel_csv(tmp_path / "narrow.csv", panel)
    fileio.write_panel_csv(tmp_path / "wide.csv", wide)
    assert (tmp_path / "narrow.csv").read_bytes() == (tmp_path / "wide.csv").read_bytes()


# one (i, k) pair reached three ways: 1-2-5 through plain middle 2 from
# week 2, 1-3-5 through key player 3 from week 5, 1-4-5 over the old-friend
# edge 1-4 (formed by the cutoff, week 1) from week 8; 1-5 forms at week 10
VARIANT_EDGES = [(1, 2, 2), (2, 5, 2), (1, 3, 5), (3, 5, 3), (1, 4, 0),
                 (4, 5, 8), (1, 5, 10)]


def weeks_on(*weeks):
    """0/1 column over the row weeks 2..12 of window (1, 12)."""
    return [float(t in weeks) for t in range(2, 13)]


@pytest.mark.parametrize("mode, bought, want", [
    # absorbing: counted at row t while max(w2, p) <= t-1 < 10
    ("absorbing", 1, (weeks_on(*range(3, 11)), weeks_on(*range(6, 11)),
                      weeks_on(9, 10))),
    # event: counted at row p+1 when the variant's w2 <= p < 10
    ("event", 3, (weeks_on(4), weeks_on(), weeks_on())),
    ("event", 6, (weeks_on(7), weeks_on(7), weeks_on())),
    ("event", 9, (weeks_on(10), weeks_on(10), weeks_on(10))),
], ids=["absorbing", "event-sd-only", "event-sd-kp", "event-all"])
def test_instrument_variants_take_their_own_earliest_path(mode, bought, want):
    # Each variant's earliest path differs, so a pick that takes the pair's
    # earliest path and then checks its flag, or any mix-up between the
    # variants' picks, changes a column here.
    net = build_network(VARIANT_EDGES)
    sched = AdoptionSchedule("SMB", np.array([5], dtype=np.int64),
                             np.array([bought], dtype=np.int64))
    tags = make_tags(key_players=[3], old_friend_cutoff=1)
    panel = build_panel(net, sched, tags, make_groups([1]), (1, 12),
                        PanelConfig(outcome_mode=mode))
    got = tuple(panel.column(m).tolist() for m in ("z_sd_lag", "z_kp_lag", "z_of_lag"))
    assert got == want


def sd_pairs_oracle(net, sample_idx, keep):
    """{(row, k): (w2, f_direct)} from a per-path scan of the adjacency."""
    found, direct = {}, {}
    for r, i in enumerate(sample_idx.tolist()):
        for q in range(net.indptr[i], net.indptr[i + 1]):
            j, f1 = int(net.nbr[q]), int(net.formed[q])
            direct[(r, j)] = f1
            if not keep(i, j, f1):
                continue
            for s in range(net.indptr[j], net.indptr[j + 1]):
                k, w2 = int(net.nbr[s]), max(f1, int(net.formed[s]))
                if k != i and w2 < found.get((r, k), NEVER):
                    found[(r, k)] = w2
    return {rk: (w2, direct.get(rk, int(NEVER))) for rk, w2 in found.items()}


def run_sd_pairs(net, sample_idx, masks):
    """Per mask, the (row, k, w2, f_direct) lists joined over all blocks."""
    rows, pos = net.entries(sample_idx)
    j, f = net.nbr[pos], net.formed[pos]
    masks = [m if m is None else m(j, f) for m in masks]
    out = [([], [], [], []) for _ in masks]
    for v, *arrays in _sd_pairs(net, rows, j, f, sample_idx, masks):
        for joined, a in zip(out[v], arrays):
            joined.extend(a.tolist())
    return out


def test_sd_pairs_one_pass_matches_path_scan_in_any_chunking(monkeypatch):
    # A one-path budget gives every row its own block and 37 paths gives a
    # few rows each; the blocks come in row order, so the pairs must not change.
    rng = np.random.default_rng(17)
    net = build_network(random_edges(rng, 60, 300, max_week=40))
    kp = np.zeros(net.n_nodes, dtype=bool)
    kp[rng.choice(net.n_nodes, 12, replace=False)] = True
    sample_idx = np.sort(rng.choice(net.n_nodes, 15, replace=False))
    masks = (None, lambda j, f: kp[j], lambda j, f: f <= 15)
    default = run_sd_pairs(net, sample_idx, masks)
    for budget in (1, 37):
        monkeypatch.setattr(panel_mod, "_SD_PATH_BUDGET", budget)
        assert run_sd_pairs(net, sample_idx, masks) == default, budget
    keeps = (lambda i, j, f: True, lambda i, j, f: kp[j], lambda i, j, f: f <= 15)
    for (row, k, w2, fdir), keep in zip(default, keeps):
        want = sd_pairs_oracle(net, sample_idx, keep)
        assert list(zip(row, k)) == sorted(want)
        assert list(zip(w2, fdir)) == [want[rk] for rk in sorted(want)]


def test_sd_pairs_empty_block_and_unset_flag():
    net = build_network([(1, 2, 0), (2, 3, 4), (3, 4, 1)], nodes=[1, 2, 3, 4, 9])
    empty = [([], [], [], [])] * 3
    no_kp = (None, lambda j, f: np.zeros(j.size, dtype=bool), lambda j, f: f <= 0)
    # a block whose only row has no level-1 edge
    assert run_sd_pairs(net, net.indices_of([9]), no_kp) == empty
    # no key players: that variant is empty while the others are not
    got = run_sd_pairs(net, net.indices_of([1, 9]), no_kp)
    assert got[1] == ([], [], [], [])
    assert got[0] == got[2] == ([0], [2], [4], [int(NEVER)])


def test_sd_pairs_block_whose_paths_all_return_to_their_start(monkeypatch):
    # 5-6 is a pair of degree-1 nodes: every two-hop path from either goes
    # back to where it started, so its block has no (row, k) pair at all
    net = build_network([(1, 2, 0), (2, 3, 4), (3, 4, 1), (5, 6, 2)])
    masks = (None, lambda j, f: np.ones(j.size, dtype=bool), lambda j, f: f <= 3)
    empty = [([], [], [], [])] * 3
    assert run_sd_pairs(net, net.indices_of([5]), masks) == empty
    assert run_sd_pairs(net, net.indices_of([5, 6]), masks) == empty
    # one row per block: the empty blocks between others change nothing
    sample_idx = net.indices_of([1, 5, 6, 4])
    default = run_sd_pairs(net, sample_idx, masks)
    monkeypatch.setattr(panel_mod, "_SD_PATH_BUDGET", 1)
    assert run_sd_pairs(net, sample_idx, masks) == default
    keeps = (lambda i, j, f: True, lambda i, j, f: True, lambda i, j, f: f <= 3)
    for (row, k, w2, fdir), keep in zip(default, keeps):
        want = sd_pairs_oracle(net, sample_idx, keep)
        assert list(zip(row, k)) == sorted(want)
        assert list(zip(w2, fdir)) == [want[rk] for rk in sorted(want)]
    assert default[0][:2] == ([0, 3], [2, 1])  # 1 -> 3 and 4 -> 2


def add_at_oracle(W, cells, kind):
    """The diff or point grid by one Python loop over ``(row, start, end)`` or
    ``(row, col)`` cells."""
    grid = np.zeros((max((c[0] for c in cells), default=0) + 2, W), dtype=np.int32)
    for cell in cells:
        if kind == "interval":
            r, start, end = cell
            lo = max(start, 0)
            if lo < min(end, W):
                grid[r, lo] += 1
                if end < W:
                    grid[r, end] -= 1
        elif 0 <= cell[1] < W:
            grid[cell[0], cell[1]] += 1
    return grid


@pytest.mark.parametrize("n", [0, 1, 5, 2000])
def test_interval_and_point_add_match_a_loop(n):
    # starts below 0, ends at and past W, empty spells, repeated cells and
    # rows in any order, onto a grid that already holds counts
    rng = np.random.default_rng(47 + n)
    W = 12
    rows = rng.integers(0, 40, n)
    start = rng.integers(-5, W + 3, n)
    end = start + rng.integers(-2, W + 4, n)
    end[::7] = NEVER
    for kind in ("interval", "point"):
        cells = (list(zip(rows.tolist(), start.tolist(), end.tolist())) if kind == "interval"
                 else list(zip(rows.tolist(), start.tolist())))
        want = add_at_oracle(W, cells, kind)
        base = rng.integers(-3, 4, want.shape).astype(np.int32)
        grid = base.copy()
        if kind == "interval":
            panel_mod._interval_add(grid, rows, start, end, W)
        else:
            panel_mod._point_add(grid, rows, start, W)
        assert grid.dtype == np.int32
        assert np.array_equal(grid - base, want), kind


def test_sd_key_budget_at_steam_scale():
    # Checked on the rule alone: a 1.1e8-node network is never allocated.
    n = 110_000_000

    def widest_key(rows, max_week):
        return (((rows * n - 1) << max_week.bit_length() | max_week) << 3) | 7

    rows = _sd_block_rows(n, 2_900)
    assert rows >= 4096
    assert widest_key(rows, 2_900) < 2**63 <= widest_key(rows + 1, 2_900)
    rows = _sd_block_rows(n, 2**31 - 2)
    assert rows == 4
    assert widest_key(rows, 2**31 - 2) < 2**63 <= widest_key(rows + 1, 2**31 - 2)
    with pytest.raises(InvalidParameterError, match="63-bit"):
        _sd_block_rows(2**30, 2**31 - 2)


def test_sd_row_over_path_budget_is_a_block_of_its_own(monkeypatch):
    monkeypatch.setattr(panel_mod, "_SD_PATH_BUDGET", 10)
    paths = np.array([3, 4, 25, 2, 8, 0, 11, 1])
    assert list(_sd_blocks(paths, cap=100)) == [(0, 2), (2, 3), (3, 6), (6, 7), (7, 8)]
    # the 63-bit row cap splits a block that the budget would allow
    assert list(_sd_blocks(paths, cap=2)) == [(0, 2), (2, 3), (3, 5), (5, 6), (6, 7),
                                               (7, 8)]


@pytest.mark.parametrize("budget", [1, 37, 500, 500_000, 8_000_000])
def test_sd_multi_row_blocks_stay_within_path_budget(budget, monkeypatch):
    monkeypatch.setattr(panel_mod, "_SD_PATH_BUDGET", budget)
    rng = np.random.default_rng(23)
    net = build_network(random_edges(rng, 80, 400, max_week=20))
    sample_idx = np.sort(rng.choice(net.n_nodes, 40, replace=False))
    paths = net.friend_sum(net.degrees())[sample_idx].astype(np.int64)
    # the count is the expansion's size: one path per friend-of-friend entry
    for i, count in zip(sample_idx, paths):
        assert net.entries(net.nbr[net.indptr[i]:net.indptr[i + 1]])[0].size == count
    blocks = list(_sd_blocks(paths, cap=6))
    assert [b[0] for b in blocks] == [0] + [b[1] for b in blocks[:-1]]
    assert blocks[-1][1] == paths.size
    for start, stop in blocks:
        assert 1 <= stop - start <= 6
        if stop - start > 1:
            assert paths[start:stop].sum() <= budget
        # blocks are greedy: the next row would break the budget or the cap
        if stop < paths.size and stop - start < 6:
            assert paths[start:stop + 1].sum() > budget


def test_build_panel_memory_is_bounded_at_mean_degree_32():
    # the dense benchmark's network (20k players at mean degree 32) and 3,000
    # sampled players with ~3.2M two-hop paths.  Under one 8M-path block build_panel
    # peaked at ~240 MiB of traced allocations, under 500k-path blocks at
    # ~41 MiB and under 250k-path blocks at 23.7 MiB; 125k-path blocks keep
    # 15.1 MiB.
    net = gen_network(SimConfig(n_players=20000, mean_degree=32.0, seed=1))
    rng = np.random.default_rng(1)
    buyers = np.sort(rng.choice(net.nodes, 2000, replace=False))
    sched = AdoptionSchedule("SMB", buyers, rng.integers(40, 100, buyers.size))
    tags = tag_peers(net, katz_centrality(net, 56), TagConfig(60))
    sample = rng.choice(net.nodes, 3000, replace=False)
    groups = make_groups(sample[:1500], sample[1500:])
    paths = net.friend_sum(net.degrees())[net.indices_of(groups.all_players())]
    assert paths.sum() > 5 * panel_mod._SD_PATH_BUDGET
    tracemalloc.start()
    try:
        panel = build_panel(net, sched, tags, groups, (60, 99))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert panel.n_rows == 3000 * 39
    assert peak < 20 * 2**20, f"build_panel traced peak {peak / 2**20:.1f} MiB"


def test_assign_groups_traced_memory_at_mean_degree_32():
    # the dense benchmark's network.  Two friend_sum passes, each with an
    # int64 row index and float64 weights per adjacency entry, peaked at
    # 11.1 MiB of traced memory; marking the flagged rows' neighbours, one
    # bool per entry, peaks at 1.3 MiB.
    net = gen_network(SimConfig(n_players=20000, mean_degree=32.0, seed=1))
    rng = np.random.default_rng(1)
    buyers = np.sort(rng.choice(net.nodes, 300, replace=False))
    sched = AdoptionSchedule("SMB", buyers, rng.integers(40, 100, buyers.size))
    tracemalloc.start()
    try:
        groups = assign_groups(net, sched, 1500, seed=1, horizon_week=70)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert groups.control.size == 1500 and groups.n_dropped_treatment > 0
    assert peak < 5 * 2**20, f"assign_groups traced peak {peak / 2**20:.1f} MiB"


def test_build_panel_memory_is_bounded_at_the_x2_shape():
    # the x2 benchmark's shape: 40k players at mean degree 2.15, 6,000 sampled
    # players over a 40-week window, censored after purchase (~154k rows).
    # The finished float64 columns set the peak here, not the path blocks.
    # Holding all six int32 count grids and the censor limit until the last
    # column was made read 21.0 MiB; popping each grid as its column is made
    # reads 13.8 MiB.
    net = gen_network(SimConfig(n_players=40000, seed=1))
    rng = np.random.default_rng(1)
    buyers = np.sort(rng.choice(net.nodes, 20000, replace=False))
    sched = AdoptionSchedule("SMB", buyers, rng.integers(40, 100, buyers.size))
    tags = tag_peers(net, katz_centrality(net, 56), TagConfig(60))
    sample = np.sort(rng.choice(net.nodes[net.degrees() > 0], 6000, replace=False))
    groups = make_groups(sample[:3000], sample[3000:])
    tracemalloc.start()
    try:
        panel = build_panel(net, sched, tags, groups, (60, 99),
                            PanelConfig(censor_after_purchase=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert panel.n_rows > 150_000
    assert peak < 17 * 2**20, f"build_panel traced peak {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# playtime cross-section


def cov_for(players):
    players = np.asarray(sorted(players), dtype=np.int64)
    return {"player": players,
            "num_games": np.full(players.size, 10.0),
            "num_groups": np.full(players.size, 2.0),
            "start_week": np.zeros(players.size)}


def first_friend_ids(net, weeks, players):
    """``_first_friend`` as player ids (-1 for none) for a {player: week} map."""
    p_all = np.array([weeks.get(p, NEVER) for p in net.nodes.tolist()], dtype=np.int64)
    friend, _ = _first_friend(net, p_all, net.indices_of(players))
    return np.where(friend >= 0, net.nodes[friend], -1).tolist()


def test_first_purchasing_friend_rules():
    # 1-2 (week 0), 1-3 (week 0), 1-4 (week 6): 1 buys week 5
    edges = [(1, 2, 0), (1, 3, 0), (1, 4, 6)]
    net, adj = build_network(edges), adjacency_oracle(edges)
    weeks = {1: 5, 2: 3, 3: 3, 4: 1}
    # 4 bought first (week 1) but the edge forms after 1's purchase; the
    # week-3 tie between 2 and 3 breaks to the smaller id.  2's only friend
    # bought later (5 > 3); 4's only edge forms after its own purchase.
    assert first_friend_ids(net, weeks, [1, 2, 4]) == [2, -1, -1]
    assert [first_friend_oracle(adj, weeks, p) for p in (1, 2, 4)] == [2, -1, -1]
    same_week = {1: 5, 2: 5}
    assert first_friend_ids(net, same_week, [1]) == [-1]
    assert first_friend_oracle(adj, same_week, 1) == -1


def test_first_friend_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(23)
    for _ in range(20):
        edges = random_edges(rng, 40, 120, max_week=20)
        net, adj = build_network(edges), adjacency_oracle(edges)
        buyers = rng.choice(net.nodes, 25, replace=False).tolist()
        weeks = dict(zip(buyers, rng.integers(0, 20, len(buyers)).tolist()))
        players = rng.permutation(net.nodes).tolist()  # unsorted, with non-buyers
        assert first_friend_ids(net, weeks, players) == \
            [first_friend_oracle(adj, weeks, p) for p in players]


def test_playtime_rows_no_friend_case():
    net = build_network([(1, 2, 0)])
    sched = {"SMB": AdoptionSchedule("SMB", np.array([1], dtype=np.int64),
                                     np.array([5], dtype=np.int64))}
    tags = make_tags()
    rows = build_playtime_crosssection(net, sched, tags, ([1], ["SMB"], [120]),
                                       cov_for([1, 2]))
    assert len(rows) == 1
    r = rows[0]
    assert (r.no_friend_purchase, r.kp_purchase, r.of_purchase) == (1, 0, 0)
    assert r.log_playtime == pytest.approx(np.log(2.0))
    assert (r.owns_smb, r.owns_nv) == (1, 0)
    assert r.num_friends == 1


def test_playtime_first_friend_can_be_both_kp_and_of():
    net = build_network([(1, 2, 0)])
    sched = {"SMB": AdoptionSchedule("SMB", np.array([1, 2], dtype=np.int64),
                                     np.array([8, 2], dtype=np.int64))}
    tags = PeerTags(np.array([2], dtype=np.int64), 9, 0, 0.99, 1.0, net)
    rows = build_playtime_crosssection(net, sched, tags, ([1], ["SMB"], [60]),
                                       cov_for([1, 2]))
    r = rows[0]
    assert (r.kp_purchase, r.of_purchase, r.no_friend_purchase) == (1, 1, 0)


def test_playtime_exclusion_diagnostics():
    net = build_network([(1, 2, 0), (3, 4, 0)])
    sched = {"SMB": AdoptionSchedule("SMB", np.array([1, 3], dtype=np.int64),
                                     np.array([5, 5], dtype=np.int64))}
    playtimes = ([1, 2, 3, 9], ["SMB"] * 4,
                 [0.2,     # below one minute
                  100,     # never purchased
                  100,     # no covariate row
                  100])    # not in the network
    diag = {}
    rows = build_playtime_crosssection(net, sched, make_tags(), playtimes,
                                       cov_for([1, 2]), diagnostics=diag)
    assert len(rows) == 0
    assert diag == {"no_purchase": 1, "below_minimum": 1, "no_covariates": 1,
                    "not_in_network": 1, "duplicate": 0}


def test_playtime_repeated_pair_keeps_last_row_and_counts_the_rest():
    net = build_network([(1, 2, 0), (1, 3, 0)])
    sched = {g: AdoptionSchedule(g, np.array([1, 2, 3], dtype=np.int64),
                                 np.array([5, 5, 5], dtype=np.int64))
             for g in ("SMB", "NV")}
    playtimes = ([3, 1, 2, 1, 1, 3], ["SMB", "SMB", "NV", "NV", "SMB", "SMB"],
                 [60, 120, 180, 240, 300, 360])
    diag = {}
    rows = build_playtime_crosssection(net, sched, make_tags(), playtimes,
                                       cov_for([1, 2, 3]), diagnostics=diag)
    assert [(r.player, r.game) for r in rows] == [(1, "NV"), (1, "SMB"),
                                                  (2, "NV"), (3, "SMB")]
    assert np.allclose(rows.log_playtime, np.log([4.0, 5.0, 3.0, 6.0]))
    assert diag["duplicate"] == 2
    assert len(rows) + sum(diag.values()) == len(playtimes[0])


def test_playtime_log_floors_at_one_hour():
    net = build_network([(1, 2, 0)])
    sched = {"SMB": AdoptionSchedule("SMB", np.array([1], dtype=np.int64),
                                     np.array([5], dtype=np.int64))}
    rows = build_playtime_crosssection(net, sched, make_tags(),
                                       ([1], ["SMB"], [30]), cov_for([1]))
    assert rows[0].log_playtime == 0.0


@pytest.mark.parametrize("ids", [lambda k: k,
                                 lambda k: 10**17 + 12345 + 2**33 * k],
                         ids=["small_ids", "steam_scale_ids"])
@pytest.mark.parametrize("seed", [21, 22])
def test_playtime_rows_match_scan_oracle(seed, ids):
    # The second layout puts ids above 2**53 and spaces them by 2**33, so
    # any id packing or float round-trip in the builder shows up here.
    # Seed 21 has no kept row whose first friend is an old friend; seed 22
    # has three, so the old-friend flag is checked at both values.
    rng = np.random.default_rng(seed)
    n = 100
    edges = [(ids(a), ids(b), w)
             for a, b, w in random_edges(rng, n, 260, max_week=20)]
    net = build_network(edges)
    adj = adjacency_oracle(edges)
    buyers = ids(np.unique(rng.integers(0, n, 60)))
    weeks = rng.integers(0, 40, buyers.size).astype(np.int64)
    sched = {"SMB": AdoptionSchedule("SMB", buyers, weeks)}
    tags = tag_peers(net, katz_centrality(net, 26),
                     TagConfig(30, kp_percentile=0.8, min_age_weeks=18))
    pt_players = [ids(int(p)) for p in rng.choice(n, 50, replace=False)]
    pt_minutes = [int(rng.integers(1, 600)) for _ in pt_players]
    playtimes = dict(zip(pt_players, pt_minutes))
    rows = build_playtime_crosssection(
        net, sched, tags, (pt_players, ["SMB"] * len(pt_players), pt_minutes),
        cov_for([ids(k) for k in range(n)]))
    purchases = dict(zip(buyers.tolist(), weeks.tolist()))
    by_player = {r.player: r for r in rows}
    n_expected = 0
    for p, minutes in sorted(playtimes.items()):
        own = purchases.get(p)
        if own is None or p not in adj:
            assert p not in by_player
            continue
        n_expected += 1
        cands = [(pw, j) for j, fw in adj[p].items()
                 if fw <= own and (pw := purchases.get(j)) is not None
                 and pw < own]
        first = min(cands)[1] if cands else -1
        r = by_player[p]
        assert r.no_friend_purchase == int(first == -1)
        if first != -1:
            assert r.kp_purchase == int(tags.is_key_player(first))
            assert r.of_purchase == int(
                adj[p][first] <= tags.old_friend_cutoff)
        assert r.num_friends == len(adj[p])
        assert r.log_playtime == pytest.approx(np.log(max(minutes / 60, 1.0)))
    assert len(rows) == n_expected


STEAM_BASE = 76561197960265728  # 64-bit Steam id of account 0


def test_steam_scale_ids_give_the_same_groups_and_panel():
    # ids above 2**53 spaced 2**33 apart: a float round-trip or id packing
    # in the node filter, the group pools or the panel lookups would merge,
    # split or drop players
    rng = np.random.default_rng(31)
    n = 120
    edges = random_edges(rng, n, 300, max_week=20)
    buyers = np.unique(rng.integers(0, n, 15))
    weeks = rng.integers(0, 30, buyers.size).astype(np.int64)
    kept = [k for k in range(n) if k % 7]
    runs = []
    for ids in (lambda k: np.asarray(k, dtype=np.int64),
                lambda k: STEAM_BASE + 2**33 * np.asarray(k, dtype=np.int64)):
        net = build_network([(ids(a), ids(b), w) for a, b, w in edges],
                            node_filter=ids(kept))
        sched = AdoptionSchedule("SMB", ids(buyers), weeks)
        tags = tag_peers(net, katz_centrality(net, 16),
                         TagConfig(20, kp_percentile=0.8, min_age_weeks=8))
        groups = assign_groups(net, sched, 20, seed=4, horizon_week=24)
        runs.append((ids, net, groups, build_panel(net, sched, tags, groups, (20, 30))))
    (_, net_s, g_s, p_s), (big, net_b, g_b, p_b) = runs
    assert net_b.nodes.tolist() == big(net_s.nodes).tolist()
    assert net_b.diagnostics == net_s.diagnostics
    assert net_s.diagnostics["filtered_nodes"] > 0
    assert g_s.n_dropped_treatment == g_b.n_dropped_treatment > 0
    for part in ("treatment", "control"):
        small_pos = net_s.indices_of(getattr(g_s, part))
        assert small_pos.size and \
            net_b.indices_of(getattr(g_b, part)).tolist() == small_pos.tolist()
    assert p_b.player.tolist() == big(p_s.player).tolist()
    assert p_b.week.tolist() == p_s.week.tolist()
    assert p_s.columns.keys() == p_b.columns.keys()
    for name, col in p_s.columns.items():
        assert np.array_equal(p_b.columns[name], col), name
    assert p_s.column("z_sd_lag").any() and p_s.column("x_friend").any()
