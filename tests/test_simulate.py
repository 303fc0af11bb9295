"""Synthetic-world generator tests.

The contagion process has one fully deterministic regime: beta = 1 pins
every exposed player's hazard at the ceiling, so adoption must sweep each
connected component along the edge-activation timeline.  That invariant
exercises the within-week waves and the mid-horizon edges without
reference to any distributional approximation.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import adjacency_oracle, adoption_sweep_oracle, first_friend_oracle
from peerfx import (
    NEVER,
    InvalidParameterError,
    SimConfig,
    SimTruth,
    gen_network,
    run_simulation,
    simulate_adoption,
)


def small_cfg(**kw):
    base = dict(n_players=400, mean_degree=2.0, n_weeks=25, release_week=5,
                seed=1)
    base.update(kw)
    return SimConfig(**base)


# ---------------------------------------------------------------------------
# config validation


@pytest.mark.parametrize("bad", [
    dict(n_players=1),
    dict(mean_degree=-0.1),
    dict(mean_degree=400),
    dict(degree_dist="uniform"),
    dict(degree_dist="powerlaw", powerlaw_exponent=2.0),
    dict(release_week=3),
    dict(release_week=25),
    dict(formation_end=25),
    dict(old_edge_fraction=1.5),
    dict(key_player_share=0.0),
    dict(game=""),
])
def test_config_rejects_bad_values(bad):
    with pytest.raises(InvalidParameterError):
        small_cfg(**bad)


def test_config_derived_weeks():
    cfg = SimConfig(n_players=10, release_week=60, n_weeks=100)
    assert (cfg.tags.reference_week, cfg.tags.old_friend_cutoff) == (56, 4)
    assert cfg.tags.kp_percentile == 1.0 - cfg.key_player_share
    assert cfg.formation_end == 60  # defaults to the release week


# ---------------------------------------------------------------------------
# network generation


def test_poisson_mean_degree_realized():
    cfg = SimConfig(n_players=50000, mean_degree=2.15, seed=3)
    net = gen_network(cfg)
    got = net.diagnostics["realized_mean_degree"]
    assert got == pytest.approx(2.15, rel=0.05)
    assert net.diagnostics["dropped_bad_pairs"] <= net.n_edges // 100


def test_powerlaw_mean_degree_realized():
    cfg = SimConfig(n_players=50000, mean_degree=3.0, degree_dist="powerlaw",
                    powerlaw_exponent=2.5, seed=4)
    net = gen_network(cfg)
    assert net.diagnostics["realized_mean_degree"] == pytest.approx(3.0, rel=0.15)
    # heavy tail: some node far above the mean, none above the cap
    deg = net.degrees()
    assert deg.max() > 30
    assert deg.max() <= 2000


def test_zero_mean_degree_gives_empty_graph():
    cfg = SimConfig(n_players=50, mean_degree=0.0, seed=5)
    net = gen_network(cfg)
    assert net.n_edges == 0
    assert net.n_nodes == 50  # isolated players are still tracked


def test_graph_is_simple():
    cfg = SimConfig(n_players=3000, mean_degree=4.0, seed=6)
    net = gen_network(cfg)
    a, b, _ = net.edge_array()
    assert (a < b).all()
    keys = a * net.n_nodes + b
    assert np.unique(keys).size == keys.size  # no duplicate edges
    assert net.diagnostics["realized_mean_degree"] == pytest.approx(4.0, rel=0.05)


def test_formation_week_split():
    cfg = SimConfig(n_players=30000, mean_degree=3.0, n_weeks=100,
                    release_week=60, old_edge_fraction=0.4, seed=7)
    net = gen_network(cfg)
    _, _, formed = net.edge_array()
    assert formed.min() >= 0 and formed.max() <= 60
    old_frac = (formed <= cfg.tags.old_friend_cutoff).mean()
    assert old_frac == pytest.approx(0.4, abs=0.02)
    assert net.diagnostics["old_edges"] == int((formed <= 4).sum())


def test_formation_all_recent_when_cutoff_negative():
    cfg = small_cfg(seed=8)  # release 5 -> cutoff 1 - 52 < 0
    net = gen_network(cfg)
    _, _, formed = net.edge_array()
    assert formed.max() <= cfg.formation_end
    assert net.diagnostics["old_edges"] == 0


def test_gen_network_traced_memory_at_mean_degree_32():
    # the dense benchmark's network: 20,000 players, ~320,000 edges.  Holding
    # the week draws and an int64 copy of the weeks through build_network
    # peaked at ~35 MiB of traced memory; dropping them peaked at 26.1 MiB.
    # Freeing the stubs and the edge columns early, and the in-place key
    # sort of build_network, peak at 15.9 MiB.
    tracemalloc.start()
    try:
        net = gen_network(SimConfig(n_players=20000, mean_degree=32.0, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.n_edges > 300_000
    assert peak < 21 * 2**20, f"gen_network traced peak {peak / 2**20:.1f} MiB"
    # the same graph and weeks as the generator has always drawn
    assert (net.indptr.dtype, net.nbr.dtype, net.formed.dtype) == (np.int64, np.int32, np.int32)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in (net.indptr, net.nbr, net.formed)))
    assert digest.hexdigest() == \
        "0cb35742f4ea081a43eb27b228fa70e63d90f57399d74a03800bba05ce14ebcd"


# ---------------------------------------------------------------------------
# adoption process


def positions_weeks(net, sched):
    """Adoption week per dense node position (NEVER when none)."""
    return sched.weeks_for(net.nodes)


def test_adoption_weeks_inside_horizon():
    cfg = small_cfg(seed=9)
    truth = SimTruth(beta=0.05, baseline_hazard=0.02)
    sched = simulate_adoption(gen_network(cfg), cfg, truth,
                              np.random.default_rng(0))
    assert sched.players.size > 0
    assert np.array_equal(sched.players, np.unique(sched.players))
    assert sched.weeks.min() >= cfg.release_week
    assert sched.weeks.max() <= cfg.n_weeks - 1
    assert sched.meta["horizon"] == [5, 24]
    assert sched.meta["n_adopters"] == sched.players.size


def test_week_effects_length_checked():
    cfg = small_cfg()
    net = gen_network(cfg)
    truth = SimTruth(week_effects=(0.1, 0.2))  # horizon is 20 weeks
    with pytest.raises(InvalidParameterError):
        simulate_adoption(net, cfg, truth, np.random.default_rng(0))



@pytest.mark.parametrize("kwargs, message", [
    ({"gamma_kp": float("inf")}, "gamma_kp must be finite, got inf"),
    ({"homophily": float("nan")}, "homophily must be finite, got nan"),
    ({"week_effects": (0.0, float("nan"))}, "week_effects must all be finite"),
    ({"playtime_loadings": {"num_games": float("-inf")}},
     "playtime_loadings must all be finite"),
    ({"noise_sd": -0.5}, "noise_sd must be non-negative, got -0.5")],
    ids=["gamma-kp-inf", "homophily-nan", "week-effects-nan", "loading-inf",
         "noise-sd-negative"])
def test_sim_truth_rejects_non_finite_and_negative_settings(kwargs, message):
    with pytest.raises(InvalidParameterError) as err:
        SimTruth(**kwargs)
    assert str(err.value) == message
    SimTruth(sigma_alpha=0.0, prob_noise_sd=0.0, noise_sd=0.0, week_effects=(0.1,))

def test_week_effects_move_the_hazard():
    cfg = small_cfg(n_players=3000, seed=10)
    horizon = cfg.n_weeks - cfg.release_week
    wfx = np.zeros(horizon)
    wfx[0] = 0.5  # release-week spike
    truth = SimTruth(beta=0.0, baseline_hazard=0.0, sigma_alpha=0.0,
                     week_effects=tuple(wfx))
    net = gen_network(cfg)
    sched = simulate_adoption(net, cfg, truth, np.random.default_rng(1))
    assert np.all(sched.weeks == cfg.release_week)  # only week with mass
    frac = sched.players.size / cfg.n_players
    assert frac == pytest.approx(0.5, abs=0.05)


def test_beta_kp_requires_mask():
    cfg = small_cfg()
    net = gen_network(cfg)
    with pytest.raises(InvalidParameterError):
        simulate_adoption(net, cfg, SimTruth(beta_kp=0.1), np.random.default_rng(0))


def test_full_contagion_sweeps_components():
    # beta = 1: an exposed player's hazard clips to 1, so a neighbor of a
    # week-w buyer must itself buy by week w+1 — or exactly when the shared
    # edge forms, for edges created mid-horizon
    cfg = small_cfg(n_players=500, mean_degree=2.0, n_weeks=30,
                    release_week=5, formation_end=20, seed=11)
    truth = SimTruth(beta=1.0, baseline_hazard=0.01, sigma_alpha=0.0)
    net = gen_network(cfg)
    sched = simulate_adoption(net, cfg, truth, np.random.default_rng(2))
    p = positions_weeks(net, sched)
    last = cfg.n_weeks - 1
    a, b, f = net.edge_array()
    checked = 0
    for ai, bi, fw in zip(a.tolist(), b.tolist(), f.tolist()):
        for u, v in ((ai, bi), (bi, ai)):
            if p[u] == NEVER:
                continue
            bound = max(int(p[u]) + 1, fw)
            if bound <= last:
                checked += 1
                assert p[v] <= bound, (u, v, fw, int(p[u]), int(p[v]))
    assert checked > 100
    # and some edges genuinely activated late, so the mid-horizon path ran
    assert (f > cfg.release_week).any()


def assert_matches_sweep(net, cfg, truth, kp_mask):
    """Run the simulator and the sweep oracle on the same draws, require the
    same schedule and clip counts; returns the schedule and clip_low."""
    sched = simulate_adoption(net, cfg, truth, np.random.default_rng(6),
                              kp_mask=kp_mask)
    bought, clip_low, clip_high = adoption_sweep_oracle(
        net, cfg, truth, np.random.default_rng(6), kp_mask)
    want = [w if w is not None else int(NEVER) for w in bought]
    assert sched.weeks_for(net.nodes).tolist() == want
    assert (sched.meta["clip_low"], sched.meta["clip_high"]) == (clip_low, clip_high)
    return sched, clip_low


DEEP_MIXED = dict(beta=0.3, beta_kp=-0.25, beta_of=0.1, baseline_hazard=0.002)
DEEP_CEILING = dict(beta=1.0, baseline_hazard=0.002)


@pytest.mark.parametrize("world, shifts", [
    (dict(n_players=1500, mean_degree=4.0), dict(beta=-0.01, baseline_hazard=0.012)),
    (dict(n_players=1500, mean_degree=4.0),
     dict(beta=0.03, beta_kp=-0.02, baseline_hazard=0.01)),
    (dict(n_players=1200, mean_degree=12.0), DEEP_MIXED),
    (dict(n_players=1200, mean_degree=24.0), DEEP_MIXED),
    (dict(n_players=1200, mean_degree=12.0), DEEP_CEILING),
    (dict(n_players=1200, mean_degree=24.0), DEEP_CEILING),
], ids=["negative", "mixed-sign", "deg12-mixed-sign", "deg24-mixed-sign",
        "deg12-beta-1", "deg24-beta-1"])
def test_adoption_matches_sweep_with_negative_peer_shifts(world, shifts):
    # a purchase lowers the hazard of friends evaluated later the same week,
    # who must not buy when their uniform is now above it.  At mean degree
    # 12 and 24 a week's purchases chain through several friends, so the
    # within-week waves run six to eight deep
    cfg = SimConfig(release_week=60, formation_end=75, seed=21, **world)
    net = gen_network(cfg)
    kp_mask = np.random.default_rng(5).random(net.n_nodes) < 0.1
    truth = SimTruth(sigma_alpha=0.0, **shifts)
    sched, _ = assert_matches_sweep(net, cfg, truth, kp_mask)
    assert sched.players.size > 300


def test_adoption_matches_player_by_player_sweep():
    # every hazard channel on: mid-horizon and old edges, key-player and
    # old-friend shifts, per-week noise, and early week effects that push
    # hazards below zero; about two fifths of the players adopt
    cfg = SimConfig(n_players=1500, mean_degree=4.0, release_week=60,
                    formation_end=75, seed=21)
    horizon = cfg.n_weeks - cfg.release_week
    wfx = np.zeros(horizon)
    wfx[:5] = -0.02
    truth = SimTruth(beta=0.02, beta_kp=0.03, beta_of=0.02,
                     baseline_hazard=0.002, sigma_alpha=1e-3,
                     prob_noise_sd=2e-3, week_effects=tuple(wfx))
    net = gen_network(cfg)
    kp_mask = np.random.default_rng(5).random(net.n_nodes) < 0.1
    sched, clip_low = assert_matches_sweep(net, cfg, truth, kp_mask)

    p = positions_weeks(net, sched)
    a, b, f = net.edge_array()
    assert clip_low > 0
    assert 0.1 < sched.players.size / cfg.n_players < 0.9
    assert (f <= cfg.tags.old_friend_cutoff).any()
    # an owner was already exposing its friend when the edge formed
    assert ((f > cfg.release_week) & ((p[a] < f) | (p[b] < f))).any()


def test_null_beta_breaks_peer_correlation():
    cfg = SimConfig(n_players=20000, mean_degree=2.15, n_weeks=40,
                    release_week=10, seed=12)
    truth = SimTruth(beta=0.0, baseline_hazard=0.01, sigma_alpha=0.0)
    net = gen_network(cfg)
    sched = simulate_adoption(net, cfg, truth, np.random.default_rng(3))
    p = positions_weeks(net, sched)
    adopted = (p < NEVER).astype(np.float64)
    A = net.csr_at(cfg.n_weeks)
    friend_adopted = ((A @ adopted) > 0).astype(np.float64)
    deg = net.degrees()
    mask = deg > 0
    r = np.corrcoef(adopted[mask], friend_adopted[mask])[0, 1]
    assert abs(r) < 4.0 / np.sqrt(mask.sum())


def test_clip_rate_negligible_at_defaults():
    cfg = SimConfig(n_players=20000, seed=13)
    truth = SimTruth()
    net = gen_network(cfg)
    sched = simulate_adoption(net, cfg, truth, np.random.default_rng(4))
    horizon = cfg.n_weeks - cfg.release_week
    rate = (sched.meta["clip_low"] + sched.meta["clip_high"]) / \
        (cfg.n_players * horizon)
    assert rate < 0.001


# ---------------------------------------------------------------------------
# end-to-end runs


def test_run_simulation_deterministic():
    cfg = small_cfg(seed=14)
    truth = SimTruth(beta=0.08, baseline_hazard=0.01, gamma_nofriend=0.5,
                     prob_noise_sd=1e-5)
    a = run_simulation(cfg, truth)
    b = run_simulation(cfg, truth)
    for x, y in ((a, b),):
        assert np.array_equal(x.network.formed, y.network.formed)
        for g in x.schedules:
            assert np.array_equal(x.schedules[g].players, y.schedules[g].players)
            assert np.array_equal(x.schedules[g].weeks, y.schedules[g].weeks)
        assert all(np.array_equal(p, q) for p, q in zip(x.playtimes, y.playtimes))
        assert all(np.array_equal(x.covariates[k], y.covariates[k])
                   for k in x.covariates)
    c = run_simulation(small_cfg(seed=15), truth)
    assert not (np.array_equal(a.network.formed, c.network.formed)
                and all(np.array_equal(p, q) for p, q in zip(a.playtimes, c.playtimes)))


def test_run_simulation_covers_both_games():
    cfg = small_cfg(seed=16)
    out = run_simulation(cfg, SimTruth(beta=0.05, baseline_hazard=0.02))
    assert set(out.schedules) == {"SMB", "NV"}
    assert out.schedule is out.schedules["SMB"]
    assert set(out.covariates) == {"player", "num_games", "num_groups",
                                   "start_week"}
    assert out.covariates["player"].size == cfg.n_players
    owners = set(out.playtimes[0].tolist())
    assert owners <= set(out.schedules["SMB"].players.tolist()) | \
        set(out.schedules["NV"].players.tolist())


def test_playtime_reconstructs_exactly_without_noise():
    cfg = small_cfg(n_players=800, seed=17)
    truth = SimTruth(beta=0.1, baseline_hazard=0.02, noise_sd=0.0,
                     gamma_kp=0.3, gamma_of=0.2, gamma_nofriend=-0.4)
    out = run_simulation(cfg, truth)

    net, tags, cov = out.network, out.tags, out.covariates
    a, b, f = net.edge_array()
    adj = adjacency_oracle(zip(net.nodes[a].tolist(), net.nodes[b].tolist(), f.tolist()))
    old_pairs = set(map(tuple, tags.old_friend_pairs.tolist()))
    deg = net.degrees()
    load = truth.playtime_loadings
    players, games, minutes = out.playtimes
    keys = list(zip(players.tolist(), games.tolist()))
    assert keys == sorted(keys)
    playtimes = dict(zip(keys, minutes.tolist()))
    assert len(playtimes) == len(keys)
    for game, sched in out.schedules.items():
        weeks = dict(zip(sched.players.tolist(), sched.weeks.tolist()))
        for pid in sched.players.tolist():
            first = first_friend_oracle(adj, weeks, pid)
            pos = int(np.searchsorted(net.nodes, pid))
            logpt = (truth.playtime_mu
                     + load["num_games"] * cov["num_games"][pos]
                     + load["num_groups"] * cov["num_groups"][pos]
                     + load["start_week"] * cov["start_week"][pos]
                     + load["num_friends"] * deg[pos])
            if first < 0:
                logpt += truth.gamma_nofriend
            else:
                logpt += truth.gamma_kp * tags.is_key_player(first)
                pair = tuple(sorted((pid, first)))
                logpt += truth.gamma_of * (pair in old_pairs)
            want = max(int(np.rint(np.exp(logpt) * 60.0)), 1)
            assert playtimes[(pid, game)] == want
