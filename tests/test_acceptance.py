"""End-to-end acceptance checks, one test per criterion.

Each test computes a pass/fail verdict, records it via ``record_criterion``
(the banner printed at the end of the run has one line per criterion), and
then asserts.  Tolerances are pinned in the asserts, not in helper defaults.

The Monte Carlo criteria (4, 5, 7) rerun their full 100-simulation
protocols and criterion 8 builds a five-million-edge network plus a
ten-million-row panel, so this module dominates suite runtime.  Everything
is seeded; the measured counts are stable across runs.
"""

import filecmp
import os
import time

import numpy as np
import pytest

from conftest import (adjacency_oracle, cr1_sandwich_fractions,
                      cr1_sandwich_loop, katz_dense_oracle, lsdv_oracle,
                      neighbors_oracle, random_edges, record_criterion,
                      second_degree_oracle, toy_panel, tsls_closed_form)
from peerfx import (AdoptionSchedule, DesignSpec, GroupAssignment, PanelConfig,
                    PanelDataset, PeerTags, SimConfig, SimTruth, anderson_rubin,
                    build_network, build_panel, build_playtime_crosssection,
                    clustered_vcov, expected_row_count, heterogeneity_fit,
                    katz_centrality, ols_fit, playtime_fit, run_simulation,
                    second_degree_counts, tsls_fit, within_transform)
from peerfx.cli import main


# ---------------------------------------------------------------------------
# criterion 1: graph queries vs. BFS / dense linear-algebra oracles
# ---------------------------------------------------------------------------


def test_criterion_1_graph_oracles():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    n_graphs = 200
    katz_worst = 0.0
    for _ in range(n_graphs):
        n_nodes = int(rng.integers(2, 101))
        n_edges = int(rng.integers(0, 150))
        edges = random_edges(rng, n_nodes, n_edges, max_week=30)
        net = build_network(edges, nodes=np.arange(n_nodes))
        adj = adjacency_oracle(edges)
        for i in range(n_nodes):
            for t in (0, 15, 30):
                got = set(net.neighbors_at(i, t).tolist())
                assert got == neighbors_oracle(adj, i, t)
                got2 = set(net.second_degree_at(i, t).tolist())
                assert got2 == second_degree_oracle(adj, i, t)
        t_katz = 30
        scores = katz_centrality(net, t_katz)
        want = katz_dense_oracle(adj, net.nodes, t_katz, scores.alpha)
        katz_worst = max(katz_worst, float(np.max(np.abs(scores.values - want))))
        assert katz_worst <= 1e-8
    elapsed = time.perf_counter() - t0
    passed = elapsed < 30.0 and katz_worst <= 1e-8
    record_criterion(
        1,
        "graph queries match BFS and dense Katz oracles",
        passed,
        f"{n_graphs} graphs, katz sup-norm {katz_worst:.2e}, {elapsed:.1f}s",
    )
    assert passed


# ---------------------------------------------------------------------------
# criterion 2: balanced panel row-count identity
# ---------------------------------------------------------------------------


def test_criterion_2_row_count_identity():
    # Documented fixture: 89,546 players observed over a 154-week horizon
    # contribute W-1 = 153 rows each.
    fixture_rows = expected_row_count(89_546, (0, 153))
    fixture_ok = fixture_rows == 13_700_538 == 89_546 * 153

    rng = np.random.default_rng(2)
    identity_ok = True
    for _ in range(25):
        p = int(rng.integers(1, 200_000))
        w0 = int(rng.integers(0, 50))
        w1 = w0 + int(rng.integers(1, 300))
        identity_ok &= expected_row_count(p, (w0, w1)) == p * (w1 - w0)

    # Scaled build: a ring network over 6,540 players and a 153-week window
    # must produce exactly 6,540 * 153 = 1,000,620 rows.
    n = 6_540
    ring = np.arange(n, dtype=np.int64)
    edges = (ring, (ring + 1) % n, np.zeros(n, dtype=np.int64))
    net = build_network(edges, nodes=ring)
    purchasers = ring[:200]
    weeks = np.arange(1, 201, dtype=np.int64) % 150 + 2
    schedule = AdoptionSchedule(game="SMB", players=purchasers, weeks=weeks,
                                meta={})
    tags = PeerTags(key_players=np.zeros(0, dtype=np.int64),
                    old_friend_pairs=np.zeros((0, 2), dtype=np.int64),
                    reference_week=0, old_friend_cutoff=-1,
                    percentile=0.99, threshold=0.0)
    groups = GroupAssignment(treatment=ring, control=ring[:0], seed=0,
                             n_requested=n)
    window = (1, 154)
    panel = build_panel(net, schedule, tags, groups, window,
                        PanelConfig(censor_after_purchase=False))
    built = panel.n_rows
    build_ok = (built == expected_row_count(n, window) == 1_000_620
                and panel.columns["y"].size == built
                and panel.meta["n_rows_balanced"] == built)

    passed = fixture_ok and identity_ok and build_ok
    record_criterion(
        2,
        "row count equals players x (window length - 1)",
        passed,
        f"fixture 89,546 x 153 = {fixture_rows:,}; scaled build {built:,} rows",
    )
    assert passed


# ---------------------------------------------------------------------------
# criterion 3: estimator algebra vs. closed forms
# ---------------------------------------------------------------------------


def test_criterion_3_estimator_oracles():
    rng = np.random.default_rng(3)
    worst_lsdv = 0.0
    worst_tsls = 0.0
    for rep in range(50):
        data = toy_panel(rng, n_players=int(rng.integers(6, 11)),
                         n_weeks=int(rng.integers(5, 9)))
        if rep % 2:  # unbalance half the panels
            keep = rng.random(data["player"].size) > 0.15
            keep[:4] = True
            data = {k: v[keep] for k, v in data.items()}
        panel = PanelDataset(player=data["player"], week=data["week"],
                             columns={k: data[k] for k in ("y", "x", "z")})
        assert panel.n_rows <= 500

        spec = DesignSpec(outcome="y", endog=(), instruments=(), exog=("x",),
                          fixed_effects=("player", "week"), cluster="player")
        fit = ols_fit(panel, spec)
        beta_lsdv = lsdv_oracle(data["y"], data["x"][:, None],
                                data["player"], data["week"],
                                ("player", "week"))
        worst_lsdv = max(worst_lsdv,
                         abs(fit.coef[fit.terms.index("x")] - beta_lsdv[0]))

        spec_iv = DesignSpec(outcome="y", endog=("x",), instruments=("z",),
                             exog=(), fixed_effects=(), cluster="player")
        fit_iv = tsls_fit(panel, spec_iv)
        ones = np.ones_like(data["y"])
        beta_iv = tsls_closed_form(data["y"],
                                   np.column_stack([data["x"], ones]),
                                   np.column_stack([data["z"], ones]))
        got_iv = np.array([fit_iv.coef[fit_iv.terms.index("x")],
                           fit_iv.coef[fit_iv.terms.index("const")]])
        worst_tsls = max(worst_tsls, float(np.max(np.abs(got_iv - beta_iv))))

    # Hand-computed three-cluster sandwich, evaluated in exact rational
    # arithmetic: one regressor, no intercept, CR1 with K = 1.
    y_int = np.array([2, -1, 3, 1, 0, -2, 4, 1, -3], dtype=np.int64)
    x_int = np.array([1, 2, -1, 3, 1, -2, 2, -1, 1], dtype=np.int64)
    clusters = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2], dtype=np.int64)
    beta_frac, vcov_frac = cr1_sandwich_fractions(y_int, x_int, clusters)
    x = x_int.astype(np.float64)
    resid = y_int.astype(np.float64) - float(beta_frac) * x
    vcov_pkg = clustered_vcov(resid, x[:, None], clusters)
    err_vcov = abs(vcov_pkg[0, 0] - float(vcov_frac))

    # Same sandwich through the full fitting path, against a plain loop.
    data = toy_panel(rng, n_players=9, n_weeks=7)
    panel = PanelDataset(player=data["player"], week=data["week"],
                         columns={k: data[k] for k in ("y", "x", "z")})
    spec = DesignSpec(outcome="y", endog=(), instruments=(), exog=("x",),
                      fixed_effects=("player",), cluster="player")
    fit = ols_fit(panel, spec)
    within = within_transform(panel, ("y", "x"), ("player",))
    wy, wx = within.columns["y"], within.columns["x"]
    resid_w = wy - wx * fit.coef[fit.terms.index("x")]
    vcov_loop = cr1_sandwich_loop(resid_w, wx[:, None], wx[:, None],
                                  data["player"])
    err_loop = abs(fit.vcov[0, 0] - vcov_loop[0, 0])

    passed = (worst_lsdv <= 1e-8 and worst_tsls <= 1e-10
              and err_vcov <= 1e-12 and err_loop <= 1e-12)
    record_criterion(
        3,
        "within-OLS = LSDV, 2SLS = closed form, vcov = hand sandwich",
        passed,
        (f"lsdv {worst_lsdv:.1e}, 2sls {worst_tsls:.1e}, "
         f"vcov {err_vcov:.1e}/{err_loop:.1e}"),
    )
    assert passed


# ---------------------------------------------------------------------------
# criteria 4 and 7 share one set of 100 simulated populations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def monte_carlo_runs():
    """100 seeded populations; returns per-seed scalars plus elapsed time."""
    t0 = time.perf_counter()
    records = []
    for seed in range(100):
        cfg = SimConfig(n_players=20_000, mean_degree=2.15, n_weeks=100,
                        release_week=60, seed=seed)
        truth = SimTruth(beta=0.05, baseline_hazard=0.0045, sigma_alpha=1e-4,
                         gamma_nofriend=0.5)
        sim = run_simulation(cfg, truth, games=("SMB",))

        deg = sim.network.degrees()
        connected = sim.network.nodes[deg > 0]
        pick = np.random.default_rng(seed + 50_000)
        sample = np.sort(pick.choice(connected, size=1500, replace=False))
        groups = GroupAssignment(treatment=sample, control=sample[:0],
                                 seed=seed + 50_000, n_requested=1500)
        panel = build_panel(sim.network, sim.schedules["SMB"], sim.tags,
                            groups, (60, 99),
                            PanelConfig(censor_after_purchase=True))

        ols = ols_fit(panel, DesignSpec(outcome="y", endog=(), instruments=(),
                                        exog=("x_friend",)))
        iv = tsls_fit(panel, DesignSpec(outcome="y", endog=("x_friend",),
                                        instruments=("z_sd_lag",)))
        j = iv.terms.index("x_friend")
        ci = iv.conf_int(0.95)
        rec = {
            "ols": float(ols.coef[ols.terms.index("x_friend")]),
            "iv": float(iv.coef[j]),
            "iv_lo": float(ci[j, 0]),
            "iv_hi": float(ci[j, 1]),
        }

        rows = build_playtime_crosssection(sim.network, sim.schedules,
                                           sim.tags, sim.playtimes,
                                           sim.covariates)
        pfit = playtime_fit(rows, variant=2)
        pci = pfit.conf_int(0.95)
        for name, key in (("kp_purchase", "kp"), ("of_purchase", "of"),
                          ("no_friend_purchase", "nf")):
            k = pfit.terms.index(name)
            rec[key + "_lo"] = float(pci[k, 0])
            rec[key + "_hi"] = float(pci[k, 1])
        records.append(rec)
    return {"records": records, "elapsed": time.perf_counter() - t0}


def test_criterion_4_recovery_and_attenuation(monte_carlo_runs):
    recs = monte_carlo_runs["records"]
    elapsed = monte_carlo_runs["elapsed"]
    beta = 0.05
    cover = sum(r["iv_lo"] <= beta <= r["iv_hi"] for r in recs)
    mean_ols = float(np.mean([r["ols"] for r in recs]))
    mean_iv = float(np.mean([r["iv"] for r in recs]))
    passed = cover >= 90 and mean_ols > mean_iv and elapsed < 1800.0
    record_criterion(
        4,
        "2SLS covers planted effect; OLS overstates it",
        passed,
        (f"coverage {cover}/100, mean OLS {mean_ols:.4f} > "
         f"mean 2SLS {mean_iv:.4f}, {elapsed:.0f}s for 100 runs"),
    )
    assert passed


def test_criterion_7_playtime_effects(monte_carlo_runs):
    recs = monte_carlo_runs["records"]
    gamma_nf = 0.5
    cov_nf = sum(r["nf_lo"] <= gamma_nf <= r["nf_hi"] for r in recs)
    sig_nf = sum(r["nf_lo"] > 0 for r in recs)
    insig_kp = sum(r["kp_lo"] <= 0.0 <= r["kp_hi"] for r in recs)
    insig_of = sum(r["of_lo"] <= 0.0 <= r["of_hi"] for r in recs)
    passed = (cov_nf >= 90 and sig_nf >= 90 and insig_kp >= 90
              and insig_of >= 90)
    record_criterion(
        7,
        "playtime regression isolates the no-friend premium",
        passed,
        (f"nf coverage {cov_nf}/100, nf significant {sig_nf}/100, "
         f"kp/of insignificant {insig_kp}/{insig_of}"),
    )
    assert passed


# ---------------------------------------------------------------------------
# criterion 5: two-channel heterogeneity recovery
# ---------------------------------------------------------------------------


def test_criterion_5_heterogeneity_recovery():
    beta_kp, beta_of = 0.05, 0.11
    cov_kp = cov_of = ordered = 0
    for seed in range(100):
        cfg = SimConfig(n_players=20_000, mean_degree=2.15, n_weeks=100,
                        release_week=60, old_edge_fraction=0.70,
                        key_player_share=0.05, seed=seed)
        truth = SimTruth(beta=0.0, beta_kp=beta_kp, beta_of=beta_of,
                         baseline_hazard=0.001, sigma_alpha=1e-4)
        sim = run_simulation(cfg, truth, games=("SMB",))
        deg = sim.network.degrees()
        connected = sim.network.nodes[deg > 0]
        pick = np.random.default_rng(seed + 60_000)
        sample = np.sort(pick.choice(connected, size=800, replace=False))
        groups = GroupAssignment(treatment=sample, control=sample[:0],
                                 seed=seed + 60_000, n_requested=800)
        panel = build_panel(sim.network, sim.schedules["SMB"], sim.tags,
                            groups, (60, 99),
                            PanelConfig(censor_after_purchase=True))
        fit = heterogeneity_fit(panel, method="2sls")
        ci = fit.conf_int(0.95)
        jk = fit.terms.index("x_kp")
        jo = fit.terms.index("x_of")
        cov_kp += ci[jk, 0] <= beta_kp <= ci[jk, 1]
        cov_of += ci[jo, 0] <= beta_of <= ci[jo, 1]
        ordered += fit.coef[jo] > fit.coef[jk]
    passed = cov_kp >= 90 and cov_of >= 90 and ordered >= 90
    record_criterion(
        5,
        "channel-specific effects recovered and correctly ordered",
        passed,
        f"kp coverage {cov_kp}/100, of coverage {cov_of}/100, "
        f"of > kp in {ordered}/100",
    )
    assert passed


# ---------------------------------------------------------------------------
# criterion 6: weak-identification statistic calibration
# ---------------------------------------------------------------------------


def test_criterion_6_anderson_rubin_calibration():
    # Size under the null: the instrument is pure noise, so AR should
    # exceed the 5% chi-square(1) cutoff in roughly 5% of replications.
    rejections = 0
    n_reps = 200
    for rep in range(n_reps):
        rng = np.random.default_rng(rep)
        n_players, n_weeks = 100, 12
        player = np.repeat(np.arange(n_players), n_weeks)
        week = np.tile(np.arange(n_weeks), n_players)
        alpha = rng.normal(0, 1, n_players)[player]
        wfx = rng.normal(0, 0.5, n_weeks)[week]
        x = 0.3 * alpha + rng.normal(0, 1, player.size)
        y = alpha + wfx + rng.normal(0, 1, player.size)
        z = rng.normal(0, 1, player.size)
        panel = PanelDataset(player=player, week=week,
                             columns={"y": y, "x": x, "z": z})
        spec = DesignSpec(outcome="y", endog=("x",), instruments=("z",))
        if anderson_rubin(panel, spec) > 3.84:
            rejections += 1
    size_ok = rejections <= 0.10 * n_reps

    # Power: on a simulated population with a real adoption channel the
    # statistic should be enormous.
    cfg = SimConfig(n_players=20_000, mean_degree=2.15, n_weeks=100,
                    release_week=60, seed=0)
    truth = SimTruth(beta=0.05, baseline_hazard=0.0045, sigma_alpha=1e-4,
                     gamma_nofriend=0.5)
    sim = run_simulation(cfg, truth, games=("SMB",))
    deg = sim.network.degrees()
    connected = sim.network.nodes[deg > 0]
    pick = np.random.default_rng(50_000)
    sample = np.sort(pick.choice(connected, size=10_000, replace=False))
    groups = GroupAssignment(treatment=sample, control=sample[:0],
                             seed=50_000, n_requested=10_000)
    panel = build_panel(sim.network, sim.schedules["SMB"], sim.tags, groups,
                        (60, 99), PanelConfig(censor_after_purchase=True))
    ar = anderson_rubin(panel, DesignSpec(outcome="y", endog=("x_friend",),
                                          instruments=("z_sd_lag",)))
    passed = size_ok and ar > 100.0
    record_criterion(
        6,
        "AR statistic: correct size under null, large under strength",
        passed,
        f"null rejections {rejections}/{n_reps} at 3.84, strong AR {ar:.1f}",
    )
    assert passed


# ---------------------------------------------------------------------------
# criterion 8: performance and thread determinism
# ---------------------------------------------------------------------------


def test_criterion_8_performance_envelope():
    # Second-degree counts for 100,000 players on a 5,000,000-edge network.
    n_nodes = 100_000
    rng = np.random.default_rng(8)
    raw = rng.integers(0, n_nodes, size=(5_200_000, 2), dtype=np.int64)
    raw = raw[raw[:, 0] != raw[:, 1]]
    lo = np.minimum(raw[:, 0], raw[:, 1])
    hi = np.maximum(raw[:, 0], raw[:, 1])
    _, first = np.unique(lo * n_nodes + hi, return_index=True)
    keep = np.sort(first)[:5_000_000]
    assert keep.size == 5_000_000
    edges = (lo[keep], hi[keep],
             rng.integers(0, 50, size=keep.size, dtype=np.int64))
    net = build_network(edges, nodes=np.arange(n_nodes))

    t0 = time.perf_counter()
    counts = second_degree_counts(net, net.nodes, 49)
    t_counts = time.perf_counter() - t0
    counts_alt = second_degree_counts(net, net.nodes, 49, block=1024)
    counts_ok = t_counts < 60.0 and np.array_equal(counts, counts_alt)
    del counts_alt, raw, lo, hi, edges, net

    # 2SLS on a ten-million-row panel, bit-identical across thread counts.
    n_players, n_weeks = 500_000, 20
    prng = np.random.default_rng(88)
    player = np.repeat(np.arange(n_players), n_weeks)
    week = np.tile(np.arange(n_weeks), n_players)
    alpha = prng.normal(0, 1, n_players)[player]
    wfx = prng.normal(0, 0.5, n_weeks)[week]
    z = prng.normal(0, 1, player.size)
    x = 0.8 * z + 0.3 * alpha + prng.normal(0, 1, player.size)
    y = 0.05 * x + alpha + wfx + prng.normal(0, 1, player.size)
    panel = PanelDataset(player=player, week=week,
                         columns={"y": y, "x": x, "z": z})
    assert panel.n_rows == 10_000_000
    spec = DesignSpec(outcome="y", endog=("x",), instruments=("z",))
    t0 = time.perf_counter()
    fit1 = tsls_fit(panel, spec, threads=1)
    t_tsls = time.perf_counter() - t0
    fit8 = tsls_fit(panel, spec, threads=8)
    identical = (np.array_equal(fit1.coef, fit8.coef)
                 and np.array_equal(fit1.vcov, fit8.vcov))
    tsls_ok = t_tsls < 120.0 and identical

    passed = counts_ok and tsls_ok
    record_criterion(
        8,
        "large-network and large-panel budgets with thread determinism",
        passed,
        (f"second-degree {t_counts:.1f}s (<60s), 10M-row 2SLS {t_tsls:.1f}s "
         f"(<120s), thread-count invariant: {identical}"),
    )
    assert passed


# ---------------------------------------------------------------------------
# criterion 9: byte-identical CLI reruns
# ---------------------------------------------------------------------------

SIM_ARGS = ["--n-players", "600", "--mean-degree", "2.2", "--n-weeks", "30",
            "--release-week", "10", "--baseline-hazard", "0.01",
            "--beta", "0.12", "--gamma-nofriend", "0.5", "--seed", "5"]


def _run_pair(tmp_path, name, argv_for):
    """Run a command into two fresh directories and byte-compare them.

    ``argv_for`` receives the output directory and returns the argv; it may
    point ``--out`` at the directory itself or at a file inside it — either
    way every file that appears is compared.
    """
    dirs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{name}-{tag}"
        out.mkdir()
        assert main(argv_for(out)) == 0
        dirs.append(out)
    names = sorted(os.listdir(dirs[0]))
    assert names and names == sorted(os.listdir(dirs[1]))
    _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names,
                                           shallow=False)
    return not mismatch and not errors, dirs[0]


def test_criterion_9_cli_determinism(tmp_path):
    results = {}

    ok, sim_dir = _run_pair(
        tmp_path, "sim",
        lambda out: ["simulate", "--out", str(out)] + SIM_ARGS)
    results["simulate"] = ok
    edges = str(sim_dir / "edges.csv")
    ach = str(sim_dir / "achievements.csv")

    ok, panel_dir = _run_pair(tmp_path, "panel", lambda out: [
        "build-panel", "--edges", edges, "--achievements", ach,
        "--out", str(out / "panel.csv"), "--release-week", "10",
        "--window-start", "10", "--window-end", "29",
        "--n-per-group", "60", "--seed", "3"])
    results["build-panel"] = ok
    panel_path = str(panel_dir / "panel.csv")

    results["estimate"], _ = _run_pair(tmp_path, "est", lambda out: [
        "estimate", "--panel", panel_path, "--out", str(out)])
    results["heterogeneity"], _ = _run_pair(tmp_path, "het", lambda out: [
        "heterogeneity", "--panel", panel_path, "--out", str(out),
        "--method", "ols"])
    results["playtime"], _ = _run_pair(tmp_path, "play", lambda out: [
        "playtime", "--edges", edges, "--achievements", ach,
        "--playtime", str(sim_dir / "playtime.csv"),
        "--covariates", str(sim_dir / "covariates.csv"),
        "--release-week", "10", "--out", str(out)])
    results["katz"], _ = _run_pair(tmp_path, "katz", lambda out: [
        "katz", "--edges", edges, "--week", "6",
        "--out", str(out / "scores.csv")])
    results["series"], _ = _run_pair(tmp_path, "series", lambda out: [
        "series", "--achievements", ach, "--out", str(out / "series.csv"),
        "--window-start", "10", "--window-end", "29"])

    bad = sorted(name for name, ok in results.items() if not ok)
    passed = not bad
    record_criterion(
        9,
        "every command byte-identical across reruns with a fixed seed",
        passed,
        "7 commands compared" if passed else f"mismatches: {', '.join(bad)}",
    )
    assert passed
