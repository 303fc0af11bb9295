"""Within transform, OLS/2SLS, clustered covariance, and wrapper fits.

Every numerical claim is checked against a second route: dense dummy-matrix
least squares, textbook closed forms, per-cluster python loops, or exact
Fraction arithmetic.
"""

import tracemalloc

import numpy as np
import pytest

from peerfx import (
    DesignSpec,
    FitResult,
    InsufficientClustersError,
    InvalidParameterError,
    PanelDataset,
    RankDeficientError,
    WeakIdentificationError,
    anderson_rubin,
    clustered_vcov,
    heterogeneity_fit,
    ols_fit,
    playtime_fit,
    tsls_fit,
    within_transform,
)
from peerfx.estimator import _max_abs
from peerfx.panel import PLAYTIME_DTYPE

from conftest import (
    cr1_sandwich_fractions,
    cr1_sandwich_loop,
    demean_oracle,
    lsdv_oracle,
    toy_panel,
    tsls_closed_form,
)


def group_mean_absmax(col, codes):
    sums = np.bincount(codes, weights=col)
    cnts = np.bincount(codes)
    return np.abs(sums / cnts).max()


# ---------------------------------------------------------------------------
# within transform


def test_within_single_dim_is_one_pass():
    rng = np.random.default_rng(0)
    d = toy_panel(rng)
    res = within_transform(d, ["y", "x"], fe_dims=("player",))
    assert group_mean_absmax(res.columns["y"], d["player"]) < 1e-12


def test_within_two_way_kills_both_margins():
    rng = np.random.default_rng(1)
    d = toy_panel(rng)
    res = within_transform(d, ["y"], fe_dims=("player", "week"))
    assert group_mean_absmax(res.columns["y"], d["player"]) < 1e-10
    assert group_mean_absmax(res.columns["y"], d["week"]) < 1e-10


def test_within_absorbs_player_constant_column():
    rng = np.random.default_rng(2)
    d = toy_panel(rng)
    d["c"] = rng.normal(0, 5, 8)[d["player"]]  # varies only across players
    res = within_transform(d, ["c"], fe_dims=("player",))
    assert np.abs(res.columns["c"]).max() < 1e-12


def test_within_balanced_converges_in_one_cycle():
    rng = np.random.default_rng(3)
    d = toy_panel(rng)
    res = within_transform(d, ["y"], fe_dims=("player", "week"))
    assert res.iterations <= 2  # balanced: exact after one sweep pair


def test_within_unbalanced_matches_dense_residualization():
    rng = np.random.default_rng(4)
    d = toy_panel(rng, n_players=10, n_weeks=8)
    keep = rng.random(d["y"].size) > 0.25
    d = {k: v[keep] for k, v in d.items()}
    res = within_transform(d, ["y", "x", "z"])
    want = demean_oracle({k: d[k] for k in ("y", "x", "z")},
                         d["player"], d["week"])
    for name in ("y", "x", "z"):
        assert np.abs(res.columns[name] - want[name]).max() < 1e-8


@pytest.mark.parametrize("fe_dims", [("player", "week"), ("week", "player")])
def test_within_censored_disconnected_matches_dense_residualization(fe_dims):
    # two player blocks on disjoint week ranges, ~20% of rows censored: the
    # week system is singular, and alternating sweeps stop short of 1e-12
    rng = np.random.default_rng(40)
    P, W = 12, 10
    player = np.repeat(np.arange(P), W)
    week = np.tile(np.arange(W), P) + W * (player >= P // 2)
    d = {"player": player, "week": week}
    for name in ("y", "x"):
        d[name] = (rng.normal(0, 1, P)[player] + rng.normal(0, 1, 2 * W)[week]
                   + rng.normal(0, 1, player.size))
    keep = rng.random(player.size) > 0.2
    d = {k: v[keep] for k, v in d.items()}
    res = within_transform(d, ["y", "x"], fe_dims=fe_dims)
    want = demean_oracle({k: d[k] for k in ("y", "x")}, d["player"], d["week"])
    for name in ("y", "x"):
        assert np.abs(res.columns[name] - want[name]).max() < 1e-12


def test_within_memo_follows_replaced_columns_and_ignores_writes():
    rng = np.random.default_rng(41)
    d = toy_panel(rng, n_players=9, n_weeks=5)

    def make(columns):
        return PanelDataset(player=d["player"], week=d["week"],
                            columns=dict(columns))

    spec = DesignSpec(outcome="y", endog=("x",), instruments=("z",))
    panel = make({k: d[k] for k in ("y", "x", "z")})
    first = tsls_fit(panel, spec)
    panel.columns["y"] = d["y"] + rng.normal(0, 1, d["y"].size)
    refit = tsls_fit(panel, spec)
    fresh = tsls_fit(make(panel.columns), spec)
    assert refit.coef_of("x") != first.coef_of("x")
    assert np.array_equal(refit.coef, fresh.coef)
    assert np.array_equal(refit.vcov, fresh.vcov)
    assert refit.ar_stat == fresh.ar_stat

    res = within_transform(panel, ["y", "x", "z"])
    for col in res.columns.values():
        col[:] = 0.0
    again = tsls_fit(panel, spec)
    assert np.array_equal(again.coef, refit.coef)
    assert np.array_equal(again.vcov, refit.vcov)
    assert again.ar_stat == refit.ar_stat


def test_fits_leave_the_memo_read_only_and_equal_to_a_fresh_transform():
    rng = np.random.default_rng(43)
    d = toy_panel(rng, n_players=12, n_weeks=5)
    cols = {k: d[k] for k in ("y", "x", "z")}
    panel = PanelDataset(player=d["player"], week=d["week"], columns=dict(cols))
    tsls_fit(panel, DesignSpec(outcome="y", endog=("x",), instruments=("z",)))
    (_, _, done), = panel._within.values()
    assert set(done) == {"y", "x", "z"}
    fresh = within_transform(PanelDataset(player=d["player"], week=d["week"],
                                          columns=dict(cols)), list(done)).columns
    for name, (_, arr) in done.items():
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
        assert arr.tobytes() == fresh[name].tobytes()
        assert fresh[name].flags.writeable


@pytest.mark.parametrize("dim", ["player", "week"])
def test_replaced_player_or_week_refreshes_fixed_effects_and_clusters(dim):
    rng = np.random.default_rng(42)
    d = toy_panel(rng, n_players=30, n_weeks=6)
    spec = DesignSpec(outcome="y", endog=("x",), instruments=("z",))
    cols = {k: d[k] for k in ("y", "x", "z")}
    panel = PanelDataset(player=d["player"], week=d["week"], columns=dict(cols))
    first = tsls_fit(panel, spec)
    setattr(panel, dim, d[dim] // 2)
    refit = tsls_fit(panel, spec)
    fresh = tsls_fit(PanelDataset(player=panel.player, week=panel.week,
                                  columns=dict(cols)), spec)
    assert refit.coef_of("x") != first.coef_of("x")
    assert np.array_equal(refit.coef, fresh.coef)
    assert np.array_equal(refit.vcov, fresh.vcov)
    assert refit.n_clusters == fresh.n_clusters == (15 if dim == "player" else 30)


def test_within_no_dims_is_identity():
    rng = np.random.default_rng(5)
    d = toy_panel(rng)
    res = within_transform(d, ["y"], fe_dims=())
    assert res.iterations == 0
    assert np.array_equal(res.columns["y"], d["y"])


# ---------------------------------------------------------------------------
# OLS


def test_ols_outcome_on_itself():
    rng = np.random.default_rng(6)
    d = toy_panel(rng)
    d["y2"] = d["y"].copy()
    fit = ols_fit(d, DesignSpec(outcome="y", exog=("y2",)))
    assert fit.coef_of("y2") == pytest.approx(1.0, abs=1e-12)
    assert fit.n_obs == 48


def test_ols_matches_dummy_regression():
    rng = np.random.default_rng(7)
    d = toy_panel(rng, n_players=12, n_weeks=7)
    fit = ols_fit(d, DesignSpec(outcome="y", exog=("x", "z")))
    want = lsdv_oracle(d["y"], np.column_stack([d["x"], d["z"]]),
                       d["player"], d["week"])
    assert fit.coef_of("x") == pytest.approx(want[0], abs=1e-8)
    assert fit.coef_of("z") == pytest.approx(want[1], abs=1e-8)


def test_ols_no_fe_adds_intercept():
    rng = np.random.default_rng(8)
    d = toy_panel(rng)
    fit = ols_fit(d, DesignSpec(outcome="y", exog=("x",), fixed_effects=(),
                                cluster=None))
    D = np.column_stack([d["x"], np.ones(d["y"].size)])
    want, *_ = np.linalg.lstsq(D, d["y"], rcond=None)
    assert fit.terms == ("x", "const")
    assert np.abs(fit.coef - want).max() < 1e-10


def test_ols_duplicate_column_names_the_culprit():
    rng = np.random.default_rng(9)
    d = toy_panel(rng)
    d["x_copy"] = d["x"].copy()
    with pytest.raises(RankDeficientError) as err:
        ols_fit(d, DesignSpec(outcome="y", exog=("x", "x_copy")))
    assert err.value.columns == ("x_copy",)


def _pivoted_qr_culprits(A, names):
    """The rank rule stated through scipy's pivoted QR alone: |R_kk| must
    exceed |R_11| * K * eps * 100.  Names of the columns pivoted past the
    rank, () when A is full rank."""
    import scipy.linalg
    _, R, piv = scipy.linalg.qr(A, pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int((diag > diag.max() * A.shape[0] * np.finfo(np.float64).eps * 100).sum())
    return tuple(names[p] for p in piv[rank:])


def _rank_case(case):
    """(square normal-equation matrix, column names, whether the singular
    value screen must hand it to the pivoted QR)."""
    rng = np.random.default_rng(41)
    names = ["a", "b", "c", "d", "e"]
    X = rng.normal(size=(60, 3))
    if case == "duplicate":
        X = np.column_stack((X, X[:, 1]))
    elif case == "collinear_pair":
        X = np.column_stack((X, X[:, 0] - 2.0 * X[:, 1], 3.0 * X[:, 2]))
    elif case == "zero_column":
        X = np.column_stack((X[:, :2], np.zeros(60), X[:, 2]))
    if case not in ("fallback_band", "ill_conditioned"):
        return X.T @ X, names[:X.shape[1]], True
    K = 4
    U = np.linalg.qr(rng.normal(size=(K, K)))[0]
    V = np.linalg.qr(rng.normal(size=(K, K)))[0]
    s = np.geomspace(1.0, 1e-10, K) if case == "ill_conditioned" else np.array([1.0, 0.7, 0.4, 0.0])
    if case == "fallback_band":  # sigma_min = 1.5 tol: full rank, but not proved so
        for _ in range(3):
            A = U @ np.diag(s) @ V.T
            s[-1] = 1.5 * np.linalg.norm(A, axis=0).max() * K * np.finfo(np.float64).eps * 100
    return U @ np.diag(s) @ V.T, names[:K], case == "fallback_band"


@pytest.mark.parametrize("case", ["duplicate", "collinear_pair", "zero_column",
                                  "fallback_band", "ill_conditioned"])
def test_solve_pivoted_matches_pivoted_qr_oracle(case, monkeypatch):
    import scipy.linalg
    from peerfx.estimator import _solve_pivoted
    A, names, via_qr = _rank_case(case)
    K = A.shape[0]
    tol = np.linalg.norm(A, axis=0).max() * K * np.finfo(np.float64).eps * 100
    smin = np.linalg.svd(A, compute_uv=False)[-1]
    if case == "fallback_band":
        assert tol < smin <= 2 * tol
    culprits = _pivoted_qr_culprits(A, names)
    assert bool(culprits) == (case in ("duplicate", "collinear_pair", "zero_column"))
    if case == "collinear_pair":
        assert len(culprits) == 2
    qr, calls = scipy.linalg.qr, []
    monkeypatch.setattr(scipy.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
    b = np.arange(1.0, K + 1.0)
    if culprits:
        with pytest.raises(RankDeficientError) as err:
            _solve_pivoted(A, b, names)
        assert err.value.columns == culprits
    else:
        want = scipy.linalg.solve(A, b)
        got = _solve_pivoted(A, b, names)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert bool(calls) == via_qr


def test_solve_pivoted_non_finite_goes_to_pivoted_qr():
    from peerfx.estimator import _solve_pivoted
    A = np.eye(3)
    A[1, 1] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        _solve_pivoted(A, np.ones(3), ["a", "b", "c"])


def test_ols_degenerate_column_dropped_with_note():
    rng = np.random.default_rng(10)
    d = toy_panel(rng)
    d["flat"] = rng.normal(0, 1, 8)[d["player"]]  # absorbed by player FE
    fit = ols_fit(d, DesignSpec(outcome="y", exog=("x", "flat")))
    assert fit.dropped == ("flat",)
    solo = ols_fit(d, DesignSpec(outcome="y", exog=("x",)))
    assert fit.coef_of("x") == pytest.approx(solo.coef_of("x"), abs=1e-12)


def test_ols_insufficient_clusters():
    d = {"y": np.arange(5.0), "x": np.arange(5.0) ** 2,
         "cl": np.full(5, 7.0)}
    with pytest.raises(InsufficientClustersError):
        ols_fit(d, DesignSpec(outcome="y", exog=("x",), fixed_effects=(),
                              cluster="cl"))


def test_pooled_ols_with_as_many_rows_as_coefficients_is_invalid():
    # y on x plus a constant from two rows: (N-1)/(N-K) in the CR1 factor
    # divided by zero
    d = {"y": np.array([1.0, 3.0]), "x": np.array([0.0, 1.0])}
    with pytest.raises(InvalidParameterError, match="2 rows for 2 coefficients"):
        ols_fit(d, DesignSpec(outcome="y", exog=("x",), fixed_effects=(),
                              cluster=None))


def test_ols_counts_singleton_clusters():
    rng = np.random.default_rng(11)
    n = 12
    d = {"y": rng.normal(0, 1, n), "x": rng.normal(0, 1, n),
         "g": np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 3, 4], dtype=np.float64)}
    fit = ols_fit(d, DesignSpec(outcome="y", exog=("x",), fixed_effects=(),
                                cluster="g"))
    assert fit.n_clusters == 5
    assert fit.n_singletons == 3


# ---------------------------------------------------------------------------
# clustered covariance


def test_cluster_vcov_matches_loop_oracle():
    rng = np.random.default_rng(12)
    d = toy_panel(rng, n_players=9, n_weeks=5)
    fit = ols_fit(d, DesignSpec(outcome="y", exog=("x",), fixed_effects=(),
                                cluster="player"))
    X = np.column_stack([d["x"], np.ones(d["y"].size)])
    u = d["y"] - X @ fit.coef
    want = cr1_sandwich_loop(u, X, X, d["player"].tolist())
    assert np.abs(fit.vcov - want).max() < 1e-10


def test_cluster_vcov_exact_fraction_oracle():
    y = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, 5, -8]
    x = [2, 1, -3, 4, 1, -2, 5, 1, -4, 2, 2, -1]
    clusters = [0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2]
    beta, var = cr1_sandwich_fractions(y, x, clusters)
    X = np.asarray(x, dtype=np.float64)[:, None]
    u = np.asarray(y, dtype=np.float64) - float(beta) * X[:, 0]
    V = clustered_vcov(u, X, clusters)
    assert abs(V[0, 0] - float(var)) < 1e-12 * max(1.0, float(var))


def test_hc1_is_singleton_cluster_case():
    rng = np.random.default_rng(13)
    d = toy_panel(rng)
    fit = ols_fit(d, DesignSpec(outcome="y", exog=("x",), fixed_effects=(),
                                cluster=None))
    X = np.column_stack([d["x"], np.ones(d["y"].size)])
    u = d["y"] - X @ fit.coef
    want = cr1_sandwich_loop(u, X, X, list(range(u.size)))
    assert np.abs(fit.vcov - want).max() < 1e-12
    assert fit.n_clusters == u.size and fit.n_singletons == 0


def test_vcov_positive_semidefinite():
    rng = np.random.default_rng(14)
    for trial in range(8):
        d = toy_panel(rng, n_players=6 + trial, n_weeks=4,
                      binary=trial % 2 == 0)
        fit = ols_fit(d, DesignSpec(outcome="y", exog=("x", "z")))
        assert np.linalg.eigvalsh(fit.vcov).min() >= -1e-10


def test_cluster_vcov_public_raises_on_one_cluster():
    X = np.ones((4, 1))
    with pytest.raises(InsufficientClustersError):
        clustered_vcov(np.ones(4), X, [3, 3, 3, 3])


def test_cluster_se_near_classical_when_homoskedastic():
    # iid errors, strictly exogenous x: CR1 and the classical within-OLS
    # standard error should agree to ~10% at this size
    rng = np.random.default_rng(15)
    P, W = 1000, 10
    player = np.repeat(np.arange(P), W)
    week = np.tile(np.arange(W), P)
    x = rng.normal(0, 1, P * W)
    y = (0.5 * x + rng.normal(0, 1, P)[player] + rng.normal(0, 1, W)[week]
         + rng.normal(0, 1, P * W))
    d = {"player": player, "week": week, "x": x, "y": y}
    fit = ols_fit(d, DesignSpec(outcome="y", exog=("x",)))
    res = within_transform(d, ["y", "x"])
    xt, yt = res.columns["x"], res.columns["y"]
    b = float(xt @ yt / (xt @ xt))
    u = yt - b * xt
    dof = P * W - 1 - (P - 1) - (W - 1) - 1
    se_classical = float(np.sqrt(u @ u / dof / (xt @ xt)))
    assert fit.se_of("x") == pytest.approx(se_classical, rel=0.10)


# ---------------------------------------------------------------------------
# 2SLS


def test_tsls_collapses_to_ols_when_instrument_is_regressor():
    rng = np.random.default_rng(16)
    d = toy_panel(rng)
    d["zx"] = d["x"].copy()
    iv = tsls_fit(d, DesignSpec(outcome="y", endog=("x",), instruments=("zx",)))
    ols = ols_fit(d, DesignSpec(outcome="y", exog=("x",)))
    assert iv.coef_of("x") == pytest.approx(ols.coef_of("x"), abs=1e-10)


def test_tsls_closed_form_no_fe():
    rng = np.random.default_rng(17)
    d = toy_panel(rng)
    fit = tsls_fit(d, DesignSpec(outcome="y", endog=("x",), instruments=("z",),
                                 fixed_effects=(), cluster=None))
    n = d["y"].size
    X = np.column_stack([d["x"], np.ones(n)])
    Z = np.column_stack([d["z"], np.ones(n)])
    want = tsls_closed_form(d["y"], X, Z)
    assert np.abs(fit.coef - want).max() < 1e-10


def test_tsls_closed_form_two_way_fe():
    rng = np.random.default_rng(18)
    d = toy_panel(rng, n_players=11, n_weeks=6)
    fit = tsls_fit(d, DesignSpec(outcome="y", endog=("x",), instruments=("z",)))
    wd = demean_oracle({k: d[k] for k in ("y", "x", "z")}, d["player"], d["week"])
    want = tsls_closed_form(wd["y"], wd["x"][:, None], wd["z"][:, None])
    assert fit.coef_of("x") == pytest.approx(want[0], abs=1e-8)


def test_tsls_equals_reduced_form_over_first_stage():
    rng = np.random.default_rng(19)
    d = toy_panel(rng)
    iv = tsls_fit(d, DesignSpec(outcome="y", endog=("x",), instruments=("z",)))
    rf = ols_fit(d, DesignSpec(outcome="y", exog=("z",)))
    fs = ols_fit(d, DesignSpec(outcome="x", exog=("z",)))
    ratio = rf.coef_of("z") / fs.coef_of("z")
    assert iv.coef_of("x") == pytest.approx(ratio, abs=1e-10)


def test_tsls_attaches_first_stage_and_ar():
    rng = np.random.default_rng(20)
    d = toy_panel(rng)
    iv = tsls_fit(d, DesignSpec(outcome="y", endog=("x",), instruments=("z",)))
    fs = iv.first_stage[0]
    assert fs.model == "first_stage"
    assert fs.stats["instrument_wald"] > 10  # strong by construction
    assert iv.ar_stat == pytest.approx(
        anderson_rubin(d, DesignSpec(outcome="y", endog=("x",),
                                     instruments=("z",))), abs=1e-12)
    assert iv.stats["first_stage_wald"] == fs.stats["instrument_wald"]


def test_tsls_reduced_form_is_the_standalone_fit():
    rng = np.random.default_rng(27)
    d = toy_panel(rng)
    d["w"] = rng.normal(0, 1, d["y"].size)
    iv = tsls_fit(d, DesignSpec(outcome="y", endog=("x",), instruments=("z",),
                                exog=("w",)))
    rf = ols_fit(d, DesignSpec(outcome="y", exog=("z", "w")))
    assert iv.reduced_form.terms == rf.terms
    assert np.array_equal(iv.reduced_form.coef, rf.coef)
    assert np.array_equal(iv.reduced_form.vcov, rf.vcov)
    assert iv.ar_stat == (rf.coef_of("z") / rf.se_of("z")) ** 2
    assert iv.ar_stat == anderson_rubin(d, DesignSpec(
        outcome="y", endog=("x",), instruments=("z",), exog=("w",)))


def test_tsls_orthogonal_instrument_raises_weak():
    d = {"y": np.array([1.0, 2.0, 3.0, 4.0]),
         "x": np.array([1.0, -1.0, 1.0, -1.0]),
         "z": np.array([1.0, 1.0, -1.0, -1.0])}
    with pytest.raises(WeakIdentificationError) as err:
        tsls_fit(d, DesignSpec(outcome="y", endog=("x",), instruments=("z",),
                               fixed_effects=(), cluster=None))
    assert err.value.first_stage_stat == pytest.approx(0.0, abs=1e-20)


def test_tsls_scale_equivariance():
    rng = np.random.default_rng(21)
    d = toy_panel(rng)
    base = tsls_fit(d, DesignSpec(outcome="y", endog=("x",), instruments=("z",)))
    c = 3.7
    d2 = dict(d)
    d2["x"] = d["x"] * c
    scaled = tsls_fit(d2, DesignSpec(outcome="y", endog=("x",),
                                     instruments=("z",)))
    assert scaled.coef_of("x") == pytest.approx(base.coef_of("x") / c, rel=1e-10)
    assert scaled.se_of("x") == pytest.approx(base.se_of("x") / c, rel=1e-10)
    d3 = dict(d)
    d3["z"] = d["z"] * c  # instrument scale must not matter at all
    rescaled = tsls_fit(d3, DesignSpec(outcome="y", endog=("x",),
                                       instruments=("z",)))
    assert rescaled.coef_of("x") == pytest.approx(base.coef_of("x"), rel=1e-10)


def test_anderson_rubin_scale_invariant():
    rng = np.random.default_rng(22)
    d = toy_panel(rng)
    spec = DesignSpec(outcome="y", endog=("x",), instruments=("z",))
    base = anderson_rubin(d, spec)
    d2 = dict(d)
    d2["z"] = d["z"] * 10.0
    assert anderson_rubin(d2, spec) == pytest.approx(base, rel=1e-10)
    d3 = dict(d)
    d3["z"] = -d["z"]
    assert anderson_rubin(d3, spec) == pytest.approx(base, rel=1e-10)


def test_anderson_rubin_is_squared_reduced_form_t():
    rng = np.random.default_rng(23)
    d = toy_panel(rng)
    rf = ols_fit(d, DesignSpec(outcome="y", exog=("z",)))
    want = (rf.coef_of("z") / rf.se_of("z")) ** 2
    got = anderson_rubin(d, DesignSpec(outcome="y", endog=("x",),
                                       instruments=("z",)))
    assert got == pytest.approx(want, rel=1e-12)


def test_design_spec_validation():
    with pytest.raises(InvalidParameterError):
        DesignSpec(outcome="y", endog=("x",), instruments=("z1", "z2"))
    with pytest.raises(InvalidParameterError):
        DesignSpec(outcome="y", endog=("a", "b", "c"),
                   instruments=("d", "e", "f"))
    with pytest.raises(InvalidParameterError):
        DesignSpec(outcome="y", endog=("x",), instruments=("w",), exog=("w",))
    with pytest.raises(InvalidParameterError):
        ols_fit({"y": np.ones(3)}, DesignSpec(outcome="y", endog=("x",),
                                              instruments=("z",)))
    with pytest.raises(InvalidParameterError):
        tsls_fit({"y": np.ones(3)}, DesignSpec(outcome="y", exog=("x",)))


# ---------------------------------------------------------------------------
# heterogeneity decomposition


def het_panel(rng, zero_of=False):
    d = toy_panel(rng, n_players=14, n_weeks=8)
    n = d["y"].size
    d["z_kp_lag"] = rng.normal(0, 1, n)
    d["z_of_lag"] = rng.normal(0, 1, n)
    d["x_kp"] = 0.9 * d["z_kp_lag"] + 0.1 * d["z_of_lag"] + rng.normal(0, 1, n)
    d["x_of"] = (np.zeros(n) if zero_of
                 else 0.2 * d["z_kp_lag"] + 0.8 * d["z_of_lag"] + rng.normal(0, 1, n))
    d["y"] = 0.3 * d["x_kp"] + 0.7 * d["x_of"] + d["y"]
    return d


def test_heterogeneity_matches_two_endog_closed_form():
    rng = np.random.default_rng(24)
    d = het_panel(rng)
    fit = heterogeneity_fit(d, method="2sls")
    names = ("y", "x_kp", "x_of", "z_kp_lag", "z_of_lag")
    wd = demean_oracle({k: d[k] for k in names}, d["player"], d["week"])
    want = tsls_closed_form(wd["y"],
                            np.column_stack([wd["x_kp"], wd["x_of"]]),
                            np.column_stack([wd["z_kp_lag"], wd["z_of_lag"]]))
    assert fit.coef_of("x_kp") == pytest.approx(want[0], abs=1e-8)
    assert fit.coef_of("x_of") == pytest.approx(want[1], abs=1e-8)
    assert isinstance(fit.first_stage, tuple) and len(fit.first_stage) == 2


def test_heterogeneity_drops_flat_endog_pairwise():
    rng = np.random.default_rng(25)
    d = het_panel(rng, zero_of=True)
    fit = heterogeneity_fit(d, method="2sls")
    assert "x_of" in fit.dropped
    assert "x_of" not in fit.terms
    assert isinstance(fit.first_stage, tuple) and len(fit.first_stage) == 1
    fs = ols_fit(d, DesignSpec(outcome="x_kp", exog=("z_kp_lag", "z_of_lag")))
    assert np.array_equal(fit.first_stage[0].coef, fs.coef)
    solo = tsls_fit(d, DesignSpec(outcome="y", endog=("x_kp",),
                                  instruments=("z_kp_lag",)))
    assert fit.coef_of("x_kp") == pytest.approx(solo.coef_of("x_kp"), abs=1e-12)


@pytest.mark.parametrize("flat, dropped", [("x_of", ("x_of", "w")),
                                           ("z_of_lag", ("z_of_lag", "w"))])
def test_two_endog_drop_names_regressor_else_instrument_then_exog(flat, dropped):
    rng = np.random.default_rng(28)
    d = het_panel(rng)
    d[flat] = rng.normal(0, 1, 14)[d["player"]]  # absorbed by player FE
    d["w"] = rng.normal(0, 1, 8)[d["week"]]      # absorbed by week FE
    fit = tsls_fit(d, DesignSpec(outcome="y", endog=("x_kp", "x_of"),
                                 instruments=("z_kp_lag", "z_of_lag"), exog=("w",)))
    assert fit.dropped == dropped
    assert fit.terms == ("x_kp",) and len(fit.first_stage) == 1


def test_heterogeneity_2sls_traced_memory_is_bounded():
    # 100k rows, five fitted columns.  In units of one float64 column, the
    # fits once held a copy of each demeaned column and both stacked designs
    # through the residual and the sandwich, peaking at 18.1 columns; reading
    # the memo in place with one design alive at a time peaks at 11.1:
    # player and week codes, the five demeaned columns and X, Z.
    rng = np.random.default_rng(7)
    P, T = 2000, 50
    player = np.repeat(np.arange(P, dtype=np.int64), T)
    week = np.tile(np.arange(T, dtype=np.int64), P)
    n = player.size
    z_kp, z_of = rng.normal(0, 1, n), rng.normal(0, 1, n)
    x_kp = 0.9 * z_kp + 0.1 * z_of + rng.normal(0, 1, n)
    x_of = 0.2 * z_kp + 0.8 * z_of + rng.normal(0, 1, n)
    y = 0.3 * x_kp + 0.7 * x_of + rng.normal(0, 1, P)[player] + rng.normal(0, 1, n)
    panel = PanelDataset(player, week, {"y": y, "x_kp": x_kp, "x_of": x_of,
                                        "z_kp_lag": z_kp, "z_of_lag": z_of})
    tracemalloc.start()
    try:
        fit = heterogeneity_fit(panel, method="2sls")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.terms == ("x_kp", "x_of")
    assert peak < 14 * 8 * n, f"traced peak {peak / (8 * n):.1f} columns"


def test_heterogeneity_ols_and_bad_method():
    rng = np.random.default_rng(26)
    d = het_panel(rng)
    fit = heterogeneity_fit(d, method="ols")
    assert fit.model == "ols" and set(fit.terms) == {"x_kp", "x_of"}
    with pytest.raises(InvalidParameterError):
        heterogeneity_fit(d, method="gmm")


def int_panel(rng, dtype):
    """Panels with the same values stored as ``dtype`` and as float64: y on
    (x_kp, x_of) instrumented by (z_kp_lag, z_of_lag), values in int8's range
    with its -128 edge (0/1 for bool), and ``w`` constant per player.  An
    int64 panel also has ``big``, player-constant steps of 2**11 up from the
    int64 minimum: its demeaning leaves a rounding residue of 2**11, which is
    flat only against the column's own scale, 2**63."""
    P, T = 30, 10
    player = np.repeat(np.arange(P, dtype=np.int64), T)
    week = np.tile(np.arange(T, dtype=np.int64), P)
    n = P * T
    lo, hi = (0, 2) if dtype is np.bool_ else (-128, 128)

    def mix(a, b):  # a in 70% of rows: a strong first stage
        return np.where(rng.random(n) < 0.7, a, b)

    cols = {"z_kp_lag": rng.integers(lo, hi, n), "z_of_lag": rng.integers(lo, hi, n),
            "w": rng.integers(lo, hi, P)[player]}
    cols["z_kp_lag"][:3] = lo
    cols["x_kp"] = mix(cols["z_kp_lag"], rng.integers(lo, hi, n))
    cols["x_of"] = mix(cols["z_of_lag"], rng.integers(lo, hi, n))
    cols["y"] = mix(cols["x_kp"], cols["x_of"])
    if dtype is np.int64:
        cols["big"] = np.iinfo(np.int64).min + rng.integers(0, 2**20, P)[player] * 2**11
    narrow = {c: v.astype(dtype) for c, v in cols.items()}
    wide = {c: v.astype(np.float64) for c, v in narrow.items()}
    return (PanelDataset(player, week, narrow), PanelDataset(player, week, wide),
            [c for c in ("w", "big") if c in cols])


def assert_same_fit(a, b):
    assert a.terms == b.terms and a.dropped == b.dropped
    assert np.array_equal(a.coef, b.coef) and np.array_equal(a.vcov, b.vcov)
    assert a.ar_stat == b.ar_stat
    for fa, fb in zip((*a.first_stage, a.reduced_form), (*b.first_stage, b.reduced_form)):
        if fa is not None:
            assert_same_fit(fa, fb)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.bool_])
def test_integer_and_bool_columns_fit_bit_identically_to_float64(dtype):
    narrow, wide, flat = int_panel(np.random.default_rng(41), dtype)
    exog = tuple(flat)
    for fit in (
            lambda p: ols_fit(p, DesignSpec(outcome="y", endog=("x_kp",), exog=exog)),
            lambda p: ols_fit(p, DesignSpec(outcome="y", endog=("x_kp", "x_of"),
                                            exog=("z_kp_lag",), fixed_effects=())),
            lambda p: tsls_fit(p, DesignSpec(outcome="y", endog=("x_kp",),
                                             instruments=("z_kp_lag",), exog=exog)),
            lambda p: heterogeneity_fit(p, method="2sls"),
            lambda p: heterogeneity_fit(p, method="ols")):
        a, b = fit(narrow), fit(wide)
        assert_same_fit(a, b)
    assert ols_fit(narrow, DesignSpec(outcome="y", endog=("x_kp",), exog=exog)
                   ).dropped == exog


@pytest.mark.parametrize("values, want", [
    (np.array([-128, 5], dtype=np.int8), 128.0),
    (np.array([np.iinfo(np.int64).min, 7]), 2.0**63),
    (np.array([False, True]), 1.0),
    (np.array([-0.5, 0.25]), 0.5)], ids=["int8", "int64", "bool", "float64"])
def test_flat_scale_does_not_wrap_at_an_integer_minimum(values, want):
    # np.abs keeps int8 -128 and the int64 minimum negative
    assert _max_abs(values) == want


# ---------------------------------------------------------------------------
# playtime cross-section fit


def make_rows(rng, n=20, flat_nv=True):
    rows = []
    for i in range(n):
        kp = int(rng.random() < 0.3)
        of = int(rng.random() < 0.3)
        nf = int(kp == 0 and of == 0 and rng.random() < 0.5)
        # fields in PLAYTIME_DTYPE order: player, game, log_playtime, the
        # three dummies, num_games, num_groups, start_week, num_friends,
        # owns_smb, owns_nv
        rows.append((i, "SMB", float(rng.normal(2.8, 1.0)), kp, of, nf,
                     float(rng.integers(1, 40)), float(rng.integers(0, 8)),
                     float(rng.integers(0, 50)), int(rng.integers(1, 30)),
                     1, 0 if flat_nv else int(rng.random() < 0.5)))
    return np.rec.array(rows, dtype=PLAYTIME_DTYPE)


def test_playtime_variant_terms():
    rng = np.random.default_rng(27)
    rows = make_rows(rng, flat_nv=False)
    v1 = playtime_fit(rows, variant=1)
    v2 = playtime_fit(rows, variant=2)
    assert "kp_purchase" not in v1.terms and "no_friend_purchase" in v1.terms
    assert {"kp_purchase", "of_purchase", "no_friend_purchase"} < set(v2.terms)
    assert v1.model == "playtime_v1" and v2.model == "playtime_v2"
    assert v2.cluster is None


def test_playtime_matches_dense_regression():
    rng = np.random.default_rng(28)
    rows = make_rows(rng, flat_nv=False)
    fit = playtime_fit(rows, variant=2)
    cols = [np.asarray(rows[t], dtype=np.float64)
            for t in fit.terms if t != "const"]
    D = np.column_stack(cols + [np.ones(len(rows))])
    y = np.asarray(rows["log_playtime"])
    want, *_ = np.linalg.lstsq(D, y, rcond=None)
    assert np.abs(fit.coef - want).max() < 1e-8
    u = y - D @ fit.coef
    V = cr1_sandwich_loop(u, D, D, list(range(len(rows))))
    assert np.abs(fit.vcov - V).max() < 1e-10


def test_playtime_drops_flat_covariates():
    rng = np.random.default_rng(29)
    rows = make_rows(rng, flat_nv=True)  # owns_smb and owns_nv constant
    fit = playtime_fit(rows, variant=2)
    assert set(fit.dropped) == {"owns_smb", "owns_nv"}


def test_playtime_bad_inputs():
    rng = np.random.default_rng(30)
    rows = make_rows(rng)
    with pytest.raises(InvalidParameterError):
        playtime_fit(rows, variant=5)
    with pytest.raises(InvalidParameterError):
        playtime_fit([], variant=1)


# ---------------------------------------------------------------------------
# result object surface


def _fixed_fit(z, se):
    k = len(z)
    return FitResult(terms=tuple(f"t{i}" for i in range(k)), coef=np.asarray(z) * se,
                     vcov=np.diag(np.asarray(se, dtype=float) ** 2), n_obs=100,
                     n_clusters=10, n_singletons=0, fixed_effects=("player",),
                     cluster="player")


def test_normal_tails_match_scipy_oracle():
    norm = pytest.importorskip("scipy.stats").norm
    z = np.concatenate((np.linspace(-37.0, 37.0, 297), [0.0, 1e-300, 1.959963984540054,
                                                       -2.5758293035489, 36.99]))
    se = np.linspace(0.01, 3.0, z.size)
    fit = _fixed_fit(z, se)
    t = fit.tstats()
    assert np.all(np.abs(t) <= 37.0 + 1e-12)
    np.testing.assert_allclose(fit.pvalues(), 2.0 * norm.sf(np.abs(t)), rtol=1e-12, atol=1e-15)
    # past |z| = 37 both sides are subnormal
    far = _fixed_fit(np.array([-40.0, 38.0, 39.5, 60.0]), np.ones(4))
    np.testing.assert_allclose(far.pvalues(), 2.0 * norm.sf(np.abs(far.tstats())),
                               rtol=0, atol=1e-15)
    # intervals in units where 1e-14 is many ulps: |coef| <= 3, se <= 1
    near = _fixed_fit(np.linspace(-3.0, 3.0, 61), np.linspace(0.01, 1.0, 61))
    for level in (0.8, 0.9, 0.95, 0.99):
        half = norm.ppf(0.5 + level / 2.0) * near.se
        want = np.column_stack((near.coef - half, near.coef + half))
        np.testing.assert_allclose(near.conf_int(level), want, rtol=0, atol=1e-14)


def test_summary_p_column_matches_scipy_oracle():
    norm = pytest.importorskip("scipy.stats").norm
    fit = _fixed_fit([0.3, -1.96, 2.5758, 4.0, 0.7], [0.5, 1.0, 2.0, 0.25, 0.0])
    rows = fit.summary().splitlines()[-5:]
    for i, row in enumerate(rows):
        se = fit.se[i]
        z = fit.coef[i] / se if se > 0 else float("inf")  # se == 0 prints z = inf, p = 0
        p = 2.0 * norm.sf(abs(z))
        assert row == (f"{fit.terms[i]:<16}{fit.coef[i]:>14.6f}{se:>12.6f}"
                       f"{z:>10.3f}{p:>10.4f}")


def test_fit_result_summary_and_confint():
    rng = np.random.default_rng(31)
    d = toy_panel(rng)
    fit = ols_fit(d, DesignSpec(outcome="y", exog=("x",)))
    text = fit.summary()
    assert "x" in text and "cluster" in text.lower()
    lo, hi = fit.conf_int(0.95)[0]
    assert lo < fit.coef_of("x") < hi
    wide = fit.conf_int(0.99)[0]
    assert wide[0] < lo and hi < wide[1]
    rows = fit.csv_rows(prefix="ols_")
    assert rows[0][0] == "ols_x"


def test_playtime_with_as_many_rows_as_kept_terms_is_invalid():
    # variant 3 keeps 8 terms here (owns_smb and owns_nv are flat): 8 rows
    # are invalid, 7 rows cannot be full rank, 9 rows fit
    rows = make_rows(np.random.default_rng(0), n=9)
    assert len(playtime_fit(rows, variant=3).terms) == 8
    with pytest.raises(InvalidParameterError, match="8 rows for 8 coefficients"):
        playtime_fit(rows[:8], variant=3)
    with pytest.raises(RankDeficientError):
        playtime_fit(rows[:7], variant=3)
