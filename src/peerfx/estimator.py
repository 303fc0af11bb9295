"""Fixed-effects linear-probability estimation with clustered inference.

Player and week effects are absorbed exactly: demean by player, then solve
one small week-by-week least-squares system, with no iteration even on
censored or disconnected panels; a PanelDataset demeans each column once for
all its fits.  The fits read that memo's read-only arrays in place, while
the ``columns`` of a ``within_transform`` result are copies.  Coefficients
come from normal equations (the regressor count is tiny, the row count is
huge) solved by numpy; a singular-value screen proves most systems full
rank, and only one that fails it is handed to scipy's pivoted QR, which
decides the rank and names the collinear columns.
So a fit imports numpy alone unless its design is (nearly) collinear.
Covariance is the CR1 cluster sandwich.  One engine fits both models on
(regressor, instrument) pairs: each endogenous column pairs with its
instrument, each exogenous column with itself, so OLS is 2SLS with Z = X.
2SLS is just-identified only: beta = (Z'X)^-1 Z'y after demeaning, which
keeps the reduced-form / first-stage ratio identity exact.

Cross products accumulate over fixed-size row blocks reduced in a fixed
order, so results are bit-identical no matter how many threads compute the
block partials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (InsufficientClustersError, InvalidParameterError,
                     RankDeficientError, WeakIdentificationError)
from .fileio import OWNS_PREFIX

_BLOCK_ROWS = 1 << 20  # fixed reduction block for deterministic accumulation
_DEGENERATE_RTOL = 1e-8
_SQRT2 = math.sqrt(2.0)


def _raw_col(panel, name: str):
    return panel.column(name) if hasattr(panel, "column") else panel[name]


def _get_col(panel, name: str) -> np.ndarray:
    """Column ``name`` checked finite: a bool or integer column as stored
    (finite by type), any other as float64."""
    col = np.asarray(_raw_col(panel, name))
    if col.dtype.kind not in "biu":
        col = np.asarray(col, dtype=np.float64)
        if not np.isfinite(col).all():
            raise InvalidParameterError(f"column {name!r} contains non-finite values")
    return col


def _max_abs(col: np.ndarray) -> float:
    """Largest |value| of a checked column, from its extremes, with no
    row-sized temporary; ``np.abs`` would also wrap an integer minimum
    (int8 -128 stays -128)."""
    return max(-float(col.min()), float(col.max()))


def _get_codes(panel, dim: str) -> np.ndarray:
    if hasattr(panel, "codes"):
        return panel.codes(dim)
    _, inv = np.unique(np.asarray(panel[dim]), return_inverse=True)
    return inv.astype(np.int64, copy=False)


def _crossprod(A: np.ndarray, B: np.ndarray, threads: int = 1) -> np.ndarray:
    """A'B accumulated over fixed row blocks (bit-stable across thread counts)."""
    n = A.shape[0]
    starts = list(range(0, max(n, 1), _BLOCK_ROWS))

    def part(s):
        return np.einsum("ij,ik->jk", A[s:s + _BLOCK_ROWS], B[s:s + _BLOCK_ROWS])

    if threads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor  # imports logging
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(part, starts))
    else:
        parts = [part(s) for s in starts]
    if len(parts) == 1:
        return parts[0]
    return np.add.reduce(np.stack(parts), axis=0)


@dataclass
class WithinResult:
    """Within-transformed columns; ``iterations`` is 1 with FE, 0 without.

    ``columns`` holds writable copies, made on first access.  The fits read
    ``_arrays`` instead: the memo's read-only arrays (or, without fixed
    effects, the checked input columns as float64), which no caller may
    write into.
    """

    _arrays: dict
    iterations: int

    @cached_property
    def columns(self) -> dict:
        return {name: col.copy() for name, col in self._arrays.items()}


def _fe_system(panel, dims: tuple):
    """Group codes and sizes of ``dims[0]``; for two-way FE also the week
    codes and the matrix diag(n_t) - C' diag(1/n_i) C, C the player-by-week
    count matrix (the week block of the player-demeaned normal equations)."""
    codes = _get_codes(panel, dims[0])
    sizes = np.bincount(codes).astype(np.float64)
    if len(dims) == 1:
        return codes, sizes, None
    weeks = _get_codes(panel, "week")
    W = int(weeks.max(initial=-1)) + 1
    C = np.bincount(codes * W + weeks, minlength=sizes.size * W)
    C = C.reshape(sizes.size, W).astype(np.float64)
    A = np.diag(np.bincount(weeks, minlength=W).astype(np.float64))
    A -= _crossprod(C / sizes[:, None], C)
    return codes, sizes, (weeks, A)


def _demean(col: np.ndarray, codes, sizes, week_system) -> np.ndarray:
    """Residual of ``col`` on the group dummies (plus the week dummies), in
    float64.  A bool or integer column is read as float64 exactly, with no
    float copy of it kept, and each step writes in place: at most three
    row-sized float arrays are alive."""
    out = (np.bincount(codes, weights=col, minlength=sizes.size) / sizes)[codes]
    np.subtract(col, out, out=out)
    if week_system is not None:
        weeks, A = week_system
        rhs = np.bincount(weeks, weights=out, minlength=A.shape[0])
        g = np.linalg.lstsq(A, rhs, rcond=None)[0][weeks]
        g -= (np.bincount(codes, weights=g, minlength=sizes.size) / sizes)[codes]
        out -= g
    return out


def within_transform(panel, columns: Sequence[str],
                     fe_dims=("player", "week")) -> WithinResult:
    """Exact residuals of ``columns`` on the ``fe_dims`` dummies.

    One dimension is one group demeaning.  Two-way demeans by player, solves
    the W x W week system (over weeks whatever the order of ``fe_dims``) by
    ``lstsq``, exact also for disconnected panels, and subtracts the
    player-demeaned week effects.  A PanelDataset keeps the system while
    ``panel.player``/``panel.week`` are the same array objects, and each
    result while ``panel.column(name)`` also is, so replace a column rather
    than write into it.  The fits read the memo's read-only arrays; the
    returned ``columns`` are writable copies.
    """
    bad = [d for d in fe_dims if d not in ("player", "week")]
    if bad:
        raise InvalidParameterError(f"unknown fixed-effect dims: {bad}")
    dims = tuple(sorted(set(fe_dims)))
    if not dims:
        return WithinResult({name: np.asarray(_get_col(panel, name), dtype=np.float64)
                             for name in columns}, 0)
    keys = tuple(_raw_col(panel, d) for d in dims)
    memo = getattr(panel, "_within", {})
    hit = memo.get(dims)
    if hit is None or any(a is not b for a, b in zip(hit[0], keys)):
        hit = memo[dims] = (keys, _fe_system(panel, dims), {})
    _, system, done = hit
    data = {}
    for name in columns:
        src = _raw_col(panel, name)
        col = done.get(name)
        if col is None or col[0] is not src:
            demeaned = _demean(_get_col(panel, name), *system)
            demeaned.setflags(write=False)
            col = done[name] = (src, demeaned)
        data[name] = col[1]
    return WithinResult(data, 1)


@dataclass
class DesignSpec:
    """What to regress on what, and how to absorb and cluster.

    ``endog``/``instruments`` must have equal length (just-identified 2SLS
    only); OLS specs leave ``instruments`` empty and may carry regressors in
    either ``endog`` or ``exog``.  ``fixed_effects`` is any subset of
    {"player", "week"}; with no fixed effects an intercept is added
    automatically.  ``cluster`` is a column name (default "player") or None
    for heteroskedasticity-robust (HC1) errors.
    """

    outcome: str
    endog: tuple = ()
    instruments: tuple = ()
    exog: tuple = ()
    fixed_effects: tuple = ("player", "week")
    cluster: str | None = "player"

    def __post_init__(self):
        self.endog = tuple(self.endog)
        self.instruments = tuple(self.instruments)
        self.exog = tuple(self.exog)
        self.fixed_effects = tuple(self.fixed_effects)
        if self.instruments and len(self.instruments) != len(self.endog):
            raise InvalidParameterError(
                "need exactly one instrument per endogenous column (just-identified)")
        if set(self.instruments) & set(self.exog):
            raise InvalidParameterError("instruments must be disjoint from exogenous columns")
        if len(self.endog) > 2:
            raise InvalidParameterError("at most two endogenous columns are supported")


def _two_sided_p(z: float) -> float:
    """Normal-approximation two-sided p-value of a z statistic, 2*(1 - Phi(|z|))."""
    return math.erfc(abs(z) / _SQRT2)


@dataclass
class FitResult:
    """Named coefficients with cluster-robust covariance and diagnostics.

    ``n_singletons`` counts singleton clusters (kept — they contribute no
    within variation but preserve the balanced row count).  On 2SLS fits
    ``first_stage`` holds one first-stage fit per kept endogenous column,
    and with one endogenous column ``reduced_form`` is the reduced-form fit
    and ``ar_stat`` its cluster-robust instrument Wald statistic.
    ``dropped`` lists columns removed for having no variation after the
    within transform.
    """

    terms: tuple
    coef: np.ndarray
    vcov: np.ndarray
    n_obs: int
    n_clusters: int
    n_singletons: int
    fixed_effects: tuple
    cluster: str | None
    model: str = "ols"
    ar_stat: float | None = None
    first_stage: tuple = ()
    reduced_form: "FitResult | None" = None
    dropped: tuple = ()
    stats: dict = field(default_factory=dict)

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.vcov), 0.0, None))

    def tstats(self) -> np.ndarray:
        return self.coef / self.se

    def pvalues(self) -> np.ndarray:
        return np.array([_two_sided_p(z) for z in self.tstats()], dtype=np.float64)

    def conf_int(self, level: float = 0.95) -> np.ndarray:
        from statistics import NormalDist  # no command reads an interval
        half = NormalDist().inv_cdf(0.5 + level / 2.0) * self.se
        return np.column_stack((self.coef - half, self.coef + half))

    def coef_of(self, term: str) -> float:
        return float(self.coef[self.terms.index(term)])

    def se_of(self, term: str) -> float:
        return float(self.se[self.terms.index(term)])

    def summary(self) -> str:
        lines = [f"{self.model.upper()} fit: {self.n_obs} obs, "
                 f"{self.n_clusters} clusters ({self.cluster or 'HC1'}), "
                 f"FE: {'+'.join(self.fixed_effects) or 'none'}"]
        if self.n_singletons:
            lines.append(f"singleton clusters kept: {self.n_singletons}")
        if self.dropped:
            lines.append(f"dropped (no variation): {', '.join(self.dropped)}")
        lines.append(f"{'term':<16}{'estimate':>14}{'se':>12}{'z':>10}{'p':>10}")
        for i, term in enumerate(self.terms):
            z = self.coef[i] / self.se[i] if self.se[i] > 0 else float("inf")
            p = _two_sided_p(z)
            lines.append(f"{term:<16}{self.coef[i]:>14.6f}{self.se[i]:>12.6f}"
                         f"{z:>10.3f}{p:>10.4f}")
        if self.ar_stat is not None:
            lines.append(f"Anderson-Rubin stat (cluster-robust reduced form): "
                         f"{self.ar_stat:.2f}")
        return "\n".join(lines)

    def csv_rows(self, prefix: str = "") -> list:
        rows = []
        for i, term in enumerate(self.terms):
            se = float(self.se[i])
            stat = float(self.coef[i] / se) if se > 0 else None
            rows.append((prefix + term, float(self.coef[i]), se, stat))
        return rows


def _solve_pivoted(A: np.ndarray, b: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Solve A beta = b, raising RankDeficientError naming collinear columns.

    The rank rule is pivoted QR's: |R_kk| > tol for every k, with
    tol = |R_11| * K * eps * 100 and |R_11| the largest column norm of A.
    For triangular R, min |R_kk| >= sigma_min(R) = sigma_min(A), so
    sigma_min(A) > 2 * tol proves full rank under that rule (the factor 2
    covers rounding in either factorization) and A is solved directly.
    Any other A gets the pivoted QR itself, which also rejects NaN and inf.
    """
    K = A.shape[0]
    if K == 0:
        raise RankDeficientError(tuple(names))
    rtol = K * np.finfo(np.float64).eps * 100
    tol = np.linalg.norm(A, axis=0).max() * rtol
    if not (np.isfinite(tol) and np.linalg.svd(A, compute_uv=False)[-1] > 2 * tol):
        import scipy.linalg
        _, R, piv = scipy.linalg.qr(A, pivoting=True)
        diag = np.abs(np.diag(R))
        rank = int((diag > diag.max() * rtol).sum())
        if rank < K:
            raise RankDeficientError(tuple(names[p] for p in piv[rank:]))
    return np.linalg.solve(A, b)


def _cr1_sandwich(A: np.ndarray, S, u: np.ndarray, codes: np.ndarray,
                  G: int, threads: int) -> np.ndarray:
    """CR1 cluster sandwich A^-1 (sum_g S_g'u_g u_g'S_g) A^-T, scaled by
    G/(G-1) * (N-1)/(N-K) and symmetrized; ``S`` is a sequence of score
    columns, ``codes`` are dense 0..G-1."""
    if G < 2:
        raise InsufficientClustersError(f"need at least 2 clusters, got {G}")
    N, K = u.size, A.shape[1]
    if N <= K:
        raise InvalidParameterError(
            f"{N} rows for {K} coefficients: the CR1 factor (N-1)/(N-K) needs N > K")
    bread = np.linalg.solve(A, np.eye(K))
    scores = np.empty((G, len(S)))
    for c, col in enumerate(S):
        scores[:, c] = np.bincount(codes, weights=col * u, minlength=G)
    meat = _crossprod(scores, scores, threads=threads)
    V = bread @ meat @ bread.T * ((G / (G - 1.0)) * ((N - 1.0) / (N - K)))
    return (V + V.T) / 2.0


def clustered_vcov(residuals: np.ndarray, X: np.ndarray, clusters,
                   threads: int = 1) -> np.ndarray:
    """CR1 cluster sandwich: (X'X)^-1 (sum_g X_g'u_g u_g'X_g) (X'X)^-1, scaled
    by G/(G-1) * (N-1)/(N-K).  With every row its own cluster this equals HC1.
    """
    u = np.asarray(residuals, dtype=np.float64)
    X = np.asarray(X, dtype=np.float64)
    uniq, codes = np.unique(np.asarray(clusters), return_inverse=True)
    return _cr1_sandwich(_crossprod(X, X, threads=threads), X.T, u,
                         codes.astype(np.int64), uniq.size, threads)


def _fit_core(panel, spec: DesignSpec, threads, model: str) -> FitResult:
    """OLS and 2SLS on within-transformed (regressor, instrument) pairs.

    Endogenous columns pair with ``spec.instruments``; exogenous columns,
    and every regressor of a spec without instruments, pair with themselves,
    so OLS is the case ``Z is X``.  A pair with a flat side is dropped, and
    ``dropped`` names the regressor if it is flat, else its instrument.
    """
    pairs = [*zip(spec.endog, spec.instruments or spec.endog),
             *((e, e) for e in spec.exog)]
    names = list(dict.fromkeys(c for pair in pairs for c in pair))
    # each column as stored: an integer column is not copied to be checked
    originals = {name: _get_col(panel, name) for name in (spec.outcome, *names)}
    n = originals[spec.outcome].size
    for name, col in originals.items():
        if col.size != n:
            raise InvalidParameterError(f"column {name!r} length mismatch")
    if n == 0:
        raise InvalidParameterError("empty panel")

    add_const = not spec.fixed_effects
    data = within_transform(panel, list(originals), spec.fixed_effects)._arrays

    def spread(v):  # no absorbed intercept: one is included, so vary around it
        if not add_const:
            return _max_abs(v)
        # max |v - mean| bit for bit (rounding is monotone), with no centred copy
        m = v.mean()
        return max(float(v.max() - m), float(m - v.min()))

    # flat: nothing left above _DEGENERATE_RTOL of the column's own scale
    flat = {c for c in names if spread(data[c])
            <= _DEGENERATE_RTOL * max(1.0, _max_abs(originals[c]))}
    kept = [(x, z) for x, z in pairs if x not in flat and z not in flat]
    dropped = [x if x in flat else z for x, z in pairs if x in flat or z in flat]
    if not kept and not add_const:
        raise RankDeficientError(tuple(x for x, _ in pairs))

    def design(cols):  # the design's columns, unstacked
        return [*(data[c] for c in cols), *([np.ones(n)] if add_const else [])]

    terms = [x for x, _ in kept] + (["const"] if add_const else [])
    instruments = [z for _, z in kept]
    X = np.column_stack(design([x for x, _ in kept]))
    Z = np.column_stack(design(instruments)) if spec.instruments else X
    y = data[spec.outcome]

    ZtX = _crossprod(Z, X, threads=threads)
    if Z is not X:
        # numerically-zero det on the angle-normalized matrix => unidentified
        dz = np.sqrt(np.einsum("ij,ij->j", Z, Z))
        dx = np.sqrt(np.einsum("ij,ij->j", X, X))
        norm = ZtX / np.outer(dz, dx)
        smin = float(np.linalg.svd(norm, compute_uv=False)[-1])
        if smin < 1e-10:
            raise WeakIdentificationError(
                f"instrument matrix numerically singular (sigma_min={smin:.2e})")
    Zty = _crossprod(Z, y[:, None], threads=threads)[:, 0]
    coef = _solve_pivoted(ZtX, Zty, terms)
    # one stacked design alive at a time: Z goes before the residual, X after
    # it, and the sandwich reads Z's columns (the same values) unstacked; the
    # residual is formed in place, so no row-sized temporary is freed
    del Z
    resid = X @ coef
    del X
    np.subtract(y, resid, out=resid)

    # dense 0..G-1 codes; with no cluster each row is its own (HC1)
    codes = (np.arange(n, dtype=np.int64) if spec.cluster is None
             else _get_codes(panel, spec.cluster))
    G = int(codes.max()) + 1
    sizes = np.bincount(codes)
    V = _cr1_sandwich(ZtX, design(instruments), resid, codes, G, threads)

    n_singletons = int((sizes == 1).sum()) if spec.cluster is not None else 0
    return FitResult(
        terms=tuple(terms), coef=coef, vcov=V, n_obs=int(n), n_clusters=int(G),
        n_singletons=n_singletons, fixed_effects=spec.fixed_effects,
        cluster=spec.cluster, model=model, dropped=tuple(dropped))


def ols_fit(panel, spec: DesignSpec, threads: int = 1) -> FitResult:
    """Within-transformed OLS with CR1 clustered (or HC1) covariance."""
    if spec.instruments:
        raise InvalidParameterError("ols_fit takes a spec without instruments")
    return _fit_core(panel, spec, threads, "ols")


def _wald(fit: FitResult, term: str) -> float:
    """Squared t of ``term``; inf when its standard error is zero."""
    se = fit.se_of(term)
    return float((fit.coef_of(term) / se) ** 2) if se > 0 else float("inf")


def _on_instruments(panel, spec: DesignSpec, outcome: str, z: str, model: str,
                    threads: int) -> FitResult:
    """OLS of ``outcome`` on every instrument and exogenous column of
    ``spec``, with the Wald statistic of instrument ``z``: a first stage
    when ``outcome`` is endogenous, the reduced form when it is the outcome."""
    fit = ols_fit(panel, DesignSpec(outcome=outcome, exog=(*spec.instruments, *spec.exog),
                                    fixed_effects=spec.fixed_effects,
                                    cluster=spec.cluster), threads=threads)
    fit.model = model
    fit.stats["instrument_wald"] = _wald(fit, z)
    return fit


def tsls_fit(panel, spec: DesignSpec, threads: int = 1) -> FitResult:
    """Just-identified 2SLS: beta = (Z'X)^-1 Z'y on within-transformed data.

    Each endogenous column pairs with its instrument and each exogenous
    column with itself; a pair with a flat side is dropped (see
    ``_fit_core``), and a fit that keeps no endogenous column is rank
    deficient.  ``first_stage`` is a tuple with one fit per kept endogenous
    column.  With one endogenous column the reduced form is fitted once and
    attached as ``reduced_form``; ``ar_stat`` is its instrument Wald, the
    Anderson-Rubin statistic.  Residuals for the sandwich are structural
    (y - X beta), scores are instrument-side.
    """
    if not spec.instruments:
        raise InvalidParameterError("tsls_fit needs instruments")
    try:
        result = _fit_core(panel, spec, threads, "2sls")
    except WeakIdentificationError as err:
        if len(spec.endog) != 1:
            raise
        fs = _on_instruments(panel, spec, spec.endog[0], spec.instruments[0],
                             "first_stage", threads)
        raise WeakIdentificationError(
            str(err), first_stage_stat=fs.stats["instrument_wald"]) from err
    result.first_stage = tuple(
        _on_instruments(panel, spec, x, z, "first_stage", threads)
        for x, z in zip(spec.endog, spec.instruments) if x in result.terms)
    if not result.first_stage:
        raise RankDeficientError(spec.endog)
    if len(spec.endog) == 1:
        result.reduced_form = _on_instruments(panel, spec, spec.outcome,
                                              spec.instruments[0], "reduced_form", threads)
        result.ar_stat = result.reduced_form.stats["instrument_wald"]
        result.stats["first_stage_wald"] = result.first_stage[0].stats["instrument_wald"]
    return result


def anderson_rubin(panel, spec: DesignSpec, threads: int = 1) -> float:
    """Cluster-robust Wald statistic on the instrument in the reduced form.

    AR = (delta_RF / se_cluster(delta_RF))^2 from regressing the outcome on
    the (within-transformed) instrument plus exogenous columns, the same fit
    ``tsls_fit`` attaches as ``reduced_form``.  In the just-identified case
    this equals the Anderson-Rubin test of a zero structural coefficient and
    stays valid under weak instruments.
    """
    if len(spec.instruments) != 1 or len(spec.endog) != 1:
        raise InvalidParameterError("anderson_rubin needs a single-instrument spec")
    rf = _on_instruments(panel, spec, spec.outcome, spec.instruments[0],
                         "reduced_form", threads)
    return rf.stats["instrument_wald"]


def heterogeneity_fit(panel, method: str = "2sls", threads: int = 1) -> FitResult:
    """Key-player / old-friend decomposition: y on (x_kp, x_of), both FE dims.

    2SLS instruments the pair with the correspondingly restricted
    second-degree lags (z_kp_lag, z_of_lag); the omitted category is recent
    non-key-player friends.  A column with no variation (e.g. x_of all zero)
    is dropped with a diagnostic instead of failing.
    """
    if method == "2sls":
        spec = DesignSpec(outcome="y", endog=("x_kp", "x_of"),
                          instruments=("z_kp_lag", "z_of_lag"))
        return tsls_fit(panel, spec, threads=threads)
    if method == "ols":
        spec = DesignSpec(outcome="y", endog=("x_kp", "x_of"))
        return ols_fit(panel, spec, threads=threads)
    raise InvalidParameterError(f"unknown method {method!r}")


def playtime_fit(rows, variant: int = 2, threads: int = 1) -> FitResult:
    """Cross-sectional OLS of log playtime with HC1 standard errors.

    ``rows`` is the record array from ``build_playtime_crosssection`` (any
    table indexed by field name will do).  Variants select the peer
    dummies: 1 = no_friend_purchase only; 2/3/4 = kp_purchase +
    of_purchase + no_friend_purchase (3 and 4 are meant for game-restricted
    row subsets — the caller filters the rows).  The account covariates,
    every ``owns_`` field in table order and an intercept always enter;
    covariates without variation in the sample are dropped with a diagnostic.
    """
    if variant not in (1, 2, 3, 4):
        raise InvalidParameterError("variant must be 1..4")
    if len(rows) == 0:
        raise InvalidParameterError("empty playtime cross-section")
    dummies = ("no_friend_purchase",) if variant == 1 else \
        ("kp_purchase", "of_purchase", "no_friend_purchase")
    fields = rows.dtype.names if hasattr(rows, "dtype") else rows
    names = (*dummies, "num_games", "num_groups", "start_week", "num_friends",
             *(c for c in fields if c.startswith(OWNS_PREFIX)))
    spec = DesignSpec(outcome="log_playtime", exog=names, fixed_effects=(),
                      cluster=None)
    fit = ols_fit(rows, spec, threads=threads)
    fit.model = f"playtime_v{variant}"
    return fit
