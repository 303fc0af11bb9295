"""Shared test oracles and the acceptance-criteria result banner.

Every oracle here is an INDEPENDENT implementation of something the library
computes — hash-set adjacency, BFS neighborhoods, dense linear solves, dummy
-variable regressions, exact-fraction sandwiches — deliberately written the
slow, obvious way so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

# ---------------------------------------------------------------------------
# graph oracles


def adjacency_oracle(edges):
    """{node: {neighbor: formed_week}} keeping the earliest week per pair."""
    adj = {}
    for a, b, w in edges:
        a, b, w = int(a), int(b), int(w)
        if a == b:
            continue
        for u, v in ((a, b), (b, a)):
            adj.setdefault(u, {})
            if v not in adj[u] or w < adj[u][v]:
                adj[u][v] = w
    return adj


def neighbors_oracle(adj, i, t):
    return {j for j, w in adj.get(i, {}).items() if w <= t}


def second_degree_oracle(adj, i, t):
    """Depth-2 BFS minus the depth-1 frontier minus the root."""
    first = neighbors_oracle(adj, i, t)
    second = set()
    for j in first:
        second |= neighbors_oracle(adj, j, t)
    return second - first - {i}


def katz_dense_oracle(adj, nodes, t, alpha):
    """Solve (I - alpha*A_t) x = 1 densely."""
    idx = {n: k for k, n in enumerate(nodes)}
    n = len(nodes)
    A = np.zeros((n, n))
    for i in nodes:
        for j, w in adj.get(i, {}).items():
            if w <= t and j in idx:
                A[idx[i], idx[j]] = 1.0
    return np.linalg.solve(np.eye(n) - alpha * A, np.ones(n))


def katz_alpha_oracle(A, steps=50):
    """Katz's default alpha, 0.9 / lambda_hat (0.9 without edges), with
    lambda_hat the norm ratio after ``steps`` power steps of the scipy
    matrix ``A`` from the all-ones vector.  Each norm is the square root of
    numpy's pairwise sum of squares, a sum whose order no thread count
    changes."""
    v = np.ones(A.shape[0])
    lam = 0.0
    for _ in range(steps):
        w = A @ v
        norm = math.sqrt(np.add.reduce(w * w))
        if norm == 0.0:
            lam = 0.0
            break
        lam = norm / math.sqrt(np.add.reduce(v * v))
        v = w / norm
    return 0.9 / lam if lam > 0 else 0.9


def random_edges(rng, n_nodes, n_edges, max_week=30):
    a = rng.integers(0, n_nodes, n_edges)
    b = rng.integers(0, n_nodes, n_edges)
    w = rng.integers(0, max_week + 1, n_edges)
    return list(zip(a.tolist(), b.tolist(), w.tolist()))


def adjacency_rows(net):
    """[(neighbor index, formed week), ...] per dense row of ``net``, read by
    slicing each CSR row on its own."""
    bounds = zip(net.indptr[:-1].tolist(), net.indptr[1:].tolist())
    return [list(zip(net.nbr[lo:hi].tolist(), net.formed[lo:hi].tolist()))
            for lo, hi in bounds]


def first_friend_oracle(adj, weeks, i):
    """Id of the friend of i who bought first, or -1.

    ``weeks`` maps player -> purchase week.  A friend counts when the edge
    formed no later than i's purchase week and the friend bought strictly
    earlier than i; ties on the week go to the smallest id.  -1 when i never
    bought or no friend counts.
    """
    own = weeks.get(i)
    if own is None:
        return -1
    best = None
    for j, formed in adj.get(i, {}).items():
        wj = weeks.get(j)
        if formed <= own and wj is not None and wj < own:
            if best is None or (wj, j) < best:
                best = (wj, j)
    return -1 if best is None else best[1]


# ---------------------------------------------------------------------------
# simulation oracle


def adoption_sweep_oracle(net, cfg, truth, rng, kp_mask):
    """Purchase week per dense index (None for none), clip_low, clip_high.

    A player-by-player sweep of every horizon week, drawing from ``rng`` in
    the simulator's order: player effects once, then per week the
    probability noise, the uniforms and the evaluation slots.  In slot
    order, a player who has not bought yet buys when their uniform is below
    base + beta / beta_kp / beta_of for having any owning friend / key-player
    friend / old friend (an edge formed by week release - 56, 52 weeks
    before the reference week release - 4), over edges formed by this week.
    A friend owns once they bought in an earlier week or at an earlier slot
    of this one.  The clip counts read the week-start hazards of the players
    not yet owning.  Homophily is not modelled.
    """
    assert truth.homophily == 0.0
    P = net.n_nodes
    adj = adjacency_rows(net)
    alpha = rng.normal(0.0, truth.sigma_alpha, P) if truth.sigma_alpha > 0 \
        else np.zeros(P)
    wfx = truth.week_effects or (0.0,) * (cfg.n_weeks - cfg.release_week)
    bought = [None] * P
    clip_low = clip_high = 0
    for t in range(cfg.release_week, cfg.n_weeks):
        base = truth.baseline_hazard + alpha + wfx[t - cfg.release_week]
        if truth.prob_noise_sd > 0:
            base = base + rng.normal(0.0, truth.prob_noise_sd, P)

        def hazard(p):
            owning = [(j, f) for j, f in adj[p] if f <= t and bought[j] is not None]
            return (base[p] + truth.beta * bool(owning)
                    + truth.beta_kp * any(kp_mask[j] for j, _ in owning)
                    + truth.beta_of * any(f <= cfg.release_week - 56 for _, f in owning))

        for p in range(P):
            if bought[p] is None:
                h = hazard(p)
                clip_low += h < 0.0
                clip_high += h > 1.0
        u = rng.random(P)
        slots = rng.permutation(P)
        for p in np.argsort(slots).tolist():
            if bought[p] is None and u[p] < hazard(p):
                bought[p] = t
    return bought, int(clip_low), int(clip_high)


# ---------------------------------------------------------------------------
# estimation oracles


def demean_oracle(cols, player, week, fe=("player", "week")):
    """Residualize columns on FE dummies via dense least squares."""
    n = len(player)
    blocks = [np.ones((n, 1))]
    if "player" in fe:
        _, pc = np.unique(player, return_inverse=True)
        blocks.append(np.eye(pc.max() + 1)[pc])
    if "week" in fe:
        _, wc = np.unique(week, return_inverse=True)
        blocks.append(np.eye(wc.max() + 1)[wc])
    D = np.hstack(blocks)
    out = {}
    for name, col in cols.items():
        coef, *_ = np.linalg.lstsq(D, col, rcond=None)
        out[name] = col - D @ coef
    return out


def lsdv_oracle(y, X, player, week, fe=("player", "week")):
    """Coefficients of y ~ X + FE dummies via one dense lstsq."""
    n = len(y)
    blocks = [np.ones((n, 1))]
    if "player" in fe:
        _, pc = np.unique(player, return_inverse=True)
        blocks.append(np.eye(pc.max() + 1)[pc][:, 1:])
    if "week" in fe:
        _, wc = np.unique(week, return_inverse=True)
        blocks.append(np.eye(wc.max() + 1)[wc][:, 1:])
    D = np.hstack([X] + blocks)
    coef, *_ = np.linalg.lstsq(D, y, rcond=None)
    return coef[: X.shape[1]]


def tsls_closed_form(y, X, Z):
    return np.linalg.solve(Z.T @ X, Z.T @ y)


def cr1_sandwich_loop(u, X, Z, clusters):
    """Cluster sandwich by explicit per-cluster loops (float)."""
    N, K = X.shape
    groups = {}
    for r, c in enumerate(clusters):
        groups.setdefault(c, []).append(r)
    G = len(groups)
    meat = np.zeros((K, K))
    for rows in groups.values():
        s = Z[rows].T @ u[rows]
        meat += np.outer(s, s)
    bread = np.linalg.inv(Z.T @ X)
    factor = (G / (G - 1)) * ((N - 1) / (N - K))
    return factor * bread @ meat @ bread.T


def cr1_sandwich_fractions(y_int, x_int, clusters):
    """One-regressor CR1 OLS sandwich in EXACT rational arithmetic.

    Integer-valued y and x keep every intermediate a Fraction, so the
    float implementation can be held to 1e-12.
    """
    y = [Fraction(int(v)) for v in y_int]
    x = [Fraction(int(v)) for v in x_int]
    n = len(y)
    sxx = sum(xi * xi for xi in x)
    sxy = sum(xi * yi for xi, yi in zip(x, y))
    beta = sxy / sxx
    u = [yi - beta * xi for xi, yi in zip(x, y)]
    groups = {}
    for r, c in enumerate(clusters):
        groups.setdefault(c, []).append(r)
    G = len(groups)
    meat = Fraction(0)
    for rows in groups.values():
        s = sum(x[r] * u[r] for r in rows)
        meat += s * s
    factor = Fraction(G, G - 1) * Fraction(n - 1, n - 1)  # K = 1
    return beta, factor * meat / (sxx * sxx)


def toy_panel(rng, n_players=8, n_weeks=6, binary=False):
    """Small two-way panel dict with y, x, z columns carrying real structure."""
    player = np.repeat(np.arange(n_players), n_weeks)
    week = np.tile(np.arange(n_weeks), n_players)
    alpha = rng.normal(0, 1, n_players)[player]
    wfx = rng.normal(0, 1, n_weeks)[week]
    z = rng.normal(0, 1, player.size)
    x = 0.8 * z + alpha * 0.3 + rng.normal(0, 1, player.size)
    y = 0.5 * x + alpha + wfx + rng.normal(0, 1, player.size)
    if binary:
        x = (x > 0).astype(float)
        z = (z > 0).astype(float)
        y = (y > np.median(y)).astype(float)
    return {"player": player, "week": week, "y": y, "x": x, "z": z}


# ---------------------------------------------------------------------------
# acceptance banner

ACCEPTANCE_RESULTS = []


def record_criterion(number, label, passed, detail=""):
    ACCEPTANCE_RESULTS.append((number, label, bool(passed), detail))


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    tr = terminalreporter
    tr.write_sep("-", "acceptance criteria")
    for number, label, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number} {status:4s} {label}"
        if detail:
            line += f" — {detail}"
        tr.write_line(line, green=passed, red=not passed)
