"""Synthetic friendship-and-adoption generator with known ground truth.

Everything here exists so the estimation pipeline can be pointed at data
whose true contagion effect is chosen up front: a configuration-model
network with timestamped edges, a weekly adoption process whose hazard
shifts by ``beta`` when a friend already owns the game, and a log-normal
playtime layer on top of realized purchases.

Within a week, adoption is sequential: every player gets a uniform draw and
a random evaluation slot, purchases commit in slot order, and a commit
immediately shifts the hazard of friends evaluated later the same week.
A decision depends only on friends with an earlier slot, so each week has
one consistent set of buyers; vectorized waves over the neighborhoods of
changed decisions find it exactly, without walking players in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import GenerationFailedError, InvalidParameterError
from .graph import (DEFAULT_DEGREE_CAP, NEVER, TagConfig, TemporalNetwork,
                    _unique, build_network, katz_centrality, tag_peers)
from .panel import AdoptionSchedule, _first_friend_dummies, _key_player_mask


@dataclass
class SimConfig:
    """Shape of the synthetic world (network + calendar), not its behavior."""

    n_players: int = 20000
    mean_degree: float = 2.15
    degree_dist: str = "poisson"
    powerlaw_exponent: float = 2.5
    n_weeks: int = 100
    release_week: int = 60
    old_edge_fraction: float = 0.5
    formation_end: int | None = None
    key_player_share: float = 0.01
    seed: int = 0
    game: str = "SMB"
    epoch_unix: int = 0

    def __post_init__(self):
        if self.n_players < 2:
            raise InvalidParameterError("n_players must be at least 2")
        if not 0 <= self.mean_degree < self.n_players:
            raise InvalidParameterError("mean_degree must be in [0, n_players)")
        if self.degree_dist not in ("poisson", "powerlaw"):
            raise InvalidParameterError(f"unknown degree_dist {self.degree_dist!r}")
        if self.degree_dist == "powerlaw" and not self.powerlaw_exponent > 2.0:
            raise InvalidParameterError(
                "powerlaw_exponent must exceed 2 (finite mean degree)")
        if not 0.0 < self.key_player_share < 1.0:
            raise InvalidParameterError("key_player_share must be in (0, 1)")
        self.tags  # the tag rule checks the release week
        if self.release_week >= self.n_weeks:
            raise InvalidParameterError("release_week must be before n_weeks")
        if not 0.0 <= self.old_edge_fraction <= 1.0:
            raise InvalidParameterError("old_edge_fraction must be in [0, 1]")
        if self.formation_end is None:
            self.formation_end = self.release_week
        if not 0 <= self.formation_end < self.n_weeks:
            raise InvalidParameterError("formation_end must be in [0, n_weeks)")
        if not self.game:
            raise InvalidParameterError("game must be a non-empty string")

    @property
    def tags(self) -> TagConfig:
        """The tag rule of the planted key players and old friends."""
        return TagConfig(self.release_week, kp_percentile=1.0 - self.key_player_share)


@dataclass
class SimTruth:
    """The parameters the toolkit is supposed to recover (or hold at zero).

    ``beta`` is the weekly adoption-probability shift from having at least
    one owning friend; ``beta_kp``/``beta_of`` add on top when that friend
    is a key player / an old friend.  ``week_effects`` (length
    n_weeks - release_week) and per-player ``sigma_alpha`` noise enter the
    hazard additively, mirroring the two-way fixed effects the estimator
    absorbs.  ``gamma_*`` and the loadings drive the playtime layer only.
    """

    beta: float = 0.05
    beta_kp: float = 0.0
    beta_of: float = 0.0
    baseline_hazard: float = 5e-4
    sigma_alpha: float = 1e-4
    week_effects: tuple | None = None
    prob_noise_sd: float = 0.0
    homophily: float = 0.0
    gamma_kp: float = 0.0
    gamma_of: float = 0.0
    gamma_nofriend: float = 0.0
    playtime_mu: float = 2.8
    noise_sd: float = 1.0
    playtime_loadings: dict = field(default_factory=lambda: {
        "num_games": 0.01, "num_groups": 0.02,
        "start_week": -0.005, "num_friends": 0.01})

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not np.isfinite(value):
                raise InvalidParameterError(f"{f.name} must be finite, got {value!r}")
            if f.name in ("sigma_alpha", "prob_noise_sd", "noise_sd") and value < 0.0:
                raise InvalidParameterError(
                    f"{f.name} must be non-negative, got {value!r}")
        effects = () if self.week_effects is None else self.week_effects
        for name, values in (("week_effects", effects),
                             ("playtime_loadings", [*self.playtime_loadings.values()])):
            if not np.isfinite(np.asarray(values, dtype=np.float64)).all():
                raise InvalidParameterError(f"{name} must all be finite")

    def to_dict(self) -> dict:
        out = dict(self.__dict__)
        if self.week_effects is not None:
            out["week_effects"] = [float(w) for w in self.week_effects]
        out["playtime_loadings"] = dict(self.playtime_loadings)
        return out


def _draw_degrees(cfg: SimConfig, rng) -> np.ndarray:
    cap = min(cfg.n_players - 1, DEFAULT_DEGREE_CAP)
    if cfg.degree_dist == "poisson":
        deg = rng.poisson(cfg.mean_degree, cfg.n_players)
    else:
        alpha = cfg.powerlaw_exponent - 1.0
        # Pareto-I floored to ints; x_min tuned so the floored mean lands
        # near the requested mean degree
        x_min = (cfg.mean_degree + 0.5) * (alpha - 1.0) / alpha
        deg = np.floor(x_min * (1.0 + rng.pareto(alpha, cfg.n_players))).astype(np.int64)
    deg = np.minimum(deg, cap)
    if deg.sum() % 2 == 1:
        bump = int(np.flatnonzero(deg < cap)[0])
        deg[bump] += 1
    return deg.astype(np.int64)


def _conflicts(left: np.ndarray, right: np.ndarray, n: int) -> np.ndarray:
    """Self-loops, and every repeat of an already seen unordered pair."""
    keys = np.minimum(left, right)
    keys *= n
    keys += np.maximum(left, right)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    dup = np.zeros(keys.size, dtype=bool)
    dup[order[1:]] = keys[1:] == keys[:-1]
    return (left == right) | dup


def _pair_stubs(deg: np.ndarray, rng, max_rounds: int = 50):
    """Configuration-model matching; reshuffles bad pairs against good ones.

    Self-loops and duplicate pairs are re-matched together with an equal
    number of randomly chosen good pairs (pure re-shuffles of only the bad
    stubs often cannot untangle them).  Leftovers after ``max_rounds`` are
    dropped, which perturbs realized degrees by at most that many stubs.
    """
    n = deg.size
    stubs = np.repeat(np.arange(n, dtype=np.int64), deg)
    rng.shuffle(stubs)
    left, right = stubs[0::2].copy(), stubs[1::2].copy()
    del stubs
    dropped = 0
    rounds = 0
    for rounds in range(max_rounds):
        bad = _conflicts(left, right, n)
        nbad = int(bad.sum())
        if nbad == 0:
            break
        good_idx = np.flatnonzero(~bad)
        k = min(nbad, good_idx.size)
        pick = rng.choice(good_idx, size=k, replace=False) if k else good_idx[:0]
        pool_idx = np.concatenate([np.flatnonzero(bad), pick])
        pool = np.concatenate([left[pool_idx], right[pool_idx]])
        rng.shuffle(pool)
        left[pool_idx] = pool[:pool_idx.size]
        right[pool_idx] = pool[pool_idx.size:]
    else:
        bad = _conflicts(left, right, n)
        dropped = int(bad.sum())
        if dropped > max(1, bad.size // 100):
            raise GenerationFailedError(
                f"could not form a simple graph: {dropped} conflicting pairs "
                f"after {max_rounds} rematch rounds")
        left, right = left[~bad], right[~bad]
    return left, right, dropped, rounds + 1


def _timed_edges(cfg: SimConfig, rng, diagnostics: dict) -> tuple:
    """The configuration-model edges as (left, right, formed) int64 columns;
    their draw counters go to ``diagnostics``."""
    deg = _draw_degrees(cfg, rng)
    left, right, dropped, rounds = _pair_stubs(deg, rng)
    m = left.size
    cutoff = cfg.tags.old_friend_cutoff
    if cutoff < 0 or cutoff >= cfg.formation_end:
        formed = rng.integers(0, cfg.formation_end + 1, m)
        n_old = 0
    else:
        old = rng.random(m) < cfg.old_edge_fraction
        n_old = int(old.sum())
        # the two week draws are temporaries: only int64 ``formed`` lives on
        formed = np.where(old, rng.integers(0, cutoff + 1, m),
                          rng.integers(cutoff + 1, cfg.formation_end + 1, m))
        del old
    diagnostics.update(rematch_rounds=rounds, dropped_bad_pairs=dropped, old_edges=n_old)
    return left, right, formed


def gen_network(cfg: SimConfig, rng=None) -> TemporalNetwork:
    """Configuration-model friendship graph with edge formation weeks.

    An ``old_edge_fraction`` share of edges forms uniformly in
    [0, cutoff], with cutoff = ``cfg.tags.old_friend_cutoff`` (old enough
    to count as old friends); the rest form uniformly in
    (cutoff, formation_end].  When the cutoff falls before week 0
    every edge is recent.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    drawn = {}
    # no name holds the columns, so build_network frees them as it goes
    net = build_network(_timed_edges(cfg, rng, drawn),
                        nodes=np.arange(cfg.n_players, dtype=np.int64))
    net.diagnostics.update({
        "requested_mean_degree": float(cfg.mean_degree),
        "realized_mean_degree": float(2.0 * net.n_edges / cfg.n_players),
        **drawn,
    })
    return net


def simulate_adoption(net: TemporalNetwork, cfg: SimConfig, truth: SimTruth,
                      rng, kp_mask: np.ndarray | None = None,
                      game: str | None = None) -> AdoptionSchedule:
    """Weekly hazard process with exact within-week sequential commits.

    Each horizon week draws one uniform and one evaluation slot per player.
    A player buys when their uniform is below their hazard, given friends
    (over edges formed by then) who bought in an earlier week or at an
    earlier slot.  Slots are a permutation, so the week has exactly one
    consistent set of buyers: the one a player-by-player sweep finds, for
    any sign of the peer shifts.  Waves reach it from the week-start buyers;
    each re-decides the at-risk later-slot friends of the players whose
    decision just changed.  A player at depth d of the slot order is settled
    after wave d, and a wave that changes nothing ends the week.

    ``kp_mask`` marks key players by position (needed when ``beta_kp`` is
    nonzero); old-friend edges come from ``cfg.tags``.
    """
    P = net.n_nodes
    horizon = cfg.n_weeks - cfg.release_week
    wfx = np.zeros(horizon) if truth.week_effects is None else \
        np.asarray(truth.week_effects, dtype=np.float64)
    if wfx.size != horizon:
        raise InvalidParameterError(
            f"week_effects needs length {horizon}, got {wfx.size}")
    if kp_mask is None and truth.beta_kp != 0.0:
        raise InvalidParameterError("beta_kp set but no kp_mask given")
    kp_mask = np.zeros(P, dtype=bool) if kp_mask is None else np.asarray(kp_mask, dtype=bool)

    alpha = rng.normal(0.0, truth.sigma_alpha, P) if truth.sigma_alpha > 0 \
        else np.zeros(P)
    if truth.homophily != 0.0:  # shift by the mean of the friends' effects
        deg = net.degrees()
        alpha = alpha + truth.homophily * np.divide(
            net.friend_sum(alpha), deg, out=np.zeros_like(alpha), where=deg > 0)

    nbr, formed = net.nbr, net.formed
    old_slot = formed <= cfg.tags.old_friend_cutoff
    # directed slots whose edge forms mid-horizon, in week order, and their owners
    late = np.flatnonzero(formed > cfg.release_week)
    late = late[np.argsort(formed[late], kind="stable")]
    late_owner = np.searchsorted(net.indptr, late, side="right") - 1
    cuts = np.searchsorted(formed[late], np.arange(cfg.release_week, cfg.n_weeks + 1))

    p_week = np.full(P, NEVER, dtype=np.int64)
    seen = np.zeros((3, P), dtype=bool)  # owning friend: any, key player, old friend
    at_risk = np.ones(P, dtype=bool)
    clip_low = clip_high = 0

    def expose(flags, dest, owner, pos):
        """Owners ``owner`` over directed slots ``pos`` set ``flags`` at ``dest``."""
        flags[0, dest] = True
        flags[1, dest[kp_mask[owner]]] = True
        flags[2, dest[old_slot[pos]]] = True

    def hazard(who, flags):
        """Unclipped adoption probability of ``who`` at this week's ``base``."""
        return (base[who] + truth.beta * flags[0] + truth.beta_kp * flags[1]
                + truth.beta_of * flags[2])

    for t in range(cfg.release_week, cfg.n_weeks):
        w = t - cfg.release_week
        new, owner = late[cuts[w]:cuts[w + 1]], late_owner[cuts[w]:cuts[w + 1]]
        early = p_week[owner] < t  # owner bought before the edge formed
        expose(seen, nbr[new[early]], owner[early], new[early])
        base = truth.baseline_hazard + alpha + wfx[w]
        if truth.prob_noise_sd > 0:
            base = base + rng.normal(0.0, truth.prob_noise_sd, P)
        h = hazard(slice(None), seen)
        clip_low += int((h[at_risk] < 0.0).sum())
        clip_high += int((h[at_risk] > 1.0).sum())
        u = rng.random(P)
        slots = rng.permutation(P)
        # u < h iff u < clip(h, 0, 1), because u lies in [0, 1)
        buy = at_risk & (u < h)
        changed = np.flatnonzero(buy)
        while changed.size:
            r, pos = net.entries(changed)
            f = nbr[pos]
            later = (formed[pos] <= t) & at_risk[f] & (slots[f] > slots[changed[r]])
            who = _unique(f[later])
            r, pos = net.entries(who)
            k = nbr[pos]
            on = buy[k] & (formed[pos] <= t) & (slots[k] < slots[who[r]])
            flags = seen[:, who]  # a copy
            expose(flags, r[on], k[on], pos[on])
            now = u[who] < hazard(who, flags)
            changed = who[now != buy[who]]
            buy[who] = now
        buyers = np.flatnonzero(buy)
        p_week[buyers] = t
        at_risk[buyers] = False
        r, pos = net.entries(buyers)
        keep = formed[pos] <= t
        expose(seen, nbr[pos[keep]], buyers[r[keep]], pos[keep])

    bought = p_week < NEVER
    meta = {
        "game": game or cfg.game,
        "n_adopters": int(bought.sum()),
        "horizon": [int(cfg.release_week), int(cfg.n_weeks - 1)],
        "clip_low": clip_low,
        "clip_high": clip_high,
        "seed_stream": "shared",
    }
    return AdoptionSchedule(game=game or cfg.game,
                            players=net.nodes[bought].astype(np.int64),
                            weeks=p_week[bought].astype(np.int64),
                            meta=meta)


COVARIATE_RATES = {"num_games": 20.6, "num_groups": 5.2}


def simulate_playtime(net: TemporalNetwork, schedules: dict, tags, cfg: SimConfig,
                      truth: SimTruth, rng):
    """Log-normal playtime for realized owners, plus the covariate table.

    log hours = mu + gamma_kp*kp + gamma_of*of + gamma_nofriend*nf
    + loadings . (num_games, num_groups, start_week, num_friends) + noise,
    where the first-purchase channel flags come from the earliest-buying
    friend (ties to the smallest id), exactly as the cross-section builder
    later reconstructs them.  Minutes are floored at 1.

    Returns ((player, game, minutes), covariates): the playtime arrays are
    sorted by (player, game), one entry per purchase.
    """
    P = net.n_nodes
    cov = {
        "player": net.nodes.astype(np.int64),
        "num_games": rng.poisson(COVARIATE_RATES["num_games"], P).astype(np.int64),
        "num_groups": rng.poisson(COVARIATE_RATES["num_groups"], P).astype(np.int64),
        "start_week": rng.integers(0, cfg.release_week, P).astype(np.int64),
    }
    deg = np.asarray(net.degrees(), dtype=np.float64)
    load = truth.playtime_loadings
    base = (truth.playtime_mu
            + load.get("num_games", 0.0) * cov["num_games"]
            + load.get("num_groups", 0.0) * cov["num_groups"]
            + load.get("start_week", 0.0) * cov["start_week"]
            + load.get("num_friends", 0.0) * deg)
    kp_mask = _key_player_mask(net, tags)
    players = [np.zeros(0, dtype=np.int64)]
    games = [np.zeros(0, dtype=object)]
    minutes = [np.zeros(0, dtype=np.int64)]
    for game in sorted(schedules):
        sched = schedules[game]
        noise = rng.normal(0.0, truth.noise_sd, P)
        if sched.players.size == 0:
            continue
        pos = net.indices_of(sched.players)
        kp, of, nf = _first_friend_dummies(net, tags, kp_mask,
                                           sched.weeks_for(net.nodes), pos)
        logpt = (base[pos]
                 + truth.gamma_kp * kp
                 + truth.gamma_of * of
                 + truth.gamma_nofriend * nf
                 + noise[pos])
        players.append(sched.players)
        games.append(np.full(pos.size, game, dtype=object))
        minutes.append(np.maximum(np.rint(np.exp(logpt) * 60.0), 1.0).astype(np.int64))
    players, games, minutes = (np.concatenate(c) for c in (players, games, minutes))
    # games are appended in name order, so a stable sort by player suffices
    order = np.argsort(players, kind="stable")
    return (players[order], games[order], minutes[order]), cov


@dataclass
class SimOutput:
    """Everything one simulation run produced, ground truth included."""

    config: SimConfig
    truth: SimTruth
    network: TemporalNetwork
    tags: object
    schedules: dict
    playtimes: tuple  # (player, game, minutes) arrays, sorted by (player, game)
    covariates: dict

    @property
    def schedule(self) -> AdoptionSchedule:
        return self.schedules[self.config.game]


def run_simulation(cfg: SimConfig, truth: SimTruth | None = None,
                   games: tuple = ("SMB", "NV")) -> SimOutput:
    """Network -> centrality tags -> adoption per game -> playtime.

    One seeded generator drives every stage in a fixed order, so a (config,
    truth) pair maps to byte-identical output files.  The primary game is
    always simulated even if left out of ``games``.
    """
    truth = truth or SimTruth()
    rng = np.random.default_rng(cfg.seed)
    net = gen_network(cfg, rng)
    tc = cfg.tags
    tags = tag_peers(net, katz_centrality(net, tc.reference_week), tc)
    kp_mask = _key_player_mask(net, tags)
    game_list = list(dict.fromkeys((cfg.game, *games)))
    schedules = {g: simulate_adoption(net, cfg, truth, rng, kp_mask=kp_mask, game=g)
                 for g in game_list}
    playtimes, cov = simulate_playtime(net, schedules, tags, cfg, truth, rng)
    return SimOutput(config=cfg, truth=truth, network=net, tags=tags,
                     schedules=schedules, playtimes=playtimes, covariates=cov)
