"""The settings classes: the simulated world (:class:`SimConfig`), its planted
effects (:class:`SimTruth`), the panel layout (:class:`PanelConfig`) and the
tag rule (:class:`TagConfig`).

Each checks its values when it is made.  The command-line parser reads its
flags from these fields, so they live apart from the code that uses them:
a command loads this module and numpy, not the graph, panel or simulator
code, to parse its arguments.  Each class is also importable from the
module that reads it (``graph``, ``panel``, ``simulate``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidParameterError


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
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be non-negative, got {self.seed}")
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


@dataclass
class PanelConfig:
    """Mode flags for panel assembly.

    outcome_mode : "absorbing" (y = owns by week t; the headline default)
        or "event" (y = purchased exactly in week t).
    aggregation : "any" (binary, headline-table default), "sum", or "mean"
        over the contributing friend / second-degree sets.  The instrument
        mirrors the regressor's mode.
    censor_after_purchase : drop a player's rows after their own purchase
        week (the purchase-week row itself is kept).  Breaks exact balance;
        off by default.
    """

    outcome_mode: str = "absorbing"
    aggregation: str = "any"
    censor_after_purchase: bool = False

    def __post_init__(self):
        if self.outcome_mode not in ("absorbing", "event"):
            raise InvalidParameterError(f"unknown outcome_mode {self.outcome_mode!r}")
        if self.aggregation not in ("any", "sum", "mean"):
            raise InvalidParameterError(f"unknown aggregation {self.aggregation!r}")


@dataclass(frozen=True)
class TagConfig:
    """The tag rule, read at ``reference_week = release_week - 4`` so that
    tags are fixed before the release.  Key players score at or above the
    ``kp_percentile`` Katz quantile (ties all included) over all nodes, or
    over nodes with an edge when ``connected_only``.  Old friends are edges
    at least ``min_age_weeks`` (>= 0) old then: formed by ``old_friend_cutoff``,
    never after the reference week."""

    release_week: int | None
    kp_percentile: float = 0.99
    min_age_weeks: int = 52
    connected_only: bool = False

    def __post_init__(self):
        if not 0.0 < self.kp_percentile < 1.0:
            raise InvalidParameterError(
                f"kp_percentile must be in (0, 1), got {self.kp_percentile!r}")
        if self.min_age_weeks < 0:
            raise InvalidParameterError(
                f"min_age_weeks must be non-negative, got {self.min_age_weeks!r}")
        if self.release_week is None:
            raise InvalidParameterError("release_week is required (or set window_start)")
        if self.release_week < 4:
            raise InvalidParameterError(
                f"release_week must be at least 4, got {self.release_week!r}")

    @property
    def reference_week(self) -> int:
        return int(self.release_week) - 4

    @property
    def old_friend_cutoff(self) -> int:
        return self.reference_week - int(self.min_age_weeks)
