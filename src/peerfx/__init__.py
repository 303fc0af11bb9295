"""Peer-effects estimation for temporal friendship networks.

The pipeline: build a timestamped friendship graph, tag key players (Katz
centrality) and old-friend edges, assemble a player-week panel where a
friend's ownership is instrumented by lagged second-degree ownership, and
estimate the adoption spillover by two-way fixed-effects 2SLS with
player-clustered errors.  A seeded simulator with planted effects closes the
loop for validation.
"""

from .errors import (ConfigError, DivergedError, GenerationFailedError,
                     InsufficientClustersError, InsufficientPoolError,
                     InvalidParameterError, NotFoundError, ParseError,
                     PeerEffectsError, RankDeficientError,
                     WeakIdentificationError)
from .graph import (NEVER, CentralityScores, PeerTags, TagConfig, TemporalNetwork,
                    build_network, katz_centrality, second_degree_counts,
                    tag_peers, week_of_unix)
from .panel import (AdoptionSchedule, GroupAssignment, PanelConfig,
                    PanelDataset, assign_groups, build_panel,
                    build_playtime_crosssection, derive_schedule,
                    expected_row_count)
from .estimator import (DesignSpec, FitResult, WithinResult, anderson_rubin,
                        clustered_vcov, heterogeneity_fit, ols_fit,
                        playtime_fit, tsls_fit, within_transform)
from .report import (estimates_csv_rows, format_cell, heterogeneity_report,
                     main_report, playtime_report, render_estimate_table)
from .simulate import (SimConfig, SimOutput, SimTruth, gen_network,
                       run_simulation, simulate_adoption, simulate_playtime)

__version__ = "0.1.0"

__all__ = [
    "AdoptionSchedule", "CentralityScores", "ConfigError", "DesignSpec",
    "DivergedError", "FitResult", "GenerationFailedError", "GroupAssignment",
    "InsufficientClustersError", "InsufficientPoolError",
    "InvalidParameterError", "NEVER", "NotFoundError", "PanelConfig",
    "PanelDataset",
    "ParseError", "PeerEffectsError", "PeerTags",
    "RankDeficientError", "SimConfig", "SimOutput", "SimTruth", "TagConfig",
    "TemporalNetwork", "WeakIdentificationError", "WithinResult",
    "anderson_rubin", "assign_groups", "build_network", "build_panel",
    "build_playtime_crosssection", "clustered_vcov", "derive_schedule",
    "estimates_csv_rows", "expected_row_count",
    "format_cell", "gen_network", "heterogeneity_fit", "heterogeneity_report",
    "katz_centrality", "main_report", "ols_fit",
    "playtime_fit", "playtime_report", "render_estimate_table",
    "run_simulation", "second_degree_counts",
    "simulate_adoption", "simulate_playtime", "tag_peers", "tsls_fit",
    "week_of_unix", "within_transform",
]
