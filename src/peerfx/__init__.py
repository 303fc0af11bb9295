"""Peer-effects estimation for temporal friendship networks.

The pipeline: build a timestamped friendship graph, tag key players (Katz
centrality) and old-friend edges, assemble a player-week panel where a
friend's ownership is instrumented by lagged second-degree ownership, and
estimate the adoption spillover by two-way fixed-effects 2SLS with
player-clustered errors.  A seeded simulator with planted effects closes the
loop for validation.

Every public name is importable from here.  Each is loaded from its module
on first use (PEP 562), so ``import peerfx`` or a command that needs only
the estimator does not load the graph, panel or simulator code.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_HOMES = {
    "errors": ("ConfigError", "DivergedError", "GenerationFailedError",
               "InsufficientClustersError", "InsufficientPoolError",
               "InvalidParameterError", "NotFoundError", "ParseError",
               "PeerEffectsError", "RankDeficientError", "WeakIdentificationError"),
    "settings": ("PanelConfig", "SimConfig", "SimTruth", "TagConfig"),
    "fileio": ("PanelDataset",),
    "graph": ("NEVER", "CentralityScores", "PeerTags", "TemporalNetwork",
              "build_network", "katz_centrality", "second_degree_counts",
              "tag_peers", "week_of_unix"),
    "panel": ("AdoptionSchedule", "GroupAssignment", "assign_groups", "build_panel",
              "build_playtime_crosssection", "derive_schedule", "expected_row_count"),
    "estimator": ("DesignSpec", "FitResult", "WithinResult", "anderson_rubin",
                  "clustered_vcov", "heterogeneity_fit", "ols_fit", "playtime_fit",
                  "tsls_fit", "within_transform"),
    "report": ("estimates_csv_rows", "format_cell", "heterogeneity_report",
               "main_report", "playtime_report", "render_estimate_table"),
    "simulate": ("SimOutput", "gen_network", "run_simulation", "simulate_adoption",
                 "simulate_playtime"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
