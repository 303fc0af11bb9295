"""Plain-text estimate tables and machine-readable estimate rows.

The main table puts OLS, reduced form, first stage and 2SLS side by side,
one column each, with standard errors parenthesized under the point
estimates — the layout people expect from a regression table, rendered with
fixed formats so output files are reproducible byte-for-byte.
"""

from __future__ import annotations

import numpy as np

from .estimator import FitResult
from .fileio import owns_column

RULE = "-"
DECIMALS = 4
COL_WIDTH = 16


def format_cell(estimate: float, se: float) -> tuple:
    """("0.0733", "(0.0008)") — the two stacked lines of one table cell."""
    return (f"{estimate:.{DECIMALS}f}", f"({se:.{DECIMALS}f})")


def render_estimate_table(columns, rows, extras=(), title: str | None = None,
                          label_width: int = 30) -> str:
    """Fixed-width table of stacked estimate/(se) cells.

    columns: sequence of (header, FitResult); rows: sequence of
    (term, label) — a cell is blank when the fit does not carry the term;
    extras: sequence of (label, {header: text}) appended under a rule.
    """
    headers = [h for h, _ in columns]
    total = label_width + COL_WIDTH * len(columns)
    out = []
    if title:
        out.append(title.center(total).rstrip())
        out.append(RULE * total)
    out.append(" " * label_width + "".join(h.rjust(COL_WIDTH) for h in headers))
    sub = []
    for _, fit in columns:
        label = _outcome_label(fit)
        sub.append((f"({label})" if label else "").rjust(COL_WIDTH))
    out.append(" " * label_width + "".join(sub))
    out.append(RULE * total)
    for term, label in rows:
        top, bottom = [], []
        for _, fit in columns:
            if term in fit.terms:
                est, se = format_cell(fit.coef_of(term), fit.se_of(term))
                top.append(est.rjust(COL_WIDTH))
                bottom.append(se.rjust(COL_WIDTH))
            else:
                top.append("".rjust(COL_WIDTH))
                bottom.append("".rjust(COL_WIDTH))
        out.append(label.ljust(label_width)[:label_width] + "".join(top))
        out.append(" " * label_width + "".join(bottom))
    if extras:
        out.append(RULE * total)
        for label, cells in extras:
            line = [label.ljust(label_width)[:label_width]]
            for header, _ in columns:
                line.append(str(cells.get(header, "")).rjust(COL_WIDTH))
            out.append("".join(line))
    out.append(RULE * total)
    return "\n".join(line.rstrip() for line in out) + "\n"


def _outcome_label(fit: FitResult) -> str:
    return fit.stats.get("outcome_label", "")


def _fe_extras(columns) -> list:
    extras = [("Observations", {h: f"{f.n_obs:,}" for h, f in columns})]
    extras.append(("Player FE", {h: "Yes" for h, f in columns
                                 if "player" in f.fixed_effects}))
    extras.append(("Week FE", {h: "Yes" for h, f in columns
                               if "week" in f.fixed_effects}))
    return extras


def main_report(ols: FitResult, iv: FitResult) -> str:
    """Four-column ownership table: OLS, and from the 2SLS fit its reduced
    form, first stage and itself."""
    rf, fs = iv.reduced_form, iv.first_stage[0]
    for fit, label in ((ols, "y"), (rf, "y"), (fs, "x_friend"), (iv, "y")):
        fit.stats.setdefault("outcome_label", label)
    columns = [("OLS", ols), ("Reduced form", rf), ("First stage", fs), ("2SLS", iv)]
    rows = [("x_friend", "Friend owns game"),
            ("z_sd_lag", "Second-degree owner, lagged")]
    extras = [("Anderson-Rubin stat", {"First stage": f"{iv.ar_stat:.2f}"}),
              *_fe_extras(columns)]
    extras.append(("Clusters (player)", {h: f"{f.n_clusters:,}" for h, f in columns}))
    return render_estimate_table(columns, rows, extras,
                                 title="Friend ownership and game adoption")


def heterogeneity_report(iv: FitResult, ols: FitResult | None = None) -> str:
    """Key-player / old-friend decomposition; column headers follow the fits."""
    header = {"ols": "OLS", "2sls": "2SLS"}
    columns = []
    for fit in (ols, iv):
        if fit is not None:
            fit.stats.setdefault("outcome_label", "y")
            columns.append((header.get(fit.model, fit.model.upper()), fit))
    rows = [("x_kp", "Key-player friend owns"),
            ("x_of", "Old friend owns")]
    extras = _fe_extras(columns)
    dropped = tuple(iv.dropped) + (tuple(ols.dropped) if ols is not None else ())
    body = render_estimate_table(columns, rows, extras,
                                 title="Friend-type decomposition")
    if dropped:
        body += "dropped (no variation): " + ", ".join(sorted(set(dropped))) + "\n"
    return body


PLAYTIME_LABELS = [
    ("kp_purchase", "Key-player friend bought first"),
    ("of_purchase", "Old friend bought first"),
    ("no_friend_purchase", "No friend owned at purchase"),
    ("num_games", "Games owned"),
    ("num_groups", "Group memberships"),
    ("start_week", "Account start week"),
    ("num_friends", "Friend count"),
]


def playtime_report(fits, games) -> str:
    """Log-playtime regressions, one column per (variant, sample) pair; the
    ownership control of each of ``games`` is labelled ``Owns <game>``."""
    columns = []
    for label, fit in fits:
        fit.stats.setdefault("outcome_label", "log hours")
        columns.append((label, fit))
    labels = [*PLAYTIME_LABELS, *((owns_column(g), f"Owns {g}") for g in games),
              ("const", "Constant")]
    rows = [(t, lbl) for t, lbl in labels if any(t in f.terms for _, f in columns)]
    extras = [("Observations", {h: f"{f.n_obs:,}" for h, f in columns})]
    return render_estimate_table(columns, rows, extras,
                                 title="Playtime by first-purchase channel",
                                 label_width=32)


def estimates_csv_rows(named_fits, anderson_rubin: float | None = None) -> list:
    """(term, estimate, se, stat) rows with model-prefixed term names."""
    rows = []
    for prefix, fit in named_fits:
        rows.extend(fit.csv_rows(prefix + "."))
    if anderson_rubin is not None and np.isfinite(anderson_rubin):
        rows.append(("anderson_rubin", float(anderson_rubin), None, None))
    return rows
