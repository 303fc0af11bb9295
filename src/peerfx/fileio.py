"""CSV / JSON ingestion and emission for every pipeline artifact.

All writers are atomic (temp file in the target directory + rename), so a
killed run never leaves a partial file at the final path.  Paths ending in
``.gz`` are transparently gzip-compressed where the format allows it.
"""

from __future__ import annotations

import csv
import gzip
import json
import os
import tempfile
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import ParseError


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Write to a temp file next to ``path`` and rename into place on success."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        if path.endswith(".gz"):
            os.close(fd)
            handle = gzip.open(tmp, mode + "t" if "b" not in mode else mode, newline="")
        else:
            handle = os.fdopen(fd, mode, newline="")
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _open_read(path):
    path = os.fspath(path)
    if path.endswith(".gz"):
        return gzip.open(path, "rt", newline="")
    return open(path, "r", newline="")


def _parse_id(text: str, line: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"malformed player id {text!r}", line) from None
    if value < 0:
        raise ParseError(f"player id must be non-negative, got {value}", line)
    return value


def _check_header(got, want, path):
    if [c.strip() for c in got] != want:
        raise ParseError(f"{path}: expected header {','.join(want)}, got {','.join(got)}", 1)


def read_edges_csv(path, epoch_unix: int = 0):
    """Read ``player_a,player_b,formed_unix`` into (a, b, formed_week) arrays."""
    a, b, wk = [], [], []
    with _open_read(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty edge file", 1)
        _check_header(header, ["player_a", "player_b", "formed_unix"], path)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", line)
            a.append(_parse_id(row[0], line))
            b.append(_parse_id(row[1], line))
            try:
                unix = int(row[2])
            except ValueError:
                raise ParseError(f"malformed timestamp {row[2]!r}", line) from None
            week = (unix - epoch_unix) // 604800
            if week < 0:
                raise ParseError(f"timestamp {unix} precedes the epoch {epoch_unix}", line)
            wk.append(week)
    return (np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64),
            np.asarray(wk, dtype=np.int64))


def write_edges_csv(path, a, b, formed_week, epoch_unix: int = 0):
    with atomic_write(path) as fh:
        fh.write("player_a,player_b,formed_unix\n")
        unix = np.asarray(formed_week, dtype=np.int64) * 604800 + epoch_unix
        for i in range(len(a)):
            fh.write(f"{int(a[i])},{int(b[i])},{int(unix[i])}\n")


def read_node_filter_csv(path):
    """Read ``player_id,total_playtime_minutes``; returns ids with playtime > 0."""
    keep = []
    with _open_read(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty node filter file", 1)
        _check_header(header, ["player_id", "total_playtime_minutes"], path)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            pid = _parse_id(row[0], line)
            try:
                minutes = float(row[1])
            except ValueError:
                raise ParseError(f"malformed playtime {row[1]!r}", line) from None
            if minutes > 0:
                keep.append(pid)
    return np.unique(np.asarray(keep, dtype=np.int64))


def read_achievements_csv(path):
    """Read ``player_id,game,unlocked_unix`` into (player, game, unix) arrays."""
    players, games, unix = [], [], []
    with _open_read(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty achievements file", 1)
        _check_header(header, ["player_id", "game", "unlocked_unix"], path)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, got {len(row)}", line)
            players.append(_parse_id(row[0], line))
            games.append(row[1].strip())
            try:
                unix.append(int(row[2]))
            except ValueError:
                raise ParseError(f"malformed timestamp {row[2]!r}", line) from None
    return (np.asarray(players, dtype=np.int64), np.asarray(games, dtype=object),
            np.asarray(unix, dtype=np.int64))


def write_achievements_csv(path, players, games, weeks, epoch_unix: int = 0):
    with atomic_write(path) as fh:
        fh.write("player_id,game,unlocked_unix\n")
        unix = np.asarray(weeks, dtype=np.int64) * 604800 + epoch_unix
        for i in range(len(players)):
            fh.write(f"{int(players[i])},{games[i]},{int(unix[i])}\n")


def read_playtime_csv(path):
    """Read ``player_id,game,playtime_minutes`` into a {(player, game): minutes} dict."""
    out = {}
    with _open_read(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty playtime file", 1)
        _check_header(header, ["player_id", "game", "playtime_minutes"], path)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            pid = _parse_id(row[0], line)
            try:
                out[(pid, row[1].strip())] = float(row[2])
            except ValueError:
                raise ParseError(f"malformed playtime {row[2]!r}", line) from None
    return out


def write_playtime_csv(path, rows):
    """rows: iterable of (player, game, minutes)."""
    with atomic_write(path) as fh:
        fh.write("player_id,game,playtime_minutes\n")
        for player, game, minutes in rows:
            fh.write(f"{int(player)},{game},{minutes:g}\n")


def read_covariates_csv(path):
    """Read ``player_id,num_games,num_groups,start_week`` into a columnar dict."""
    players, num_games, num_groups, start_week = [], [], [], []
    with _open_read(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty covariates file", 1)
        _check_header(header, ["player_id", "num_games", "num_groups", "start_week"], path)
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            players.append(_parse_id(row[0], line))
            try:
                num_games.append(float(row[1]))
                num_groups.append(float(row[2]))
                start_week.append(float(row[3]))
            except ValueError:
                raise ParseError(f"malformed covariate in {row!r}", line) from None
    order = np.argsort(np.asarray(players, dtype=np.int64), kind="stable")
    return {
        "player": np.asarray(players, dtype=np.int64)[order],
        "num_games": np.asarray(num_games)[order],
        "num_groups": np.asarray(num_groups)[order],
        "start_week": np.asarray(start_week)[order],
    }


def write_covariates_csv(path, players, num_games, num_groups, start_week):
    with atomic_write(path) as fh:
        fh.write("player_id,num_games,num_groups,start_week\n")
        for i in range(len(players)):
            fh.write(f"{int(players[i])},{num_games[i]:g},{num_groups[i]:g},{start_week[i]:g}\n")


PANEL_COLUMNS = ("y", "x_friend", "z_sd_lag", "x_kp", "x_of", "z_kp_lag", "z_of_lag")


def _format_value(v: float) -> str:
    # integers dominate (binary/count aggregation); keep them compact
    if v == int(v):
        return str(int(v))
    return repr(float(v))


def write_panel_csv(path, panel, meta_path=None):
    """Write a panel to CSV plus a JSON metadata sidecar.

    Header: ``player,week,y,x_friend,z_sd_lag,x_kp,x_of,z_kp_lag,z_of_lag``
    (the two trailing columns carry the heterogeneity instruments).
    """
    cols = [panel.column(c) for c in PANEL_COLUMNS]
    player = panel.player
    week = panel.week
    with atomic_write(path) as fh:
        fh.write("player,week," + ",".join(PANEL_COLUMNS) + "\n")
        chunk = 65536
        n = panel.n_rows
        for s in range(0, n, chunk):
            e = min(s + chunk, n)
            lines = []
            for i in range(s, e):
                vals = ",".join(_format_value(float(c[i])) for c in cols)
                lines.append(f"{int(player[i])},{int(week[i])},{vals}")
            fh.write("\n".join(lines))
            fh.write("\n")
    if meta_path is None:
        meta_path = os.fspath(path) + ".meta.json"
    write_json(meta_path, panel.meta)


def read_panel_csv(path, meta_path=None):
    """Load a panel written by :func:`write_panel_csv`; returns (columns, meta)."""
    with _open_read(path) as fh:
        header = fh.readline().strip().split(",")
        want = ["player", "week", *PANEL_COLUMNS]
        if header != want:
            raise ParseError(f"{path}: expected header {','.join(want)}, got {','.join(header)}", 1)
        # ids stay int64: Steam ids exceed float64's exact-integer range
        dtype = [("player", np.int64), ("week", np.int64),
                 *((name, np.float64) for name in PANEL_COLUMNS)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on header-only files
            data = np.loadtxt(fh, delimiter=",", dtype=dtype, ndmin=1)
    columns = {name: np.ascontiguousarray(data[name]) for name in want}
    if meta_path is None:
        candidate = os.fspath(path) + ".meta.json"
        meta = read_json(candidate) if os.path.exists(candidate) else {}
    else:
        meta = read_json(meta_path)
    return columns, meta


def write_json(path, obj):
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_series_csv(path, weeks, counts):
    with atomic_write(path) as fh:
        fh.write("week,purchases\n")
        for w, c in zip(weeks, counts):
            fh.write(f"{int(w)},{int(c)}\n")


def write_scores_csv(path, players, values):
    with atomic_write(path) as fh:
        fh.write("player,score\n")
        for p, v in zip(players, values):
            fh.write(f"{int(p)},{float(v)!r}\n")


def write_text(path, text: str):
    with atomic_write(path) as fh:
        fh.write(text)


def write_estimates_csv(path, rows):
    """rows: iterable of (term, estimate, se, stat); empty fields allowed as None."""
    def fmt(v):
        return "" if v is None else f"{v:.12g}"

    with atomic_write(path) as fh:
        fh.write("term,estimate,se,stat\n")
        for term, est, se, stat in rows:
            fh.write(f"{term},{fmt(est)},{fmt(se)},{fmt(stat)}\n")
