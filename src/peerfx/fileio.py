"""CSV / JSON ingestion and emission for every pipeline artifact.

Every CSV table is read by ``_read_table`` (one structured ``loadtxt``)
and written by ``_write_table``; only the estimates writer (report
precision) differs.  All writers are atomic (temp file in the target
directory + rename), so a killed run never leaves a partial file at the
final path.  Paths ending in ``.gz`` are transparently gzip-compressed
where the format allows it.
"""

from __future__ import annotations

import csv
import gzip
import json
import os
import re
import tempfile
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import ParseError


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Write UTF-8 text to a temp file next to ``path`` and rename into place
    on success."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        if path.endswith(".gz"):
            os.close(fd)
            handle = gzip.open(tmp, mode + "t", encoding="utf-8", newline="")
        else:
            handle = os.fdopen(fd, mode, encoding="utf-8", newline="")
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
        return gzip.open(path, "rt", encoding="utf-8", newline="")
    return open(path, "r", encoding="utf-8", newline="")


def _first_undecodable_line(path) -> int | None:
    """File line of the first bytes that are not UTF-8 (a multi-byte UTF-8
    sequence never holds a newline byte, so lines decode on their own)."""
    with (gzip.open if os.fspath(path).endswith(".gz") else open)(path, "rb") as fh:
        for line, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return line
    return None


def _check_header(got, want, path):
    if [c.strip() for c in got] != list(want):
        raise ParseError(f"{path}: expected header {','.join(want)}, got {','.join(got)}", 1)


def _ascii(parse):
    """``parse`` refusing the non-ASCII digits and ``_`` separators that
    Python's number parsers accept and loadtxt does not."""
    def strict(cell: str):
        if not cell.isascii() or "_" in cell:
            raise ValueError(cell)
        return parse(cell)
    return strict


@_ascii
def _int64(cell: str) -> int:
    value = int(cell)
    if not -2**63 <= value < 2**63:
        raise ValueError(cell)
    return value


# a column's field kind: (cell parser for the error scan, lowest allowed
# value or None, what a well-formed field is, array dtype)
_ID = (_int64, 0, "a non-negative integer id", np.int64)
_INT = (_int64, None, "an integer", np.int64)
_FLOAT = (_ascii(float), None, "a number", np.float64)
_TEXT = (str, None, "text", object)  # verbatim: spaces belong to the field


def _bad_field(parse, lowest, cell) -> bool:
    try:
        value = parse(cell)
    except ValueError:
        return True
    return lowest is not None and value < lowest


def _read_table(path, header, kinds):
    """Parse a CSV with exactly ``header`` into one array per column.

    One loadtxt call parses the rows.  Blank rows are skipped and ``#`` is
    an ordinary character; every other row must have one field per header
    name, each of its kind (``_ID``, ``_INT``, ``_FLOAT``, ``_TEXT`` or a
    kind of the same shape).  On a bad row, one ``csv`` scan raises
    :class:`ParseError` with its file line; so does text that is not UTF-8.
    """
    try:
        return _parse_table(path, header, kinds)
    except UnicodeDecodeError as err:
        raise ParseError(f"{path}: not UTF-8 text ({err.reason})",
                         _first_undecodable_line(path)) from None


def _parse_table(path, header, kinds):
    dtype = [(name, kind[3]) for name, kind in zip(header, kinds)]
    with _open_read(path) as fh:
        got = next(csv.reader(fh), None)
        if got is None:
            raise ParseError(f"{path}: empty file, expected header {','.join(header)}", 1)
        _check_header(got, header, path)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # loadtxt warns on header-only files
                data = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                  dtype=dtype, ndmin=1)
            columns = [np.ascontiguousarray(data[name]) for name in header]
            for name, col, (_, lowest, want, _) in zip(header, columns, kinds):
                if lowest is not None and col.size and col.min() < lowest:
                    raise ValueError(f"{name}: expected {want}")
        except ValueError as err:
            # loadtxt's row numbers are not file lines; the scan finds the line
            _raise_first_bad_row(path, header, kinds)
            raise ParseError(f"{path}: {err}") from None
    return columns


def _raise_first_bad_row(path, header, kinds):
    with _open_read(path) as fh:
        reader = csv.reader(fh)
        next(reader)
        end = reader.line_num
        for row in reader:  # a quoted line break makes a row span file lines
            line, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line)
            for name, (parse, lowest, want, _), cell in zip(header, kinds, row):
                if _bad_field(parse, lowest, cell):
                    raise ParseError(f"{name}: expected {want}, got {cell!r}", line)


_EDGE_HEADER = ("player_a", "player_b", "formed_unix")
_ACHIEVEMENT_HEADER = ("player_id", "game", "unlocked_unix")
_PLAYTIME_HEADER = ("player_id", "game", "playtime_minutes")
_COVARIATE_HEADER = ("player_id", "num_games", "num_groups", "start_week")

# rows formatted per block: bounds the transient strings of a large table
_WRITE_BLOCK = 4096


# a text cell holding one of these is quoted (RFC 4180)
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _quote(cell: str) -> str:
    if _NEEDS_QUOTES.search(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _format_column(values: np.ndarray) -> list:
    """Text of each cell.  Integers print as integers; so do integral floats
    below 2**53, and any other float prints as its shortest round-trip repr.
    Text holding a comma, a quote or a line break is quoted."""
    if values.dtype.kind in "OU":
        cells = values.astype(str).tolist()
        return list(map(_quote, cells)) if _NEEDS_QUOTES.search("".join(cells)) else cells
    if values.dtype.kind != "f":
        return values.astype(str).tolist()
    integral = (values == np.trunc(values)) & (np.abs(values) < 2.0**53)
    if integral.all():
        return values.astype(np.int64).astype(str).tolist()
    text = values.astype(str)
    text[integral] = values[integral].astype(np.int64).astype(str)
    return text.tolist()


def _write_table(path, header, columns):
    """Write ``header`` and the equal-length ``columns`` as CSV, atomically."""
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    with atomic_write(path) as fh:
        fh.write(",".join(header) + "\n")
        for s in range(0, n, _WRITE_BLOCK):
            cells = [_format_column(c[s:s + _WRITE_BLOCK]) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def read_edges_csv(path, epoch_unix: int = 0):
    """Read ``player_a,player_b,formed_unix`` into (a, b, formed_week) arrays."""
    since_epoch = (_int64, epoch_unix,
                   f"a Unix time at or after the epoch {epoch_unix}", np.int64)
    a, b, unix = _read_table(path, _EDGE_HEADER, (_ID, _ID, since_epoch))
    return a, b, (unix - epoch_unix) // 604800


def write_edges_csv(path, a, b, formed_week, epoch_unix: int = 0):
    unix = np.asarray(formed_week, dtype=np.int64) * 604800 + epoch_unix
    _write_table(path, _EDGE_HEADER, (a, b, unix))


def read_node_filter_csv(path):
    """Read ``player_id,total_playtime_minutes``; returns ids with playtime > 0."""
    player, minutes = _read_table(path, ("player_id", "total_playtime_minutes"),
                                  (_ID, _FLOAT))
    return np.unique(player[minutes > 0])


def read_achievements_csv(path):
    """Read ``player_id,game,unlocked_unix`` into (player, game, unix) arrays."""
    return tuple(_read_table(path, _ACHIEVEMENT_HEADER, (_ID, _TEXT, _INT)))


def write_achievements_csv(path, players, games, weeks, epoch_unix: int = 0):
    unix = np.asarray(weeks, dtype=np.int64) * 604800 + epoch_unix
    _write_table(path, _ACHIEVEMENT_HEADER, (players, games, unix))


def read_playtime_csv(path):
    """Read ``player_id,game,playtime_minutes`` into (player, game, minutes) arrays."""
    return tuple(_read_table(path, _PLAYTIME_HEADER, (_ID, _TEXT, _FLOAT)))


def write_playtime_csv(path, players, games, minutes):
    _write_table(path, _PLAYTIME_HEADER, (players, games, minutes))


def read_covariates_csv(path):
    """Read ``player_id,num_games,num_groups,start_week`` into a columnar dict,
    rows sorted by player."""
    columns = _read_table(path, _COVARIATE_HEADER, (_ID, _FLOAT, _FLOAT, _FLOAT))
    order = np.argsort(columns[0], kind="stable")
    return {name: col[order]
            for name, col in zip(("player", *_COVARIATE_HEADER[1:]), columns)}


def write_covariates_csv(path, players, num_games, num_groups, start_week):
    _write_table(path, _COVARIATE_HEADER, (players, num_games, num_groups, start_week))


PANEL_COLUMNS = ("y", "x_friend", "z_sd_lag", "x_kp", "x_of", "z_kp_lag", "z_of_lag")
_PANEL_HEADER = ("player", "week", *PANEL_COLUMNS)
# ids stay int64: Steam ids exceed float64's exact-integer range
_PANEL_KINDS = (_INT, _INT, *(_FLOAT,) * len(PANEL_COLUMNS))


def write_panel_csv(path, panel, meta_path=None):
    """Write a panel to CSV plus a JSON metadata sidecar.

    Header: ``player,week,y,x_friend,z_sd_lag,x_kp,x_of,z_kp_lag,z_of_lag``
    (the two trailing columns carry the heterogeneity instruments).
    """
    _write_table(path, _PANEL_HEADER,
                 (panel.player, panel.week, *(panel.column(c) for c in PANEL_COLUMNS)))
    if meta_path is None:
        meta_path = os.fspath(path) + ".meta.json"
    write_json(meta_path, panel.meta)


def read_panel_csv(path, meta_path=None):
    """Load a panel written by :func:`write_panel_csv`; returns (columns, meta)."""
    columns = dict(zip(_PANEL_HEADER, _read_table(path, _PANEL_HEADER, _PANEL_KINDS)))
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
    _write_table(path, ("week", "purchases"), (weeks, counts))


def write_scores_csv(path, players, values):
    _write_table(path, ("player", "score"), (players, values))


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
