"""CSV / JSON ingestion and emission for every pipeline artifact.

Every input file -- CSV tables, the node filter, the panel's JSON sidecar
and the ``--config`` file -- is opened by ``_open_read``, the one place that
decodes input and maps its failures to errors naming the path.  Every CSV
table is read by ``_read_table`` (one structured ``loadtxt``) and written
by ``_write_table``; only the estimates writer (report precision) differs,
and it quotes a term as ``_write_table`` quotes a text cell.
All writers are atomic (temp file in the target directory + rename), so a
killed run never leaves a partial file at the final path.  Paths ending in
``.gz`` are transparently gzip-compressed where the format allows it.
The panel's in-memory form, :class:`PanelDataset`, is defined beside its
file form, so a process that only fits a panel loads no panel-building code.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import os
import re
import tempfile
import warnings
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidParameterError, ParseError


@contextmanager
def atomic_write(path):
    """Write UTF-8 text to a temp file next to ``path`` and rename into place
    on success.  A ``path`` that is a directory, or whose directory part is
    a file, is a :class:`ConfigError` raised before any temp file exists.
    A ``.gz`` path gets a gzip header with no file name and mtime 0, so equal
    text gives equal bytes on every run."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ConfigError(f"{path}: is a directory, not an output file")
    try:
        os.makedirs(directory, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"{directory}: not a directory, cannot write {path}") from None
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with open(fd, "wb") as raw:
            out = (gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
                   if path.endswith(".gz") else raw)
            with io.TextIOWrapper(out, encoding="utf-8", newline="") as handle:
                yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@contextmanager
def _open_read(path, config: bool = False):
    """Read ``path`` as UTF-8 text (gzip when it ends in ``.gz``); a leading
    byte-order mark is dropped.  A path that cannot be opened (missing, a
    directory) is a :class:`ConfigError`.  Bytes that are not UTF-8 (with
    their file line) and a ``.gz`` that is not gzip, is truncated or fails
    its CRC are a :class:`ParseError`, or a ``path:line:`` ConfigError for a
    ``config`` file."""
    path = os.fspath(path)
    try:
        fh = (gzip.open if path.endswith(".gz") else open)(
            path, "rt", encoding="utf-8-sig", newline="")
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror.lower()}") from None

    def fail(what, line=None):
        if not config:
            return ParseError(f"{path}: {what}", line)
        return ConfigError(f"{path}:{line}: {what}" if line else f"{path}: {what}")

    try:  # the outer handler also covers damage met by the line scan
        try:
            with fh:
                yield fh
        except UnicodeDecodeError as err:
            raise fail(f"not UTF-8 text ({err.reason})", _first_undecodable_line(path)) from None
    except (gzip.BadGzipFile, EOFError, zlib.error) as err:
        raise fail(f"not valid gzip data ({err})") from None


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

    One loadtxt call parses the rows into a structured array, and each
    column is returned as a view of its field: no column is copied, and the
    table is freed once no view of it is left.  Blank rows are skipped and
    ``#`` is an ordinary character; every other row must have one field per
    header name, each of its kind (``_ID``, ``_INT``, ``_FLOAT``, ``_TEXT``
    or a kind of the same shape).  On a bad row, one ``csv`` scan raises
    :class:`ParseError` with its file line; undecodable bytes and a damaged
    ``.gz`` fail in ``_open_read``.
    """
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
            columns = [data[name] for name in header]
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


WEEK_SECONDS = 604800
OWNS_PREFIX = "owns_"
_EDGE_HEADER = ("player_a", "player_b", "formed_unix")
_ACHIEVEMENT_HEADER = ("player_id", "game", "unlocked_unix")
_PLAYTIME_HEADER = ("player_id", "game", "playtime_minutes")
_COVARIATE_HEADER = ("player_id", "num_games", "num_groups", "start_week")

# rows formatted per block: bounds the transient strings of a large table
_WRITE_BLOCK = 2048


# a text cell holding one of these is quoted (RFC 4180)
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def _quote(cell: str) -> str:
    if _NEEDS_QUOTES.search(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _format_column(values: np.ndarray) -> list:
    """Text of each cell.  Integers print as integers; so do integral floats
    below 2**53, and any other float prints as its shortest round-trip repr.
    Text holding a comma, a quote or a line break is quoted.  An integer
    block takes its cells from a table, each text made once and the same as
    cell-by-cell formatting: the block's range when it spans less than twice
    its length, else its distinct values (ids and Unix times), found by one
    sort."""
    if values.dtype.kind in "OU":
        cells = values.astype(str).tolist()
        return list(map(_quote, cells)) if _NEEDS_QUOTES.search("".join(cells)) else cells
    if values.dtype.kind == "f":
        integral = (values == np.trunc(values)) & (np.abs(values) < 2.0**53)
        if not integral.all():
            text = values.astype(str)
            text[integral] = values[integral].astype(np.int64).astype(str)
            return text.tolist()
        values = values.astype(np.int64)
    elif values.dtype.kind not in "iu":
        return values.astype(str).tolist()
    iv = values.astype(np.uint64 if values.dtype.kind == "u" else np.int64, copy=False)
    if iv.size == 0:
        return []
    lo = iv.min()
    span = int(iv.max()) - int(lo)
    if span < 2 * iv.size:  # indexing the range beats a sort
        table, at = range(int(lo), int(lo) + span + 1), iv - lo
    else:
        distinct, at = np.unique(iv, return_inverse=True)
        table = distinct.tolist()
    return np.array(list(map(str, table)), dtype=object)[at].tolist()


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
    a, b, week = _read_table(path, _EDGE_HEADER, (_ID, _ID, since_epoch))
    week -= epoch_unix  # in place: the table's Unix-time field becomes the week
    week //= WEEK_SECONDS
    return a, b, week


def write_edges_csv(path, a, b, formed_week, epoch_unix: int = 0):
    unix = np.array(formed_week, dtype=np.int64)  # a copy, converted in place
    unix *= WEEK_SECONDS
    unix += epoch_unix
    _write_table(path, _EDGE_HEADER, (a, b, unix))


def read_node_filter_csv(path):
    """Read ``player_id,total_playtime_minutes``; returns ids with playtime > 0."""
    player, minutes = _read_table(path, ("player_id", "total_playtime_minutes"),
                                  (_ID, _FLOAT))
    from .graph import _unique  # a filter is read only to build a graph
    return _unique(player[minutes > 0])


def read_achievements_csv(path):
    """Read ``player_id,game,unlocked_unix`` into (player, game, unix) arrays."""
    return tuple(_read_table(path, _ACHIEVEMENT_HEADER, (_ID, _TEXT, _INT)))


def write_achievements_csv(path, players, games, weeks, epoch_unix: int = 0):
    unix = np.asarray(weeks, dtype=np.int64) * WEEK_SECONDS + epoch_unix
    _write_table(path, _ACHIEVEMENT_HEADER, (players, games, unix))


def read_playtime_csv(path):
    """Read ``player_id,game,playtime_minutes`` into (player, game, minutes) arrays."""
    return tuple(_read_table(path, _PLAYTIME_HEADER, (_ID, _TEXT, _FLOAT)))


def write_playtime_csv(path, players, games, minutes):
    _write_table(path, _PLAYTIME_HEADER, (players, games, minutes))


def owns_column(game: str) -> str:
    """The name of ``game``'s ownership control in the playtime table."""
    return OWNS_PREFIX + game.lower()


def read_covariates_csv(path):
    """Read ``player_id,num_games,num_groups,start_week`` into a columnar dict,
    rows sorted by player."""
    columns = _read_table(path, _COVARIATE_HEADER, (_ID, _FLOAT, _FLOAT, _FLOAT))
    order = np.argsort(columns[0], kind="stable")
    return {name: col[order]
            for name, col in zip(("player", *_COVARIATE_HEADER[1:]), columns)}


def write_covariates_csv(path, players, num_games, num_groups, start_week):
    _write_table(path, _COVARIATE_HEADER, (players, num_games, num_groups, start_week))


@dataclass
class PanelDataset:
    """Columnar player-by-week panel.

    Rows are ordered player-major (ascending player id, then week).  With
    censoring off the panel is exactly balanced:
    ``n_rows == n_players * (w_end - w_start)``.  ``player`` and ``week``
    are int64.  A value column keeps the narrowest dtype that holds it
    exactly: from ``panel.build_panel``, ``y`` is int8 0/1 and the others
    int8 0/1 under the "any" aggregation, int32 counts under "sum" and
    float64 under "mean"; read back by the CLI, a column of integers in
    int8's range is int8 and any other float64.  The estimator reads every
    integer dtype as float64, so the dtype never changes a fit.
    """

    player: np.ndarray
    week: np.ndarray
    columns: dict
    meta: dict = field(default_factory=dict)
    _codes: dict = field(default_factory=dict, repr=False, compare=False)
    # estimator.within_transform's per-panel memo: FE systems and demeaned columns
    _within: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_rows(self) -> int:
        return int(self.player.size)

    def column(self, name: str) -> np.ndarray:
        if name == "player":
            return self.player
        if name == "week":
            return self.week
        try:
            return self.columns[name]
        except KeyError:
            raise InvalidParameterError(f"panel has no column {name!r}") from None

    def codes(self, dim: str) -> np.ndarray:
        """Dense 0..G-1 group codes of a column, e.g. 'player' or 'week'.
        Kept while ``column(dim)`` is the same array object."""
        col = self.column(dim)
        hit = self._codes.get(dim)
        if hit is None or hit[0] is not col:
            _, inv = np.unique(col, return_inverse=True)
            hit = self._codes[dim] = (col, inv.astype(np.int64, copy=False))
        return hit[1]


PANEL_COLUMNS = ("y", "x_friend", "z_sd_lag", "x_kp", "x_of", "z_kp_lag", "z_of_lag")
_PANEL_HEADER = ("player", "week", *PANEL_COLUMNS)
# ids stay int64: Steam ids exceed float64's exact-integer range
_PANEL_KINDS = (_INT, _INT, *(_FLOAT,) * len(PANEL_COLUMNS))


def write_panel_csv(path, panel):
    """Write a panel to CSV plus its JSON metadata sidecar ``<path>.meta.json``.

    Header: ``player,week,y,x_friend,z_sd_lag,x_kp,x_of,z_kp_lag,z_of_lag``
    (the two trailing columns carry the heterogeneity instruments).
    """
    _write_table(path, _PANEL_HEADER,
                 (panel.player, panel.week, *(panel.column(c) for c in PANEL_COLUMNS)))
    write_json(os.fspath(path) + ".meta.json", panel.meta)


def read_panel_csv(path):
    """Load a panel written by :func:`write_panel_csv`; returns (columns, meta).
    The columns are views of one table, which lives while any of them does:
    copy the ones to keep.  A missing sidecar (or a directory in its place)
    reads as ``{}``."""
    columns = dict(zip(_PANEL_HEADER, _read_table(path, _PANEL_HEADER, _PANEL_KINDS)))
    sidecar = os.fspath(path) + ".meta.json"
    return columns, read_json(sidecar) if os.path.isfile(sidecar) else {}


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
    """Load a UTF-8 JSON file; malformed bytes or JSON are a :class:`ParseError`."""
    try:
        with _open_read(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: not valid JSON ({err.msg})", err.lineno) from None


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
            fh.write(f"{_quote(term)},{fmt(est)},{fmt(se)},{fmt(stat)}\n")
