"""CSV/JSON round-trips, parse diagnostics, and atomic-write behavior."""

import gzip
import os
import tracemalloc

import numpy as np
import pytest

from peerfx import (AdoptionSchedule, GroupAssignment, PanelConfig, ParseError, TagConfig,
                    build_network, build_panel, fileio, katz_centrality, tag_peers)

from conftest import random_edges


def test_edges_roundtrip(tmp_path):
    path = tmp_path / "edges.csv"
    a = np.array([1, 2, 5], dtype=np.int64)
    b = np.array([2, 3, 1], dtype=np.int64)
    w = np.array([0, 4, 9], dtype=np.int64)
    fileio.write_edges_csv(path, a, b, w, epoch_unix=1000)
    ra, rb, rw = fileio.read_edges_csv(path, epoch_unix=1000)
    assert ra.tolist() == a.tolist()
    assert rb.tolist() == b.tolist()
    assert rw.tolist() == w.tolist()


def test_read_edges_csv_traced_memory_at_mean_degree_32(tmp_path):
    # 320,000 edges, the dense benchmark's size.  Copying each column out of
    # loadtxt's table held both and peaked at 14.7 MiB of traced memory; the
    # columns as views of the one table, weeks converted in place, peak at
    # 9.0 MiB.
    rng = np.random.default_rng(53)
    m = 320_000
    path = tmp_path / "edges.csv"
    a, b = rng.integers(0, 20_000, m), rng.integers(0, 20_000, m)
    w = rng.integers(0, 100, m)
    fileio.write_edges_csv(path, a, b, w, epoch_unix=1000)
    tracemalloc.start()
    try:
        got = fileio.read_edges_csv(path, epoch_unix=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(x, y) for x, y in zip(got, (a, b, w)))
    assert peak < 12 * 2**20, f"read_edges_csv traced peak {peak / 2**20:.1f} MiB"


def test_edges_gzip_roundtrip(tmp_path):
    path = tmp_path / "edges.csv.gz"
    fileio.write_edges_csv(path, [7], [8], [3])
    with gzip.open(path, "rt") as fh:
        assert fh.readline().strip() == "player_a,player_b,formed_unix"
    a, b, w = fileio.read_edges_csv(path)
    assert (a[0], b[0], w[0]) == (7, 8, 3)


def test_edges_malformed_id_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("player_a,player_b,formed_unix\n1,2,0\nx,3,0\n")
    with pytest.raises(ParseError) as err:
        fileio.read_edges_csv(path)
    assert "line 3" in str(err.value)


def test_edges_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParseError):
        fileio.read_edges_csv(path)


def test_edge_timestamp_before_epoch_rejected(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("player_a,player_b,formed_unix\n1,2,100\n")
    with pytest.raises(ParseError):
        fileio.read_edges_csv(path, epoch_unix=604800)


def test_node_filter_keeps_positive_minutes(tmp_path):
    path = tmp_path / "filter.csv"
    path.write_text("player_id,total_playtime_minutes\n1,5\n2,0\n3,12\n1,1\n")
    ids = fileio.read_node_filter_csv(path)
    assert ids.tolist() == [1, 3]


def test_achievements_roundtrip(tmp_path):
    path = tmp_path / "ach.csv"
    fileio.write_achievements_csv(path, [4, 2], ["SMB", "NV"], [10, 3])
    players, games, unix = fileio.read_achievements_csv(path)
    assert players.tolist() == [4, 2]
    assert games.tolist() == ["SMB", "NV"]
    assert unix.tolist() == [10 * 604800, 3 * 604800]


def test_playtime_roundtrip(tmp_path):
    path = tmp_path / "pt.csv"
    fileio.write_playtime_csv(path, [1, 2], ["SMB", "NV"], [90, 30.5])
    players, games, minutes = fileio.read_playtime_csv(path)
    assert (players[0], games[0], minutes[0]) == (1, "SMB", 90)
    assert (players[1], games[1], minutes[1]) == (2, "NV", 30.5)


@pytest.mark.parametrize("write, read", [
    (fileio.write_achievements_csv, fileio.read_achievements_csv),
    (fileio.write_playtime_csv, fileio.read_playtime_csv),
], ids=["achievements", "playtime"])
def test_text_cells_are_quoted_and_round_trip(tmp_path, write, read):
    games = ["Fallout, New Vegas", 'The "Witcher"', "Line\nbreak", "Carriage\rreturn", "SMB",
             " SMB ", "SMB ", "C#"]  # spaces are part of a field (RFC 4180)
    players = list(range(1, len(games) + 1))
    path = tmp_path / "t.csv"
    write(path, players, games, [7] * len(games))
    got_players, got_games, _ = read(path)
    assert got_players.tolist() == players
    assert got_games.tolist() == games
    with open(path, newline="") as fh:
        text = fh.read()
    assert '\n1,"Fallout, New Vegas",' in text and '\n2,"The ""Witcher""",' in text
    assert '\n3,"Line\nbreak",' in text and '\n4,"Carriage\rreturn",' in text
    assert "\n5,SMB," in text  # a cell without a special character stays bare
    assert "\n6, SMB ," in text and "\n7,SMB ," in text
    assert "\n8,C#," in text  # '#' starts no comment
    # the row after a quoted line break is reported at its own file line
    write(path, players[:3], games[:3], [7] * 3)
    with open(path, "a") as fh:
        fh.write("x,SMB,7\n")
    with pytest.raises(ParseError) as err:
        read(path)
    assert err.value.line == 6


def test_covariates_roundtrip_sorted(tmp_path):
    path = tmp_path / "cov.csv"
    fileio.write_covariates_csv(path, [5, 1], [10, 20], [2, 3], [7, 8])
    cov = fileio.read_covariates_csv(path)
    assert cov["player"].tolist() == [1, 5]
    assert cov["num_games"].tolist() == [20, 10]


def test_panel_roundtrip_with_meta(tmp_path):
    path = tmp_path / "panel.csv"
    n = 6
    panel_cols = {name: np.arange(n, dtype=np.float64) * (k + 1)
                  for k, name in enumerate(fileio.PANEL_COLUMNS)}

    class Stub:
        player = np.arange(n, dtype=np.int64)
        week = np.full(n, 3, dtype=np.int64)
        columns = panel_cols
        meta = {"window": [2, 9], "seed": 4}
        n_rows = n

        def column(self, name):
            return self.columns[name]

    for path in (path, tmp_path / "panel.csv.gz"):
        fileio.write_panel_csv(path, Stub())
        cols, meta = fileio.read_panel_csv(path)
        assert meta["window"] == [2, 9]
        assert cols["player"].tolist() == list(range(n))
        for name in fileio.PANEL_COLUMNS:
            assert np.allclose(cols[name], panel_cols[name])
    with gzip.open(path, "rt") as fh:
        assert fh.readline().startswith("player,week,")


def test_panel_header_mismatch(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("player,week,y\n1,2,0\n")
    with pytest.raises(ParseError):
        fileio.read_panel_csv(path)


def test_panel_malformed_cell_names_file_line(tmp_path):
    path = tmp_path / "p.csv"
    row = "1,2," + ",".join(["0"] * len(fileio.PANEL_COLUMNS))
    path.write_text("player,week," + ",".join(fileio.PANEL_COLUMNS) + "\n"
                    + row + "\n" + row.replace(",0", ",x", 1) + "\n")
    with pytest.raises(ParseError) as err:
        fileio.read_panel_csv(path)
    assert err.value.line == 3
    assert "'x'" in str(err.value)


def test_panel_short_row_names_file_line(tmp_path):
    path = tmp_path / "p.csv"
    row = "1,2," + ",".join(["0"] * len(fileio.PANEL_COLUMNS))
    path.write_text("player,week," + ",".join(fileio.PANEL_COLUMNS) + "\n"
                    + row + "\n1,3,0\n" + row + "\n")
    with pytest.raises(ParseError) as err:
        fileio.read_panel_csv(path)
    assert err.value.line == 3
    assert "expected 9 fields, got 3" in str(err.value)


# one header plus a well-formed row per reader; each case's bad rows are
# this row cut short and this row with a field too many
READERS = {
    "edges": (fileio.read_edges_csv, "player_a,player_b,formed_unix", "1,2,0"),
    "node_filter": (fileio.read_node_filter_csv,
                    "player_id,total_playtime_minutes", "1,5"),
    "achievements": (fileio.read_achievements_csv,
                     "player_id,game,unlocked_unix", "1,SMB,0"),
    "playtime": (fileio.read_playtime_csv, "player_id,game,playtime_minutes",
                 "1,SMB,30"),
    "covariates": (fileio.read_covariates_csv,
                   "player_id,num_games,num_groups,start_week", "1,3,2,7"),
    "panel": (fileio.read_panel_csv, ",".join(("player", "week", *fileio.PANEL_COLUMNS)),
              "1,2," + ",".join(["0"] * len(fileio.PANEL_COLUMNS))),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("cut", [-1, 1], ids=["short", "long"])
def test_wrong_field_count_is_parse_error_with_line(tmp_path, reader, cut):
    read, header, row = READERS[reader]
    fields = row.split(",")
    bad = ",".join(fields[:-1] if cut < 0 else fields + ["9"])
    path = tmp_path / "t.csv"
    path.write_text(f"{header}\n{row}\n\n{bad}\n{row}\n")
    with pytest.raises(ParseError) as err:
        read(path)
    assert err.value.line == 4  # the blank line 3 still counts
    width = len(fields)
    assert f"expected {width} fields, got {width + cut}" in str(err.value)
    path.write_text(f"{header}\n{row}\n\n{row}\n")
    read(path)  # the blank row alone is fine


@pytest.mark.parametrize("reader", sorted(READERS))
def test_leading_byte_order_mark_is_dropped(tmp_path, reader):
    read, header, row = READERS[reader]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(f"{header}\n{row}\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert repr(read(marked)) == repr(read(plain))


# Python's int() reads these; int64 and the table reader do not
@pytest.mark.parametrize("reader", sorted(READERS))
@pytest.mark.parametrize("cell", ["1_000", "99999999999999999999", "\u0663"],
                         ids=["underscore", "past_int64", "arabic_digit"])
def test_id_python_reads_but_int64_does_not_is_parse_error(tmp_path, reader, cell):
    read, header, row = READERS[reader]
    path = tmp_path / "t.csv"
    path.write_text(f"{header}\n{row}\n{cell}{row[row.index(','):]}\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        read(path)
    assert err.value.line == 3
    assert f"{header.split(',')[0]}: expected" in str(err.value) and repr(cell) in str(err.value)


def test_bad_cell_past_the_first_rows_names_its_line(tmp_path):
    rows = [f"{i},{i + 1},0" for i in range(5000)]
    rows[4999] = "4999,x,0"
    path = tmp_path / "edges.csv"
    path.write_text("player_a,player_b,formed_unix\n" + "\n".join(rows) + "\n")
    with pytest.raises(ParseError) as err:
        fileio.read_edges_csv(path)
    assert err.value.line == 5001 and "player_b" in str(err.value)


def test_bad_field_names_column_and_line(tmp_path):
    path = tmp_path / "pt.csv"
    path.write_text("player_id,game,playtime_minutes\n1,SMB,30\n-4,SMB,30\n")
    with pytest.raises(ParseError) as err:
        fileio.read_playtime_csv(path)
    assert err.value.line == 3
    assert "player_id" in str(err.value) and "'-4'" in str(err.value)
    path.write_text("player_id,game,playtime_minutes\n1,SMB,lots\n")
    with pytest.raises(ParseError) as err:
        fileio.read_playtime_csv(path)
    assert err.value.line == 2 and "playtime_minutes" in str(err.value)


def _format_value_oracle(v: float) -> str:
    """The number rule, one cell at a time."""
    if v == int(v) and abs(v) < 2**53:
        return str(int(v))
    return repr(float(v))


def test_panel_cells_follow_the_number_rule(tmp_path):
    rng = np.random.default_rng(3)
    n = 3 * fileio._WRITE_BLOCK // 2  # two blocks, the second one partial
    special = np.array([0.0, -0.0, 1.0, -3.0, 0.1, 1 / 3, 2.0**53 - 1,
                        2.0**53, 1e16, -1e22, 1.5e-7, 5e-324, 1.7976931348623157e308])
    values = np.concatenate([
        special, rng.integers(0, 4, n // 2) / rng.integers(1, 7, n // 2),
        rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)])[:n]
    panel_cols = {name: np.roll(values, k) for k, name in enumerate(fileio.PANEL_COLUMNS)}

    class Stub:
        player = np.arange(n, dtype=np.int64) + 76561197960265728
        week = np.full(n, 3, dtype=np.int64)
        meta = {}

        def column(self, name):
            return panel_cols[name]

    path = tmp_path / "panel.csv"
    fileio.write_panel_csv(path, Stub())
    lines = path.read_text().splitlines()
    assert len(lines) == n + 1
    for i, line in enumerate(lines[1:]):
        want = [str(Stub.player[i]), "3"] + [_format_value_oracle(panel_cols[c][i])
                                             for c in fileio.PANEL_COLUMNS]
        assert line == ",".join(want), i
    cols, _ = fileio.read_panel_csv(path)
    assert np.array_equal(cols["player"], Stub.player)
    for name in fileio.PANEL_COLUMNS:
        assert np.array_equal(cols[name], panel_cols[name])


def _table_path_taken(cells):
    """True when a block with repeated cells holds one string object per
    distinct text, which only the value table gives (``astype(str).tolist()``
    makes a new string per cell)."""
    distinct = len(set(cells))
    return len(cells) > distinct == len({id(c) for c in cells})


_STEAM = 76561197960265728
INT_BLOCKS = {  # values, and whether repeats share one string per distinct text
    "negative": (np.array([-15, -13, -15, -14, -10, -11, -13, -12]), True),
    "repeated": (np.full(8, 123456), True),
    "span_2n_minus_1": (np.array([500, 515, 507, 507, 501, 514, 507, 500]), True),
    "span_2n": (np.array([500, 516, 507, 507, 501, 514, 507, 500]), True),
    "empty": (np.zeros(0, dtype=np.int64), False),
    "uint64": (np.array([2**64 - 1, 2**64 - 3, 2**64 - 1, 2**64 - 2], dtype=np.uint64), True),
    "uint64_wide": (np.array([2**64 - 1, 10, 2**64 - 1, 99], dtype=np.uint64), True),
    "uint64_above_2_63": (np.array([2**63, 2**64 - 1, 2**63 + 7, 2**63], dtype=np.uint64), True),
    "int64_extremes": (np.array([-2**63, 2**63 - 1, 0, -2**63, 2**63 - 1]), True),
    "int8_wrapping": (np.array([-100, 100] * 101, dtype=np.int8), True),
    "steam_ids": (np.array([_STEAM, _STEAM + 1] * 4), True),
    # a write block of Steam-scale ids, far apart: the span rule this
    # replaced formatted such a block cell by cell
    "steam_id_block": (np.repeat(_STEAM + np.random.default_rng(3).integers(0, 10**12, 2048), 2),
                       True),
}


@pytest.mark.parametrize("name", INT_BLOCKS)
def test_integer_block_cells_equal_cell_by_cell_text(name):
    values, table = INT_BLOCKS[name]
    cells = fileio._format_column(values)
    assert cells == values.astype(str).tolist()
    assert cells == [str(int(v)) for v in values]
    assert _table_path_taken(cells) == table


@pytest.mark.parametrize("values", [
    np.array([3.0, -2.0, 3.0, -0.0, 0.0, 3.0, 10.0, 10.0]),
    np.array([2.0**53 - 1, 2.0**53 - 2, 2.0**53 - 1]),
    np.zeros(0)], ids=["integral", "below_2_53", "empty"])
def test_integral_float_block_cells_equal_integer_text(values):
    cells = fileio._format_column(values)
    assert cells == values.astype(np.int64).astype(str).tolist()
    assert cells == [_format_value_oracle(v) for v in values]


@pytest.mark.parametrize("aggregation", ["any", "mean"])
def test_written_panel_reads_back_equal(tmp_path, aggregation):
    rng = np.random.default_rng(8)
    net = build_network(random_edges(rng, 60, 200, max_week=30))
    buyers = np.unique(rng.integers(0, 60, 25))
    sched = AdoptionSchedule("SMB", buyers, rng.integers(0, 40, buyers.size))
    tags = tag_peers(net, katz_centrality(net, 26),
                     TagConfig(30, kp_percentile=0.8, min_age_weeks=20))
    sample = rng.choice(net.nodes, 20, replace=False)
    groups = GroupAssignment(np.sort(sample[:10]), np.sort(sample[10:]), 0, 10)
    panel = build_panel(net, sched, tags, groups, (27, 36),
                        PanelConfig(aggregation=aggregation))
    values = np.concatenate([panel.column(c) for c in fileio.PANEL_COLUMNS])
    assert (values != np.trunc(values)).any() == (aggregation == "mean")
    path = tmp_path / "panel.csv"
    fileio.write_panel_csv(path, panel)
    lines = path.read_text().splitlines()[1:]
    for q, line in enumerate(lines):
        want = [str(panel.player[q]), str(panel.week[q])] + [
            _format_value_oracle(panel.column(c)[q]) for c in fileio.PANEL_COLUMNS]
        assert line == ",".join(want), q
    cols, _ = fileio.read_panel_csv(path)
    assert np.array_equal(cols["player"], panel.player)
    assert np.array_equal(cols["week"], panel.week)
    for name in fileio.PANEL_COLUMNS:
        assert np.array_equal(cols[name], panel.column(name))


def test_json_roundtrip_numpy_types(tmp_path):
    path = tmp_path / "m.json"
    fileio.write_json(path, {"a": np.int64(3), "b": np.float64(0.5),
                             "c": np.array([1, 2])})
    got = fileio.read_json(path)
    assert got == {"a": 3, "b": 0.5, "c": [1, 2]}


@pytest.mark.parametrize("raw, line", [(b'{"window": [60', 1),
                                       (b'{\n "game": "Pok\xe9mon"\n}\n', 2)],
                         ids=["truncated", "latin1"])
def test_read_json_malformed_is_parse_error_with_path(tmp_path, raw, line):
    path = tmp_path / "panel.csv.meta.json"
    path.write_bytes(raw)
    with pytest.raises(ParseError) as err:
        fileio.read_json(path)
    assert err.value.line == line
    assert str(path) in str(err.value)


def test_read_json_drops_byte_order_mark(tmp_path):
    path = tmp_path / "m.json"
    path.write_bytes(b'\xef\xbb\xbf{"game": "SMB"}\n')
    assert fileio.read_json(path) == {"game": "SMB"}


def test_series_and_scores_formats(tmp_path):
    s = tmp_path / "series.csv"
    fileio.write_series_csv(s, [4, 5], [0, 2])
    assert s.read_text() == "week,purchases\n4,0\n5,2\n"
    sc = tmp_path / "scores.csv"
    fileio.write_scores_csv(sc, [9], [1.25])
    assert sc.read_text() == "player,score\n9,1.25\n"


def test_estimates_csv_none_stat(tmp_path):
    path = tmp_path / "est.csv"
    fileio.write_estimates_csv(path, [("b", 0.5, 0.1, 5.0), ("ar", 12.0, None, None)])
    lines = path.read_text().splitlines()
    assert lines[0] == "term,estimate,se,stat"
    assert lines[2] == "ar,12,,"


def test_atomic_write_failure_leaves_no_file(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with fileio.atomic_write(path) as fh:
            fh.write("partial")
            raise RuntimeError("boom")
    assert not path.exists()
    assert os.listdir(tmp_path) == []  # temp file cleaned up too


def test_atomic_write_replaces_existing(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    with fileio.atomic_write(path) as fh:
        fh.write("new")
    assert path.read_text() == "new"
