"""Panel construction: achievement events + temporal network -> regression inputs.

The pipeline here mirrors the study design: derive per-player purchase weeks
from first-achievement timestamps, sample treatment/control groups, and lay
out a balanced player-by-week panel with the friend-adoption regressor, the
lagged second-degree instrument, and the key-player / old-friend splits of
both.  A cross-sectional playtime table (first-purchasing-friend tags plus
covariates) supports the post-adoption intensity regression.

Columns are assembled with interval difference arrays on a (players x weeks)
grid: every friend edge / second-degree pair contributes a [start, end) week
interval during which it raises the relevant count, so no per-(player, week)
loop is ever executed.
"""

from __future__ import annotations

import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientPoolError, InvalidParameterError, ParseError
from .fileio import PanelDataset
from .graph import (NEVER, PeerTags, TemporalNetwork, _lookup, _unique, as_columns,
                    week_of_unix)
from .settings import PanelConfig


@dataclass
class AdoptionSchedule:
    """Per-player purchase week for one game (earliest achievement's week).

    ``players`` is sorted; ``weeks`` aligns with it.  Players absent from
    ``players`` have no purchase; bulk lookups return the sentinel ``NEVER``
    for them so that `week <= t` comparisons are naturally false.
    """

    game: str
    players: np.ndarray
    weeks: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n_players(self) -> int:
        return int(self.players.size)

    def week_of(self, player: int):
        pos, hit = _lookup(self.players, player)
        return int(self.weeks[pos]) if hit else None

    def weeks_for(self, players) -> np.ndarray:
        """Purchase weeks for an id array; NEVER where there is no purchase."""
        pos, hit = _lookup(self.players, players)
        out = np.full(hit.shape, NEVER, dtype=np.int64)
        out[hit] = self.weeks[pos[hit]]
        return out

    def to_dict(self) -> dict:
        return {int(p): int(w) for p, w in zip(self.players, self.weeks)}


def derive_schedule(events, game: str, cutoff_week: int | None = None,
                    epoch_unix: int = 0) -> AdoptionSchedule:
    """Group achievement events to per-player purchase weeks for one game.

    ``events`` is either an iterable of (player, game, unlocked_unix) tuples
    or a tuple of three ``np.ndarray`` columns (players, games, unix).  The
    purchase week is the week of the EARLIEST event; players whose earliest
    event falls after ``cutoff_week`` are excluded (the boundary week itself
    is included).
    """
    players, games, unix = as_columns(events, (np.int64, object, np.int64))

    pick = games == game
    players, unix = players[pick], unix[pick]
    if players.size == 0:
        warnings.warn(f"no achievement events for game {game!r}; schedule is empty")
        return AdoptionSchedule(game, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    if players.min() < 0:
        raise ParseError("player ids must be non-negative")
    weeks = week_of_unix(unix, epoch_unix)
    if weeks.min() < 0:
        raise ParseError(f"event timestamp precedes the epoch {epoch_unix}")

    order = np.lexsort((weeks, players))
    players, weeks = players[order], weeks[order]
    first = np.ones(players.size, dtype=bool)
    first[1:] = players[1:] != players[:-1]
    players, weeks = players[first], weeks[first]
    if cutoff_week is not None:
        keep = weeks <= cutoff_week
        players, weeks = players[keep], weeks[keep]
    return AdoptionSchedule(game, players, weeks.astype(np.int64))


@dataclass
class GroupAssignment:
    """Sampled treatment/control player sets (disjoint, sorted ids)."""

    treatment: np.ndarray
    control: np.ndarray
    seed: int
    n_requested: int
    n_dropped_treatment: int = 0

    def all_players(self) -> np.ndarray:
        return _unique(np.concatenate((self.treatment, self.control)))


_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


class _Pcg64:
    """The bounded draws of ``np.random.default_rng(seed)`` in pure Python,
    so that sampling does not import ``numpy.random`` (about 5 MB of RSS).

    ``below(high)`` gives what ``integers(0, highs)`` gives for the next
    entry of an int64 array ``highs``, and successive calls continue one
    stream.  The parts are numpy's: ``SeedSequence(seed)`` hashes the
    seed's 32-bit words into a 4-word pool and mixes it, and
    ``generate_state(4, uint64)`` seeds PCG64 (O'Neill 2014: a 128-bit LCG
    with the XSL-RR output).  A 32-bit draw is the low half of the next
    64-bit output, with the high half kept for the call after, and a
    bounded draw is Lemire's (2019) multiply-and-reject on 32-bit draws.
    Only numpy's 32-bit branch is ported: ``high`` must be at most
    ``2**32 - 1``, which a pool under ``build_network``'s node limit is.
    """

    _MULT = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise InvalidParameterError(f"seed must be non-negative, got {seed}")
        words = [seed & _M32]  # little-endian 32-bit words, at least one
        while seed > _M32:
            seed >>= 32
            words.append(seed & _M32)
        hash_const = 0x43B0D7E5

        def hashmix(value):
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * 0x931E8875 & _M32
            value = value * hash_const & _M32
            return value ^ value >> 16

        def mix(x, y):
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ r >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        state, hash_const = [], 0x8B51F9DD
        for i in range(8):
            value = pool[i % 4] ^ hash_const
            hash_const = hash_const * 0x58F38DED & _M32
            value = value * hash_const & _M32
            state.append(value ^ value >> 16)
        s0, s1, i0, i1 = (state[2 * j] | state[2 * j + 1] << 32 for j in range(4))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * self._MULT + self._inc) & _M128
        self._high = None

    def _next32(self) -> int:
        if self._high is not None:
            out, self._high = self._high, None
            return out
        s = self._state = (self._state * self._MULT + self._inc) & _M128
        rot = s >> 122
        x = (s >> 64 ^ s) & _M64
        x = (x >> rot | x << (64 - rot)) & _M64
        self._high = x >> 32
        return x & _M32

    def below(self, high: int) -> int:
        """A uniform draw from ``range(high)``, ``1 <= high <= 2**32 - 1``."""
        if high > _M32:
            raise InvalidParameterError(f"draw bound {high} is above 2**32 - 1")
        if high == 1:
            return 0  # numpy draws nothing for a one-value range
        m = self._next32() * high
        if m & _M32 < high:
            threshold = (2**32 - high) % high
            while m & _M32 < threshold:
                m = self._next32() * high
        return m >> 32


def _fisher_yates_prefix(pool: np.ndarray, k: int, rng: _Pcg64) -> np.ndarray:
    """First k entries of a seeded Fisher-Yates shuffle of ``pool`` (sorted
    ids in); the swaps draw ``default_rng(seed).integers(0, n - arange(k))``."""
    arr = pool.copy()
    n = arr.size
    for i in range(k):
        j = i + rng.below(n - i)
        arr[i], arr[j] = arr[j], arr[i]
    return np.sort(arr[:k])


def assign_groups(net: TemporalNetwork, schedule: AdoptionSchedule, n_per_group: int,
                  seed: int, horizon_week: int | None = None) -> GroupAssignment:
    """Sample treatment (>=1 purchasing friend) and control (none) groups.

    Pool membership uses the full crawled network and the full schedule.
    When ``horizon_week`` is given, sampled treatment players whose friends'
    purchases ALL fall after the horizon are dropped post-sampling (their
    exposure never materializes inside the study window), so the realized
    treatment group may be smaller than requested.  Sampling is a seeded
    Fisher-Yates prefix per pool, treatment drawn first, from one stream
    that is exactly ``np.random.default_rng(seed)``'s; ``seed`` must be a
    non-negative integer.
    """
    if n_per_group < 0:
        raise InvalidParameterError("n_per_group must be non-negative")
    rng = _Pcg64(seed)
    deg = net.degrees()
    weeks = schedule.weeks_for(net.nodes)
    has_adopting_friend = net.has_flagged_friend(weeks != NEVER)
    treat_pool = net.nodes[(deg > 0) & has_adopting_friend]
    control_pool = net.nodes[(deg > 0) & ~has_adopting_friend]
    if treat_pool.size < n_per_group or control_pool.size < n_per_group:
        raise InsufficientPoolError(
            f"pools smaller than n_per_group={n_per_group} "
            f"(treatment {treat_pool.size}, control {control_pool.size})",
            {"treatment": int(treat_pool.size), "control": int(control_pool.size)})

    treatment = _fisher_yates_prefix(treat_pool, n_per_group, rng)
    control = _fisher_yates_prefix(control_pool, n_per_group, rng)

    n_dropped = 0
    if horizon_week is not None and treatment.size:
        usable = net.has_flagged_friend(weeks <= horizon_week)
        keep = usable[net.indices_of(treatment)]
        n_dropped = int((~keep).sum())
        treatment = treatment[keep]
    return GroupAssignment(treatment, control, int(seed), int(n_per_group), n_dropped)


def expected_row_count(n_players: int, window) -> int:
    """Balanced row count: players x (window length - 1); the first window
    week is consumed by the instrument lag."""
    w0, w1 = int(window[0]), int(window[1])
    if w1 <= w0:
        raise InvalidParameterError(f"window [{w0}, {w1}] has no post-lag weeks")
    return int(n_players) * (w1 - w0)


# Flag bits of a packed second-degree path key: bit v marks a path whose
# first hop passes the v-th level-1 mask (all / key-player middle / old friend).
_SD_FLAG_BITS = 3
# Two-hop paths expanded at once (a single row may exceed it): bounds the
# packed keys of a block and each array that builds them.  About ten int64
# arrays of this length are alive at once, ~10 MB at 125,000.  It is the knee
# at mean degree 32 (dense build-panel, seed 1): build_panel's traced peak is
# 23.0 MiB at 250k, 14.7 at 125k and 12.0 at 62.5k, and the process peak
# 68 MB at 250k against 62 MB at 125k and at 62.5k, where reading and
# building the network set it.  No budget in that range changes the time.
_SD_PATH_BUDGET = 125_000


def _sd_block_rows(n_nodes: int, max_week: int) -> int:
    """Most rows per block whose packed second-degree keys fit in 63 bits.

    A key spends bit_length(rows * n_nodes - 1) bits on the (row, k) pair,
    bit_length(max_week) on the week and ``_SD_FLAG_BITS`` on the flags (see
    :func:`_sd_pairs`).  Raises when not even one row fits.
    """
    free = 63 - _SD_FLAG_BITS - int(max_week).bit_length()
    fit = (1 << free) // max(int(n_nodes), 1) if free >= 0 else 0
    if fit < 1:
        raise InvalidParameterError(
            f"{n_nodes} nodes with formation weeks up to {max_week} do not fit "
            "a 63-bit second-degree path key")
    return fit


def _sd_blocks(paths: np.ndarray, cap: int):
    """Consecutive [start, stop) row ranges covering ``paths`` (two-hop paths
    per row).  A range takes rows while their paths fit ``_SD_PATH_BUDGET``,
    at least one (a row over the budget is a range of its own), at most ``cap``."""
    csum = np.cumsum(paths)
    start = 0
    while start < csum.size:
        base = csum[start - 1] if start else 0
        stop = int(np.searchsorted(csum, base + _SD_PATH_BUDGET, side="right"))
        stop = min(max(stop, start + 1), start + cap, csum.size)
        yield start, stop
        start = stop


def _sd_pairs(net, rows, j_idx, f_ij, sample_idx, masks):
    """Unique second-degree pairs reachable through the given level-1 edges.

    ``rows, j_idx, f_ij`` are the level-1 edges of the sampled nodes
    ``sample_idx`` in :meth:`TemporalNetwork.entries` order: row (a position
    in ``sample_idx``), neighbor index and formation week.  Yields
    (v, row, k_idx, w2, f_direct) tuples for mask v of ``masks``: per unique
    (row, k) the earliest week the pair is path-connected (min over paths of
    max(f_ij, f_jk)) and the week a DIRECT i-k edge forms (NEVER when none).
    Membership in the second-degree set at week t is ``w2 <= t < f_direct``.
    A mask (a boolean array over the level-1 edges, or None for all)
    restricts the first hop, e.g. to key-player middle nodes or old-friend
    edges; the direct-edge exclusion always uses every level-1 edge.

    Rows are expanded in the blocks of :func:`_sd_blocks`, each within
    ``_SD_PATH_BUDGET`` (125,000) two-hop paths unless it is one row, so the
    budget bounds the paths alive at once: about ten int64 arrays of that
    length, ~10 MB.  A block's paths become one int64 key
    each, ``((row * n + k) << wbits | w2) << 3 | flags`` (row counted from
    the block's first), where ``wbits`` is the bit length of the latest
    formation week and flag bit v is set when the path's first hop passes
    mask v.  One value sort orders them by (row, k, w2), and one scan marks
    the first path of each unique (row, k) pair.  Those pairs are the
    all-paths variant (a None mask) as they stand.  A masked variant's
    earliest path per pair is the first path in the pair's group carrying
    its flag, as a masked subsequence of a sorted array is still sorted.
    The direct-edge lookup searches the block's level-1 (row, j) keys among
    the unique pairs, the few in the many; a block whose paths all return
    to their start has no pairs and yields empty arrays.  A block yields its
    masks in order, pairs sorted by (row, k).
    """
    n = net.n_nodes
    max_week = int(net.formed.max()) if net.formed.size else 0
    wbits = max_week.bit_length()
    shift = wbits + _SD_FLAG_BITS
    flags = np.zeros(rows.size, dtype=np.int64)
    for v, keep in enumerate(masks):
        flags[slice(None) if keep is None else keep] |= 1 << v
    # two-hop paths per row, summed over the sampled rows' edges only:
    # friend_sum(degrees) over every node peaks at ~15 MiB at mean degree 32
    paths = np.bincount(rows, weights=net.degrees()[j_idx],
                        minlength=sample_idx.size).astype(np.int64)

    for start, stop in _sd_blocks(paths, _sd_block_rows(n, max_week)):
        lo, hi = np.searchsorted(rows, (start, stop))
        b_rows, b_j, b_f = rows[lo:hi] - start, j_idx[lo:hi], f_ij[lo:hi]
        e, pos = net.entries(b_j)  # the block's level-1 edge of each path
        key = b_rows[e]
        k = net.nbr[pos]
        notself = k != sample_idx[start:stop][key]
        key *= n
        key += k
        del k
        key <<= wbits
        key |= np.maximum(b_f[e], net.formed[pos])
        del pos
        key <<= _SD_FLAG_BITS
        key |= flags[lo:hi][e]
        del e
        key = key[notself]
        del notself
        key.sort()

        pair = key >> shift
        head = np.ones(key.size, dtype=bool)
        np.not_equal(pair[1:], pair[:-1], out=head[1:])
        upair = pair[head]
        del pair
        # direct-edge weeks: the few level-1 (row, j) keys in the many
        # unique (row, k) pairs; both are sorted and unique
        at, hit = _lookup(upair, b_rows * n + b_j)
        f_direct = np.full(upair.size, NEVER, dtype=np.int64)
        f_direct[at[hit]] = b_f[hit]
        del at, hit
        heads = np.flatnonzero(head)  # each unique pair's first path
        # 1 + the unique-pair index of each path; int32 holds it, since 2**31
        # paths would need 16 GiB of keys
        group = np.cumsum(head, dtype=np.int32)
        del head
        for v, keep in enumerate(masks):
            if keep is None:  # every path carries the flag: the unique pairs
                pos, pair, fdir = heads, upair, f_direct
            else:
                pos = np.flatnonzero(key & (1 << v))
                pair = key[pos] >> shift
                first = np.ones(pos.size, dtype=bool)
                np.not_equal(pair[1:], pair[:-1], out=first[1:])
                pos, pair = pos[first], pair[first]
                del first
                fdir = f_direct[group[pos] - 1]
            row, k = np.divmod(pair, n)
            row += start
            w2 = (key[pos] >> _SD_FLAG_BITS) & ((1 << wbits) - 1)
            del pos, pair
            yield v, row, k, w2, fdir
            del row, k, w2, fdir
        del key, heads, group, upair, f_direct


def _key_player_mask(net: TemporalNetwork, tags: PeerTags) -> np.ndarray:
    """Key-player flag per dense node index; the tags must come from ``net``."""
    mask = np.zeros(net.n_nodes, dtype=bool)
    if tags.key_players.size:
        mask[net.indices_of(tags.key_players)] = True
    return mask


def _count_into(grid, cells, sign=1):
    """``grid.flat[c] += sign`` for every c in ``cells``, repeats counted:
    one ``np.bincount`` over the span from the lowest cell to the highest,
    added in place to the int32 grid."""
    if cells.size == 0:
        return
    lo = int(cells.min())
    counts = np.bincount(cells - lo)
    flat = grid.reshape(-1)[lo:lo + counts.size]
    if sign > 0:
        flat += counts
    else:
        flat -= counts


def _interval_add(diff, rows, start, end, W):
    """diff-array += 1 on [start, end) per row, clipped to [0, W)."""
    start = np.maximum(start, 0)
    ok = start < np.minimum(end, W)
    r, s, e = rows[ok], start[ok], end[ok]
    _count_into(diff, r * W + s)
    inside = e < W
    _count_into(diff, r[inside] * W + e[inside], -1)


def _point_add(diff_or_grid, rows, col, W):
    ok = (col >= 0) & (col < W)
    _count_into(diff_or_grid, rows[ok] * W + col[ok])


def _add_members(grid, denom, rows, start, end, p, lag, w0, W, absorbing):
    """Count, per grid row, the set members who bought while in the set.

    A member of its row's set from week ``start`` until ``end`` (exclusive;
    NEVER when it stays) who bought in week ``p`` (NEVER for none) counts
    ``lag`` weeks later: from max(start, p) until end in absorbing mode
    (as a diff-array interval), or at p alone, when p falls inside its
    spell, in event mode.  The mean-mode ``denom`` counts every member over
    its spell.  Grid columns are weeks from ``w0``.
    """
    bought = p != NEVER
    if absorbing:
        _interval_add(grid, rows[bought],
                      np.maximum(start[bought], p[bought]) + lag - w0,
                      end[bought] + lag - w0, W)
    else:
        ok = bought & (start <= p) & (p < end)
        _point_add(grid, rows[ok], p[ok] + lag - w0, W)
    if denom is not None:
        _interval_add(denom, rows, start + lag - w0, end + lag - w0, W)


def build_panel(net: TemporalNetwork, schedule: AdoptionSchedule, tags: PeerTags,
                groups: GroupAssignment, window,
                cfg: PanelConfig | None = None) -> PanelDataset:
    """Assemble the balanced player-by-week panel.

    For each sampled player i and week t in (w_start, w_end]:

    * ``y``: own purchase (absorbing: week <= t; event: week == t),
    * ``x_friend``: aggregation over friends-at-t j of their purchases,
    * ``z_sd_lag``: aggregation over second-degree-at-(t-1) k of their
      purchases at/through t-1 — by construction it only uses week <= t-1
      data,
    * ``x_kp`` / ``x_of``: x_friend restricted to key-player friends /
      old-friend pairs,
    * ``z_kp_lag`` / ``z_of_lag``: the instrument restricted to paths whose
      middle node is a key player / whose first hop is an old-friend edge.

    The first window week carries no rows (the lag consumes it).  Rows are
    player-major; with ``censor_after_purchase`` rows after a player's own
    purchase week are dropped (the panel is then no longer balanced).
    The x columns are filled once over all sampled players; the z columns
    from :func:`_sd_pairs`, whose budget of ``_SD_PATH_BUDGET`` (125,000)
    two-hop paths per block bounds the instrument's memory at any degree
    (~10 MB of path arrays; a larger budget costs memory and saves no time,
    and a smaller one leaves the peak to the network).  The value columns
    are then made one at a time, each freeing its int32 count grid, so the
    grids and the finished columns are never all alive together.  Each
    keeps the narrowest dtype that holds it exactly: ``y`` and the "any"
    columns are int8 0/1, the "sum" columns the int32 counts and the
    "mean" columns float64.

    ``meta`` also records the tag rule (reference week, old-friend cutoff,
    key-player percentile, Katz threshold or None, key-player count) and
    the treatment players dropped at the horizon.
    """
    cfg = cfg or PanelConfig()
    players = groups.all_players()
    n_balanced = expected_row_count(players.size, window)  # rejects an empty window
    w0, w1 = int(window[0]), int(window[1])
    if tags.reference_week >= w0:
        warnings.warn("tags.reference_week is inside the panel window; "
                      "key-player/old-friend tags are not predetermined")
    if players.size == 0:
        raise InvalidParameterError("no sampled players")
    sample_idx = net.indices_of(players)
    P = players.size
    W = w1 - w0 + 1
    mean_mode = cfg.aggregation == "mean"
    absorbing = cfg.outcome_mode == "absorbing"

    names = ("x_friend", "x_kp", "x_of", "z_sd_lag", "z_kp_lag", "z_of_lag")
    grids = {n: np.zeros((P, W), dtype=np.int32) for n in names}
    denoms = {n: np.zeros((P, W), dtype=np.int32) for n in names} if mean_mode else {}

    kp_flag = _key_player_mask(net, tags)
    p_all = schedule.weeks_for(net.nodes)  # purchase week per dense index
    rows, pos = net.entries(sample_idx)
    j_idx, f_ij = net.nbr[pos], net.formed[pos]
    masks = (None, kp_flag[j_idx], f_ij <= tags.old_friend_cutoff)

    # --- x columns: one interval / point per qualifying friend edge
    for name, keep in zip(names[:3], masks):
        e = slice(None) if keep is None else keep
        r = rows[e]
        _add_members(grids[name], denoms.get(name), r, f_ij[e],
                     np.full(r.size, NEVER), p_all[j_idx[e]], 0, w0, W, absorbing)

    # --- z columns: one interval / point per unique second-degree pair,
    # one path block and variant at a time so only those pairs are alive
    for v, prow, k, w2, fdir in _sd_pairs(net, rows, j_idx, f_ij, sample_idx, masks):
        name = names[3 + v]
        _add_members(grids[name], denoms.get(name), prow, w2, fdir, p_all[k],
                     1, w0, W, absorbing)
        del prow, k, w2, fdir

    # interval diffs -> running counts (event mode stores points directly)
    for name in names:
        if absorbing:
            np.cumsum(grids[name], axis=1, out=grids[name])
        if mean_mode:
            np.cumsum(denoms[name], axis=1, out=denoms[name])

    # --- y from own purchase weeks
    p_own = p_all[sample_idx]
    if absorbing:
        # owned from the purchase column on; no in-window purchase -> column W
        start = np.where(p_own <= w1, np.maximum(p_own - w0, 0), W)
        y_grid = (np.arange(W) >= start[:, None]).view(np.int8)
    else:
        y_grid = np.zeros((P, W), dtype=np.int8)
        has = p_own != NEVER
        cols = p_own[has] - w0
        ok = (cols >= 0) & (cols < W)
        y_grid[np.nonzero(has)[0][ok], cols[ok]] = 1

    def finalize(grid, denom):
        g = grid[:, 1:]
        if cfg.aggregation == "any":
            return (g > 0).view(np.int8).ravel()
        if cfg.aggregation == "sum":
            return g.ravel()
        d = denom[:, 1:]
        return np.divide(g, d, out=np.zeros(g.shape, dtype=np.float64),
                         where=d > 0).ravel()

    player_col = np.repeat(players, W - 1)
    week_col = np.tile(np.arange(w0 + 1, w1 + 1, dtype=np.int64), P)
    keep = slice(None)
    if cfg.censor_after_purchase:
        keep = week_col <= np.repeat(np.where(p_own == NEVER, np.int64(w1), p_own), W - 1)
        player_col, week_col = player_col[keep], week_col[keep]
    # one uncensored column alive at a time, and each grid popped as its
    # column is made
    columns = {name: finalize(grids.pop(name), denoms.pop(name, None))[keep]
               for name in names}
    columns["y"] = y_grid[:, 1:].ravel()[keep]

    meta = {
        "window": [w0, w1],
        "outcome_mode": cfg.outcome_mode,
        "aggregation": cfg.aggregation,
        "censor_after_purchase": cfg.censor_after_purchase,
        "seed": groups.seed,
        "game": schedule.game,
        "n_players": int(P),
        "n_treatment": int(groups.treatment.size),
        "n_control": int(groups.control.size),
        "n_rows": int(player_col.size),
        "n_rows_balanced": n_balanced,
        "first_week_dropped": w0,
        "reference_week": int(tags.reference_week),
        "old_friend_cutoff": int(tags.old_friend_cutoff),
        "kp_percentile": float(tags.percentile),
        # JSON has no inf: a run with no scores to rank records null
        "kp_threshold": float(tags.threshold) if np.isfinite(tags.threshold) else None,
        "n_key_players": int(tags.key_players.size),
        "n_dropped_treatment": int(groups.n_dropped_treatment),
    }
    return PanelDataset(player_col, week_col, columns, meta)


PLAYTIME_DTYPE = np.dtype([
    ("player", np.int64), ("game", object), ("log_playtime", np.float64),
    ("kp_purchase", np.int64), ("of_purchase", np.int64),
    ("no_friend_purchase", np.int64), ("num_games", np.float64),
    ("num_groups", np.float64), ("start_week", np.float64),
    ("num_friends", np.int64), ("owns_smb", np.int64), ("owns_nv", np.int64)])


def _first_friend(net: TemporalNetwork, p_all: np.ndarray, idx: np.ndarray):
    """Earliest-purchasing friend of each dense node index in ``idx``.

    ``p_all`` is the purchase week per dense index (NEVER for none).  A
    friend qualifies when the edge formed no later than the node's own
    purchase week and the friend purchased STRICTLY earlier; ties on the
    purchase week break to the smallest dense index, i.e. the smallest id.
    Returns (friend index, formed week of that edge), -1 / NEVER when no
    friend qualifies or the node has no purchase.
    """
    rows, pos = net.entries(idx)
    j, f = net.nbr[pos], net.formed[pos]
    own, p_j = p_all[idx][rows], p_all[j]
    keep = (own != NEVER) & (f <= own) & (p_j < own)
    rows, j, f, p_j = rows[keep], j[keep], f[keep], p_j[keep]
    order = np.lexsort((j, p_j, rows))
    rows, j, f = rows[order], j[order], f[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    friend = np.full(idx.size, -1, dtype=np.int64)
    formed = np.full(idx.size, NEVER, dtype=np.int64)
    friend[rows[first]] = j[first]
    formed[rows[first]] = f[first]
    return friend, formed


def _first_friend_dummies(net: TemporalNetwork, tags: PeerTags, kp_mask: np.ndarray,
                         p_all: np.ndarray, idx: np.ndarray):
    """(kp_purchase, of_purchase, no_friend_purchase) booleans per node in ``idx``.

    The first purchasing friend (see :func:`_first_friend`) is a key player
    per the dense ``kp_mask``; it is an old friend when the connecting edge
    formed by ``tags.old_friend_cutoff``.  The simulator plants playtime
    effects and the cross-section builder recovers them through this one
    rule.
    """
    friend, formed = _first_friend(net, p_all, idx)
    none = friend < 0
    return kp_mask[friend] & ~none, formed <= tags.old_friend_cutoff, none


def build_playtime_crosssection(net: TemporalNetwork, schedule_by_game: dict,
                                tags: PeerTags, playtimes: tuple,
                                covariates: dict,
                                diagnostics: dict | None = None) -> np.recarray:
    """Playtime cross-section: one record per kept (player, game) playtime.

    ``playtimes`` is a (player, game, minutes) array triple in any row order;
    ``covariates`` is the columnar dict from the covariates CSV.  Records
    follow sorted (player, game) order with the fields of ``PLAYTIME_DTYPE``.
    A (player, game) pair given more than once keeps its last row; the
    earlier rows are counted as ``duplicate``.  Players outside the network,
    without an own purchase week for the game, with playtime below one
    minute, or without covariates are excluded, each counted under the first
    of those reasons (in ``diagnostics`` when a dict is passed).  Log
    playtime is over hours floored at 1 (so logs are >= 0).
    """
    player, game, minutes = (np.asarray(c, dtype=t) for c, t in
                             zip(playtimes, (np.int64, str, np.float64)))
    names, code = np.unique(game, return_inverse=True)
    names = names.astype(object)
    order = np.lexsort((code, player))  # stable: a repeated pair keeps its row order
    player, code, minutes = player[order], code[order], minutes[order]
    last = np.ones(player.size, dtype=bool)
    last[:-1] = (player[1:] != player[:-1]) | (code[1:] != code[:-1])
    player, game, minutes = player[last], names[code[last]], minutes[last]

    own = np.full(player.size, NEVER, dtype=np.int64)
    for g, schedule in schedule_by_game.items():
        hit = game == g
        own[hit] = schedule.weeks_for(player[hit])
    node_pos, in_net = _lookup(net.nodes, player)
    cov_pos, has_cov = _lookup(covariates["player"], player)
    keep = np.ones(player.size, dtype=bool)
    diag = {"duplicate": int((~last).sum())}
    for reason, bad in (("not_in_network", ~in_net), ("no_purchase", own == NEVER),
                        ("below_minimum", minutes < 1), ("no_covariates", ~has_cov)):
        diag[reason] = int((keep & bad).sum())
        keep &= ~bad
    if diagnostics is not None:
        diagnostics.update(diag)

    player, game, minutes = player[keep], game[keep], minutes[keep]
    node_pos, cov_pos = node_pos[keep], cov_pos[keep]
    kp, of, nf = (np.zeros(player.size, dtype=bool) for _ in range(3))
    kp_mask = _key_player_mask(net, tags)
    for g, schedule in schedule_by_game.items():
        hit = game == g
        kp[hit], of[hit], nf[hit] = _first_friend_dummies(
            net, tags, kp_mask, schedule.weeks_for(net.nodes), node_pos[hit])

    def owns(g):
        schedule = schedule_by_game.get(g)
        if schedule is None:
            return np.zeros(player.size, dtype=bool)
        return schedule.weeks_for(player) != NEVER

    return np.rec.fromarrays(
        [player, game, np.log(np.maximum(minutes / 60.0, 1.0)), kp, of, nf,
         covariates["num_games"][cov_pos], covariates["num_groups"][cov_pos],
         covariates["start_week"][cov_pos], net.degrees()[node_pos],
         owns("SMB"), owns("NV")],
        dtype=PLAYTIME_DTYPE)
