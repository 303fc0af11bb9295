"""Temporal friendship graphs and the graph computations the pipeline needs.

A :class:`TemporalNetwork` is an undirected graph whose edges carry the week
they were formed.  The data model is formation-only (the source data has no
dissolution timestamps), so "the network as of week t" is simply the subgraph
of edges with ``formed <= t``.  On top of the time-sliced views this module
provides second-degree neighborhoods (the instrument's support), Katz
centrality by conjugate gradients, and the key-player / old-friend tagging
that the heterogeneity regressors are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .errors import DivergedError, InvalidParameterError, NotFoundError
from .fileio import WEEK_SECONDS
from .settings import TagConfig

if TYPE_CHECKING:
    import scipy.sparse as sp


# Platform maximum friends; configurable in build_network.
DEFAULT_DEGREE_CAP = 2000

# Rows a slot of TemporalNetwork.matvec_at must reach to be added as its own
# slice; the narrower slots share one np.add.at (256 and 1024 time the same).
_WIDE_SLOT = 512

# Sentinel week meaning "never" (no purchase / no direct edge). Large enough
# that `week <= t` is false for any real WeekIndex.
NEVER = np.int64(2**31 - 1)


def _lookup(sorted_ids: np.ndarray, ids):
    """Positions of ``ids`` in the sorted ``sorted_ids`` and whether each is
    present.  Ids are compared as int64; an absent id's position is in range
    (0 when ``sorted_ids`` is empty) but meaningless."""
    ids = np.asarray(ids, dtype=np.int64)
    if sorted_ids.size == 0:
        return np.zeros(ids.shape, dtype=np.int64), np.zeros(ids.shape, dtype=bool)
    # searching all but the last id clamps a position past the end to it
    pos = np.searchsorted(sorted_ids[:-1], ids)
    return pos, sorted_ids[pos] == ids


def _unique(x: np.ndarray) -> np.ndarray:
    """``np.unique(x)`` by one sort and one scan, which numpy 2's ``np.unique``
    (hash-based for a plain call) takes two to four times as long to give
    on an edge column."""
    s = np.sort(x)
    keep = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def _quantile(vals: np.ndarray, q: float):
    """``np.quantile(vals, q)`` bit for bit for a non-empty float array and
    ``0 <= q <= 1``: numpy's default "linear" rule and its ``_lerp``, with
    no ``np.unique`` call, which in numpy 2.4 imports ``numpy.ma``."""
    n = vals.size
    vi = (n - 1) * q
    # numpy takes index -1 on both sides at or past the last value, and
    # measures the weight from that -1
    lo = -1 if vi >= n - 1 else math.floor(vi)
    hi = -1 if lo == -1 else lo + 1
    part = np.partition(vals, (0, lo, hi, -1))  # a NaN sorts to the end
    if np.isnan(part[-1]):
        return part[-1]
    a, b, t = part[lo], part[hi], vi - lo
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def week_of_unix(unix, epoch_unix: int = 0):
    """Bucket Unix seconds into week indices: floor((unix - epoch) / 604800)."""
    return (np.asarray(unix, dtype=np.int64) - np.int64(epoch_unix)) // WEEK_SECONDS


class TemporalNetwork:
    """Immutable undirected graph with per-edge formation weeks.

    Adjacency is CSR-like over dense node indices: row i's neighbors live in
    ``nbr[indptr[i]:indptr[i+1]]`` sorted by neighbor id, with parallel
    ``formed`` weeks.  :meth:`entries` is the one expansion of those rows
    that every friend walk goes through.  All queries are read-only, so
    instances are safe to share across threads.

    Attributes
    ----------
    nodes : np.ndarray
        Sorted unique player ids (int64).
    indptr, nbr, formed : np.ndarray
        CSR adjacency (symmetric; each undirected edge appears in both rows).
    diagnostics : dict
        Build counters: self loops dropped, duplicate records collapsed,
        nodes/edges removed by the node filter.
    """

    def __init__(self, nodes, indptr, nbr, formed, diagnostics=None):
        self.nodes = nodes
        self.indptr = indptr
        self.nbr = nbr
        self.formed = formed
        self.diagnostics = diagnostics or {}

    # -- basic shape -------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return int(self.nodes.size)

    @property
    def n_edges(self) -> int:
        return int(self.nbr.size // 2)

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def index_of(self, player: int) -> int:
        """Dense index of a player id; NotFoundError for unknown ids."""
        return int(self.indices_of(player))

    def indices_of(self, players) -> np.ndarray:
        players = np.asarray(players, dtype=np.int64)
        pos, hit = _lookup(self.nodes, players)
        if not hit.all():
            raise NotFoundError(f"player {players[~hit][0]} not in network")
        return pos

    # -- adjacency walks ----------------------------------------------------

    def entries(self, idx) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency entries of the rows ``idx`` (dense indices, any order,
        repeats allowed) as ``(r, pos)``: ``pos`` indexes ``nbr``/``formed``
        and ``r`` the position in ``idx`` it came from.  Entries are grouped
        by ``r`` in ascending order and neighbor-ascending within a row."""
        idx = np.asarray(idx, dtype=np.int64)
        lo = self.indptr[idx]
        lens = self.indptr[idx + 1] - lo
        r = np.repeat(np.arange(idx.size, dtype=np.int64), lens)
        pos = np.arange(r.size, dtype=np.int64)
        pos += np.repeat(lo - (np.cumsum(lens) - lens), lens)
        return r, pos

    def _as_of(self, idx, t: int) -> np.ndarray:
        """Neighbor indices of the rows ``idx`` over edges formed by week t."""
        _, pos = self.entries(idx)
        return self.nbr[pos[self.formed[pos] <= t]]

    def neighbors_at(self, i: int, t: int) -> np.ndarray:
        """Player ids adjacent to i through edges formed no later than t (sorted)."""
        return self.nodes[self._as_of([self.index_of(i)], t)]

    def second_degree_at(self, i: int, t: int) -> np.ndarray:
        """Friends-of-friends at week t, excluding direct friends and i itself."""
        ix = self.index_of(i)
        js = self._as_of([ix], t)
        second = _unique(self._as_of(js, t))
        second = second[~_lookup(js, second)[1] & (second != ix)]  # js ascends
        return self.nodes[second]

    def matvec_at(self, t: int) -> Callable[[np.ndarray], np.ndarray]:
        """``v -> A_t @ v`` for the 0/1 adjacency of the week-t view, in
        float64, bit-equal to ``csr_at(t) @ v``.

        The rows are ranked by week-t degree, descending (stable).  Slot j
        holds the j-th kept neighbour, in CSR order, of every row with more
        than j, at the row's rank, so the rows a slot reaches are a prefix of
        the ranking.  The slots lie one after another in one intp array,
        each wide slot filled by one gather from the kept neighbours.  A call
        adds each slot as one slice, ``out[:width] += v[slot]``, gathering
        ``v`` for that slot only.  Every row therefore sums
        ``((0 + v[c0]) + v[c1]) + ...`` in CSR order, exactly as a sparse
        matvec does.  Slots narrower than ``_WIDE_SLOT`` rows, which only the
        few highest-degree rows reach, would each cost a call for little
        work; they are filled and added by one vectorized step each (the
        sum by one ``np.add.at`` in slot order, which keeps each row's
        order).
        """
        n = self.n_nodes
        pos, kptr = self._view_at(t)
        kept = self.nbr[pos]  # the kept neighbours, int32
        del pos
        deg = np.diff(kptr)
        order = np.argsort(-deg, kind="stable")
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        first = kptr[order]  # each ranked row's first kept entry
        width = n - np.cumsum(np.bincount(deg))[:-1]  # rows with more than j
        bounds = np.zeros(width.size + 1, dtype=np.int64)
        np.cumsum(width, out=bounds[1:])
        wide = int(np.count_nonzero(width >= _WIDE_SLOT))
        spans = list(zip(bounds[:wide].tolist(), bounds[1:wide + 1].tolist()))
        cut = int(bounds[wide])
        tail = np.arange(cut, kept.size) - np.repeat(bounds[wide:-1], width[wide:])
        cols = np.empty(kept.size, dtype=np.intp)  # gathers faster than int32
        for j, (lo, hi) in enumerate(spans):
            cols[lo:hi] = kept[first[:hi - lo] + j]
        cols[cut:] = kept[first[tail] + np.repeat(np.arange(wide, width.size), width[wide:])]
        del kept, first

        def matvec(v):
            out = np.zeros(n)
            for lo, hi in spans:
                out[:hi - lo] += v[cols[lo:hi]]
            np.add.at(out, tail, v[cols[cut:]])
            return out[rank]
        return matvec

    def friend_sum(self, values: np.ndarray) -> np.ndarray:
        """Per node, the float64 sum of ``values`` over all its friends, added
        in CSR order from 0.0, bit-equal to the sparse product."""
        return np.bincount(np.repeat(np.arange(self.n_nodes), self.degrees()),
                           weights=values[self.nbr], minlength=self.n_nodes)

    def has_flagged_friend(self, flag: np.ndarray) -> np.ndarray:
        """Per node, whether any friend is flagged: ``friend_sum(flag) > 0``.
        Adjacency is symmetric, so these are the neighbours listed in the
        flagged nodes' rows; one bool per entry marks those rows."""
        out = np.zeros(self.n_nodes, dtype=bool)
        out[self.nbr[np.repeat(np.asarray(flag, dtype=bool), self.degrees())]] = True
        return out

    def _view_at(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """The week-t view as (positions of the kept entries, its CSR row
        pointers): a row's pointer counts the kept entries before it."""
        kept = np.flatnonzero(self.formed <= t)
        return kept, np.searchsorted(kept, self.indptr)

    def csr_at(self, t: int) -> sp.csr_matrix:
        """0/1 adjacency of the week-t view as a scipy CSR matrix."""
        import scipy.sparse as sp  # only the sparse-matrix paths pay for it
        kept, indptr = self._view_at(t)
        data = np.ones(int(indptr[-1]), dtype=np.int32)
        return sp.csr_matrix((data, self.nbr[kept], indptr),
                             shape=(self.n_nodes, self.n_nodes))

    def edge_array(self):
        """Unique undirected edges as int32 (a_idx, b_idx, formed) with
        a_idx < b_idx, in CSR order."""
        rows = np.repeat(np.arange(self.n_nodes, dtype=np.int32), self.degrees())
        upper = rows < self.nbr
        return rows[upper], self.nbr[upper], self.formed[upper]


def as_columns(records, dtypes) -> tuple[np.ndarray, ...]:
    """One array per dtype from a record stream.

    A tuple of ``np.ndarray`` columns is the column form; any other iterable
    (a tuple of tuples included) holds one record per item.
    """
    k = len(dtypes)
    if not (isinstance(records, tuple) and records
            and all(isinstance(c, np.ndarray) for c in records)):
        rows = [tuple(r) for r in records]
        if any(len(r) != k for r in rows):
            raise InvalidParameterError(f"every record needs {k} fields")
        records = tuple(zip(*rows)) if rows else ((),) * k
    elif len(records) != k:
        raise InvalidParameterError(f"expected {k} columns, got {len(records)}")
    return tuple(np.asarray(c, dtype=d) for c, d in zip(records, dtypes))


def build_network(
    edges: Iterable[tuple[int, int, int]] | tuple,
    node_filter: Iterable[int] | None = None,
    nodes: Sequence[int] | None = None,
    max_degree: int = DEFAULT_DEGREE_CAP,
) -> TemporalNetwork:
    """Build a deduplicated symmetric temporal network from an edge stream.

    Parameters
    ----------
    edges : iterable of (a, b, formed_week) or a tuple of three ``np.ndarray`` columns
        May contain duplicates and both orientations; the EARLIEST formation
        week per unordered pair wins.  Self loops are dropped and counted in
        ``diagnostics`` (not fatal).  Weeks must lie in [0, NEVER), i.e.
        below 2**31 - 1, so a far-future or microsecond timestamp is an
        error rather than a wrapped int32.
    node_filter : collection of ids, or None
        The ids to keep (an array, a set, a list, ...).  Other nodes are
        removed with all incident edges.  Zero-edge nodes are NOT dropped
        (friendless players stay).
    nodes : sequence of int, optional
        Explicit node universe.  When given, edges touching ids outside it
        are dropped; otherwise the universe is the union of edge endpoints.
    max_degree : int
        Degree cap (platform maximum); a node exceeding it is an error.

    Each record becomes two packed int64 keys over dense node indices,
    ``a * n + b`` and ``b * n + a`` (exact for n < 3.0e9 nodes).  One argsort
    of those 2m keys is both the pair dedupe and the CSR order: the sorted
    unique keys are the (row, neighbor) entries, and one ``minimum.reduceat``
    gives each its earliest week.  Dead temporaries are freed as the build
    goes, and the keys are sorted in place once the sort order has gathered
    the weeks: at its peak the build holds the keys, the sort order (8 bytes
    per key each) and the int32 weeks, about 14 MiB of traced memory for
    320,000 records on 20,000 nodes.  Columns passed as a temporary, e.g.
    ``build_network(read_edges_csv(path))``, are freed once their node
    indices are found; columns the caller still names stay alive throughout.
    """
    a, b, f = as_columns(edges, (np.int64,) * 3)
    del edges  # the callee owns a temporary argument's only reference
    if a.size and (a.min() < 0 or b.min() < 0):
        raise InvalidParameterError("player ids must be non-negative")
    if f.size and f.min() < 0:
        raise InvalidParameterError("formation weeks must be non-negative")
    if f.size and f.max() >= NEVER:
        raise InvalidParameterError(
            f"formation week {int(f.max())} is not below {int(NEVER)}, the never-formed sentinel")

    diagnostics = {"self_loops": 0, "duplicates": 0, "filtered_nodes": 0, "filtered_edges": 0}

    selfloop = a == b
    diagnostics["self_loops"] = int(selfloop.sum())
    if selfloop.any():
        a, b, f = a[~selfloop], b[~selfloop], f[~selfloop]

    if nodes is not None:
        universe = _unique(np.asarray(
            nodes if isinstance(nodes, np.ndarray) else list(nodes), dtype=np.int64))
    else:
        # two small unique sets, not one sort of both whole columns
        universe = _unique(np.concatenate((_unique(a), _unique(b))))
    if universe.size and universe.min() < 0:
        raise InvalidParameterError("player ids must be non-negative")

    if node_filter is not None:
        keep_mask = _lookup(_unique(np.fromiter(node_filter, np.int64)), universe)[1]
        diagnostics["filtered_nodes"] = int((~keep_mask).sum())
        universe = universe[keep_mask]

    ia, ok_a = _lookup(universe, a)
    ib, ok_b = _lookup(universe, b)
    del a, b
    ok = ok_a & ok_b
    del ok_a, ok_b
    diagnostics["filtered_edges"] = int((~ok).sum())
    if diagnostics["filtered_edges"]:
        ia, ib, f = ia[ok], ib[ok], f[ok]
    del ok
    f = f.astype(np.int32)  # exact: weeks are below NEVER

    # a run of equal keys keeps its earliest week, whatever its order
    n = universe.size
    if n > 3_037_000_499:
        raise InvalidParameterError(f"{n} nodes overflow the int64 pair key")
    m = ia.size
    key = np.empty(2 * m, dtype=np.int64)  # a * n + b, then b * n + a
    np.multiply(ia, n, out=key[:m])
    key[:m] += ib
    np.multiply(ib, n, out=key[m:])
    key[m:] += ia
    del ia, ib
    order = np.argsort(key)
    wks = np.take(f, order, mode="wrap")  # key i >= m is record i - m
    del f, order
    key.sort()  # equal keys are equal values: the same array as key[order]
    head = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=head[1:])
    # every unordered pair is two keys, so each duplicate record is two too
    diagnostics["duplicates"] = int(key.size - np.count_nonzero(head)) // 2
    if diagnostics["duplicates"]:
        wks = np.minimum.reduceat(wks, np.flatnonzero(head))
        key = key[head]
    del head
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    deg = np.diff(indptr)
    if deg.size and deg.max() > max_degree:
        worst = int(universe[int(np.argmax(deg))])
        raise InvalidParameterError(
            f"player {worst} has degree {int(deg.max())} > cap {max_degree}")
    key %= n
    return TemporalNetwork(universe, indptr, key.astype(np.int32), wks, diagnostics)


def second_degree_counts(net: TemporalNetwork, players, t: int,
                         block: int = 2048) -> np.ndarray:
    """|net.second_degree_at(i, t)| for many players, in fixed-size row blocks.

    Nodes within two hops of i are the nonzero columns of row i of
    (A+I) @ (A+I); dropping i and its deg_t(i) friends leaves the second
    degree.  Each block's product is reduced to counts at once, so memory
    stays bounded on dense networks (full materialization at mean degree
    ~100 would need gigabytes).  The int32 path counts are positive, so no
    entry cancels to zero and drops out.  Block order is fixed →
    deterministic.
    """
    import scipy.sparse as sp
    idx = net.indices_of(players)
    A = net.csr_at(t)
    reach = A + sp.identity(net.n_nodes, dtype=np.int32, format="csr")
    out = np.zeros(idx.size, dtype=np.int64)
    for s in range(0, idx.size, block):
        rows = idx[s:s + block]
        out[s:s + rows.size] = (reach[rows] @ reach).getnnz(axis=1)
    return out - np.diff(A.indptr)[idx] - 1


@dataclass
class CentralityScores:
    """Katz scores for every node of a week-t view.

    ``values`` aligns with ``players`` (= network node order).
    """

    players: np.ndarray
    values: np.ndarray
    asof: int
    alpha: float
    iterations: int
    converged: bool

    def __getitem__(self, player: int) -> float:
        pos, hit = _lookup(self.players, player)
        if not hit:
            raise NotFoundError(f"player {player} not in scores")
        return float(self.values[pos])


def _estimate_spectral_radius(matvec, n: int, steps: int = 50) -> float:
    v = np.ones(n)
    lam = 0.0
    for _ in range(steps):
        w = matvec(v)
        norm = math.sqrt(_dot(w, w))  # not np.linalg.norm, a BLAS sum
        if norm == 0.0:
            return 0.0
        lam = norm / math.sqrt(_dot(v, v))
        v = w / norm
    return lam


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    # pairwise numpy sum, not BLAS: the same bits at any thread count
    return float(np.add.reduce(a * b))


def katz_centrality(net: TemporalNetwork, t: int, alpha: float | None = None,
                    tol: float = 1e-10, max_iter: int = 1000) -> CentralityScores:
    """Katz centrality of the week-t view: x solving (I - alpha*A_t) x = 1.

    ``alpha=None`` uses 0.9 / lambda_hat, with lambda_hat estimated by 50
    power-iteration steps on A_t (0.9 when the view has no edges, where any
    alpha yields the all-ones solution).  The system is solved by conjugate
    gradients from x = 1.  It is positive definite exactly when
    alpha < 1 / rho(A_t), which is when the Katz series converges; a CG step
    with non-positive curvature p'(I - alpha*A_t)p raises DivergedError.
    ``iterations`` counts CG steps.  The solve has converged once a step
    changes no score by tol or more, or the residual is exactly zero;
    otherwise it returns ``converged=False`` with the iterate after
    ``max_iter`` steps.
    """
    matvec = net.matvec_at(t)
    n = net.n_nodes
    if alpha is None:
        lam = _estimate_spectral_radius(matvec, n)
        alpha = 0.9 / lam if lam > 0 else 0.9
    alpha = float(alpha)
    if alpha <= 0:
        raise InvalidParameterError(f"katz alpha must be positive, got {alpha}")
    x = np.ones(n)
    r = alpha * matvec(x)  # 1 - (I - alpha*A) 1
    p = r
    rr = _dot(r, r)
    converged = rr == 0.0
    iterations = 0
    while not converged and iterations < max_iter:
        iterations += 1
        q = p - alpha * matvec(p)
        curvature = _dot(p, q)
        if not curvature > 0.0:
            raise DivergedError(
                f"katz system is not positive definite at alpha={alpha}")
        step = rr / curvature
        dx = step * p
        x += dx
        r = r - step * q
        rr_new = _dot(r, r)
        converged = float(np.abs(dx).max()) < tol or rr_new == 0.0
        p = r + (rr_new / rr) * p
        rr = rr_new
    return CentralityScores(net.nodes, x, int(t), alpha, iterations, converged)


@dataclass
class PeerTags:
    """Key players and the old-friend rule under a :class:`TagConfig`.

    The fields record the rule's values: the reference week, the cutoff (an
    edge is an old-friend edge exactly when it formed by it), the
    percentile and the Katz threshold it gave.  ``network`` is the graph the
    tags were read from; tags built by hand may leave it unset.
    """

    key_players: np.ndarray
    reference_week: int
    old_friend_cutoff: int
    percentile: float
    threshold: float
    network: TemporalNetwork | None = field(default=None, repr=False, compare=False)

    def is_key_player(self, player) -> np.ndarray | bool:
        return _lookup(self.key_players, player)[1]

    @property
    def old_friend_pairs(self) -> np.ndarray:
        """Player-id pairs (a < b) of the network's old-friend edges, an
        (edges, 2) int64 array built on each read."""
        if self.network is None:
            raise InvalidParameterError("these tags have no network to list edges from")
        net = self.network
        ai, bi, f = net.edge_array()
        old = f <= self.old_friend_cutoff
        return np.stack((net.nodes[ai[old]], net.nodes[bi[old]]), axis=1)


def tag_peers(net: TemporalNetwork, scores: CentralityScores,
              cfg: TagConfig) -> PeerTags:
    """Key players of ``net`` by the rule ``cfg``, ranked by ``scores`` (Katz
    at ``cfg.reference_week``), and the rule's old-friend cutoff."""
    vals = scores.values
    if cfg.connected_only:
        vals = vals[net.degrees() > 0]
    if vals.size == 0:
        threshold = np.inf
        kp = net.nodes[:0]
    else:
        threshold = float(_quantile(vals, cfg.kp_percentile))
        kp = net.nodes[scores.values >= threshold]
    return PeerTags(kp, cfg.reference_week, cfg.old_friend_cutoff,
                    float(cfg.kp_percentile), threshold, net)
