"""Temporal friendship graphs and the graph computations the pipeline needs.

A :class:`TemporalNetwork` is an undirected graph whose edges carry the week
they were formed.  The data model is formation-only (the source data has no
dissolution timestamps), so "the network as of week t" is simply the subgraph
of edges with ``formed <= t``.  On top of the time-sliced views this module
provides second-degree neighborhoods (the instrument's support), Katz
centrality by power iteration, and the key-player / old-friend tagging that
the heterogeneity regressors are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .errors import DivergedError, InvalidParameterError, NotFoundError

if TYPE_CHECKING:
    import scipy.sparse as sp

WEEK_SECONDS = 604800

# Platform maximum friends; configurable in build_network.
DEFAULT_DEGREE_CAP = 2000

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
    pos = np.minimum(np.searchsorted(sorted_ids, ids), sorted_ids.size - 1)
    return pos, sorted_ids[pos] == ids


def week_of_unix(unix, epoch_unix: int = 0):
    """Bucket Unix seconds into week indices: floor((unix - epoch) / 604800)."""
    return (np.asarray(unix, dtype=np.int64) - np.int64(epoch_unix)) // WEEK_SECONDS


class TemporalNetwork:
    """Immutable undirected graph with per-edge formation weeks.

    Adjacency is CSR-like over dense node indices: row i's neighbors live in
    ``nbr[indptr[i]:indptr[i+1]]`` sorted by neighbor id, with parallel
    ``formed`` weeks.  All queries are read-only, so instances are safe to
    share across threads.

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

    # -- time-sliced queries -------------------------------------------------

    def neighbors_at(self, i: int, t: int) -> np.ndarray:
        """Player ids adjacent to i through edges formed no later than t (sorted)."""
        ix = self.index_of(i)
        lo, hi = self.indptr[ix], self.indptr[ix + 1]
        keep = self.formed[lo:hi] <= t
        return self.nodes[self.nbr[lo:hi][keep]]

    def second_degree_at(self, i: int, t: int) -> np.ndarray:
        """Friends-of-friends at week t, excluding direct friends and i itself."""
        ix = self.index_of(i)
        lo, hi = self.indptr[ix], self.indptr[ix + 1]
        keep = self.formed[lo:hi] <= t
        js = self.nbr[lo:hi][keep]
        if js.size == 0:
            return self.nodes[:0]
        parts = []
        for j in js:
            jlo, jhi = self.indptr[j], self.indptr[j + 1]
            jkeep = self.formed[jlo:jhi] <= t
            parts.append(self.nbr[jlo:jhi][jkeep])
        second = np.unique(np.concatenate(parts))
        second = second[~_lookup(js, second)[1]]  # js ascends with the CSR row
        second = second[second != ix]
        return self.nodes[second]

    def csr_at(self, t: int) -> sp.csr_matrix:
        """0/1 adjacency of the week-t view as a scipy CSR matrix."""
        import scipy.sparse as sp  # only the sparse-matrix paths pay for it
        keep = self.formed <= t
        csum = np.zeros(self.nbr.size + 1, dtype=np.int64)
        np.cumsum(keep, out=csum[1:])
        indptr = csum[self.indptr]
        data = np.ones(int(indptr[-1]), dtype=np.int32)
        return sp.csr_matrix((data, self.nbr[keep], indptr),
                             shape=(self.n_nodes, self.n_nodes))

    def edge_array(self):
        """Unique undirected edges as (a_idx, b_idx, formed) with a_idx < b_idx."""
        rows = np.repeat(np.arange(self.n_nodes, dtype=np.int64), np.diff(self.indptr))
        upper = rows < self.nbr
        return rows[upper], self.nbr[upper].astype(np.int64), self.formed[upper]


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
    node_filter: Callable[[np.ndarray], np.ndarray] | Iterable[int] | None = None,
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
    node_filter : callable, collection of ids, or None
        Either a vectorized predicate ``ids -> bool array`` or the ids to
        keep (an array, a set, ...).  Nodes failing the filter are removed
        with all incident edges.  Zero-edge nodes are NOT dropped
        (friendless players stay).
    nodes : sequence of int, optional
        Explicit node universe.  When given, edges touching ids outside it
        are dropped; otherwise the universe is the union of edge endpoints.
    max_degree : int
        Degree cap (platform maximum); a node exceeding it is an error.

    The pair dedupe and the CSR order are each one argsort of a packed
    int64 key over dense node indices (``lo * n + hi``, then
    ``row * n + col``), exact for n < 3.0e9 nodes.
    """
    a, b, f = as_columns(edges, (np.int64,) * 3)
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
        universe = np.unique(np.asarray(list(nodes), dtype=np.int64))
    else:
        universe = np.unique(np.concatenate((a, b))) if a.size else np.zeros(0, dtype=np.int64)
    if universe.size and universe.min() < 0:
        raise InvalidParameterError("player ids must be non-negative")

    if node_filter is not None:
        if callable(node_filter):
            keep_mask = np.asarray(node_filter(universe), dtype=bool)
        else:
            keep_mask = _lookup(np.unique(np.fromiter(node_filter, np.int64)), universe)[1]
        diagnostics["filtered_nodes"] = int((~keep_mask).sum())
        universe = universe[keep_mask]

    ia, ok_a = _lookup(universe, a)
    ib, ok_b = _lookup(universe, b)
    ok = ok_a & ok_b
    diagnostics["filtered_edges"] = int((~ok).sum())
    ia, ib, f = ia[ok], ib[ok], f[ok]

    # Deduplicate unordered pairs keeping the earliest formation week; the
    # order among a pair's duplicates is irrelevant to their minimum.
    n = universe.size
    if n > 3_037_000_499:
        raise InvalidParameterError(f"{n} nodes overflow the int64 pair key")
    pair = np.minimum(ia, ib) * n + np.maximum(ia, ib)
    order = np.argsort(pair)
    pair, f = pair[order], f[order]
    first = np.ones(pair.size, dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    starts = np.flatnonzero(first)
    diagnostics["duplicates"] = int(pair.size - starts.size)
    f = np.minimum.reduceat(f, starts)
    pair = pair[starts]
    lo, hi = np.divmod(pair, n)

    # Symmetrize and build CSR sorted by (row, neighbor id).
    key = np.concatenate((pair, hi * n + lo))
    order = np.argsort(key)
    rows, cols = np.divmod(key[order], n)
    wks = np.concatenate((f, f))[order]
    deg = np.bincount(rows, minlength=n).astype(np.int64)
    if deg.size and deg.max() > max_degree:
        worst = int(universe[int(np.argmax(deg))])
        raise InvalidParameterError(
            f"player {worst} has degree {int(deg.max())} > cap {max_degree}")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    return TemporalNetwork(universe, indptr, cols.astype(np.int32), wks.astype(np.int32),
                           diagnostics)


# Module-level wrappers matching the operation names.
def neighbors_at(net: TemporalNetwork, i: int, t: int) -> np.ndarray:
    return net.neighbors_at(i, t)


def second_degree_at(net: TemporalNetwork, i: int, t: int) -> np.ndarray:
    return net.second_degree_at(i, t)


def second_degree_counts(net: TemporalNetwork, players, t: int,
                         block: int = 2048) -> np.ndarray:
    """|second_degree_at(i, t)| for many players, in fixed-size row blocks.

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

    ``values`` aligns with ``players`` (= network node order).  ``scores``
    exposes the same data as a dict for small-graph ergonomics.
    """

    players: np.ndarray
    values: np.ndarray
    asof: int
    alpha: float
    iterations: int
    converged: bool

    @property
    def scores(self) -> dict:
        return {int(p): float(v) for p, v in zip(self.players, self.values)}

    def __getitem__(self, player: int) -> float:
        pos, hit = _lookup(self.players, player)
        if not hit:
            raise NotFoundError(f"player {player} not in scores")
        return float(self.values[pos])


def _estimate_spectral_radius(A: sp.csr_matrix, steps: int = 50) -> float:
    n = A.shape[0]
    if n == 0 or A.nnz == 0:
        return 0.0
    v = np.ones(n)
    lam = 0.0
    for _ in range(steps):
        w = A @ v
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        lam = norm / float(np.linalg.norm(v))
        v = w / norm
    return lam


def katz_centrality(net: TemporalNetwork, t: int, alpha: float | None = None,
                    tol: float = 1e-10, max_iter: int = 1000) -> CentralityScores:
    """Katz centrality of the week-t view: fixed point of x = alpha*A_t*x + 1.

    ``alpha=None`` uses 0.9 / lambda_hat, with lambda_hat estimated by 50
    power-iteration steps on A_t (0.9 when the view has no edges, where any
    alpha yields the all-ones fixed point).  Returns ``converged=False`` with
    the last iterate if the sup-norm change is still >= tol after max_iter.
    """
    A = net.csr_at(t)
    if alpha is None:
        lam = _estimate_spectral_radius(A)
        alpha = 0.9 / lam if lam > 0 else 0.9
    alpha = float(alpha)
    if alpha <= 0:
        raise InvalidParameterError(f"katz alpha must be positive, got {alpha}")
    n = net.n_nodes
    x = np.ones(n)
    converged = False
    iterations = 0
    guard = 1e100
    for iterations in range(1, max_iter + 1):
        x_new = alpha * (A @ x) + 1.0
        if not np.isfinite(x_new).all() or (x_new.size and np.abs(x_new).max() > guard):
            raise DivergedError(f"katz iteration diverged at alpha={alpha}")
        change = float(np.abs(x_new - x).max()) if n else 0.0
        x = x_new
        if change < tol:
            converged = True
            break
    return CentralityScores(net.nodes, x, int(t), alpha, iterations, converged)


@dataclass
class PeerTags:
    """Key players and old-friend pairs, determined at the reference week.

    The reference week defaults to ``release_week - 4`` (tags are fixed
    before the panel window for exogeneity).  ``old_friend_pairs`` holds
    player-id pairs with a < b; ``old_friend_cutoff`` is the formation-week
    boundary the pairs satisfy, so an edge is an old-friend edge exactly
    when it formed by the cutoff.
    """

    key_players: np.ndarray
    old_friend_pairs: np.ndarray
    reference_week: int
    old_friend_cutoff: int
    percentile: float
    threshold: float

    def is_key_player(self, player) -> np.ndarray | bool:
        return _lookup(self.key_players, player)[1]


def tag_peers(net: TemporalNetwork, scores: CentralityScores, release_week: int,
              percentile: float = 0.99, min_age_weeks: int = 52,
              connected_only: bool = False) -> PeerTags:
    """Tag key players (score >= empirical quantile) and old-friend edges.

    Key players: nodes whose Katz score is at or above the ``percentile``
    quantile (weak inequality — ties are all included).  By default the
    quantile is taken over ALL nodes; ``connected_only=True`` restricts it to
    nodes with at least one edge.  Old friends: edges formed at least
    ``min_age_weeks`` before ``reference_week = release_week - 4``.
    """
    if release_week < 4:
        raise InvalidParameterError("release_week must be >= 4 (reference = release - 4)")
    if not 0.0 < percentile < 1.0:
        raise InvalidParameterError("percentile must be in (0, 1)")
    reference_week = int(release_week) - 4
    vals = scores.values
    if connected_only:
        vals = vals[net.degrees() > 0]
    if vals.size == 0:
        threshold = np.inf
        kp = net.nodes[:0]
    else:
        threshold = float(np.quantile(vals, percentile))
        kp = net.nodes[scores.values >= threshold]
    cutoff = reference_week - int(min_age_weeks)
    ai, bi, f = net.edge_array()
    old = f <= cutoff
    pairs = np.stack((net.nodes[ai[old]], net.nodes[bi[old]]), axis=1) if old.any() \
        else np.zeros((0, 2), dtype=np.int64)
    return PeerTags(kp, pairs, reference_week, cutoff, float(percentile), threshold)
