"""Overlapping decompositions of a matrix graph or structured grid.

A partition is an owner array: ``owner[d]`` is the core subdomain of DoF
d, and every label from 0 to N - 1 is used. The partitioners return one;
expand_overlap grows each core by adjacency layers of the (symmetrized)
matrix graph and returns a Decomposition whose restrictions are stored
once, as a single stacked Boolean matrix ``R`` (one row per local DoF,
subdomain after subdomain) with row ``offsets`` per subdomain and one
stacked partition-of-unity weight vector ``w``. It also carries
multiplicities, subdomain geometry statistics, the subdomain adjacency
graph, a greedy coloring, and the symmetric pattern of the matrix it grew
on, which the graph partitioner and the Robin interface read too: one
pattern is built per system. Index arrays follow ``linalg.index_dtype``.
Decompositions are immutable: their index and weight arrays are
read-only, and the partition-of-unity builders return updated copies.
Stacked row r belongs to subdomain ``row_block[r]``; ``within`` returns
the blocks ``R_i A R_i^T`` (as one CSR matrix), with no product with R:
it maps the columns of A's rows ``sets[i]`` to subdomain i's stacked rows
through one n-length table in R's index dtype, filled and reset per
subdomain, so no key combines a subdomain and a DoF.
"""

from collections import defaultdict

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from . import linalg

__all__ = [
    "Decomposition",
    "cartesian_partition",
    "greedy_graph_partition",
    "expand_overlap",
    "multiplicity_pu",
    "boolean_pu",
    "PU_KINDS",
]

# partition-of-unity kinds, as ``multiplicity_pu`` and ``boolean_pu`` build them
PU_KINDS = ("multiplicity", "boolean")


class Decomposition:
    """Overlapped subdomain sets with one stacked restriction, PU weights, and stats.

    ``R`` is a ``csr_array`` of shape (sum_i n_i, n_dofs) with one unit
    entry per row. Its column indices are the ascending DoF sets of the
    subdomains concatenated in subdomain order, and rows
    ``offsets[i]:offsets[i + 1]`` form the restriction R_i. ``w`` stacks
    the diagonals of the partition-of-unity matrices D_i in the same row
    order, so ``R.T @ (w * (R @ x))`` reproduces ``x``. ``sets[i]`` and
    ``weights[i]`` are read-only views of subdomain i's slices of
    ``R.indices`` and ``w``. ``owner`` (the partition the subdomains grew
    from) and ``row_block`` (the subdomain of each stacked row, in R's
    index dtype) are read-only, and so are the per-DoF ``multiplicity``
    and the per-subdomain ``colors`` and diameters ``H``. ``graph`` is the
    Boolean symmetric pattern of the matrix's off-diagonal couplings
    (:func:`expand_overlap`), read-only too.
    """

    def __init__(self, n_dofs, owner, R, offsets, w, multiplicity,
                 adjacency, colors, n_colors, H, overlap_width, graph):
        self.row_block = np.repeat(np.arange(len(offsets) - 1, dtype=R.indices.dtype),
                                   np.diff(offsets))
        for a in (owner, R.data, R.indices, R.indptr, offsets, w, self.row_block,
                  multiplicity, colors, H, graph.data, graph.indices, graph.indptr):
            a.flags.writeable = False
        self.graph = graph
        self.n_dofs = n_dofs
        self.owner = owner
        self.R = R
        self.offsets = offsets
        self.w = w
        bounds = list(zip(offsets.tolist(), offsets[1:].tolist()))
        self.sets = [R.indices[a:b] for a, b in bounds]
        self.weights = [w[a:b] for a, b in bounds]
        self.multiplicity = multiplicity
        self.adjacency = adjacency
        self.colors = colors
        self.n_colors = n_colors
        self.H = H
        self.overlap_width = overlap_width

    @property
    def N(self):
        return len(self.sets)

    @property
    def max_multiplicity(self):
        return int(self.multiplicity.max())

    def within(self, A):
        """The blocks ``R_i A R_i^T`` of sparse A, as one CSR matrix on the stacked rows.

        Row and column r are stacked row r; each row holds A's entries in
        storage order, so the matrix is canonical when ``csr_array(A)`` is.
        Its index arrays take R's index dtype (int64 if its entry count needs
        it). The entries of A's rows ``sets[i]`` form one contiguous slice
        of the stacked entries, and their columns are mapped to stacked
        rows through one n-length table, filled with subdomain i's rows
        ``offsets[i]:offsets[i + 1]`` at ``sets[i]`` and reset after it; a
        column outside ``sets[i]`` reads -1 and its entry is dropped.
        """
        A = sp.csr_array(A)
        if A.shape != (self.n_dofs, self.n_dofs):
            raise ValueError(f"matrix of shape {A.shape} on a decomposition of {self.n_dofs} DoFs")
        dof = self.R.indices
        starts = A.indptr[dof]
        counts = A.indptr[dof + 1] - starts
        total = int(counts.sum())
        idx = linalg.index_dtype(total, A.nnz)
        pos = np.promote_types(self.R.indptr.dtype, linalg.index_dtype(total))
        # stacked row r's entries are ptr[r]:ptr[r + 1], those of A's row dof[r]
        ptr = np.zeros(dof.size + 1, dtype=pos)
        np.cumsum(counts, out=ptr[1:])
        src = np.repeat(starts - ptr[:-1].astype(idx, copy=False), counts)
        del starts, counts
        src += np.arange(total, dtype=idx)
        # the column of each entry, then the stacked row it lands on, or -1
        at = A.indices[src].astype(pos, copy=False)
        table = np.full(self.n_dofs, -1, dtype=pos)
        rows = np.arange(dof.size, dtype=pos)
        offsets, first = self.offsets.tolist(), ptr[self.offsets].tolist()
        for s, r0, r1, e0, e1 in zip(self.sets, offsets, offsets[1:], first, first[1:]):
            table.put(s, rows[r0:r1])
            # take buffers out in mode "raise", so out may alias the indices
            table.take(at[e0:e1], out=at[e0:e1])
            table.put(s, -1)
        del table, rows
        # each full-length array goes once its kept part exists
        keep = at >= 0
        indices = at[keep]
        del at
        data = A.data[src[keep]]
        del src
        kept = np.zeros(total + 1, dtype=pos)
        np.cumsum(keep, out=kept[1:])
        indptr = kept[ptr]
        return sp.csr_array((data, indices, indptr), shape=(dof.size,) * 2)

    def _with_weights(self, w):
        return Decomposition(
            self.n_dofs, self.owner, self.R, self.offsets, w,
            self.multiplicity, self.adjacency, self.colors,
            self.n_colors, self.H, self.overlap_width, self.graph,
        )


def _check_count(name, value):
    """A subdomain count as an int; ValueError unless it is a positive integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")
    return int(value)


def _check_graph(graph, n):
    """ValueError unless ``graph`` is None or of shape (n, n)."""
    if graph is not None and graph.shape != (n, n):
        raise ValueError(f"graph of shape {graph.shape} on a system of {n} DoFs")


def _axis_labels(n, p, name):
    """Block label of each of n points split into p contiguous blocks."""
    p = _check_count(name, p)
    if p > n:
        raise ValueError(f"cannot split {n} points into {p} parts")
    q, r = divmod(n, p)
    sizes = [q + 1] * r + [q] * (p - r)  # remainder spread from the left
    return np.repeat(np.arange(p), sizes)


def cartesian_partition(grid, p_x, p_y=None):
    """Contiguous block partition of a 1D range or structured 2D grid.

    Returns the owner array: in 2D, the node in x-block ``bx`` and y-block
    ``by`` belongs to subdomain ``bx + p_x * by``.

    Parameters
    ----------
    grid : int or StructuredGrid
        Either the number of 1D DoFs or a 2D grid whose interior nodes are
        indexed lexicographically.
    p_x, p_y : int
        Subdomain counts per axis, positive integers (else ValueError);
        1D uses p_x only.
    """
    if isinstance(grid, (int, np.integer)):
        return _axis_labels(int(grid), p_x, "p_x")
    if grid.dim == 1:
        return _axis_labels(grid.nx, p_x, "p_x")
    if p_y is None:
        raise ValueError("2D grids need p_x and p_y")
    lx = _axis_labels(grid.nx, p_x, "p_x")
    ly = _axis_labels(grid.ny, p_y, "p_y")
    # node ix + nx * iy: x runs fastest
    return (lx + p_x * ly[:, None]).ravel()


def _symmetric_adjacency(A):
    """Boolean pattern of A's off-diagonal nonzeros and of their transposes.

    Its index arrays take ``linalg.index_dtype`` of A's shape and entry count.
    """
    A = sp.csr_array(A)
    idx = linalg.index_dtype(*A.shape, A.nnz)
    P = sp.csr_array((A.data != 0, A.indices.astype(idx, copy=False),
                      A.indptr.astype(idx, copy=False)), shape=A.shape)
    P = P + P.T
    P.setdiag(False)
    P.eliminate_zeros()
    return P


def greedy_graph_partition(A, N, seed=0, graph=None):
    """Balanced breadth-first region growing on the matrix graph.

    Seeds are picked farthest-first starting from a node drawn with ``seed``;
    regions then claim one node per round in FIFO breadth-first order (an
    exhausted frontier falls back to the lowest unclaimed index). A repair
    pass reattaches any region fragment disconnected from its seed, and a
    rebalance pass moves boundary nodes from the largest region to an
    adjacent smaller one until sizes are within one of each other.
    Deterministic for a given seed. Returns the owner array of the N
    regions. Raises ValueError unless N is an integer between 1 and the
    number of DoFs, or if a region ends up empty. ``graph`` is the
    symmetric pattern of A as :attr:`Decomposition.graph` holds it, built
    from A when None; pass it to build the pattern once per system. A
    graph of another shape than A's raises ValueError.

    Growth walks Python adjacency lists. Each repair round starts with
    one component labelling of the edges inside regions and ends there
    when every node shares its seed's component. The rebalance reads
    region adjacency from crossing-edge counts, and the nodes that may
    pass from region a to region b from the border set of the pair (the
    nodes of a with a neighbour in b), tried in ascending order; each
    move updates both from the moved node's neighbours, so no move scans
    the whole graph. A node leaves a region known to be connected only if
    its neighbours in the region still reach each other without it (every
    path through the node enters and leaves by them), which an early-exit
    search decides; a region that may be disconnected is labelled by one
    ``connected_components`` call on the subgraph its members' adjacency
    rows induce.
    """
    n = A.shape[0]
    N = _check_count("region count N", N)
    if N > n:
        raise ValueError(f"cannot grow {N} regions on {n} DoFs")
    _check_graph(graph, n)
    adj = _symmetric_adjacency(A) if graph is None else graph
    # edge k of the graph runs from tail[k] to adj.indices[k]
    tail = np.repeat(np.arange(n), np.diff(adj.indptr))
    head = adj.indices
    ptr, idx = adj.indptr.tolist(), head.tolist()
    nbrs = [idx[ptr[u]:ptr[u + 1]] for u in range(n)]
    rng = np.random.default_rng(seed)

    seeds = [int(rng.integers(n))]
    # dijkstra reads a float64 graph; convert the pattern once, not per call
    hops = adj.astype(np.float64)
    while len(seeds) < N:
        # hop distance to the nearest seed, one multi-source BFS
        dist = csgraph.dijkstra(hops, unweighted=True, indices=seeds, min_only=True)
        dist[np.isinf(dist)] = n + 1  # disconnected nodes are farthest
        nxt = int(np.argmax(dist))  # lowest index wins ties
        seeds.append(nxt)

    own = [-1] * n
    queues = []
    for r, s in enumerate(seeds):
        own[s] = r
        queues.append([s])
    unclaimed = n - N
    heads = [0] * N
    # position reached in the adjacency list of each region's queue head;
    # claimed nodes stay claimed, so a rescan could not find an earlier one
    scan = [0] * N
    lowest = 0  # below it every node is claimed
    while unclaimed > 0:
        for r in range(N):
            if unclaimed == 0:
                break
            q = queues[r]
            v = -1
            while heads[r] < len(q):
                row = nbrs[q[heads[r]]]
                k = scan[r]
                while k < len(row) and own[row[k]] >= 0:
                    k += 1
                if k < len(row):
                    v = row[k]
                    scan[r] = k + 1
                    break
                heads[r] += 1
                scan[r] = 0
            if v < 0:
                while own[lowest] >= 0:
                    lowest += 1
                v = lowest
            own[v] = r
            q.append(v)
            unclaimed -= 1
    owner = np.array(own)

    def induced(members):
        # subgraph induced by the ascending members, and the members' local
        # indices, read from the members' own adjacency rows; the kept
        # edges are already in CSR order, since ``loc`` ascends over the
        # members
        loc = np.full(n, -1)
        loc[members] = np.arange(len(members))
        counts = np.diff(adj.indptr)[members]
        ends = np.concatenate([[0], np.cumsum(counts)])
        local = loc[head[np.repeat(adj.indptr[members] - ends[:-1], counts)
                         + np.arange(ends[-1])]]
        keep = local >= 0
        indptr = np.concatenate([[0], np.cumsum(keep)])[ends]
        sub = sp.csr_array((np.ones(keep.sum()), local[keep], indptr), shape=(len(members),) * 2)
        return sub, loc

    def components(sub):
        # the graph is symmetric, so its strong components are its components
        return csgraph.connected_components(sub, connection="strong")

    def repair():
        # a round that finds every region connected and holding its seed
        # moves nothing, and one component labelling of the edges inside
        # regions tells; otherwise reattach fragments region by region.
        # True when the last round found every region connected.
        moved = True
        rounds = 0
        while moved and rounds < n:
            moved = False
            rounds += 1
            inner = owner[tail] == owner[head]
            sub = sp.csr_array(
                (np.ones(inner.sum()), head[inner],
                 np.concatenate([[0], np.cumsum(np.bincount(tail[inner], minlength=n))])),
                shape=(n, n))
            label = components(sub)[1]
            if (label == label[np.asarray(seeds)[owner]]).all():
                return True
            for r in range(N):
                members = np.flatnonzero(owner == r)
                if len(members) == 0:
                    continue
                reach = members[:0]
                if owner[seeds[r]] == r:
                    sub, loc = induced(members)
                    order = csgraph.breadth_first_order(sub, loc[seeds[r]], return_predecessors=False)
                    reach = members[order]
                for u in np.setdiff1d(members, reach):
                    targets = owner[adj.indices[adj.indptr[u]:adj.indptr[u + 1]]]
                    targets = targets[targets != r]
                    if len(targets):
                        owner[u] = targets.min()
                        moved = True
        return False

    # connected[r]: region r is known to be connected; a node moves only
    # to a region it touches, so only a region that loses one can split
    connected = [repair()] * N
    own = owner.tolist()
    sizes = np.bincount(owner, minlength=N).tolist()
    # crossing[a][b]: edges from region a to region b != a
    pairs = owner[tail] * N + owner[head]
    crossing = np.bincount(pairs, minlength=N * N).reshape(N, N)
    np.fill_diagonal(crossing, 0)
    crossing = crossing.tolist()
    # border[a * N + b]: the nodes of region a with a neighbour in region b != a
    border = defaultdict(set)
    cut = owner[tail] != owner[head]
    for key, u in zip(pairs[cut].tolist(), tail[cut].tolist()):
        border[key].add(u)
    del pairs, cut

    def move(u, dst):
        src = own[u]
        for v in nbrs[u]:
            o = own[v]
            if o != src:
                crossing[src][o] -= 1
                crossing[o][src] -= 1
                border[src * N + o].discard(u)
            if o != dst:
                crossing[dst][o] += 1
                crossing[o][dst] += 1
                border[dst * N + o].add(u)
                border[o * N + dst].add(v)
        own[u] = owner[u] = dst
        sizes[src] -= 1
        sizes[dst] += 1
        # a neighbour outside src stays on src's border only through another node
        for v in nbrs[u]:
            o = own[v]
            if o != src and all(own[x] != src for x in nbrs[v]):
                border[o * N + src].discard(v)

    def keeps_connected(u, src):
        # src minus u is connected iff u's neighbours in src reach each
        # other without u; search from one of them until all are found
        inside = [v for v in nbrs[u] if own[v] == src]
        missing = set(inside)
        missing.discard(inside[0])
        seen = {u, inside[0]}
        frontier = [inside[0]]
        while missing and frontier:
            nxt = []
            for x in frontier:
                for v in nbrs[x]:
                    if v not in seen and own[v] == src:
                        seen.add(v)
                        missing.discard(v)
                        nxt.append(v)
            frontier = nxt
        return not missing

    def shift_one(src, dst):
        # move one src node adjacent to dst, preferring one whose removal
        # keeps src connected; candidates are tried in ascending order
        cands = sorted(border[src * N + dst])
        if sizes[src] > 1 and cands:
            if not connected[src]:
                members = np.flatnonzero(owner == src)
                count, label = components(induced(members)[0])
                connected[src] = count == 1
            if connected[src]:
                passing = (u for u in cands if keeps_connected(u, src))
            else:
                # removing a node merges no components, so src minus u is
                # connected only when u alone is one of two components
                alone = np.bincount(label)[label[np.searchsorted(members, cands)]] == 1
                passing = iter(np.asarray(cands)[alone & (count == 2)].tolist())
            u = next(passing, None)
            if u is not None:
                move(u, dst)
                connected[src] = True
                return True
        if cands:
            move(cands[0], dst)
            connected[src] = False
            return True
        return False

    def rebalance():
        # route single nodes along region-adjacency chains from the nearest
        # oversized region into the smallest one
        for _ in range(n * N):
            low = min(sizes)
            if max(sizes) - low <= 1:
                return
            small = sizes.index(low)
            parent = {small: None}
            frontier = [small]
            target = None
            while frontier and target is None:
                nxt = []
                for r in frontier:
                    for q in range(N):
                        if crossing[r][q] and q not in parent:
                            parent[q] = r
                            if sizes[q] >= low + 2:
                                target = q
                                break
                            nxt.append(q)
                    if target is not None:
                        break
                frontier = nxt
            if target is None:
                return
            r = target
            while parent[r] is not None:
                if not shift_one(r, parent[r]):
                    return
                r = parent[r]

    rebalance()
    if min(sizes) == 0:
        raise ValueError(f"greedy partition left region {sizes.index(0)} empty")
    return owner


def expand_overlap(A, owner, delta, coords=None, h=None, graph=None):
    """Grow each core set by ``delta`` adjacency layers and build the decomposition.

    Core set i is ``flatnonzero(owner == i)``, and each layer adds every
    DoF structurally connected to the current set. The returned
    Decomposition carries multiplicity partition-of-unity weights by
    default; use :func:`boolean_pu` to switch.

    Parameters
    ----------
    A : sparse matrix
    owner : array of int, length n
        Core subdomain of each DoF. ValueError unless it has one label per
        DoF, an integer dtype, no negative label, and uses every label
        from 0 to its maximum. A system with no DoF raises ValueError
        saying it has no unknowns.
    delta : int
        Number of overlap layers (per side); ValueError unless it is a
        non-negative integer (a boolean is not one).
    coords : ndarray or None
        DoF coordinates, one row per DoF (ValueError otherwise); enables
        the bounding-box diameter statistic H_j.
    h : float or None
        Mesh unit; the overlap width statistic is delta * h.
    graph : scipy.sparse.csr_array or None
        The symmetric pattern of A, as :attr:`Decomposition.graph` holds
        it (for instance the one :func:`greedy_graph_partition` read);
        built from A when None. The decomposition keeps it. ValueError
        unless it is n x n.
    """
    if (isinstance(delta, bool) or not isinstance(delta, (int, np.integer))
            or delta < 0):
        raise ValueError(f"delta must be a non-negative integer, got {delta!r}")
    n = A.shape[0]
    owner = np.asarray(owner)
    if owner.shape != (n,):
        raise ValueError(f"owner has shape {owner.shape}, expected ({n},)")
    if not np.issubdtype(owner.dtype, np.integer):
        raise ValueError(f"owner must hold integer labels, got dtype {owner.dtype}")
    owner = owner.astype(np.intp)  # a private copy, frozen below
    if n == 0:
        raise ValueError("the system has no unknowns: there is nothing to decompose")
    if coords is not None and len(coords) != n:
        raise ValueError(f"coords has {len(coords)} rows, expected one per DoF ({n})")
    if owner.min() < 0:
        raise ValueError(f"owner holds negative label {owner.min()}")
    counts = np.bincount(owner)
    if not counts.all():
        raise ValueError(f"owner leaves label {np.argmin(counts)} unused; "
                         f"labels must run from 0 to {len(counts) - 1}")
    N = len(counts)
    _check_graph(graph, n)
    if graph is None:
        graph = _symmetric_adjacency(A)
    # membership S (N x n) grows one layer per product with the pattern
    # of I + |A|; subdomains are adjacent iff S (I + |A|) S^T links them,
    # i.e. they share a DoF or an A-edge connects them
    layer = graph + sp.identity(n, dtype=bool, format="csr")
    idx = linalg.index_dtype(N, n)
    S = sp.csr_array((np.ones(n, dtype=bool), (owner.astype(idx), np.arange(n, dtype=idx))),
                     shape=(N, n))
    for _ in range(delta):
        S = S @ layer
    S.sort_indices()
    multiplicity = np.bincount(S.indices, minlength=n)

    links = sp.csr_array(S @ layer @ S.T)
    del layer
    links.setdiag(False)
    links.eliminate_zeros()
    links.sort_indices()
    ptr, idx = links.indptr.tolist(), links.indices.tolist()
    adjacency = [idx[a:b] for a, b in zip(ptr, ptr[1:])]

    # greedy first-fit coloring, ascending (degree, index) order
    order = sorted(range(N), key=lambda i: (len(adjacency[i]), i))
    colors = np.full(N, -1, dtype=int)
    for i in order:
        used = {colors[j] for j in adjacency[i] if colors[j] >= 0}
        c = 0
        while c in used:
            c += 1
        colors[i] = c
    n_colors = int(colors.max()) + 1

    if coords is not None:
        # bounding-box spans of all subdomains at once, gathering one
        # coordinate axis at a time; the norm stays per row, as
        # norm(axis=1) rounds some diameters differently
        coords = np.asarray(coords)
        starts = S.indptr[:-1]
        span = np.column_stack([np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)
                                for x in (coords[S.indices, k] for k in range(coords.shape[1]))])
        H = np.array([np.linalg.norm(s) for s in span])
    else:
        H = np.full(N, np.nan)
    overlap_width = delta * h if h is not None else np.nan

    idx = linalg.index_dtype(S.nnz, n)
    R = sp.csr_array((np.ones(S.nnz), S.indices.astype(idx, copy=False),
                      np.arange(S.nnz + 1, dtype=idx)), shape=(S.nnz, n))
    return Decomposition(
        n, owner, R, S.indptr, 1.0 / multiplicity[S.indices],
        multiplicity, adjacency, colors, n_colors, H, overlap_width, graph,
    )


def multiplicity_pu(dec):
    """Partition of unity with weights 1/m_j, m_j the DoF multiplicity."""
    return dec._with_weights(1.0 / dec.multiplicity[dec.R.indices])


def boolean_pu(dec):
    """Partition of unity assigning each DoF to the lowest-index subdomain holding it."""
    # stacked rows run in ascending subdomain order, so a DoF's first
    # occurrence belongs to its lowest-index owner
    _, first = np.unique(dec.R.indices, return_index=True)
    w = np.zeros(dec.R.shape[0])
    w[first] = 1.0
    return dec._with_weights(w)
