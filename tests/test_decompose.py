"""Oracle tests for partitions, overlap growth, and partitions of unity."""

import hashlib
import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from ddmlab import decompose, discretize, linalg


def path_graph(n):
    i = np.arange(n)
    rows = np.concatenate([i, i[1:], i[:-1]])
    cols = np.concatenate([i, i[1:] - 1, i[:-1] + 1])
    vals = np.concatenate([np.full(n, 2.0), np.full(2 * (n - 1), -1.0)])
    return linalg.csr_from_triplets(n, n, rows, cols, vals)


def brute_force_decomposition(A, core_sets, delta):
    """Reference definitions evaluated DoF by DoF.

    Returns the overlapped sets grown layer by layer, the multiplicities,
    the subdomain adjacency ("share a DoF or an A-edge connects them")
    and the Boolean weights (each DoF owned by its lowest-index subdomain).
    """
    Ad = A.toarray()
    n, N = Ad.shape[0], len(core_sets)
    nbrs = [{v for v in range(n) if v != u and (Ad[u, v] != 0 or Ad[v, u] != 0)}
            for u in range(n)]
    sets = []
    for core in core_sets:
        grown = set(core.tolist())
        for _ in range(delta):
            grown |= {v for u in grown for v in nbrs[u]}
        sets.append(sorted(grown))
    mult = [sum(u in s for s in sets) for u in range(n)]
    adjacency = [
        [b for b in range(N)
         if b != a and any(u in sets[b] or nbrs[u] & set(sets[b]) for u in sets[a])]
        for a in range(N)
    ]
    owner = [min(i for i, s in enumerate(sets) if u in s) for u in range(n)]
    boolean = [[1.0 if owner[u] == i else 0.0 for u in s] for i, s in enumerate(sets)]
    return sets, mult, adjacency, boolean


def loop_greedy_graph_partition(A, N, seed):
    """Entry-by-entry greedy partition: the reference for the array version.

    Set-based BFS for seeds, region neighbors and the connectivity test,
    with the same seed choice, claim order, repair and rebalance rules.
    Returns the sets in region order.
    """
    n = A.shape[0]
    adj = sp.csr_array(abs(A) + abs(A).T)
    adj.setdiag(0)
    adj.eliminate_zeros()

    def nbrs(u):
        return adj.indices[adj.indptr[u]:adj.indptr[u + 1]]

    def bfs_distances(sources):
        dist = np.full(n, -1, dtype=int)
        frontier = list(sources)
        for s in frontier:
            dist[s] = 0
        d = 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in nbrs(u):
                    if dist[v] < 0:
                        dist[v] = d
                        nxt.append(int(v))
            frontier = nxt
        return dist

    rng = np.random.default_rng(seed)
    seeds = [int(rng.integers(n))]
    while len(seeds) < N:
        dist = bfs_distances(seeds)
        dist[dist < 0] = n + 1
        seeds.append(int(np.argmax(dist)))

    owner = np.full(n, -1, dtype=int)
    queues = []
    for r, s in enumerate(seeds):
        owner[s] = r
        queues.append([s])
    unclaimed = n - N
    heads = [0] * N
    while unclaimed > 0:
        for r in range(N):
            if unclaimed == 0:
                break
            claimed = False
            q = queues[r]
            while heads[r] < len(q):
                for v in nbrs(q[heads[r]]):
                    if owner[v] < 0:
                        owner[v] = r
                        q.append(int(v))
                        claimed = True
                        break
                if claimed:
                    break
                heads[r] += 1
            if not claimed:
                v = int(np.argmin(owner))
                owner[v] = r
                q.append(v)
            unclaimed -= 1

    def connected_from(start, inside):
        reach = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in nbrs(u):
                v = int(v)
                if v in inside and v not in reach:
                    reach.add(v)
                    stack.append(v)
        return reach

    moved, rounds = True, 0
    while moved and rounds < n:
        moved = False
        rounds += 1
        for r in range(N):
            inside = set(np.flatnonzero(owner == r).tolist())
            if not inside:
                continue
            reach = connected_from(seeds[r], inside) if owner[seeds[r]] == r else set()
            for u in sorted(inside - reach):
                targets = {int(owner[v]) for v in nbrs(u) if owner[v] != r}
                if targets:
                    owner[u] = min(targets)
                    moved = True

    def shift_one(src, dst):
        members = np.flatnonzero(owner == src)
        cands = [int(u) for u in members if any(owner[v] == dst for v in nbrs(u))]
        for u in cands:
            rest = set(members.tolist()) - {u}
            if not rest:
                break
            if connected_from(min(rest), rest) == rest:
                owner[u] = dst
                return True
        if cands:
            owner[cands[0]] = dst
            return True
        return False

    for _ in range(n * N):
        sizes = np.bincount(owner, minlength=N)
        if sizes.max() - sizes.min() <= 1:
            break
        small = int(np.argmin(sizes))
        parent = {small: None}
        frontier = [small]
        target = None
        while frontier and target is None:
            nxt = []
            for r in frontier:
                region_nbrs = sorted({int(owner[v]) for u in np.flatnonzero(owner == r)
                                      for v in nbrs(u) if owner[v] != r})
                for q in region_nbrs:
                    if q not in parent:
                        parent[q] = r
                        if sizes[q] >= sizes[small] + 2:
                            target = q
                            break
                        nxt.append(q)
                if target is not None:
                    break
            frontier = nxt
        if target is None:
            break
        r = target
        shifted = True
        while shifted and parent[r] is not None:
            shifted = shift_one(r, parent[r])
            r = parent[r]
        if not shifted:
            break
    return [np.flatnonzero(owner == r) for r in range(N)]


def grid_graph(nx, ny, cut=()):
    """The 4-neighbour graph of an nx-by-ny node grid, node x + nx * y,
    without the edges listed in ``cut``."""
    n = nx * ny
    edges = [(u, u + 1) for u in range(n) if (u + 1) % nx]
    edges += [(u, u + nx) for u in range(n - nx)]
    edges = [e for e in edges if e not in cut]
    rows = np.array([u for u, _ in edges] + list(range(n)), dtype=int)
    cols = np.array([v for _, v in edges] + list(range(n)), dtype=int)
    return sp.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def core_sets(owner):
    """The core DoF set of each label of an owner array, in label order."""
    return [np.flatnonzero(owner == i) for i in range(owner.max() + 1)]


def owner_fingerprint(owner):
    return hashlib.sha256(owner.astype("<i8").tobytes()).hexdigest()[:12]


@st.composite
def partition_graphs(draw):
    """A random matrix graph for the greedy partitioner: possibly nonsymmetric
    and disconnected, either sparse random edges or a grid with edges cut
    out, with N anywhere in 1..n and a random seed."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=30))
        edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3 * n))
    else:
        nx, ny = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        n = nx * ny
        grid = [(u, u + 1) for u in range(n) if (u + 1) % nx]
        grid += [(u, u + nx) for u in range(n - nx)]
        cut = draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
        edges = [e for e, c in zip(grid, cut) if not c]
    rows = np.array([u for u, _ in edges] + list(range(n)), dtype=int)
    cols = np.array([v for _, v in edges] + list(range(n)), dtype=int)
    A = sp.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    N = draw(st.integers(min_value=1, max_value=n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return A, N, seed


@st.composite
def graph_partitions(draw):
    """A random, possibly nonsymmetric and disconnected matrix graph with a
    random partition into N nonempty (not necessarily connected) parts."""
    n = draw(st.integers(min_value=1, max_value=20))
    N = n - draw(st.integers(min_value=0, max_value=n - 1))  # shrinks to N = n
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    rows = np.array([u for u, _ in edges] + list(range(n)), dtype=int)
    cols = np.array([v for _, v in edges] + list(range(n)), dtype=int)
    A = sp.csr_array((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    perm = draw(st.permutations(range(n)))
    rest = draw(st.lists(st.integers(0, N - 1), min_size=n - N, max_size=n - N))
    owner = np.empty(n, dtype=int)
    owner[perm[:N]] = np.arange(N)
    owner[perm[N:]] = rest
    delta = draw(st.integers(min_value=0, max_value=3))
    return A, owner, delta


def pu_identity_gap(dec):
    n = dec.n_dofs
    S = np.zeros(n)
    for i in range(dec.N):
        S[dec.sets[i]] += dec.weights[i]
    return np.max(np.abs(S - 1.0))


class TestCartesianPartition:
    def test_1d_even(self):
        owner = decompose.cartesian_partition(4, 2)
        assert owner.tolist() == [0, 0, 1, 1]

    def test_1d_remainder_spread_from_left(self):
        owner = decompose.cartesian_partition(5, 2)
        assert owner.tolist() == [0, 0, 0, 1, 1]

    def test_2d_blocks(self):
        grid = discretize.StructuredGrid(2, nx=20, ny=20)
        owner = decompose.cartesian_partition(grid, 2, 2)
        assert owner.max() + 1 == 4
        sets = core_sets(owner)
        assert all(len(s) == 100 for s in sets)
        # subdomain 0 is the lower-left 10x10 block in lexicographic indexing
        expect0 = sorted(ix + 20 * iy for iy in range(10) for ix in range(10))
        assert list(sets[0]) == expect0

    def test_disjoint_cover(self):
        grid = discretize.StructuredGrid(2, nx=7, ny=5)
        owner = decompose.cartesian_partition(grid, 3, 2)
        assert owner.shape == (35,)
        np.testing.assert_array_equal(np.bincount(owner), [3 * 3, 2 * 3, 2 * 3,
                                                           3 * 2, 2 * 2, 2 * 2])

    def test_2d_labels_x_fastest_remainder_from_the_left(self):
        # 7 = 3 + 2 + 2 columns and 5 = 3 + 2 rows; node ix + 7 * iy
        # belongs to block bx + 3 * by
        grid = discretize.StructuredGrid(2, nx=7, ny=5)
        owner = decompose.cartesian_partition(grid, 3, 2)
        bx = [0, 0, 0, 1, 1, 2, 2]
        by = [0, 0, 0, 1, 1]
        expect = [bx[ix] + 3 * by[iy] for iy in range(5) for ix in range(7)]
        assert owner.tolist() == expect

    def test_too_many_parts_rejected(self):
        with pytest.raises(ValueError):
            decompose.cartesian_partition(3, 4)

    @pytest.mark.parametrize("p", [0, -2, 2.0, 1.5, "2", True])
    def test_count_must_be_a_positive_integer(self, p):
        with pytest.raises(ValueError, match="p_x must be a positive integer"):
            decompose.cartesian_partition(10, p)
        grid = discretize.StructuredGrid(2, nx=6, ny=6)
        with pytest.raises(ValueError, match="p_y must be a positive integer"):
            decompose.cartesian_partition(grid, 2, p)


class TestGreedyGraphPartition:
    def test_path_graph_split(self):
        A = path_graph(6)
        owner = decompose.greedy_graph_partition(A, 2, seed=0)
        sets = sorted(tuple(s) for s in core_sets(owner))
        assert sets == [(0, 1, 2), (3, 4, 5)]

    def test_path_graph_split_any_seed(self):
        A = path_graph(6)
        for seed in range(8):
            owner = decompose.greedy_graph_partition(A, 2, seed=seed)
            sets = sorted(tuple(s) for s in core_sets(owner))
            assert sets == [(0, 1, 2), (3, 4, 5)], f"seed {seed}"

    def test_single_region(self):
        A = path_graph(5)
        owner = decompose.greedy_graph_partition(A, 1, seed=3)
        np.testing.assert_array_equal(owner, np.zeros(5))

    def test_singletons(self):
        A = path_graph(4)
        owner = decompose.greedy_graph_partition(A, 4, seed=1)
        assert sorted(owner.tolist()) == [0, 1, 2, 3]

    def test_balance_on_grid(self):
        sys = discretize.poisson_2d_fd(9, 9)
        for N in (2, 3, 4, 5):
            owner = decompose.greedy_graph_partition(sys.A, N, seed=7)
            assert owner.shape == (81,)
            sizes = np.bincount(owner)
            assert len(sizes) == N
            assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        sys = discretize.poisson_2d_fd(8, 8)
        a = decompose.greedy_graph_partition(sys.A, 4, seed=5)
        b = decompose.greedy_graph_partition(sys.A, 4, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_too_many_regions_rejected(self):
        with pytest.raises(ValueError):
            decompose.greedy_graph_partition(path_graph(3), 4, seed=0)

    @pytest.mark.parametrize("N", [0, -1, 2.0, 2.5, "2", True, None])
    def test_region_count_must_be_a_positive_integer(self, N):
        # N <= 0 used to grow forever: no region ever claimed a node
        A = discretize.poisson_2d_fd(5, 5).A
        with pytest.raises(ValueError, match="region count N must be a positive integer"):
            decompose.greedy_graph_partition(A, N, seed=0)

    def test_numpy_integer_count_accepted(self):
        a = decompose.greedy_graph_partition(path_graph(6), np.int64(2), seed=0)
        b = decompose.greedy_graph_partition(path_graph(6), 2, seed=0)
        np.testing.assert_array_equal(a, b)

    # Owner arrays (region of each node, int64) of the fem_geneo meshes
    # under N = 8 and partition seeds 0-15, as sha256 prefixes, recorded
    # from the one-call-per-move partitioner that the incremental rebalance
    # replaced.
    FINGERPRINTS = {
        40: ["5003805d761f", "08bf1c3039c5", "555df627e19b", "843d870f7bfd",
             "017597f28492", "3acbcce0ca3c", "2ffb1289fff4", "ef38e789105a",
             "f8169cde835c", "fb733e36ada1", "00b6b1ac8096", "7458720ada62",
             "cc02cfc66ff3", "11a8304f976d", "626f57bf451a", "c3155700ddd8"],
        24: ["ce1440455c65", "31f7fb2d2d72", "a6d720fa857d", "52d2c72dc903",
             "09c746b70e62", "fbccb1642677", "03612c66e337", "94ecfc73a95b",
             "ae7762e3aae1", "87203fa9dedd", "7fd6b0af7d52", "b9967ec17961",
             "ef8ab777aac2", "479e53a41bed", "749fe4d2cd85", "27e9ceeedf04"],
    }

    @pytest.mark.parametrize("cells", [40, 24])
    def test_fem_geneo_partitions_pinned(self, cells):
        mesh = discretize.unit_square_mesh(cells, cells)
        A = discretize.diffusion_fem_2d(mesh, lambda c: 1.0).A
        got = [owner_fingerprint(decompose.greedy_graph_partition(A, 8, seed=seed))
               for seed in range(16)]
        assert got == self.FINGERPRINTS[cells]

    # Small grids on which one rule of the repair or rebalance decides the
    # result; each is checked against hand-traced sets and the oracle.
    def check(self, A, N, seed, expect):
        got = [s.tolist() for s in core_sets(decompose.greedy_graph_partition(A, N, seed=seed))]
        assert got == expect
        assert [s.tolist() for s in loop_greedy_graph_partition(A, N, seed)] == expect

    def test_repair_reattaches_a_fragment(self):
        # path 0-1-2-3, seeds 2 and 0: region 0 claims 1, region 1 finds
        # no free neighbour of 0 and takes the lowest free node, 3, which
        # its seed cannot reach. Repair hands 3 to region 0 ({1, 2, 3}
        # against {0}); the rebalance moves 1 back.
        self.check(grid_graph(4, 1), 2, 4, [[2, 3], [0, 1]])

    def test_rebalance_skips_a_cut_vertex(self):
        # 2x4 grid, seeds 6, 1, 2. When region 2 = {2, 3, 4} passes a
        # node to region 1 = {0, 1}, its lowest candidate 2 joins 3 to 4,
        # so it stays and 3, a leaf of region 2, moves.
        self.check(grid_graph(2, 4), 3, 0, [[5, 6, 7], [0, 1, 3], [2, 4]])

    def test_rebalance_falls_back_to_a_cut_vertex(self):
        # 2x5 grid: region 3 = {4, 5, 6} must pass a node to region 0 and
        # its only candidate 4 joins 5 to 6; it moves anyway and leaves
        # region 3 in two pieces.
        self.check(grid_graph(2, 5), 4, 38, [[0, 2, 4], [7, 8, 9], [1, 3], [5, 6]])

    def test_disconnected_region_takes_the_fallback(self):
        # 5x3 grid: a fallback splits region 3, which then holds {3, 4}
        # and {7, 12} when it must pass a node to region 2. Removing a
        # node never joins components, so neither candidate 7 nor 12
        # leaves it connected, and the fallback moves 7.
        self.check(grid_graph(5, 3), 4, 16,
                   [[8, 9, 13, 14], [0, 1, 2, 5], [6, 7, 10, 11], [3, 4, 12]])

    def test_disconnected_region_sheds_its_lone_node(self):
        # 3x2 grid without edges 0-3 and 2-5. A fallback leaves region 0 as
        # {2} and {3, 4, 5}; moving the lone node 2 reconnects it, so 2 is
        # the node it passes to region 1.
        A = grid_graph(3, 2, cut=[(0, 3), (2, 5)])
        self.check(A, 2, 73, [[3, 4, 5], [0, 1, 2]])

    @settings(max_examples=200, deadline=None)
    @given(partition_graphs())
    def test_matches_entry_by_entry_reference(self, case):
        A, N, seed = case
        owner = decompose.greedy_graph_partition(A, N, seed=seed)
        expect = loop_greedy_graph_partition(A, N, seed)
        assert owner.shape == (A.shape[0],) and np.issubdtype(owner.dtype, np.integer)
        assert [s.tolist() for s in core_sets(owner)] == [s.tolist() for s in expect]
        # exactly N labels, each used
        assert len(np.bincount(owner)) == N and np.bincount(owner).all()

    def test_fem_mesh_matches_entry_by_entry_reference(self):
        # (14, 8, 8) and (8, 8, 27) need every update of the rebalance's
        # crossing-edge counts: each goes wrong if one of them is left out
        for cells, N, seed in ((14, 4, 0), (14, 6, 1), (14, 8, 2), (14, 8, 3),
                               (14, 8, 8), (8, 8, 27)):
            mesh = discretize.unit_square_mesh(cells, cells)
            A = discretize.diffusion_fem_2d(mesh, np.ones(len(mesh.triangles))).A
            owner = decompose.greedy_graph_partition(A, N, seed=seed)
            expect = loop_greedy_graph_partition(A, N, seed)
            assert [s.tolist() for s in core_sets(owner)] == [s.tolist() for s in expect]


    @pytest.mark.parametrize("cells", [24, 40])
    def test_seed_distances_read_one_float_pattern(self, cells, monkeypatch):
        # every hop-distance search reads one float64 copy of the pattern;
        # searching the Boolean pattern instead gives the same owners
        mesh = discretize.unit_square_mesh(cells, cells)
        A = discretize.diffusion_fem_2d(mesh, np.ones(len(mesh.triangles))).A
        cases = [(N, seed) for N in (2, 8, 16) for seed in range(4)]
        want = [decompose.greedy_graph_partition(A, N, seed=seed) for N, seed in cases]
        dijkstra, graphs = csgraph.dijkstra, []

        def on_boolean_pattern(graph, **kwargs):
            graphs.append(graph)
            return dijkstra(graph.astype(bool), **kwargs)

        monkeypatch.setattr(csgraph, "dijkstra", on_boolean_pattern)
        for (N, seed), owner in zip(cases, want):
            graphs.clear()
            got = decompose.greedy_graph_partition(A, N, seed=seed)
            assert got.dtype == owner.dtype and got.tobytes() == owner.tobytes()
            assert len(graphs) == N - 1 and all(g is graphs[0] for g in graphs)
            assert graphs[0].dtype == np.float64

    @pytest.mark.parametrize("cells,N,seed", [(40, 16, 2), (40, 16, 3), (60, 32, 1)])
    def test_long_rebalance_matches_entry_by_entry_reference(self, cells, N, seed):
        # 360, 409 and 1,166 rebalance moves, with 617, 972 and 435 failed
        # connectivity searches: every move updates the border sets the
        # candidates are read from
        mesh = discretize.unit_square_mesh(cells, cells)
        A = discretize.diffusion_fem_2d(mesh, np.ones(len(mesh.triangles))).A
        owner = decompose.greedy_graph_partition(A, N, seed=seed)
        expect = loop_greedy_graph_partition(A, N, seed)
        assert [s.tolist() for s in core_sets(owner)] == [s.tolist() for s in expect]

class TestExpandOverlap:
    def test_tridiagonal_one_layer(self):
        A = path_graph(4)
        dec = decompose.expand_overlap(A, [0, 0, 1, 1], 1)
        assert list(dec.sets[0]) == [0, 1, 2]
        assert list(dec.sets[1]) == [1, 2, 3]

    @pytest.mark.parametrize("delta", [-1, 1.5, 1.0, True, "2", None])
    def test_delta_must_be_a_non_negative_integer(self, delta):
        # 1.5 failed in range(), True was one layer, "2" failed comparing with 0
        with pytest.raises(ValueError, match=re.escape(
                f"delta must be a non-negative integer, got {delta!r}")):
            decompose.expand_overlap(path_graph(4), [0, 0, 1, 1], delta)

    def test_numpy_integer_delta_accepted(self):
        dec = decompose.expand_overlap(path_graph(4), [0, 0, 1, 1], np.int64(1))
        assert list(dec.sets[0]) == [0, 1, 2]

    def test_zero_overlap_identity(self):
        A = path_graph(6)
        owner = decompose.cartesian_partition(6, 3)
        dec = decompose.expand_overlap(A, owner, 0)
        assert dec.N == 3
        for i, ovl in enumerate(dec.sets):
            np.testing.assert_array_equal(ovl, np.flatnonzero(owner == i))
        np.testing.assert_array_equal(dec.multiplicity, np.ones(6))
        # greedy labels are not contiguous blocks
        A = discretize.diffusion_fem_2d(discretize.unit_square_mesh(8, 8), lambda c: 1.0).A
        for seed in range(4):
            owner = decompose.greedy_graph_partition(A, 5, seed=seed)
            dec = decompose.expand_overlap(A, owner, 0)
            assert dec.N == 5
            for i, ovl in enumerate(dec.sets):
                np.testing.assert_array_equal(ovl, np.flatnonzero(owner == i))

    @pytest.mark.parametrize("owner, match", [
        ([0, 0, 1], r"owner has shape \(3,\), expected \(4,\)"),
        ([[0, 0], [1, 1]], r"owner has shape \(2, 2\), expected \(4,\)"),
        ([0.0, 0.0, 1.0, 1.0], "owner must hold integer labels, got dtype float64"),
        ([False, False, True, True], "owner must hold integer labels, got dtype bool"),
        ([0, -1, 1, 1], "owner holds negative label -1"),
        ([0, 0, 2, 2], "owner leaves label 1 unused; labels must run from 0 to 2"),
        ([1, 1, 2, 2], "owner leaves label 0 unused; labels must run from 0 to 2"),
    ])
    def test_bad_owner_rejected(self, owner, match):
        with pytest.raises(ValueError, match=match):
            decompose.expand_overlap(path_graph(4), owner, 1)

    @pytest.mark.parametrize("rows", [3, 5])
    def test_coords_of_another_length_rejected(self, rows):
        coords = np.zeros((rows, 2))
        with pytest.raises(ValueError, match=f"coords has {rows} rows, expected one per DoF \\(4\\)"):
            decompose.expand_overlap(path_graph(4), [0, 0, 1, 1], 1, coords=coords)

    def test_system_without_unknowns_named(self):
        A = sp.csr_array((0, 0))
        with pytest.raises(ValueError, match="the system has no unknowns"):
            decompose.expand_overlap(A, np.zeros(0, dtype=int), 1)

    def test_owner_kept_read_only_and_caller_array_untouched(self):
        owner = np.array([0, 0, 1, 1])
        dec = decompose.expand_overlap(path_graph(4), owner, 1)
        np.testing.assert_array_equal(dec.owner, owner)
        with pytest.raises(ValueError, match="read-only"):
            dec.owner[0] = 1
        owner[0] = 1  # the caller's array stays writeable and unshared
        assert dec.owner[0] == 0

    def test_5pt_diamond(self):
        sys = discretize.poisson_2d_fd(7, 7)
        center = 3 + 7 * 3
        owner = np.ones(49, dtype=int)
        owner[center] = 0
        dec = decompose.expand_overlap(sys.A, owner, 2)
        got = set(dec.sets[0].tolist())
        expect = {
            (3 + dx) + 7 * (3 + dy)
            for dx in range(-2, 3)
            for dy in range(-2, 3)
            if abs(dx) + abs(dy) <= 2
        }
        assert got == expect and len(expect) == 13

    def test_monotone_in_delta(self):
        sys = discretize.poisson_2d_fd(8, 6)
        part = decompose.cartesian_partition(sys.grid, 2, 2)
        prev = None
        for delta in range(4):
            dec = decompose.expand_overlap(sys.A, part, delta)
            if prev is not None:
                for a, b in zip(prev.sets, dec.sets):
                    assert set(a.tolist()) <= set(b.tolist())
            prev = dec

    def test_adjacency_and_coloring_chain(self):
        A = path_graph(32)
        part = decompose.cartesian_partition(32, 8)
        dec = decompose.expand_overlap(A, part, 1)
        # chain of 8 subdomains: only neighbors interact
        for i in range(8):
            for j in range(8):
                expect = abs(i - j) <= 1 and i != j
                assert ((j in dec.adjacency[i]) == expect) or i == j
        assert dec.n_colors <= 3
        for i in range(8):
            for j in dec.adjacency[i]:
                assert dec.colors[i] != dec.colors[j]

    def test_coloring_bound_degree(self):
        sys = discretize.poisson_2d_fd(12, 12)
        part = decompose.cartesian_partition(sys.grid, 3, 3)
        dec = decompose.expand_overlap(sys.A, part, 1)
        maxdeg = max(len(a) for a in dec.adjacency)
        assert dec.n_colors <= maxdeg + 1

    def test_geometry_stats(self):
        sys = discretize.poisson_1d(5)
        part = decompose.cartesian_partition(5, 2)
        dec = decompose.expand_overlap(sys.A, part, 1, coords=sys.coords, h=sys.h)
        # subdomain 0 covers nodes 0..3: bounding box diagonal 3h
        assert dec.H[0] == pytest.approx(3 * sys.h)
        assert dec.overlap_width == pytest.approx(sys.h)
        assert dec.max_multiplicity == 2


class TestPartitionsOfUnity:
    def test_multiplicity_weights_hand(self):
        A = path_graph(4)
        dec = decompose.expand_overlap(A, [0, 0, 1, 1], 1)  # sets {0,1,2}, {1,2,3}
        dec = decompose.multiplicity_pu(dec)
        np.testing.assert_array_equal(dec.multiplicity, [1, 2, 2, 1])
        np.testing.assert_allclose(dec.weights[0], [1.0, 0.5, 0.5])
        np.testing.assert_allclose(dec.weights[1], [0.5, 0.5, 1.0])
        assert pu_identity_gap(dec) <= 1e-14

    def test_boolean_weights_hand(self):
        A = path_graph(4)
        dec = decompose.boolean_pu(decompose.expand_overlap(A, [0, 0, 1, 1], 1))
        np.testing.assert_array_equal(dec.weights[0], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(dec.weights[1], [0.0, 0.0, 1.0])
        assert pu_identity_gap(dec) == 0.0

    def test_zero_overlap_pu_kinds_coincide(self):
        sys = discretize.poisson_2d_fd(6, 6)
        part = decompose.cartesian_partition(sys.grid, 2, 3)
        dec = decompose.expand_overlap(sys.A, part, 0)
        mult = decompose.multiplicity_pu(dec)
        boo = decompose.boolean_pu(dec)
        for i in range(dec.N):
            np.testing.assert_array_equal(mult.weights[i], np.ones(len(dec.sets[i])))
            np.testing.assert_array_equal(boo.weights[i], mult.weights[i])

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=4, max_value=16),
        st.integers(min_value=4, max_value=16),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=3),
        st.booleans(),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_pu_identity_random(self, nx, ny, N, delta, boolean, seed):
        sys = discretize.poisson_2d_fd(nx, ny)
        part = decompose.greedy_graph_partition(sys.A, N, seed=seed)
        dec = decompose.expand_overlap(sys.A, part, delta)
        dec = decompose.boolean_pu(dec) if boolean else decompose.multiplicity_pu(dec)
        gap = pu_identity_gap(dec)
        assert gap == 0.0 if boolean else gap <= 1e-14


class TestBruteForceOracle:
    @settings(max_examples=60, deadline=None)
    @given(graph_partitions())
    def test_matches_dof_by_dof_definitions(self, case):
        A, owner, delta = case
        n = A.shape[0]
        sets, mult, adjacency, boolean = brute_force_decomposition(A, core_sets(owner), delta)
        dec = decompose.expand_overlap(A, owner, delta)
        assert [s.tolist() for s in dec.sets] == sets
        assert dec.multiplicity.tolist() == mult
        assert dec.adjacency == adjacency
        stacked = np.concatenate(sets)
        np.testing.assert_array_equal(dec.R.toarray(), np.eye(n)[stacked])
        np.testing.assert_array_equal(dec.offsets,
                                      np.cumsum([0] + [len(s) for s in sets]))
        assert [w.tolist() for w in decompose.boolean_pu(dec).weights] == boolean
        expect = [[1.0 / mult[u] for u in s] for s in sets]
        assert [w.tolist() for w in dec.weights] == expect
        assert [w.tolist() for w in decompose.multiplicity_pu(dec).weights] == expect
        for i in range(dec.N):
            assert all(dec.colors[i] != dec.colors[j] for j in dec.adjacency[i])


class TestDecompositionUtilities:
    def test_restrict_prolong_roundtrip(self):
        sys = discretize.poisson_2d_fd(5, 5)
        part = decompose.cartesian_partition(sys.grid, 2, 2)
        dec = decompose.multiplicity_pu(decompose.expand_overlap(sys.A, part, 1))
        x = np.arange(25, dtype=float)
        # sum_i R_i^T D_i R_i x = x
        acc = dec.R.T @ (dec.w * (dec.R @ x))
        np.testing.assert_allclose(acc, x, atol=1e-14 * 25)

    def test_index_and_weight_arrays_read_only(self):
        sys = discretize.poisson_2d_fd(6, 6)
        part = decompose.cartesian_partition(sys.grid, 2, 2)
        dec = decompose.expand_overlap(sys.A, part, 1)
        for d in (dec, decompose.multiplicity_pu(dec), decompose.boolean_pu(dec)):
            for arr in (d.weights[0], d.sets[0], d.w, d.offsets, d.row_block,
                        d.R.indices, d.R.indptr, d.R.data, d.multiplicity, d.colors, d.H):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 0


def _fd_cartesian():
    sys = discretize.poisson_2d_fd(12, 10)
    return sys.A, decompose.expand_overlap(sys.A, decompose.cartesian_partition(sys.grid, 3, 2), 1)


def _fem_graph(delta):
    def build():
        sys = discretize.diffusion_fem_2d(discretize.unit_square_mesh(10, 10), lambda xy: 1.0)
        part = decompose.greedy_graph_partition(sys.A, 5, seed=1)
        return sys.A, decompose.expand_overlap(sys.A, part, delta)
    return build


def _impedance_by_coordinates():
    grid = discretize.StructuredGrid(2, nx=9, ny=9)
    sys = discretize.helmholtz_2d(grid, omega=6.0, xi=0.0, boundary="impedance")
    cell = np.minimum((sys.coords * 3).astype(int), 2)
    return sys.A, decompose.expand_overlap(sys.A, cell[:, 0] + 3 * cell[:, 1], 1)


def entries(row, col, vals):
    """Sorted ``(row, col, value bytes)`` triplets."""
    return sorted(zip(row.tolist(), col.tolist(), (v.tobytes() for v in vals)))


class TestStackedRowIndex:
    """``row_block`` and ``within`` read the stacked rows one way."""

    CASES = {
        "fd-cartesian": _fd_cartesian,
        "fem-graph-overlap0": _fem_graph(0),
        "fem-graph-overlap2": _fem_graph(2),
        "impedance-by-coordinates": _impedance_by_coordinates,
    }

    @staticmethod
    def same_block_oracle(A, dec):
        """Oracle: the entries of ``R A R^T`` whose row and column share a subdomain."""
        block = np.repeat(np.arange(dec.N), np.diff(dec.offsets))
        C = (dec.R @ A @ dec.R.T).tocoo()
        keep = block[C.row] == block[C.col]
        return sp.csr_array((C.data[keep], (C.row[keep], C.col[keep])), shape=C.shape)

    def assert_block_diagonal(self, W, A, dec):
        assert isinstance(W, sp.csr_array) and W.has_canonical_format
        assert W.indices.dtype == W.indptr.dtype == dec.R.indices.dtype
        ref = self.same_block_oracle(sp.csr_array(A), dec)
        assert W.shape == ref.shape
        # entries compared as (row, col, value bytes): bitwise equal values
        got, want = W.tocoo(), ref.tocoo()
        assert entries(got.row, got.col, got.data) == entries(want.row, want.col, want.data)

    @pytest.mark.parametrize("case", CASES)
    def test_within_is_the_block_diagonal_of_the_triple_product(self, case):
        A, dec = self.CASES[case]()
        np.testing.assert_array_equal(
            dec.row_block, np.repeat(np.arange(dec.N), np.diff(dec.offsets)))
        self.assert_block_diagonal(dec.within(A), A, dec)

    def test_within_takes_any_sparse_format(self):
        A, dec = _fem_graph(1)()
        for B in (A, sp.coo_array(A), sp.csc_matrix(A)):
            self.assert_block_diagonal(dec.within(B), A, dec)

    def test_within_rejects_a_matrix_of_another_size(self):
        dec = decompose.expand_overlap(path_graph(6), np.repeat([0, 1], 3), 1)
        for n in (5, 7):
            with pytest.raises(ValueError, match="shape"):
                dec.within(path_graph(n))

    def test_within_keys_are_int64(self):
        # one subdomain per dof of a 46,400-dof path: the keys
        # block * n_dofs + dof pass 2**31 from block 46,283 on, while R's
        # int32 indices still hold every DoF, so int32 keys would wrap and
        # miss the last blocks' entries
        n = 46_400
        A = discretize.poisson_1d(n).A
        dec = decompose.expand_overlap(A, np.arange(n), 1)
        assert dec.R.indices.dtype == dec.row_block.dtype == np.int32
        assert (dec.N - 1) * n > 2**31
        self.assert_block_diagonal(dec.within(A), A, dec)
