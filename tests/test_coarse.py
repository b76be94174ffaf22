"""Oracle tests for coarse spaces and two-level preconditioners.

Hand-computed interpolation weights, the exact one-dimensional Galerkin
coarsening identity, and dense reference formulas for every coarse
correction combinator are frozen here.
"""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from ddmlab import coarse, decompose, discretize, krylov, linalg, schwarz


def poisson_setup(m, parts, delta):
    sys = discretize.poisson_1d(m)
    part = decompose.cartesian_partition(m, parts)
    dec = decompose.expand_overlap(sys.A, part, delta)
    return sys, dec


def fem_setup(cells, parts_x, parts_y, delta, alpha=None):
    mesh = discretize.unit_square_mesh(cells, cells)
    if alpha is None:
        alpha = lambda xy: 1.0
    sys = discretize.diffusion_fem_2d(mesh, alpha)
    xy = sys.coords
    labels = np.minimum((xy[:, 0] * parts_x).astype(int), parts_x - 1)
    labels += parts_x * np.minimum((xy[:, 1] * parts_y).astype(int), parts_y - 1)
    dec = decompose.expand_overlap(sys.A, labels, delta, coords=xy, h=sys.h)
    return sys, dec


def centre_alone_setup():
    # P1 FEM on 4x4 cells (3x3 dofs), no overlap: subdomain 1 is the
    # centre dof alone, subdomain 0 the ring of eight around it
    sys = discretize.diffusion_fem_2d(discretize.unit_square_mesh(4, 4),
                                      lambda xy: 1.0)
    owner = np.zeros(sys.n, dtype=int)
    owner[4] = 1
    np.testing.assert_array_equal(sys.coords[4], [0.5, 0.5])
    dec = decompose.expand_overlap(sys.A, owner, 0, coords=sys.coords, h=sys.h)
    return sys, dec


def graph_setup(cells, N, seed, delta, pu="multiplicity", contrast=None):
    # P1 FEM on the unit square, greedy graph partition; contrast puts
    # three horizontal high-coefficient channels into the domain.
    mesh = discretize.unit_square_mesh(cells, cells)
    if contrast is None:
        alpha = lambda xy: 1.0
    else:
        alpha = lambda xy: contrast if int(xy[1] * 6) % 2 else 1.0
    sys = discretize.diffusion_fem_2d(mesh, alpha)
    part = decompose.greedy_graph_partition(sys.A, N, seed=seed)
    dec = decompose.expand_overlap(sys.A, part, delta, coords=sys.coords, h=sys.h)
    if pu == "boolean":
        dec = decompose.boolean_pu(dec)
    return sys, dec


def column_loop(prec, V):
    """Oracle: a block apply done one column at a time."""
    return np.column_stack([prec(v) for v in V.T])


def assert_block_matches_columns(prec, V, rtol=1e-14):
    block = prec(V)
    ref = column_loop(prec, V)
    assert block.shape == ref.shape and block.dtype == ref.dtype
    assert np.abs(block - ref).max() <= rtol * np.abs(ref).max()


def nicolaides_loop(dec):
    # the per-subdomain loop that nicolaides_space replaced
    Z = np.zeros((dec.n_dofs, dec.N))
    for i, s in enumerate(dec.sets):
        Z[s, i] = dec.weights[i]
    return Z


def rank_tolerance(m):
    """Relative column distance below which the rank filter drops a column."""
    return np.sqrt(m * np.finfo(float).eps)


def neumann_oracle(system, dec):
    """One ``discretize.neumann_matrix`` per subdomain element set."""
    return [discretize.neumann_matrix(system, es)
            for es in coarse.subdomain_element_sets(system, dec)]


def dense_pencils(A, dec, neumann):
    """The per-subdomain oracle of geneo_pencils, one subdomain at a time.

    Zero-extends each Neumann matrix (:func:`neumann_oracle`) to the
    overlapping set, scales the dense principal submatrix of A by the
    weights on both sides, then
    gathers the dofs of nonzero weight from both. Yields
    ``(s, D, Nloc, DAD, wd, Nw, Bw)``: the full-size pencil, the weighted
    positions and the restricted pencil.
    """
    Ad = A.toarray()
    for s, D, (N, dofs) in zip(dec.sets, dec.weights, neumann):
        Aj = Ad[np.ix_(s, s)]
        pos = np.searchsorted(s, dofs)
        Nloc = np.zeros(Aj.shape, dtype=np.asarray(N).dtype)
        Nloc[np.ix_(pos, pos)] = N
        dad = (D[:, None] * Aj) * D[None, :]
        wd = np.flatnonzero(D)
        sub = np.ix_(wd, wd)
        yield s, D, Nloc, dad, wd, Nloc[sub], dad[sub]


def assert_bitwise(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()


def element_sets_loop(system, dec):
    # the per-subdomain loop that subdomain_element_sets replaced
    dmap = system.dof_of_vertex[system.mesh.triangles]
    sets = []
    for s in dec.sets:
        inset = np.zeros(system.n, dtype=bool)
        inset[s] = True
        ok = np.where(dmap >= 0, inset[np.clip(dmap, 0, None)], True)
        sets.append(np.flatnonzero(ok.all(axis=1)))
    return sets


def whitening_geneo(A, dec, neumann, tau):
    """GenEO through full-size pencils whitened on range(D_j A_j D_j).

    Independent of the subset eigensolve: each weighted matrix is split
    by a full eigendecomposition, kernel vectors enter at lambda = 0 when
    they carry no Neumann energy, and the whitened pencil is solved in
    full. Returns the coarse space and every finite eigenvalue computed.
    """
    columns, owners, eigenvalues, spectrum = [], [], [], []
    for j, (s, D, Nloc, B, *_) in enumerate(dense_pencils(A, dec, neumann)):
        if len(neumann[j][1]) == 0:
            continue
        w, U = np.linalg.eigh(B)
        keep = w > 1e-10 * w.max()
        S = U[:, keep] / np.sqrt(w[keep])
        C = S.T @ Nloc @ S
        values, Y = np.linalg.eigh((C + C.T) / 2.0)
        spectrum.extend(values)
        energy_tol = 1e-12 * abs(np.trace(Nloc))
        selected = [(0.0, phi) for phi in U[:, ~keep].T
                    if abs(phi @ Nloc @ phi) <= energy_tol]
        selected += [(lam, phi) for lam, phi in zip(values, (S @ Y).T)
                     if lam <= tau]
        for lam, phi in selected:
            col = np.zeros(dec.n_dofs)
            col[s] = D * phi
            columns.append(col)
            owners.append(j)
            eigenvalues.append(lam)
    cs = coarse.CoarseSpace(np.column_stack(columns), A, tag="oracle",
                            owners=owners, eigenvalues=eigenvalues, tau=tau)
    return cs, np.array(spectrum)


class TestStackedArrayOracles:
    # nicolaides_space and subdomain_element_sets read R, offsets and w;
    # the per-subdomain loops they replaced are the bitwise oracles.
    CASES = [(12, 4, 0, 0, "multiplicity"), (16, 6, 1, 1, "multiplicity"),
             (16, 6, 2, 2, "boolean"), (20, 8, 3, 2, "multiplicity"),
             (20, 8, 4, 3, "boolean")]

    @pytest.mark.parametrize("cells,N,seed,delta,pu", CASES)
    def test_nicolaides_matches_loop_bitwise(self, cells, N, seed, delta, pu):
        sys, dec = graph_setup(cells, N, seed, delta, pu)
        cs = coarse.nicolaides_space(sys.A, dec)
        assert cs.m0 == cs.raw_columns == N
        assert sp.issparse(cs.Z) and cs.Z.format == "csc"
        assert cs.Z.nnz == dec.R.nnz
        np.testing.assert_array_equal(cs.Z.toarray(), nicolaides_loop(dec))

    @pytest.mark.parametrize("cells,N,seed,delta,pu", CASES)
    def test_element_sets_match_loop_bitwise(self, cells, N, seed, delta, pu):
        sys, dec = graph_setup(cells, N, seed, delta, pu)
        got = coarse.subdomain_element_sets(sys, dec)
        ref = element_sets_loop(sys, dec)
        assert len(got) == len(ref) == N
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype
            np.testing.assert_array_equal(g, r)

    def test_zero_weight_error_names_the_subdomain(self):
        sys = discretize.poisson_1d(4)
        dec = decompose.boolean_pu(decompose.expand_overlap(sys.A, [0, 1, 1, 2], 2))
        empty = [i for i, w in enumerate(dec.weights) if not np.any(w)]
        assert empty, "the setup must leave a subdomain without weight"
        with pytest.raises(ValueError, match=f"subdomain {empty[0]} carries no"):
            coarse.nicolaides_space(sys.A, dec)


def scaled_pencil_eigenvalues(A, dec, neumann, j):
    # Full spectrum of subdomain j's pencil on its weighted dofs after
    # symmetric Jacobi scaling, which keeps the right-hand matrix well
    # conditioned under high contrast.
    *_, Nw, Bw = list(dense_pencils(A, dec, neumann))[j]
    d = 1.0 / np.sqrt(np.diag(Bw))
    return scipy.linalg.eigh(d[:, None] * Nw * d, d[:, None] * Bw * d,
                             eigvals_only=True)


class TestPencils:
    """geneo_pencils against the per-subdomain oracle, bitwise."""

    def check(self, sys, dec):
        nm = neumann_oracle(sys, dec)
        got = list(coarse.geneo_pencils(sys, dec))
        ref = list(dense_pencils(sys.A, dec, nm))
        assert len(got) == len(ref) == dec.N
        for (dofs, d, Nw, Bw), (s, D, _, _, wd, rNw, rBw) in zip(got, ref):
            np.testing.assert_array_equal(dofs, s[wd])
            assert_bitwise(d, D[wd])
            assert_bitwise(Nw, rNw)
            assert_bitwise(Bw, rBw)
        return nm, got

    # overlap 3 gives multiplicities 5 to 7, whose weights round
    # differently when the two scalings are applied in the other order
    @pytest.mark.parametrize("cells,N,seed,delta,contrast", [
        (16, 6, 1, 2, None), (12, 8, 0, 3, None), (20, 8, 3, 3, 1e6)])
    def test_multiplicity_pu(self, cells, N, seed, delta, contrast):
        sys, dec = graph_setup(cells, N, seed, delta, contrast=contrast)
        self.check(sys, dec)

    @pytest.mark.parametrize("cells,N,seed,delta", [(16, 6, 2, 2), (20, 8, 4, 1)])
    def test_boolean_pu_drops_weightless_neumann_dofs(self, cells, N, seed, delta):
        sys, dec = graph_setup(cells, N, seed, delta, "boolean")
        nm, _ = self.check(sys, dec)
        # the case must hold Neumann dofs of zero weight for the scatter to drop
        dropped = sum(
            int(np.count_nonzero(w[np.searchsorted(s, dofs)] == 0))
            for s, w, (_, dofs) in zip(dec.sets, dec.weights, nm))
        assert dropped > 0

    @pytest.mark.parametrize("pu", ["multiplicity", "boolean"])
    def test_floating_subdomain(self, pu):
        # the centre subdomain of a 3x3 layout touches no Dirichlet
        # boundary, so its Neumann matrix annihilates constants
        sys, dec = fem_setup(9, 3, 3, 1)
        if pu == "boolean":
            dec = decompose.boolean_pu(dec)
        _, got = self.check(sys, dec)
        if pu == "multiplicity":
            Nw = got[4][2]
            assert np.abs(Nw.sum(axis=1)).max() <= 1e-12 * np.abs(Nw).max()

    @pytest.mark.parametrize("delta", [0, 1, 2, 3])
    @pytest.mark.parametrize("pu", ["multiplicity", "boolean"])
    def test_coordinate_partition(self, pu, delta):
        sys, dec = fem_setup(12, 3, 2, delta)
        if pu == "boolean":
            dec = decompose.boolean_pu(dec)
        self.check(sys, dec)

    @pytest.mark.parametrize("delta", [0, 1, 2, 3])
    @pytest.mark.parametrize("pu", ["multiplicity", "boolean"])
    def test_graph_partition(self, pu, delta):
        sys, dec = graph_setup(14, 5, 2, delta, pu)
        self.check(sys, dec)

    def test_subdomain_touching_no_dof(self):
        # the centre dof of a 4x4-cell mesh alone: every element around it
        # has another interior vertex, so its element set touches no dof
        # and its Neumann matrix is all zero
        sys, dec = centre_alone_setup()
        nm, got = self.check(sys, dec)
        assert len(nm[1][1]) == 0
        dofs, d, Nw, Bw = got[1]
        np.testing.assert_array_equal(dofs, [4])
        assert not Nw.any() and Bw[0, 0] > 0

    @pytest.mark.parametrize("pu", ["multiplicity", "boolean"])
    @pytest.mark.parametrize("N", [20, 25])
    def test_graph_partition_with_about_one_dof_per_subdomain(self, N, pu):
        # FEM on 6x6 cells (25 dofs), overlap 1: with Boolean weights 13 of
        # the 20 subdomains (15 of the 25) carry no weight and get 0 x 0
        # pencils, though their element sets touch dofs
        sys, dec = graph_setup(6, N, 0, 1, pu)
        _, got = self.check(sys, dec)
        empty = [j for j, (dofs, *_) in enumerate(got) if dofs.size == 0]
        assert len(empty) == {"multiplicity": 0, "boolean": {20: 13, 25: 15}[N]}[pu]
        touched, _ = coarse._pencil_index(sys, dec)
        assert touched.all()
        for j in empty:
            for a in got[j][1:]:
                assert a.dtype == np.float64 and a.size == 0

    def test_split_entries_of_a_are_summed(self):
        # every entry of A stored as two halves, in no canonical format:
        # each position of Bw sums them, as the dense oracle does
        sys, dec = graph_setup(12, 4, 0, 1)
        A = sys.A
        sys.A = sp.csr_array((np.repeat(A.data / 2, 2), np.repeat(A.indices, 2),
                              2 * A.indptr), shape=A.shape)
        assert not sys.A.has_canonical_format
        self.check(sys, dec)

    def test_pencils_do_not_depend_on_the_order_taken(self):
        # each pencil fills the shared dof table and resets it, so taking
        # them backwards, or one twice, builds the same bytes
        sys, dec = graph_setup(14, 5, 2, 2, "boolean")
        forward = list(coarse.geneo_pencils(sys, dec))
        _, pencil = coarse._pencil_index(sys, dec)
        for j in [4, 3, 3, 2, 1, 0]:
            for a, b in zip(pencil(j), forward[j]):
                assert_bitwise(a, b)

    def test_count_checked_at_the_call(self):
        # a system on other dofs than the decomposition's is rejected when
        # the pencils are asked for, before any is taken
        sys, dec = fem_setup(8, 2, 2, 1)
        other = discretize.diffusion_fem_2d(discretize.unit_square_mesh(10, 10),
                                            lambda xy: 1.0)
        with pytest.raises(ValueError, match=(
                f"system has {other.n} DoFs but the decomposition covers {sys.n}")):
            coarse.geneo_pencils(other, dec)

    def test_first_pencil_holds_one_dense_pair(self):
        # The pencils are built one subdomain at a time: taking the first
        # allocates about one dense pair (5 MB here) plus the element sets
        # and the dof table, not the nine subdomains' Neumann matrices at
        # once (18 MB).
        sys, dec = fem_setup(60, 3, 3, 2)
        pairs = [2 * np.count_nonzero(w) ** 2 * 8 for w in dec.weights]
        neumann = sum(len(s) ** 2 * 8 for s in dec.sets)
        tracemalloc.start()
        try:
            first = next(coarse.geneo_pencils(sys, dec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first[2].nbytes + first[3].nbytes == pairs[0]
        bound = 2 * max(pairs)
        assert neumann > bound
        assert peak < bound, (peak, bound)


class TestGeneoAgainstWhitening:
    # The subset eigensolve on the weighted dofs against the full-size
    # whitening oracle: same kept columns and owners and the same kept
    # subspace per subdomain. Eigenvalues agree to 1e-12 (relative, or
    # absolute below 1) with a Jacobi-scaled full solve, and with the
    # whitening oracle too at unit coefficients. At contrast 1e6 the
    # weighted matrix has condition numbers near 7e6, and the whitening
    # oracle loses digits (errors up to 7e-11 against 1e-15 for the
    # Cholesky-based solve), so there it is held to 1e-9.
    # Boolean weights give eigenvalues of exactly 1/2 and 1, which rounding
    # puts on either side of a threshold at those values in either solver,
    # so their cases use tau = 0.4; every case asserts that no eigenvalue
    # lies within 1e-9 of tau, so the selection is well defined.
    CASES = [(20, 6, 0, "multiplicity", None, 0.5),
             (20, 6, 1, "multiplicity", None, 0.5),
             (20, 6, 2, "multiplicity", None, 0.5),
             (20, 6, 3, "boolean", None, 0.4),
             (20, 6, 4, "boolean", None, 0.4),
             (20, 6, 5, "multiplicity", 1e6, 0.5),
             (20, 6, 6, "boolean", 1e6, 0.4)]

    @pytest.mark.parametrize("cells,N,seed,pu,contrast,tau", CASES)
    def test_matches_whitening_oracle(self, cells, N, seed, pu, contrast, tau):
        sys, dec = graph_setup(cells, N, seed, 2, pu, contrast)
        nm = neumann_oracle(sys, dec)
        cs = coarse.geneo_space(sys, dec, tau=tau)
        ref, spectrum = whitening_geneo(sys.A, dec, nm, tau)
        assert np.min(np.abs(spectrum - tau)) > 1e-9
        np.testing.assert_array_equal(cs.owners, ref.owners)
        assert cs.m0 == ref.m0
        scale = np.maximum(np.abs(ref.eigenvalues), 1.0)
        oracle_tol = 1e-12 if contrast is None else 1e-9
        assert np.all(np.abs(cs.eigenvalues - ref.eigenvalues) <= oracle_tol * scale)
        for j in np.unique(ref.owners):
            mine = cs.eigenvalues[cs.owners == j]
            scaled = scaled_pencil_eigenvalues(sys.A, dec, nm, j)[:len(mine)]
            np.testing.assert_allclose(mine, scaled, rtol=0,
                                       atol=1e-12 * max(np.abs(mine).max(), 1.0))
            Qa, _ = np.linalg.qr(cs.Z.toarray()[:, cs.owners == j])
            Qb, _ = np.linalg.qr(ref.Z.toarray()[:, ref.owners == j])
            cosines = np.linalg.svd(Qa.T @ Qb, compute_uv=False)
            assert 1.0 - cosines.min() <= 1e-9, j
        if contrast is not None:
            # channels crossing subdomains give near-zero eigenvalues
            assert np.sum(ref.eigenvalues < 1e-3) > 0


def full_pencil_space(system, dec, tau):
    """GenEO with every pencil solved at full size by ``linalg.sym_gen_eig``."""
    columns, owners, eigenvalues = [], [], []
    for j, (dofs, d, Nw, Bw) in enumerate(coarse.geneo_pencils(system, dec)):
        if not Nw.any():
            continue
        values, vectors = linalg.sym_gen_eig(Nw, Bw, upper=tau)
        block = np.zeros((dec.n_dofs, len(values)))
        block[dofs] = d[:, None] * vectors
        columns.append(block)
        owners += [j] * len(values)
        eigenvalues.extend(values)
    return coarse.CoarseSpace(np.hstack(columns), system.A, tag="full", owners=owners,
                              eigenvalues=eigenvalues, tau=tau)


def equal_rows_eig(Nw, Bw, tau):
    """GenEO's reduction to the rows where Nw and Bw differ, before proportional rows.

    For ``tau < 1`` it eliminates the rows where the two matrices are
    equal (c = 1) and nothing else; otherwise it solves the full pencil.
    Kept as the bitwise oracle of pencils whose only eliminated rows have
    c = 1.
    """
    inner = (Nw == Bw).all(axis=1) if tau < 1 else None
    if inner is None or not inner.any():
        return linalg.sym_gen_eig(Nw, Bw, upper=tau)
    I, G = np.flatnonzero(inner), np.flatnonzero(~inner)
    rows = Nw[I]
    coupled = rows[:, G]
    b = np.flatnonzero(coupled.any(axis=0))
    L = scipy.linalg.cholesky(rows[:, I], lower=True, check_finite=False)
    W = scipy.linalg.solve_triangular(L, coupled[:, b], lower=True, check_finite=False)
    C = W.T @ W
    left, right = Nw[G][:, G], Bw[G][:, G]
    for M in (left, right):
        M[np.ix_(b, b)] -= C
    values, reduced = linalg.sym_gen_eig(left, right, upper=tau)
    vectors = np.empty((Nw.shape[0], values.size))
    vectors[G] = reduced
    vectors[I] = -scipy.linalg.solve_triangular(L, W @ reduced[b], trans="T", lower=True,
                                                check_finite=False)
    return values, vectors


def assert_same_pairs(got, ref, Bw, tau):
    """Two solves of one pencil up to tau agree below ``tau - 1e-9``.

    Eigenvalues there agree to 1e-12 and their B-orthonormal vectors span
    the same space; what either returns above is a cluster at tau.
    """
    (values, V), (rvalues, R) = got, ref
    n = np.count_nonzero(rvalues < tau - 1e-9)
    assert np.count_nonzero(values < tau - 1e-9) == n
    np.testing.assert_allclose(values[:n], rvalues[:n], rtol=0, atol=1e-12 * max(tau, 1.0))
    for v in (values[n:], rvalues[n:]):
        assert np.all(np.abs(v - tau) <= 1e-9)
    cosines = np.linalg.svd(R[:, :n].T @ Bw @ V[:, :n], compute_uv=False)
    assert np.all(np.abs(cosines - 1.0) <= 1e-9)


def assert_matches_full_space(cs, ref):
    """Same columns per subdomain, eigenvalues to 1e-12, same span per subdomain."""
    assert cs.raw_columns == ref.raw_columns and cs.m0 == ref.m0
    np.testing.assert_array_equal(cs.owners, ref.owners)
    scale = np.maximum(np.abs(ref.eigenvalues), 1.0)
    assert np.all(np.abs(cs.eigenvalues - ref.eigenvalues) <= 1e-12 * scale)
    Z, Zref = cs.Z.toarray(), ref.Z.toarray()
    for j in np.unique(ref.owners):
        Qa, _ = np.linalg.qr(Z[:, cs.owners == j])
        Qb, _ = np.linalg.qr(Zref[:, ref.owners == j])
        cosines = np.linalg.svd(Qa.T @ Qb, compute_uv=False)
        assert 1.0 - cosines.min() <= 1e-9, j


def dense_rule(Nw, Bw, tau):
    """Rows where ``Nw[i] == c_i Bw[i]`` with ``c_i = Nw_ii / Bw_ii > tau``, and c."""
    c = np.diag(Nw) / np.diag(Bw)
    return (Nw == c[:, None] * Bw).all(axis=1) & (c > tau), c


def eliminated_c(pencils, tau):
    """The c of the rows the dense rule eliminates, for each pencil."""
    for *_, Nw, Bw in pencils:
        inner, c = dense_rule(Nw, Bw, tau)
        yield c[inner]


def fem_geneo_pass(seed):
    """The GenEO setups of one benchmark pass: P1 FEM on 40 x 40 and 24 x 24
    cells, unit coefficient, graph partitions N = 8 at partition seeds
    8 seed to 8 seed + 7, overlap 2, multiplicity weights, tau 0.5."""
    for cells in (40, 24):
        mesh = discretize.unit_square_mesh(cells, cells)
        sys = discretize.diffusion_fem_2d(mesh, np.ones(len(mesh.triangles)))
        for p in range(8 * seed, 8 * seed + 8):
            part = decompose.greedy_graph_partition(sys.A, 8, seed=p)
            yield sys, decompose.expand_overlap(sys.A, part, 2, coords=sys.coords, h=sys.h)


class TestOverlapReduction:
    """The GenEO pencils reduced to the rows where they differ, against the full solve."""

    # Boolean weights give exact eigenvalues 1/2, so those cases use tau 0.4
    CASES = [(20, 6, 0, 1, "multiplicity", None, 0.5),
             (20, 6, 1, 2, "multiplicity", None, 0.5),
             (24, 8, 2, 2, "multiplicity", None, 0.5),
             (20, 6, 3, 1, "boolean", None, 0.4),
             (20, 6, 4, 2, "boolean", None, 0.4),
             (20, 6, 5, 2, "multiplicity", 1e6, 0.5),
             (20, 6, 6, 1, "boolean", 1e6, 0.4)]
    # Boolean weights where some Neumann row is half of its row of D A D
    # (c = 1/2 > 0.4): the first is a setup of the benchmark's pass at
    # seed 0 with Boolean weights
    HALF_ROWS = [(24, 8, 2, 2, "boolean", None, 0.4),
                 (24, 6, 12, 2, "boolean", None, 0.4)]

    @pytest.mark.parametrize("cells,N,seed,delta,pu,contrast,tau", CASES + HALF_ROWS)
    def test_matches_full_pencil(self, cells, N, seed, delta, pu, contrast, tau):
        sys, dec = graph_setup(cells, N, seed, delta, pu, contrast)
        # the reduction has rows to eliminate
        assert any((Nw == Bw).all(axis=1).any() for *_, Nw, Bw in coarse.geneo_pencils(sys, dec))
        cs = coarse.geneo_space(sys, dec, tau=tau)
        ref = full_pencil_space(sys, dec, tau)
        assert cs.raw_columns == ref.raw_columns and cs.m0 == ref.m0
        np.testing.assert_array_equal(cs.owners, ref.owners)
        scale = np.maximum(np.abs(ref.eigenvalues), 1.0)
        assert np.all(np.abs(cs.eigenvalues - ref.eigenvalues) <= 1e-12 * scale)
        Z, Zref = cs.Z.toarray(), ref.Z.toarray()
        for j in np.unique(ref.owners):
            Qa, _ = np.linalg.qr(Z[:, cs.owners == j])
            Qb, _ = np.linalg.qr(Zref[:, ref.owners == j])
            cosines = np.linalg.svd(Qa.T @ Qb, compute_uv=False)
            assert 1.0 - cosines.min() <= 1e-9, j

    @pytest.mark.parametrize("cells,N,seed,delta,pu,contrast,tau",
                             [case for case in CASES if case[4] == "multiplicity"])
    def test_constant_multiplicity_bands_are_eliminated(self, cells, N, seed, delta, pu,
                                                        contrast, tau):
        # weights 1/2 on both sides of a row give c = 4
        sys, dec = graph_setup(cells, N, seed, delta, pu, contrast)
        assert any((c == 4).any() for c in eliminated_c(coarse.geneo_pencils(sys, dec), tau))
        assert_matches_full_space(coarse.geneo_space(sys, dec, tau=tau),
                                  full_pencil_space(sys, dec, tau))

    @pytest.mark.parametrize("cells,N,seed,delta,pu,contrast,tau", HALF_ROWS)
    def test_boolean_rows_of_c_one_half_are_eliminated(self, cells, N, seed, delta, pu,
                                                       contrast, tau):
        sys, dec = graph_setup(cells, N, seed, delta, pu, contrast)
        # the first computes c = 1/2 + 2 ulp, which the rule takes as it is
        assert any((np.abs(c - 0.5) <= 1e-15).any()
                   for c in eliminated_c(coarse.geneo_pencils(sys, dec), tau))

    @pytest.mark.parametrize("tau", [0.4, 0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("cells,N,seed,delta,pu,contrast",
                             [case[:6] for case in CASES + HALF_ROWS]
                             + [(6, 20, 0, 1, "boolean", None)])
    def test_rows_found_on_the_entries_follow_the_dense_rule(self, monkeypatch, cells, N,
                                                             seed, delta, pu, contrast, tau):
        # _geneo_eig eliminates exactly the rows of the dense rule: the block
        # it factors is B_JJ on those rows, bitwise, and the pencil it solves
        # is on the other rows; the last case holds 13 weightless
        # subdomains, whose pencils are 0 x 0
        sys, dec = graph_setup(cells, N, seed, delta, pu, contrast)
        factored, solved = [], []
        cholesky, sym_gen_eig = scipy.linalg.cholesky, linalg.sym_gen_eig

        def factor(a, **kwargs):
            factored.append(a.copy())
            return cholesky(a, **kwargs)

        def solve(left, right, **kwargs):
            solved.append((left.shape, right.shape))
            return sym_gen_eig(left, right, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cholesky", factor)
        monkeypatch.setattr(linalg, "sym_gen_eig", solve)
        for dofs, d, Nw, Bw in coarse.geneo_pencils(sys, dec):
            inner, _ = dense_rule(Nw, Bw, tau)
            factored.clear()
            solved.clear()
            coarse._geneo_eig(Nw, Bw, tau)
            assert len(factored) == int(inner.any())
            if inner.any():
                assert_bitwise(factored[0], Bw[np.ix_(inner, inner)])
            g = np.count_nonzero(~inner)
            assert solved == [((g, g), (g, g))]

    def test_entry_missing_from_a_keeps_its_row(self):
        # A stores no exact zeros. Dropping a coupling of an eliminated row
        # from A leaves the Neumann entry there unmatched, and the row stays.
        sys, dec = graph_setup(16, 6, 1, 2)
        dofs, d, Nw, Bw = next(coarse.geneo_pencils(sys, dec))
        inner, _ = dense_rule(Nw, Bw, 0.5)
        assert inner.any()
        i = dofs[inner][0]
        k = next(k for k in sys.A[[i]].indices if k != i and k in dofs)
        A = sys.A.tolil()
        A[i, k] = A[k, i] = 0.0
        sys.A = linalg.compress(A)
        dofs, d, Nw, Bw = next(coarse.geneo_pencils(sys, dec))
        inner, _ = dense_rule(Nw, Bw, 0.5)
        assert i not in dofs[inner]

    @pytest.mark.parametrize("cells,N,seed,delta,pu,contrast,tau",
                             [case for case in CASES if case[4] == "boolean"]
                             + [(20, 6, 0, 1, "multiplicity", None, 0.5)])
    def test_rows_of_c_one_only_match_the_equal_row_reduction_bitwise(
            self, cells, N, seed, delta, pu, contrast, tau):
        # Boolean weights leave only rows of c = 1 to eliminate, and so do
        # two pencils of the multiplicity case: their pairs are bitwise
        # those of the reduction to the rows where Nw and Bw differ
        sys, dec = graph_setup(cells, N, seed, delta, pu, contrast)
        checked, columns, values = 0, [], []
        for dofs, d, Nw, Bw in coarse.geneo_pencils(sys, dec):
            inner, c = dense_rule(Nw, Bw, tau)
            c = c[inner]
            if c.size and (c == 1).all():
                checked += 1
                for got, want in zip(coarse._geneo_eig(Nw, Bw, tau), equal_rows_eig(Nw, Bw, tau)):
                    assert_bitwise(got, want)
            if pu == "boolean" and Nw.any():
                lam, V = equal_rows_eig(Nw, Bw, tau)
                block = np.zeros((dec.n_dofs, lam.size))
                block[dofs] = d[:, None] * V
                columns.append(block)
                values.append(lam)
        assert checked == (dec.N if pu == "boolean" else 2)
        if pu == "boolean":
            cs = coarse.geneo_space(sys, dec, tau=tau)
            ref = coarse.CoarseSpace(np.hstack(columns), sys.A, tag="oracle",
                                     eigenvalues=np.concatenate(values))
            assert_bitwise(cs.Z.toarray(), ref.Z.toarray())
            assert_bitwise(cs.eigenvalues, ref.eigenvalues)

    def test_rows_left_over_one_benchmark_pass(self):
        # 26,867 weighted rows in the 128 pencils of one pass at seed 0;
        # the equal rows (c = 1) alone would leave 21,243
        weighted = left = equal_left = 0
        for sys, dec in fem_geneo_pass(0):
            pencils = list(coarse.geneo_pencils(sys, dec))
            for (dofs, *_), c in zip(pencils, eliminated_c(pencils, 0.5)):
                weighted += dofs.size
                left += dofs.size - c.size
                equal_left += dofs.size - np.count_nonzero(c == 1)
        assert (weighted, left, equal_left) == (26867, 16851, 21243)

    def test_extension_is_a_b_orthonormal_eigenbasis(self):
        sys, dec = graph_setup(20, 6, 1, 2)
        for *_, Nw, Bw in coarse.geneo_pencils(sys, dec):
            values, V = coarse._geneo_eig(Nw, Bw, 0.5)
            np.testing.assert_allclose(V.T @ Bw @ V, np.eye(len(values)), atol=1e-12)
            residual = Nw @ V - (Bw @ V) * values
            assert np.abs(residual).max(initial=0.0) <= 1e-11 * np.abs(Nw).max()

    @pytest.mark.parametrize("tau", [1.0, 2.0, 1e3])
    def test_tau_at_least_one_solves_the_full_pencil(self, tau):
        # At tau >= 1 the rows of c = 1 stay; only rows of larger c (4 and
        # about 9 here) are eliminated, and the pairs are the full
        # pencil's. With no row of c > tau (tau = 1e3) the full pencil is
        # solved, bitwise. The eigenvalue 1 of the c = 1 rows is a cluster
        # at tau = 1 that rounding splits either way in either solve.
        sys, dec = graph_setup(16, 6, 1, 2)
        eliminated = []
        for *_, Nw, Bw in coarse.geneo_pencils(sys, dec):
            inner, c = dense_rule(Nw, Bw, tau)
            c = c[inner]
            eliminated.extend(c)
            got = coarse._geneo_eig(Nw, Bw, tau)
            ref = linalg.sym_gen_eig(Nw, Bw, upper=tau)
            if c.size == 0:
                for a, b in zip(got, ref):
                    assert_bitwise(a, b)
            else:
                assert_same_pairs(got, ref, Bw, tau)
        assert all(v > 2 for v in eliminated)
        assert (len(eliminated) > 0) == (tau < 1e3)

    def test_pencil_without_equal_rows_solves_the_full_pencil(self):
        # a diagonal shift of Nw leaves no row a multiple of its row of Bw
        sys, dec = graph_setup(16, 6, 1, 2)
        *_, Nw, Bw = next(coarse.geneo_pencils(sys, dec))
        Nw = Nw + 1e-3 * np.diag(np.diag(Bw))
        assert not dense_rule(Nw, Bw, 0.0)[0].any()
        values, _ = ref = linalg.sym_gen_eig(Nw, Bw, upper=0.5)
        assert values.size > 0
        for got, want in zip(coarse._geneo_eig(Nw, Bw, 0.5), ref):
            assert_bitwise(got, want)

    def test_pencil_of_any_memory_layout(self):
        # the reduction gathers its blocks into new arrays: a C-ordered and
        # a Fortran-ordered pencil are both left untouched, and give the
        # same pairs, bitwise
        sys, dec = graph_setup(16, 6, 1, 2)
        *_, Nw, Bw = next(coarse.geneo_pencils(sys, dec))
        assert dense_rule(Nw, Bw, 0.5)[0].any()
        ref = coarse._geneo_eig(Nw.copy(), Bw.copy(), 0.5)
        assert ref[0].size > 0
        for order in "CF":
            N, B = np.array(Nw, order=order), np.array(Bw, order=order)
            got = coarse._geneo_eig(N, B, 0.5)
            assert_bitwise(N, Nw)
            assert_bitwise(B, Bw)
            for a, b in zip(got, ref):
                assert_bitwise(a, b)

    def test_equal_pencil_has_nothing_below_one(self):
        *_, Nw, Bw = next(coarse.geneo_pencils(*graph_setup(16, 6, 1, 2)))
        values, vectors = coarse._geneo_eig(Bw, Bw, 0.9)
        assert values.shape == (0,) and vectors.shape == (len(Bw), 0)


def dense_hat_matrix(m, r):
    # the dense 1d hat matrix that the sparse grid basis replaced
    i = np.arange(1, m + 1)
    J = np.arange(1, (m + 1) // r) * r
    return np.maximum(0.0, 1.0 - np.abs(i[:, None] - J[None, :]) / r)


def dense_geneo_basis(system, dec, tau):
    # the dense scatter of the kept D_j phi blocks that the sparse GenEO
    # basis replaced, from the same pencils and eigensolve
    columns = []
    for dofs, d, Nw, Bw in coarse.geneo_pencils(system, dec):
        values, vectors = coarse._geneo_eig(Nw, Bw, tau)
        block = np.zeros((dec.n_dofs, len(values)))
        block[dofs] = d[:, None] * vectors
        columns.append(block)
    return np.hstack(columns)


class TestSparseBasis:
    """Every builder hands CoarseSpace a sparse basis equal to the dense one."""

    @pytest.mark.parametrize("m,ratio", [(7, 2), (15, 4), (11, 3), (6, 1)])
    def test_grid_basis_matches_dense_bitwise(self, m, ratio):
        for sys in (discretize.poisson_1d(m), discretize.poisson_2d_fd(m, m)):
            cs = coarse.grid_space(sys.A, sys.grid, ratio * sys.h)
            hat = dense_hat_matrix(m, ratio)
            ref = hat if sys.grid.dim == 1 else np.kron(hat, hat)
            assert sp.issparse(cs.Z) and cs.Z.format == "csc"
            assert cs.Z.nnz == np.count_nonzero(ref)
            np.testing.assert_array_equal(cs.Z.toarray(), ref)

    @pytest.mark.parametrize("cells,N,seed,pu,tau", [
        (16, 6, 1, "multiplicity", 0.5), (16, 6, 2, "boolean", 0.4)])
    def test_geneo_basis_matches_dense_bitwise(self, cells, N, seed, pu, tau):
        sys, dec = graph_setup(cells, N, seed, 2, pu)
        cs = coarse.geneo_space(sys, dec, tau=tau)
        ref = dense_geneo_basis(sys, dec, tau)
        assert sp.issparse(cs.Z) and cs.Z.format == "csc"
        assert cs.m0 == cs.raw_columns == ref.shape[1]
        np.testing.assert_array_equal(cs.Z.toarray(), ref)

    @staticmethod
    def spaces():
        sys, dec = graph_setup(12, 5, 3, 1)
        rng = np.random.default_rng(4)
        Zc = rng.standard_normal((sys.n, 6)) + 1j * rng.standard_normal((sys.n, 6))
        fd = discretize.poisson_2d_fd(11, 11)
        yield sys.n, coarse.nicolaides_space(sys.A, dec)
        yield sys.n, coarse.geneo_space(sys, dec, tau=0.5)
        yield sys.n, coarse.CoarseSpace(Zc, sys.A, tag="complex")
        yield fd.n, coarse.grid_space(fd.A, fd.grid, 3 * fd.h)

    def test_solves_match_dense_basis(self):
        # the sparse products against dense ones through the same factor
        rng = np.random.default_rng(9)
        for n, cs in self.spaces():
            Zd = cs.Z.toarray()
            v = rng.standard_normal(n)
            V = rng.standard_normal((n, 5))
            for r in (v, V, V + 1j * V[::-1]):
                coef = cs.A0.solve(Zd.conj().T @ r)
                for got, ref in ((cs.solve_coefficients(r), coef),
                                 (cs.apply_Q(r), Zd @ coef)):
                    assert got.shape == ref.shape and got.dtype == ref.dtype
                    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max(), cs.tag

    def test_nicolaides_setup_keeps_no_dense_basis(self):
        # No n x m array is formed, not even a transient one for the rank
        # filter: peak below 0.5x one such float64 array, and below 0.1x
        # of it left allocated once the space is built.
        sys = discretize.poisson_2d_fd(120, 120)
        part = decompose.cartesian_partition(sys.grid, 6, 6)
        dec = decompose.expand_overlap(sys.A, part, 2)
        dense = dec.n_dofs * dec.N * 8
        tracemalloc.start()
        try:
            cs = coarse.nicolaides_space(sys.A, dec)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cs.m0 == dec.N
        assert peak < 0.5 * dense
        assert retained < 0.1 * dense


def traced(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its tracemalloc peak and the bytes it left allocated."""
    tracemalloc.start()
    try:
        out = fn(*args, **kwargs)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak, kept


def sparse_bytes(M):
    return M.data.nbytes + M.indices.nbytes + M.indptr.nbytes


class TestLeanSetup:
    """Index dtypes and transient memory of the setup stages."""

    def test_stage_peaks_stay_near_what_they_keep(self):
        # Each stage's tracemalloc peak against the bytes it keeps (the
        # factorization against its input B). The ratios are about 1.6,
        # 1.2, 1.9 and 1.7 here; int64 indices, per-direction triplet
        # lists, full-length int64 lookup keys or full byte copies of B
        # put each of them at 2.3 or more.
        sys, peak, kept = traced(discretize.poisson_2d_fd, 120, 120)
        assert peak < 2.0 * kept, (peak, kept)
        part = decompose.cartesian_partition(sys.grid, 6, 6)
        dec, peak, kept = traced(decompose.expand_overlap, sys.A, part, 2)
        assert peak < 1.6 * kept, (peak, kept)
        B, peak, kept = traced(schwarz.local_operator, sys.A, dec)
        assert peak < 2.4 * kept, (peak, kept)
        _, peak, _ = traced(linalg.auto_factor, B, blocks=dec.offsets)
        assert peak < 2.2 * sparse_bytes(B), (peak, sparse_bytes(B))

    @pytest.mark.parametrize("setup", ["fd", "fem"])
    def test_int32_indices_throughout(self, setup):
        # every index array fits in int32, so every one is int32: a single
        # int64 operand would turn the products that meet it to int64
        if setup == "fd":
            sys = discretize.poisson_2d_fd(120, 120)
            part = decompose.cartesian_partition(sys.grid, 6, 6)
            dec = decompose.expand_overlap(sys.A, part, 2)
            Z = coarse.nicolaides_space(sys.A, dec).Z
        else:
            sys, dec = graph_setup(16, 6, 1, 2)
            Z = coarse.geneo_space(sys, dec, tau=0.5).Z
        B = schwarz.local_operator(sys.A, dec)
        robin = schwarz.local_operator(sys.A, dec, kind="robin", h=sys.h, dim=2)
        for M in (sys.A, dec.R, B, robin, dec.graph, Z):
            assert M.indices.dtype == M.indptr.dtype == np.int32
        assert dec.row_block.dtype == np.int32


class TestNicolaides:
    def test_hand_columns(self):
        sys, dec = poisson_setup(5, 2, 1)
        cs = coarse.nicolaides_space(sys.A, dec)
        assert cs.tag == "nicolaides"
        Z = cs.Z.toarray()
        np.testing.assert_allclose(Z[:, 0], [1, 1, 0.5, 0.5, 0], atol=1e-15)
        np.testing.assert_allclose(Z[:, 1], [0, 0, 0.5, 0.5, 1], atol=1e-15)

    def test_columns_sum_to_one(self):
        sys = discretize.poisson_2d_fd(9, 9)
        part = decompose.cartesian_partition(sys.grid, 3, 2)
        dec = decompose.expand_overlap(sys.A, part, 2)
        cs = coarse.nicolaides_space(sys.A, dec)
        np.testing.assert_allclose(cs.Z.sum(axis=1), np.ones(sys.n), atol=1e-14)

    def test_zero_weight_subdomain_rejected(self):
        sys = discretize.poisson_1d(3)
        dec = decompose.expand_overlap(sys.A, [0, 0, 1], 1)
        dec = decompose.boolean_pu(dec)
        # Subdomain 0 covers everything, so subdomain 1 owns no dof.
        assert np.all(dec.weights[1] == 0)
        with pytest.raises(ValueError):
            coarse.nicolaides_space(sys.A, dec)


class TestGridSpace:
    def test_hand_hats_1d(self):
        sys = discretize.poisson_1d(7)
        H = 2 * sys.h
        cs = coarse.grid_space(sys.A, sys.grid, H)
        assert cs.Z.shape == (7, 3)
        Z = cs.Z.toarray()
        np.testing.assert_allclose(Z[:, 0], [0.5, 1, 0.5, 0, 0, 0, 0], atol=1e-14)
        np.testing.assert_allclose(Z[:, 1], [0, 0, 0.5, 1, 0.5, 0, 0], atol=1e-14)
        np.testing.assert_allclose(Z[:, 2], [0, 0, 0, 0, 0.5, 1, 0.5], atol=1e-14)

    @pytest.mark.parametrize("m,ratio", [(15, 2), (15, 4), (11, 3)])
    def test_galerkin_coarsening_identity_1d(self, m, ratio):
        sys = discretize.poisson_1d(m)
        H = ratio * sys.h
        cs = coarse.grid_space(sys.A, sys.grid, H)
        m0 = (m + 1) // ratio - 1
        coarse_sys = discretize.poisson_1d(m0)
        A0 = cs.Z.T @ sys.A.toarray() @ cs.Z
        np.testing.assert_allclose(
            A0, ratio * coarse_sys.A.toarray(), atol=1e-10
        )

    def test_identity_when_same_spacing(self):
        sys = discretize.poisson_1d(6)
        cs = coarse.grid_space(sys.A, sys.grid, sys.h)
        np.testing.assert_allclose(cs.Z.toarray(), np.eye(6), atol=0)

    def test_bilinear_2d(self):
        sys = discretize.poisson_2d_fd(7, 7)
        cs = coarse.grid_space(sys.A, sys.grid, 2 * sys.h)
        assert cs.Z.shape == (49, 9)
        # Coarse node (1,1) sits at fine node (3,3); the fine dof (2,2)
        # is one step diagonally away, so it gets weight 1/2 * 1/2.
        col = 1 * 3 + 1
        row_exact = 3 * 7 + 3
        row_diag = 2 * 7 + 2
        assert cs.Z[row_exact, col] == pytest.approx(1.0)
        assert cs.Z[row_diag, col] == pytest.approx(0.25)
        A0 = cs.Z.T @ sys.A.toarray() @ cs.Z
        vals = np.linalg.eigvalsh(A0)
        assert vals[0] > 0

    def test_indefinite_helmholtz_keeps_every_column(self):
        # At xi = 0 the coarse operator is indefinite: pivoted Cholesky of
        # Z^H A Z keeps no column, the filter on Z^H Z keeps all nine.
        grid = discretize.StructuredGrid(2, nx=15, ny=15)
        sys = discretize.helmholtz_2d(grid, omega=10.0, xi=0.0)
        cs = coarse.grid_space(sys.A, sys.grid, 4 * sys.h)
        assert cs.raw_columns == cs.m0 == 9
        A0 = (cs.Z.T @ (sys.A @ cs.Z)).toarray()
        vals = np.linalg.eigvalsh(A0)
        assert vals[0] < 0 < vals[-1]
        assert scipy.linalg.lapack.dpstrf(A0)[2] == 0

    def test_invalid_spacing_rejected(self):
        sys = discretize.poisson_1d(7)
        with pytest.raises(ValueError):
            coarse.grid_space(sys.A, sys.grid, 2.4 * sys.h)
        with pytest.raises(ValueError):
            coarse.grid_space(sys.A, sys.grid, 8 * sys.h)


class TestCoarseSpaceMechanics:
    def test_rank_filter_keeps_original_columns(self):
        sys, dec = poisson_setup(5, 2, 1)
        c1 = np.array([1.0, 1, 0.5, 0.5, 0])
        c2 = np.array([0.0, 0, 0.5, 0.5, 1])
        Z = np.column_stack([c1, c2, c1])
        cs = coarse.CoarseSpace(Z, sys.A, tag="manual")
        assert cs.raw_columns == 3
        assert cs.Z.shape == (5, 2)
        Z = cs.Z.toarray()
        np.testing.assert_allclose(Z[:, 0], c1, atol=0)
        np.testing.assert_allclose(Z[:, 1], c2, atol=0)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rank_filter_on_random_low_rank_bases(self, dtype):
        # Rank-r columns plus exact duplicates, scaled copies, and two
        # copies moved off range(Z) by 10x and 1/10x the filter's relative
        # distance sqrt(m eps). np.linalg.matrix_rank (an SVD) at that
        # tolerance is the oracle.
        rng = np.random.default_rng(11)

        def draw(*shape):
            x = rng.standard_normal(shape)
            return x + 1j * rng.standard_normal(shape) if dtype is complex else x

        for _ in range(40):
            n, r = 40, int(rng.integers(1, 8))
            Q, _ = np.linalg.qr(draw(n, r + 2))
            cols = list((Q[:, :r] @ draw(r, r + int(rng.integers(0, 4)))).T)
            for _ in range(int(rng.integers(1, 4))):
                cols.append(cols[rng.integers(len(cols))].copy())
                c = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
                cols.append(c * cols[rng.integers(len(cols))])
            m = len(cols) + 2
            tol = rank_tolerance(m) * max(np.linalg.norm(c) for c in cols)
            cols.append(cols[rng.integers(len(cols))] + 10 * tol * Q[:, r])
            cols.append(cols[rng.integers(len(cols))] + tol / 10 * Q[:, r + 1])
            Z = np.column_stack([cols[i] for i in rng.permutation(m)])

            keep, min_pivot = coarse._independent_columns(sp.csc_array(Z))
            assert np.all(np.diff(keep) > 0)
            rank = np.linalg.matrix_rank(Z, tol=tol)
            assert rank == r + 1
            assert len(keep) == rank
            assert np.linalg.matrix_rank(Z[:, keep], tol=tol) == rank
            assert np.linalg.matrix_rank(np.column_stack([Z[:, keep], Z]),
                                         tol=tol) == rank
            # the 10x column's pivot is about (10 sqrt(m eps))^2 = 100 m eps
            assert m * np.finfo(float).eps < min_pivot
            # Of equal columns only the lowest index may be kept.
            for j in range(Z.shape[1]):
                if (Z[:, :j] == Z[:, [j]]).all(axis=0).any():
                    assert j not in keep

    @pytest.mark.parametrize("canonical", [True, False])
    def test_first_copy_kept_regardless_of_storage(self, canonical):
        # Later copies are stored with reversed rows, and with a split
        # (duplicate) entry and an explicit zero: they are still copies,
        # whether the basis comes as stored or in canonical form.
        rng = np.random.default_rng(3)
        a, b = rng.integers(1, 6, (2, 8)) * rng.choice([-1.0, 1.0], (2, 8))
        b[6:] = 0.0
        Z = np.column_stack([2 * a, a, b, a, b, a + b])
        entries = [(np.flatnonzero(c), c[c != 0]) for c in Z.T]
        entries[3] = (entries[3][0][::-1], entries[3][1][::-1])
        entries[4] = (np.r_[0, 0, 5:0:-1, 6],
                      np.r_[b[0] / 2, b[0] / 2, b[5:0:-1], 0.0])
        S = sp.csc_array((np.concatenate([v for _, v in entries]),
                          np.concatenate([i for i, _ in entries]),
                          np.cumsum([0] + [len(i) for i, _ in entries])),
                         shape=Z.shape)
        np.testing.assert_array_equal(S.toarray(), Z)
        if canonical:
            S.sum_duplicates()
            S.eliminate_zeros()
            np.testing.assert_array_equal(S.toarray(), Z)
        assert S.has_canonical_format == canonical
        for basis in (S, sp.csc_array(Z.astype(np.int64)),
                      sp.csc_array(Z * (1 + 2j))):
            keep, _ = coarse._independent_columns(basis)
            assert len(keep) == 2 and not {3, 4} & set(keep)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_copies_found_whatever_the_summation_order(self, dtype):
        # Random entries, unlike small integers, sum to different floats in
        # a different order. A copy stored with reversed rows, or with a
        # split entry, is still found, so column 0 is the one kept.
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = rng.standard_normal(12)
            if dtype is complex:
                a = a + 1j * rng.standard_normal(12)
            rows = np.arange(12)
            S = sp.csc_array((np.r_[a, a[::-1], a[0] / 2, a[0] / 2, a[1:]],
                              np.r_[rows, rows[::-1], 0, rows],
                              [0, 12, 24, 37]), shape=(12, 3))
            keep, min_pivot = coarse._independent_columns(S)
            np.testing.assert_array_equal(keep, [0])
            assert min_pivot == pytest.approx(1.0)

    def test_builders_keep_the_first_of_copied_subdomains(self):
        # Overlap 6 grows each of the three graph regions of FEM 6x6 cells
        # to all 25 dofs, with equal multiplicity weights: the builders
        # emit one set of columns per subdomain, and the later two sets
        # copy the first exactly.
        sys, dec = graph_setup(6, 3, 0, 6)
        assert sys.n == 25
        for i in range(3):
            np.testing.assert_array_equal(dec.sets[i], np.arange(25))
            assert_bitwise(dec.weights[i], dec.weights[0])
        cs = coarse.nicolaides_space(sys.A, dec)
        assert (cs.raw_columns, cs.m0) == (3, 1)
        np.testing.assert_array_equal(cs.owners, [0])
        cs = coarse.geneo_space(sys, dec, tau=50)
        assert (cs.raw_columns, cs.m0) == (75, 25)
        np.testing.assert_array_equal(cs.owners, np.zeros(25))
        assert cs.min_pivot == pytest.approx(0.1639, abs=1e-4)

    def test_kept_set_is_a_property_of_the_basis(self):
        # The filter reads Z alone: an SPD A, -A, a complex-symmetric A and
        # the identity keep the same columns, with the same values.
        sys = discretize.poisson_2d_fd(7, 7)
        rng = np.random.default_rng(8)
        Z = rng.standard_normal((sys.n, 5)) @ rng.standard_normal((5, 9))
        Z = np.column_stack([Z, Z[:, 2], Z[:, 0] + 1e-3 * rng.standard_normal(sys.n)])
        keep, _ = coarse._independent_columns(sp.csc_array(Z))
        assert len(keep) == 6 and 9 not in keep
        shift = sp.diags_array(1j * rng.uniform(1, 2, sys.n))
        for A in (sys.A, -sys.A, sys.A + shift, sp.eye_array(sys.n)):
            cs = coarse.CoarseSpace(Z, A, tag="random")
            assert cs.raw_columns == 11
            assert_bitwise(cs.Z.toarray(), Z[:, keep])
        assert coarse.CoarseSpace(Z, -sys.A, tag="random").A0.kind == "lu"

    def test_singular_coarse_operator_names_the_column(self):
        # Z has full rank, so the filter keeps every column, but A is
        # indefinite and z = e0 + e1 has z^H A z = 0 and is A-orthogonal to
        # the others: Z^H A Z is exactly singular and fails Cholesky and LU.
        # The error names the candidate column of the zero LU pivot.
        rng = np.random.default_rng(5)
        n, r = 40, 4
        Z = np.zeros((n, r + 2))
        Z[2:, :r] = rng.standard_normal((n - 2, r))
        Z[:, r] = Z[:, 1]
        Z[:2, r + 1] = 1.0
        A = sp.diags_array(np.r_[1.0, -1.0, np.ones(n - 2)])
        order = rng.permutation(r + 2)
        Z = Z[:, order]
        z = int(np.flatnonzero(order == r + 1)[0])
        with pytest.raises(linalg.SingularMatrixError,
                           match=r"^random: .* candidate column (\d+) of 6 "
                                 r"candidates \(5 kept\)") as err:
            coarse.CoarseSpace(Z, A, tag="random")
        column = int(re.search(r"candidate column (\d+)", str(err.value))[1])
        keep, _ = coarse._independent_columns(sp.csc_array(Z))
        assert column == keep[err.value.__cause__.column] == z
        # without that column the coarse operator factorizes
        cs = coarse.CoarseSpace(np.delete(Z, column, axis=1), A, tag="random")
        assert cs.m0 == r and cs.A0.kind == "cholesky"

    def test_all_zero_columns_rejected(self):
        sys, dec = poisson_setup(5, 2, 1)
        with pytest.raises(coarse.EmptyCoarseSpaceError):
            coarse.CoarseSpace(np.zeros((5, 2)), sys.A, tag="manual")

    def test_coarse_solve_matches_dense(self):
        sys, dec = poisson_setup(9, 3, 1)
        cs = coarse.nicolaides_space(sys.A, dec)
        Ad = sys.A.toarray()
        Z = cs.Z.toarray()
        Qd = Z @ np.linalg.solve(Z.T @ Ad @ Z, Z.T)
        r = np.random.default_rng(7).standard_normal(9)
        np.testing.assert_allclose(cs.apply_Q(r), Qd @ r, atol=1e-11)

    def test_projection_identities(self):
        sys, dec = poisson_setup(12, 3, 1)
        cs = coarse.nicolaides_space(sys.A, dec)
        Ad = sys.A.toarray()
        Qd = np.column_stack([cs.apply_Q(col) for col in np.eye(12)])
        P0 = Qd @ Ad
        scale = np.max(np.abs(P0))
        assert np.max(np.abs(P0 @ P0 - P0)) <= 1e-10 * scale
        assert np.max(np.abs(Ad @ Qd - P0.T)) <= 1e-10 * np.max(np.abs(Ad @ Qd))

    def test_correction_solves_normal_equations(self):
        sys, dec = poisson_setup(10, 2, 1)
        cs = coarse.nicolaides_space(sys.A, dec)
        Ad = sys.A.toarray()
        x_star = np.linalg.solve(Ad, sys.F)
        y = np.linspace(-1, 1, 10)
        L = np.linalg.cholesky(Ad)
        c_opt, *_ = np.linalg.lstsq(L.T @ cs.Z, L.T @ (x_star - y), rcond=None)
        c_got = cs.solve_coefficients(sys.F - Ad @ y)
        np.testing.assert_allclose(c_got, c_opt, atol=1e-8)


class TestCombinators:
    def dense_pieces(self):
        sys, dec = poisson_setup(9, 3, 1)
        M1 = schwarz.one_level(sys.A, dec, "asm")
        cs = coarse.nicolaides_space(sys.A, dec)
        Ad = sys.A.toarray()
        M1d = np.column_stack([M1.apply(col) for col in np.eye(9)])
        Z = cs.Z.toarray()
        Qd = Z @ np.linalg.solve(Z.T @ Ad @ Z, Z.T)
        return sys, dec, M1, cs, Ad, M1d, Qd

    def test_all_formulas_match_dense(self):
        sys, dec, M1, cs, Ad, M1d, Qd = self.dense_pieces()
        eye = np.eye(9)
        expected = {
            "ad": M1d + Qd,
            "bnn": (eye - Qd @ Ad) @ M1d @ (eye - Ad @ Qd) + Qd,
            "adef1": M1d @ (eye - Ad @ Qd) + Qd,
            "adef2": (eye - Qd @ Ad) @ M1d + Qd,
            "rbnn1": (eye - Qd @ Ad) @ M1d @ (eye - Ad @ Qd),
            "rbnn2": (eye - Qd @ Ad) @ M1d,
            "none": M1d,
        }
        r = np.random.default_rng(11).standard_normal(9)
        for name, ref in expected.items():
            M2 = coarse.TwoLevelPreconditioner(M1, cs.apply_Q, sys.A, combinator=name)
            np.testing.assert_allclose(M2.apply(r), ref @ r, atol=1e-10,
                                       err_msg=name)

    def test_default_combinator_is_adef1(self):
        sys, dec, M1, cs, Ad, M1d, Qd = self.dense_pieces()
        M2 = coarse.TwoLevelPreconditioner(M1, cs.apply_Q, sys.A)
        r = np.ones(9)
        ref = M1d @ (np.eye(9) - Ad @ Qd) @ r + Qd @ r
        np.testing.assert_allclose(M2.apply(r), ref, atol=1e-10)

    def test_unknown_combinator_rejected(self):
        sys, dec, M1, cs, *_ = self.dense_pieces()
        with pytest.raises(ValueError):
            coarse.TwoLevelPreconditioner(M1, cs.apply_Q, sys.A, combinator="extra")

    def test_coarse_space_is_not_a_coarse_solve(self):
        sys, dec, M1, cs, *_ = self.dense_pieces()
        with pytest.raises(TypeError, match="CoarseSpace"):
            coarse.TwoLevelPreconditioner(M1, cs, sys.A)

    def test_full_coarse_space_degenerates_to_direct_solve(self):
        sys, dec = poisson_setup(8, 2, 1)
        M1 = schwarz.one_level(sys.A, dec, "asm")
        cs = coarse.grid_space(sys.A, sys.grid, sys.h)
        x_ref = np.linalg.solve(sys.A.toarray(), sys.F)
        for name in ("adef1", "bnn", "adef2"):
            M2 = coarse.TwoLevelPreconditioner(M1, cs.apply_Q, sys.A, combinator=name)
            np.testing.assert_allclose(M2.apply(sys.F), x_ref, atol=1e-9,
                                       err_msg=name)
        M2 = coarse.TwoLevelPreconditioner(M1, cs.apply_Q, sys.A, combinator="rbnn2")
        assert np.linalg.norm(M2.apply(sys.F)) <= 1e-9 * np.linalg.norm(x_ref)

    @staticmethod
    def scaling_iterations(n_sub, with_coarse):
        m = 6 * n_sub
        sys = discretize.poisson_1d(m)
        part = decompose.cartesian_partition(m, n_sub)
        dec = decompose.expand_overlap(sys.A, part, 1)
        M = schwarz.one_level(sys.A, dec, "asm")
        if with_coarse:
            cs = coarse.nicolaides_space(sys.A, dec)
            M = coarse.TwoLevelPreconditioner(M, cs.apply_Q, sys.A, combinator="ad")
        _, rep = krylov.pcg(sys.A, sys.F, M, tol=1e-6, maxit=2000)
        assert rep.converged
        return rep.iterations

    def test_coarse_level_removes_subdomain_count_growth(self):
        # Weak scaling with a fixed subdomain size: the one-level count
        # keeps growing with the subdomain count, the two-level count
        # saturates below it.
        one16 = self.scaling_iterations(16, False)
        one64 = self.scaling_iterations(64, False)
        two16 = self.scaling_iterations(16, True)
        two64 = self.scaling_iterations(64, True)
        assert one64 >= 2.5 * one16
        assert two64 <= 1.5 * two16
        assert two64 < one64

    def test_deflated_start_makes_projection_combinators_cg_safe(self):
        sys = discretize.poisson_2d_fd(20, 20)
        part = decompose.cartesian_partition(sys.grid, 4, 4)
        dec = decompose.expand_overlap(sys.A, part, 1)
        M1 = schwarz.one_level(sys.A, dec, "asm")
        cs = coarse.nicolaides_space(sys.A, dec)
        x_ref = np.linalg.solve(sys.A.toarray(), sys.F)
        _, rep_bnn = krylov.pcg(
            sys.A, sys.F, coarse.TwoLevelPreconditioner(M1, cs.apply_Q, sys.A, "bnn"),
            tol=1e-8, maxit=400,
        )
        assert rep_bnn.converged
        x0 = cs.apply_Q(sys.F)
        for name in ("adef2", "rbnn1", "rbnn2"):
            M2 = coarse.TwoLevelPreconditioner(M1, cs.apply_Q, sys.A, combinator=name)
            x, rep = krylov.pcg(sys.A, sys.F, M2, x0=x0, tol=1e-8, maxit=400)
            assert rep.converged, name
            assert rep.iterations <= rep_bnn.iterations + 2, name
            err = np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref)
            assert err <= 1e-7, name

    def test_adef1_pairs_with_gmres(self):
        sys = discretize.poisson_2d_fd(20, 20)
        part = decompose.cartesian_partition(sys.grid, 4, 4)
        dec = decompose.expand_overlap(sys.A, part, 1)
        M1 = schwarz.one_level(sys.A, dec, "asm")
        cs = coarse.nicolaides_space(sys.A, dec)
        M2 = coarse.TwoLevelPreconditioner(M1, cs.apply_Q, sys.A, combinator="adef1")
        _, rep2 = krylov.gmres(sys.A, sys.F, M2, side="right", tol=1e-8)
        _, rep1 = krylov.gmres(sys.A, sys.F, M1, side="right", tol=1e-8)
        assert rep2.converged
        assert rep2.iterations <= rep1.iterations


class TestBlockApply:
    """Coarse solves and two-level applies map an (n, k) block by columns."""

    @pytest.fixture(scope="class", params=["nicolaides", "geneo"])
    def two_level_pieces(self, request):
        sys, dec = graph_setup(10, 5, 3, 1)
        if request.param == "nicolaides":
            cs = coarse.nicolaides_space(sys.A, dec)
        else:
            cs = coarse.geneo_space(sys, dec, tau=0.5)
        M1 = schwarz.one_level(sys.A, dec, "ras")
        V = np.random.default_rng(6).standard_normal((sys.n, 7))
        return sys, cs, M1, V

    @pytest.mark.parametrize("combinator", coarse.COMBINATORS)
    def test_combinators_match_column_loop(self, two_level_pieces, combinator):
        sys, cs, M1, V = two_level_pieces
        M = coarse.TwoLevelPreconditioner(M1, cs.apply_Q, sys.A, combinator=combinator)
        assert_block_matches_columns(M.apply, V)
        assert_block_matches_columns(M.apply, np.eye(sys.n))

    @pytest.mark.parametrize("combinator", coarse.COMBINATORS)
    def test_any_callable_serves_as_coarse_solve(self, two_level_pieces,
                                                 combinator):
        sys, cs, M1, V = two_level_pieces
        bound = coarse.TwoLevelPreconditioner(M1, cs.apply_Q, sys.A, combinator)
        plain = coarse.TwoLevelPreconditioner(M1, lambda r: cs.apply_Q(r), sys.A,
                                              combinator)
        for r in (V[:, 0], V):
            assert np.array_equal(bound.apply(r), plain.apply(r))

    def test_apply_Q_matches_column_loop(self, two_level_pieces):
        sys, cs, M1, V = two_level_pieces
        assert cs.m0 > 1
        assert_block_matches_columns(cs.apply_Q, V)
        assert_block_matches_columns(cs.solve_coefficients, V)
        assert_block_matches_columns(cs.apply_Q, V + 1j * V[::-1])

    def test_bad_shapes_rejected(self, two_level_pieces):
        sys, cs, M1, V = two_level_pieces
        n = sys.n
        for combinator in coarse.COMBINATORS:
            M = coarse.TwoLevelPreconditioner(M1, cs.apply_Q, sys.A, combinator=combinator)
            for shape in [(n - 1,), (n + 1, 2), (n, 2, 2)]:
                with pytest.raises(ValueError):
                    M.apply(np.ones(shape))
        # (m0, n, 2) would broadcast through Z^H @ r as a stack of blocks
        for shape in [(n - 1,), (n + 1, 2), (n, 2, 2), (cs.m0, n, 2)]:
            with pytest.raises(ValueError):
                cs.apply_Q(np.ones(shape))


class TestGeneo:
    def test_select_all_spans_everything(self, monkeypatch):
        # raw > n: the pivot order decides the kept set, which must span
        # the candidates at the filter's tolerance (an SVD oracle)
        calls = []

        def recorded(Z, real=coarse._independent_columns):
            calls.append((Z.toarray(), real(Z)))
            return calls[-1][1]

        monkeypatch.setattr(coarse, "_independent_columns", recorded)
        sys, dec = fem_setup(6, 2, 2, 1)
        cs = coarse.geneo_space(sys, dec, tau=1e12)
        assert cs.raw_columns == sum(len(s) for s in dec.sets)
        assert cs.Z.shape[1] == sys.n
        (Z, (keep, _)), = calls
        assert Z.shape[1] > Z.shape[0]
        assert np.all(np.diff(keep) > 0)
        tol = rank_tolerance(Z.shape[1]) * np.linalg.norm(Z, axis=0).max()
        assert np.linalg.matrix_rank(Z[:, keep], tol=tol) == len(keep) == sys.n
        np.testing.assert_array_equal(cs.Z.toarray(), Z[:, keep])
        r = np.random.default_rng(2).standard_normal(sys.n)
        np.testing.assert_allclose(
            cs.apply_Q(r),
            np.linalg.solve(sys.A.toarray(), r),
            atol=1e-7,
        )

    def test_tiny_threshold_empty(self):
        sys, dec = fem_setup(6, 2, 2, 1)
        with pytest.raises(coarse.EmptyCoarseSpaceError):
            coarse.geneo_space(sys, dec, tau=1e-13)

    def test_floating_subdomain_contributes_its_kernel(self):
        sys, dec = fem_setup(9, 3, 3, 1)
        cs = coarse.geneo_space(sys, dec, tau=1e-6)
        # The centre subdomain (index 4) floats: its Neumann matrix keeps
        # constants in the kernel, so it must contribute exactly the
        # weighted indicator column regardless of the threshold.
        owners = cs.owners
        assert 4 in owners
        cols = np.flatnonzero(owners == 4)
        assert len(cols) == 1
        Z = cs.Z.toarray()
        got = Z[:, cols[0]]
        ref = np.zeros(sys.n)
        ref[dec.sets[4]] = dec.weights[4]
        got = got / np.linalg.norm(got)
        ref = ref / np.linalg.norm(ref)
        if np.dot(got, ref) < 0:
            got = -got
        np.testing.assert_allclose(got, ref, atol=1e-8)
        outside = np.setdiff1d(np.arange(sys.n), dec.sets[4])
        assert np.all(Z[outside, cols[0]] == 0)

    def test_selected_eigenvalues_respect_threshold(self):
        sys, dec = fem_setup(8, 2, 2, 1)
        tau = 0.7
        cs = coarse.geneo_space(sys, dec, tau=tau)
        assert np.all(cs.eigenvalues <= tau + 1e-12)
        assert cs.tau == tau

    def test_auto_threshold_uses_geometry(self):
        # A 3x3 layout keeps the centre subdomain floating, so the coarse
        # space is nonempty for any positive threshold.
        sys, dec = fem_setup(9, 3, 3, 1)
        cs = coarse.geneo_space(sys, dec, tau="auto")
        expected = 1.0 / max(dec.H[j] / dec.overlap_width for j in range(dec.N))
        assert cs.tau == pytest.approx(expected)

    def test_auto_threshold_without_geometry_rejected(self):
        # Without coords or h the geometry statistics are NaN; the
        # threshold must not silently become NaN.
        sys, geo = fem_setup(12, 3, 3, 1)
        for kwargs in ({}, {"coords": sys.coords}, {"h": sys.h}):
            dec = decompose.expand_overlap(sys.A, geo.owner, 1, **kwargs)
            with pytest.raises(ValueError, match="tau='auto'"):
                coarse.geneo_space(sys, dec, tau="auto")

    def test_auto_threshold_without_overlap_rejected(self):
        # with overlap 0 the aspect ratio H_j / overlap_width divides by zero
        sys, dec = fem_setup(9, 3, 3, 0)
        assert dec.overlap_width == 0
        with pytest.raises(ValueError, match="tau='auto' needs a positive overlap"):
            coarse.geneo_space(sys, dec, tau="auto")
        assert coarse.geneo_space(sys, dec, tau=0.5).m0 > 0

    def test_nan_threshold_rejected(self):
        sys, dec = fem_setup(8, 2, 2, 1)
        with pytest.raises(ValueError, match="threshold must be positive, got nan"):
            coarse.geneo_space(sys, dec, tau=float("nan"))

    def test_auto_threshold_of_point_subdomains_rejected(self):
        # one interior dof: H_j = 0 and the threshold 1 / 0 would be infinite
        sys, dec = fem_setup(2, 1, 1, 1)
        assert sys.n == 1 and not dec.H.any()
        with pytest.raises(ValueError, match="tau='auto' needs a subdomain of "
                                             "positive diameter"):
            coarse.geneo_space(sys, dec, tau="auto")

    def test_subdomain_touching_no_dof_is_skipped(self):
        # its Neumann matrix is zero, so every direction would have
        # lambda = 0; the subdomain contributes no column instead
        sys, dec = centre_alone_setup()
        cs = coarse.geneo_space(sys, dec, tau=1e12)
        np.testing.assert_array_equal(cs.owners, np.zeros(8))

    def test_neumann_count_must_match_subdomains(self):
        # The Neumann matrices come from the system's own mesh, so a system
        # on other dofs than the decomposition's is rejected by name.
        sys, dec = fem_setup(8, 2, 2, 1)
        for cells in (7, 9):
            other = discretize.diffusion_fem_2d(
                discretize.unit_square_mesh(cells, cells), lambda xy: 1.0)
            with pytest.raises(ValueError, match=(
                    f"system has {other.n} DoFs but the decomposition covers 49")):
                coarse.geneo_space(other, dec, tau=0.5)

    def test_element_sets_cover_mesh(self):
        sys, dec = fem_setup(8, 2, 2, 2)
        sets = coarse.subdomain_element_sets(sys, dec)
        hit = np.zeros(len(sys.mesh.triangles), dtype=int)
        for es in sets:
            hit[es] += 1
        assert np.all(hit >= 1)

    def test_boolean_weights_drop_infinite_modes(self):
        sys, dec = fem_setup(6, 2, 2, 1)
        dec_bool = decompose.boolean_pu(dec)
        cs = coarse.geneo_space(sys, dec_bool, tau=1e12)
        # Zero-weight dofs make the weighted matrix singular; its kernel
        # vectors carry Neumann energy, so they are infinite-eigenvalue
        # modes and must not enter the basis even with a huge threshold.
        expected = sum(int(np.count_nonzero(w)) for w in dec_bool.weights)
        assert cs.raw_columns == expected
        assert expected < sum(len(s) for s in dec_bool.sets)

    def test_geneo_requires_fem_system(self):
        sys = discretize.poisson_2d_fd(6, 6)
        part = decompose.cartesian_partition(sys.grid, 2, 2)
        dec = decompose.expand_overlap(sys.A, part, 1)
        with pytest.raises(discretize.UnsupportedProblemError, match="has no mesh"):
            coarse.geneo_space(sys, dec, tau=0.5)
        with pytest.raises(discretize.UnsupportedProblemError, match="has no mesh"):
            coarse.geneo_pencils(sys, dec)
