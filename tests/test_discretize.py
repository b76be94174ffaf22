"""Oracle tests for the model-problem assembly routines.

The finite-difference matrices are checked against hand stencils, the P1
assembly against element matrices recomputed independently inside the tests,
and the Helmholtz operator against its closed-form diagonal shift and a
plane-wave truncation estimate.
"""

import numpy as np
import pytest

from ddmlab import discretize, linalg


def p1_stiffness(coords, alpha=1.0):
    # independent element oracle: K = alpha * |T| * G^T G with P1 gradients
    p0, p1, p2 = coords
    J = np.column_stack([p1 - p0, p2 - p0])
    detJ = np.linalg.det(J)
    area = abs(detJ) / 2.0
    grads_ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    G = grads_ref @ np.linalg.inv(J)
    return alpha * area * (G @ G.T)


class TestPoisson1d:
    def test_m3_rows(self):
        sys = discretize.poisson_1d(3)
        expect = np.array([[32.0, -16.0, 0.0], [-16.0, 32.0, -16.0], [0.0, -16.0, 32.0]])
        np.testing.assert_allclose(sys.A.toarray(), expect)
        np.testing.assert_allclose(sys.F, np.ones(3))

    def test_single_row(self):
        sys = discretize.poisson_1d(1)
        np.testing.assert_allclose(sys.A.toarray(), [[8.0]])

    def test_quadratic_exactness(self):
        # -u'' = 1, u(0)=u(1)=0 has u(x) = x(1-x)/2; the 3-point stencil is
        # exact for quadratics, so the direct solve reproduces it to roundoff
        sys = discretize.poisson_1d(5)
        x = linalg.dense_cholesky_factor(sys.A.toarray()).solve(sys.F)
        nodes = sys.coords[:, 0]
        np.testing.assert_allclose(x, nodes * (1 - nodes) / 2.0, atol=1e-12)

    def test_custom_rhs(self):
        sys = discretize.poisson_1d(4, f=lambda x: x[..., 0])
        np.testing.assert_allclose(sys.F, [0.2, 0.4, 0.6, 0.8])


class TestPoisson2dFd:
    def test_1x1(self):
        sys = discretize.poisson_2d_fd(1, 1)
        np.testing.assert_allclose(sys.A.toarray(), [[16.0]])  # 4/h^2, h = 1/2

    def test_2x2_hand_stencil(self):
        sys = discretize.poisson_2d_fd(2, 2)
        s = 9.0  # 1/h^2 with h = 1/3
        expect = np.array(
            [
                [4 * s, -s, -s, 0],
                [-s, 4 * s, 0, -s],
                [-s, 0, 4 * s, -s],
                [0, -s, -s, 4 * s],
            ]
        )
        np.testing.assert_allclose(sys.A.toarray(), expect)

    def test_20x20_spd(self):
        sys = discretize.poisson_2d_fd(20, 20)
        assert sys.A.shape == (400, 400)
        gap = (sys.A - sys.A.T).toarray()
        assert np.max(np.abs(gap)) == 0.0
        linalg.dense_cholesky_factor(sys.A.toarray())  # SPD certificate

    def test_anisotropic_counts(self):
        sys = discretize.poisson_2d_fd(3, 2)
        assert sys.A.shape == (6, 6)
        # node (ix=1, iy=0): hx = 1/4, hy = 1/3 -> diagonal 2/hx^2 + 2/hy^2
        assert sys.A[1, 1] == pytest.approx(2 * 16 + 2 * 9)


class TestUnitSquareMesh:
    def test_counts_and_orientation(self):
        mesh = discretize.unit_square_mesh(2, 2)
        assert mesh.vertices.shape == (9, 2)
        assert mesh.triangles.shape == (8, 3)
        assert mesh.boundary.sum() == 8
        for tri in mesh.triangles:
            p0, p1, p2 = mesh.vertices[tri]
            u, v = p1 - p0, p2 - p0
            assert u[0] * v[1] - u[1] * v[0] > 0

    def test_conforming(self):
        mesh = discretize.unit_square_mesh(3, 2)
        # every interior edge is shared by exactly two triangles
        from collections import Counter

        edges = Counter()
        for tri in mesh.triangles:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                edges[frozenset((tri[a], tri[b]))] += 1
        assert set(edges.values()) <= {1, 2}


class TestDiffusionFem2d:
    def test_single_interior_node(self):
        mesh = discretize.unit_square_mesh(2, 2)
        sys = discretize.diffusion_fem_2d(mesh, lambda x: 1.0)
        np.testing.assert_allclose(sys.A.toarray(), [[4.0]], atol=1e-13)

    def test_element_rows_sum_to_zero(self):
        mesh = discretize.unit_square_mesh(2, 2)
        sys = discretize.diffusion_fem_2d(mesh, lambda x: 1.0)
        for K in sys.element_matrices:
            np.testing.assert_allclose(K.sum(axis=1), np.zeros(3), atol=1e-13)

    def test_element_matrices_match_oracle(self):
        mesh = discretize.unit_square_mesh(3, 3)
        alpha = lambda x: 1.0 + 2.0 * x[0]
        sys = discretize.diffusion_fem_2d(mesh, alpha)
        for e, tri in enumerate(mesh.triangles):
            coords = mesh.vertices[tri]
            a_e = alpha(coords.mean(axis=0))
            np.testing.assert_allclose(sys.element_matrices[e], p1_stiffness(coords, a_e), atol=1e-13)

    def test_global_equals_scattered_element_sum(self):
        mesh = discretize.unit_square_mesh(4, 3)
        sys = discretize.diffusion_fem_2d(mesh, lambda x: 1.0 + x[0] * x[1])
        nv = len(mesh.vertices)
        full = np.zeros((nv, nv))
        for K, tri in zip(sys.element_matrices, mesh.triangles):
            full[np.ix_(tri, tri)] += K
        interior = np.flatnonzero(~mesh.boundary)
        np.testing.assert_allclose(
            sys.A.toarray(),
            full[np.ix_(interior, interior)],
            atol=1e-13 * np.linalg.norm(full),
        )

    def test_spd(self):
        mesh = discretize.unit_square_mesh(5, 5)
        sys = discretize.diffusion_fem_2d(mesh, lambda x: 2.0)
        linalg.dense_cholesky_factor(sys.A.toarray())

    def test_contrast_inflates_conditioning(self):
        mesh = discretize.unit_square_mesh(6, 6)
        flat = discretize.diffusion_fem_2d(mesh, lambda x: 1.0)
        jump = discretize.diffusion_fem_2d(mesh, lambda x: 1.0 if x[1] < 0.5 else 1e6)

        def cond(sys):
            vals = np.linalg.eigvalsh(sys.A.toarray())
            return vals[-1] / vals[0]

        assert cond(jump) / cond(flat) > 1e3

    def test_degenerate_triangle_rejected(self):
        mesh = discretize.unit_square_mesh(2, 2)
        verts = mesh.vertices.copy()
        verts[4] = verts[0]  # collapse the center vertex onto a corner
        bad = discretize.TriMesh(verts, mesh.triangles, mesh.boundary)
        with pytest.raises(ValueError, match="degenerate triangle"):
            discretize.diffusion_fem_2d(bad, lambda x: 1.0)

    def test_per_element_alpha_array(self):
        mesh = discretize.unit_square_mesh(2, 2)
        alpha = np.full(len(mesh.triangles), 3.0)
        sys = discretize.diffusion_fem_2d(mesh, alpha)
        np.testing.assert_allclose(sys.A.toarray(), [[12.0]], atol=1e-12)


class TestHelmholtz2d:
    def test_zero_wavenumber_reduces_to_poisson(self):
        grid = discretize.StructuredGrid(2, nx=4, ny=4)
        hz = discretize.helmholtz_2d(grid, omega=0.0, xi=0.0, boundary="dirichlet")
        po = discretize.poisson_2d_fd(4, 4)
        assert hz.A.dtype.kind == "f"
        np.testing.assert_allclose(hz.A.toarray(), po.A.toarray())

    def test_diagonal_shift_row(self):
        k = 5.0
        grid = discretize.StructuredGrid(2, nx=6, ny=6)
        sys = discretize.helmholtz_2d(grid, omega=k, xi=k**2, boundary="dirichlet")
        h = 1.0 / 7
        row = 2 + 6 * 2  # interior node away from the boundary
        assert sys.A[row, row] == pytest.approx(4.0 / h**2 - k**2 * (1 + 1j))

    def test_plane_wave_truncation(self):
        # (-Delta - k^2) exp(ikx) = 0, so an interior stencil row applied to
        # the sampled plane wave leaves only the O(h^2 k^4) truncation term
        k = 6.0
        m = 15
        grid = discretize.StructuredGrid(2, nx=m, ny=m)
        sys = discretize.helmholtz_2d(grid, omega=k, xi=0.0, boundary="dirichlet")
        h = 1.0 / (m + 1)
        u = np.exp(1j * k * sys.coords[:, 0])
        resid = sys.A @ u
        mid = (m // 2) + m * (m // 2)
        expect = k**4 * h**2 / 12.0
        assert abs(resid[mid]) == pytest.approx(expect, rel=0.5)

    def test_absorption_field_of_values(self):
        grid = discretize.StructuredGrid(2, nx=8, ny=8)
        sys = discretize.helmholtz_2d(grid, omega=4.0, xi=16.0, boundary="impedance")
        A = sys.A.toarray()
        rng = np.random.default_rng(0)
        worst = np.inf
        for _ in range(200):
            x = rng.normal(size=A.shape[0]) + 1j * rng.normal(size=A.shape[0])
            x /= np.linalg.norm(x)
            worst = min(worst, abs(np.imag(np.conj(x) @ A @ x)))
        assert worst > 0

    def test_impedance_boundary_diagonal(self):
        k = 3.0
        grid = discretize.StructuredGrid(2, nx=4, ny=4)
        sys = discretize.helmholtz_2d(grid, omega=k, xi=0.0, boundary="impedance")
        n_side = 6  # closed grid includes boundary nodes
        assert sys.A.shape == (n_side**2, n_side**2)
        h = 1.0 / 5
        edge = 2  # mid-edge node on the bottom row
        corner = 0
        assert np.imag(sys.A[edge, edge]) == pytest.approx(-2 * k / h)
        assert np.imag(sys.A[corner, corner]) == pytest.approx(-4 * k / h)

    def test_impedance_matrix_invertible(self):
        grid = discretize.StructuredGrid(2, nx=5, ny=5)
        sys = discretize.helmholtz_2d(grid, omega=8.0, xi=0.0, boundary="impedance")
        x = linalg.dense_lu_factor(sys.A.toarray()).solve(sys.F)
        assert np.all(np.isfinite(x))

    def test_variable_refractive_index(self):
        grid = discretize.StructuredGrid(2, nx=4, ny=4)
        n_fun = lambda x: 1.0 + x[..., 0]
        sys = discretize.helmholtz_2d(grid, omega=2.0, n=n_fun, xi=0.0, boundary="dirichlet")
        h = 1.0 / 5
        i = 1 + 4 * 1
        kx = 2.0 * (1.0 + sys.coords[i, 0])
        assert sys.A[i, i] == pytest.approx(4.0 / h**2 - kx**2)


class TestNeumannMatrix:
    def test_all_elements_recover_global(self):
        mesh = discretize.unit_square_mesh(3, 3)
        sys = discretize.diffusion_fem_2d(mesh, lambda x: 1.0)
        N, dofs = discretize.neumann_matrix(sys, np.arange(len(mesh.triangles)))
        np.testing.assert_array_equal(dofs, np.arange(sys.A.shape[0]))
        np.testing.assert_allclose(N, sys.A.toarray(), atol=1e-13)

    def test_single_interior_element(self):
        mesh = discretize.unit_square_mesh(4, 4)
        sys = discretize.diffusion_fem_2d(mesh, lambda x: 1.0)
        # find a triangle with no boundary vertices
        inner = [
            e
            for e, tri in enumerate(mesh.triangles)
            if not mesh.boundary[tri].any()
        ]
        e = inner[0]
        N, dofs = discretize.neumann_matrix(sys, [e])
        assert N.shape == (3, 3)
        np.testing.assert_allclose(N.sum(axis=1), np.zeros(3), atol=1e-13)
        np.testing.assert_allclose(N, sys.element_matrices[e], atol=1e-14)

    def test_two_adjacent_elements_hand_sum(self):
        mesh = discretize.unit_square_mesh(4, 4)
        sys = discretize.diffusion_fem_2d(mesh, lambda x: 1.0)
        inner = [
            e for e, tri in enumerate(mesh.triangles) if not mesh.boundary[tri].any()
        ]
        # two triangles sharing an edge: consecutive split of one cell
        e0 = None
        for a in inner:
            for b in inner:
                if a < b and len(set(mesh.triangles[a]) & set(mesh.triangles[b])) == 2:
                    e0, e1 = a, b
                    break
            if e0 is not None:
                break
        N, dofs = discretize.neumann_matrix(sys, [e0, e1])
        assert N.shape == (4, 4)
        verts = sorted(set(mesh.triangles[e0]) | set(mesh.triangles[e1]))
        hand = np.zeros((4, 4))
        for e in (e0, e1):
            loc = [verts.index(v) for v in mesh.triangles[e]]
            hand[np.ix_(loc, loc)] += p1_stiffness(mesh.vertices[mesh.triangles[e]])
        np.testing.assert_allclose(N, hand, atol=1e-13)

    def test_matches_entrywise_loop_bitwise(self):
        # Reference: add each retained element entry in (element, a, b) order.
        mesh = discretize.unit_square_mesh(8, 8)
        rng = np.random.default_rng(3)
        alpha = np.exp(rng.standard_normal(len(mesh.triangles)))
        sys = discretize.diffusion_fem_2d(mesh, alpha)
        for es in (rng.choice(len(mesh.triangles), 40, replace=False),
                   np.array([5, 0, 5, 17]), np.arange(len(mesh.triangles))):
            N, dofs = discretize.neumann_matrix(sys, es)
            pos = {d: p for p, d in enumerate(dofs)}
            ref = np.zeros_like(N)
            for e in es:
                loc = [pos.get(sys.dof_of_vertex[v], -1) for v in mesh.triangles[e]]
                for a in range(3):
                    for b in range(3):
                        if loc[a] >= 0 and loc[b] >= 0:
                            ref[loc[a], loc[b]] += sys.element_matrices[e][a, b]
            assert N.tobytes() == ref.tobytes()

    def test_boundary_elements_drop_dirichlet_rows(self):
        mesh = discretize.unit_square_mesh(2, 2)
        sys = discretize.diffusion_fem_2d(mesh, lambda x: 1.0)
        N, dofs = discretize.neumann_matrix(sys, [0])  # corner cell triangle
        tri = mesh.triangles[0]
        n_interior = int((~mesh.boundary[tri]).sum())
        assert N.shape == (n_interior, n_interior)

    def test_fd_unsupported(self):
        sys = discretize.poisson_2d_fd(3, 3)
        with pytest.raises(discretize.UnsupportedProblemError):
            discretize.neumann_matrix(sys, [0])


# ---------------------------------------------------------------------------
# entry-by-entry references: the array assembly must reproduce them bit for bit


def triplet_csr(nrows, ncols, trips):
    rows = np.fromiter((t[0] for t in trips), dtype=np.int64, count=len(trips))
    cols = np.fromiter((t[1] for t in trips), dtype=np.int64, count=len(trips))
    vals = np.asarray([t[2] for t in trips])
    return linalg.csr_from_triplets(nrows, ncols, rows, cols, vals)


def loop_poisson_1d(m):
    s = 1.0 / (1.0 / (m + 1)) ** 2
    trips = []
    for i in range(m):
        trips.append((i, i, 2.0 * s))
        if i > 0:
            trips.append((i, i - 1, -s))
        if i + 1 < m:
            trips.append((i, i + 1, -s))
    return triplet_csr(m, m, trips)


def loop_poisson_2d_fd(nx, ny):
    sx, sy = 1.0 / (1.0 / (nx + 1)) ** 2, 1.0 / (1.0 / (ny + 1)) ** 2
    trips = []
    for iy in range(ny):
        for ix in range(nx):
            i = ix + nx * iy
            trips.append((i, i, 2.0 * sx + 2.0 * sy))
            if ix > 0:
                trips.append((i, i - 1, -sx))
            if ix + 1 < nx:
                trips.append((i, i + 1, -sx))
            if iy > 0:
                trips.append((i, i - nx, -sy))
            if iy + 1 < ny:
                trips.append((i, i + nx, -sy))
    return triplet_csr(nx * ny, nx * ny, trips)


def loop_helmholtz_2d(grid, omega, n, xi, boundary):
    impedance = boundary == "impedance"
    coords = grid.closed_coords() if impedance else grid.interior_coords()
    k = omega * (np.ones(len(coords)) if n is None else np.asarray(n(coords), dtype=float))
    complex_path = impedance or xi > 0
    sx, sy = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    ncx, ncy = (grid.nx + 2, grid.ny + 2) if impedance else (grid.nx, grid.ny)
    steps = ((1, 0, sx, grid.hx), (-1, 0, sx, grid.hx), (0, 1, sy, grid.hy), (0, -1, sy, grid.hy))
    trips = []
    for iy in range(ncy):
        for ix in range(ncx):
            i = ix + ncx * iy
            diag = 2.0 * sx + 2.0 * sy - (k[i] ** 2 + (1j * xi if complex_path else 0.0))
            for dx, dy, s, hstep in steps:
                jx, jy = ix + dx, iy + dy
                if 0 <= jx < ncx and 0 <= jy < ncy:
                    trips.append((i, jx + ncx * jy, -s))
                elif impedance:
                    trips.append((i, ix - dx + ncx * (iy - dy), -s))
                    diag = diag - 2j * k[i] / hstep
            trips.append((i, i, diag))
    A = triplet_csr(ncx * ncy, ncx * ncy, trips)
    if not complex_path:
        A = linalg.compress(A.astype(float))
    return A


def loop_unit_square_mesh(nx_cells, ny_cells):
    nvx = nx_cells + 1
    tris = []
    for j in range(ny_cells):
        for i in range(nx_cells):
            v00 = i + nvx * j
            tris.append((v00, v00 + 1, v00 + nvx + 1))
            tris.append((v00, v00 + nvx + 1, v00 + nvx))
    return np.array(tris)


def loop_diffusion_fem_2d(mesh, alpha, f=None):
    """Element by element: stiffness blocks, CSR from triplets, load vector."""
    nt, nv = len(mesh.triangles), len(mesh.vertices)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    if callable(alpha):
        alpha_e = np.array([float(alpha(c)) for c in centroids])
    else:
        alpha_e = np.asarray(alpha, dtype=float)
    grads_ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    element_matrices = np.empty((nt, 3, 3))
    areas = np.empty(nt)
    for e, tri in enumerate(mesh.triangles):
        p0, p1, p2 = mesh.vertices[tri]
        J = np.column_stack([p1 - p0, p2 - p0])
        areas[e] = abs(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]) / 2.0
        G = grads_ref @ np.linalg.inv(J)
        element_matrices[e] = alpha_e[e] * areas[e] * (G @ G.T)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    full = triplet_csr(nv, nv, list(zip(rows.tolist(), cols.tolist(),
                                        element_matrices.ravel().tolist())))
    f_e = np.ones(nt) if f is None else np.array([float(f(c)) for c in centroids])
    load = np.zeros(nv)
    for e, tri in enumerate(mesh.triangles):
        load[tri] += f_e[e] * areas[e] / 3.0
    interior = np.flatnonzero(~mesh.boundary)
    return linalg.compress(full[np.ix_(interior, interior)]), load[interior], element_matrices


def assert_same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


def assert_same_csr(A, B):
    for attr in ("data", "indices", "indptr"):
        assert_same_bits(getattr(A, attr), getattr(B, attr))


def refractive_index(c):
    return 1.0 + 0.5 * np.sin(3.0 * c[:, 0]) * c[:, 1]


class TestMatchesEntryLoopsBitwise:
    @pytest.mark.parametrize("m", [1, 2, 7, 50])
    def test_poisson_1d(self, m):
        assert_same_csr(discretize.poisson_1d(m).A, loop_poisson_1d(m))

    @pytest.mark.parametrize("nx,ny", [(1, 1), (1, 4), (5, 1), (6, 9), (20, 20)])
    def test_poisson_2d_fd(self, nx, ny):
        assert_same_csr(discretize.poisson_2d_fd(nx, ny).A, loop_poisson_2d_fd(nx, ny))

    @pytest.mark.parametrize("boundary", ["dirichlet", "impedance"])
    @pytest.mark.parametrize("xi", [0.0, 2.5])
    @pytest.mark.parametrize("nx,ny", [(1, 1), (3, 5), (7, 9), (15, 15)])
    def test_helmholtz_2d(self, boundary, xi, nx, ny):
        grid = discretize.StructuredGrid(2, nx, ny)
        for omega in (0.0, 7.3, 23.0, 31.0):
            for n in (None, refractive_index):
                sys = discretize.helmholtz_2d(grid, omega, n=n, xi=xi, boundary=boundary)
                assert_same_csr(sys.A, loop_helmholtz_2d(grid, omega, n, xi, boundary))

    @pytest.mark.parametrize("cells", [(1, 1), (3, 2), (13, 7), (16, 16)])
    def test_unit_square_mesh(self, cells):
        assert_same_bits(discretize.unit_square_mesh(*cells).triangles,
                         loop_unit_square_mesh(*cells))

    @pytest.mark.parametrize("cells,jitter", [((40, 40), False), ((24, 24), False),
                                              ((13, 7), True)])
    def test_diffusion_fem_2d_system(self, cells, jitter):
        # The whole system as the scenario runner builds it, with one
        # coefficient per element and the default load, on the meshes of the
        # bundled configs and the benchmark: against the element loop, the
        # shortest edge measured edge by edge, and the callable coefficient.
        mesh = discretize.unit_square_mesh(*cells)
        if jitter:
            rng = np.random.default_rng(5)
            inner = ~mesh.boundary
            mesh.vertices[inner] += rng.uniform(-0.01, 0.01, (int(inner.sum()), 2))
        alpha = np.ones(len(mesh.triangles))
        sys = discretize.diffusion_fem_2d(mesh, alpha)
        A, F, element_matrices = loop_diffusion_fem_2d(mesh, alpha)
        assert_same_csr(sys.A, A)
        assert_same_bits(sys.F, F)
        assert_same_bits(sys.element_matrices, element_matrices)
        edges = [mesh.vertices[tri[a]] - mesh.vertices[tri[a - 1]]
                 for tri in mesh.triangles for a in range(3)]
        assert sys.h == min(float(np.sqrt(e[0] ** 2 + e[1] ** 2)) for e in edges)
        interior = np.flatnonzero(~mesh.boundary)
        assert_same_bits(sys.coords, mesh.vertices[interior])
        assert_same_bits(sys.dof_of_vertex[interior], np.arange(interior.size))
        ref = discretize.diffusion_fem_2d(mesh, lambda c: 1.0)
        assert_same_csr(sys.A, ref.A)
        for name in ("F", "coords", "element_matrices", "dof_of_vertex"):
            assert_same_bits(getattr(sys, name), getattr(ref, name))
        assert sys.h == ref.h and sys.kind == ref.kind

    @pytest.mark.parametrize("cells", [(1, 1), (3, 2), (16, 16)])
    @pytest.mark.parametrize("jitter", [False, True])
    def test_diffusion_fem_2d(self, cells, jitter):
        mesh = discretize.unit_square_mesh(*cells)
        rng = np.random.default_rng(11)
        if jitter:
            # move interior vertices to get irregular, differently sized elements
            step = 0.2 / max(cells)
            mesh.vertices[~mesh.boundary] += rng.uniform(-step, step, (int((~mesh.boundary).sum()), 2))
        nt = len(mesh.triangles)
        alphas = {
            "constant": lambda c: 1.0,
            "array": np.exp(rng.standard_normal(nt)),
            "callable": lambda c: 1.0 + c[0] * c[1] ** 2,
            "channels": lambda c: 1e6 if abs(c[1] - 0.5) < 0.1 or abs(c[0] - 0.3) < 0.05 else 1.0,
        }
        for name, alpha in alphas.items():
            for f in (None, lambda c: np.cos(3.0 * c[0]) + c[1]):
                sys = discretize.diffusion_fem_2d(mesh, alpha, f)
                A, F, element_matrices = loop_diffusion_fem_2d(mesh, alpha, f)
                assert_same_bits(sys.element_matrices, element_matrices)
                assert_same_csr(sys.A, A)
                assert_same_bits(sys.F, F)
