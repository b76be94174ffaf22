"""Model-problem assembly: FD Poisson, P1 diffusion, and 2D Helmholtz.

Finite-difference problems eliminate the homogeneous Dirichlet boundary by
construction (interior unknowns only). The P1 finite element path keeps the
per-element stiffness matrices, which the spectral coarse space needs to
build subdomain operators with natural interface conditions, and eliminates
Dirichlet rows and columns symmetrically so conjugate gradients stay
applicable.

Sign conventions for the Helmholtz operator follow the time dependence
exp(-i*omega*t): absorption enters as -i*xi on the diagonal, so the
assembled operator is -Laplace - (k^2 + i*xi), and the impedance closure
contributes a negative imaginary boundary diagonal. The field of values of
an absorptive matrix therefore sits strictly in the lower half plane.
"""

import numpy as np

from . import linalg

__all__ = [
    "StructuredGrid",
    "TriMesh",
    "AssembledSystem",
    "UnsupportedProblemError",
    "poisson_1d",
    "poisson_2d_fd",
    "unit_square_mesh",
    "diffusion_fem_2d",
    "helmholtz_2d",
    "neumann_matrix",
]

_REF_GRADS = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])


class UnsupportedProblemError(Exception):
    """Raised when an operation needs a discretization kind it cannot serve."""


class StructuredGrid:
    """Uniform grid on the unit interval or square, interior points only.

    ``nx`` (and ``ny`` in 2D) count interior points per axis, so the spacing
    is ``h = 1/(n+1)``. Interior nodes are indexed lexicographically with x
    fastest: ``index = ix + nx * iy``.
    """

    def __init__(self, dim, nx, ny=None):
        if dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if nx < 1 or (dim == 2 and (ny is None or ny < 1)):
            raise ValueError("interior point counts must be >= 1")
        self.dim = dim
        self.nx = int(nx)
        self.ny = int(ny) if dim == 2 else None
        self.hx = 1.0 / (self.nx + 1)
        self.hy = 1.0 / (self.ny + 1) if dim == 2 else None

    @property
    def n_interior(self):
        return self.nx if self.dim == 1 else self.nx * self.ny

    def interior_coords(self):
        if self.dim == 1:
            x = (np.arange(self.nx) + 1) * self.hx
            return x[:, None]
        ix, iy = np.meshgrid(np.arange(self.nx), np.arange(self.ny), indexing="xy")
        x = (ix.ravel() + 1) * self.hx
        y = (iy.ravel() + 1) * self.hy
        return np.column_stack([x, y])

    def closed_coords(self):
        """All nodes including the boundary ring (2D only), lexicographic."""
        ix, iy = np.meshgrid(np.arange(self.nx + 2), np.arange(self.ny + 2), indexing="xy")
        return np.column_stack([ix.ravel() * self.hx, iy.ravel() * self.hy])


class TriMesh:
    """Conforming triangulation: vertex coordinates, triangles, boundary flags."""

    def __init__(self, vertices, triangles, boundary):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        self.boundary = np.asarray(boundary, dtype=bool)


class AssembledSystem:
    """Global matrix and load vector plus the bookkeeping to rebuild pieces.

    Attributes
    ----------
    kind : str
        One of poisson_fd_1d, poisson_fd_2d, diffusion_fem_2d, helmholtz_2d.
    A : scipy.sparse.csr_array
        Global matrix after Dirichlet elimination.
    F : ndarray
        Load vector on the retained DoFs.
    coords : ndarray, shape (n, dim)
        Coordinates of the retained DoFs.
    h : float
        Mesh unit (smallest spacing / edge length), used for overlap widths
        and Robin defaults.
    element_matrices : ndarray or None
        Per-triangle 3x3 stiffness blocks, pre-elimination (FEM kinds only).
    dof_of_vertex / vertex_of_dof : ndarray or None
        Vertex-DoF maps for FEM kinds; Dirichlet vertices map to -1.
    """

    def __init__(self, kind, A, F, coords, h, grid=None, mesh=None,
                 element_matrices=None, dof_of_vertex=None, vertex_of_dof=None):
        self.kind = kind
        self.A = A
        self.F = np.asarray(F)
        self.coords = np.asarray(coords)
        self.h = float(h)
        self.grid = grid
        self.mesh = mesh
        self.element_matrices = element_matrices
        self.dof_of_vertex = dof_of_vertex
        self.vertex_of_dof = vertex_of_dof

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def dim(self):
        return self.coords.shape[1]


def _eval_rhs(f, coords):
    if f is None:
        return np.ones(len(coords))
    out = np.asarray(f(coords))
    if out.shape != (len(coords),):
        out = np.broadcast_to(out, (len(coords),)).copy()
    return out


def poisson_1d(m, f=None):
    """1D Poisson with homogeneous Dirichlet boundary: (1/h^2) tridiag(-1, 2, -1).

    Parameters
    ----------
    m : int
        Number of interior points; h = 1/(m+1).
    f : callable or None
        Vectorized right-hand side on the (m, 1) node coordinates; default 1.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    grid = StructuredGrid(1, m)
    s = 1.0 / grid.hx**2
    trips = []
    for i in range(m):
        trips.append((i, i, 2.0 * s))
        if i > 0:
            trips.append((i, i - 1, -s))
        if i + 1 < m:
            trips.append((i, i + 1, -s))
    A = linalg.csr_from_triplets(m, m, trips)
    coords = grid.interior_coords()
    return AssembledSystem("poisson_fd_1d", A, _eval_rhs(f, coords), coords, grid.hx, grid=grid)


def poisson_2d_fd(nx, ny, f=None):
    """2D Poisson, 5-point stencil, homogeneous Dirichlet boundary eliminated."""
    grid = StructuredGrid(2, nx, ny)
    sx, sy = 1.0 / grid.hx**2, 1.0 / grid.hy**2
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
    A = linalg.csr_from_triplets(grid.n_interior, grid.n_interior, trips)
    coords = grid.interior_coords()
    h = min(grid.hx, grid.hy)
    return AssembledSystem("poisson_fd_2d", A, _eval_rhs(f, coords), coords, h, grid=grid)


def unit_square_mesh(nx_cells, ny_cells):
    """Triangulate the unit square by splitting each grid cell along its diagonal."""
    if nx_cells < 1 or ny_cells < 1:
        raise ValueError("cell counts must be >= 1")
    nvx, nvy = nx_cells + 1, ny_cells + 1
    ix, iy = np.meshgrid(np.arange(nvx), np.arange(nvy), indexing="xy")
    vertices = np.column_stack([ix.ravel() / nx_cells, iy.ravel() / ny_cells])
    tris = []
    for j in range(ny_cells):
        for i in range(nx_cells):
            v00 = i + nvx * j
            v10 = v00 + 1
            v01 = v00 + nvx
            v11 = v01 + 1
            # both positively oriented
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    boundary = (
        (vertices[:, 0] == 0.0)
        | (vertices[:, 0] == 1.0)
        | (vertices[:, 1] == 0.0)
        | (vertices[:, 1] == 1.0)
    )
    return TriMesh(vertices, np.array(tris), boundary)


def _element_stiffness(coords, alpha_e):
    p0, p1, p2 = coords
    J = np.column_stack([p1 - p0, p2 - p0])
    detJ = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
    area = abs(detJ) / 2.0
    if area < 1e-14:
        raise ValueError("degenerate triangle (area below 1e-14)")
    G = _REF_GRADS @ np.linalg.inv(J)
    return alpha_e * area * (G @ G.T), area


def diffusion_fem_2d(mesh, alpha, f=None):
    """P1 finite element assembly of -div(alpha grad u) on a triangle mesh.

    Parameters
    ----------
    mesh : TriMesh
    alpha : callable or array
        Either a coefficient per element or a callable evaluated at element
        centroids; must be positive.
    f : callable or None
        Right-hand side, evaluated at element centroids with one-point
        quadrature; default 1.

    Returns
    -------
    AssembledSystem
        With ``element_matrices`` retained pre-elimination so subdomain
        operators with natural interface conditions can be rebuilt.
    """
    nt = len(mesh.triangles)
    nv = len(mesh.vertices)
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    if callable(alpha):
        alpha_e = np.array([float(alpha(c)) for c in centroids])
    else:
        alpha_e = np.asarray(alpha, dtype=float)
        if alpha_e.shape != (nt,):
            raise ValueError("alpha array must have one entry per element")
    if np.any(alpha_e <= 0):
        raise ValueError("alpha must be positive everywhere")

    element_matrices = np.empty((nt, 3, 3))
    areas = np.empty(nt)
    for e, tri in enumerate(mesh.triangles):
        element_matrices[e], areas[e] = _element_stiffness(mesh.vertices[tri], alpha_e[e])

    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    full = linalg.csr_from_triplets(
        nv, nv, zip(rows.tolist(), cols.tolist(), element_matrices.ravel().tolist())
    )

    if f is None:
        f_e = np.ones(nt)
    else:
        f_e = np.array([float(f(c)) for c in centroids])
    load = np.zeros(nv)
    for e, tri in enumerate(mesh.triangles):
        load[tri] += f_e[e] * areas[e] / 3.0

    # symmetric Dirichlet elimination: boundary rows and columns removed
    interior = np.flatnonzero(~mesh.boundary)
    A = linalg.compress(full[np.ix_(interior, interior)])
    dof_of_vertex = np.full(nv, -1, dtype=int)
    dof_of_vertex[interior] = np.arange(len(interior))

    edges = mesh.vertices[mesh.triangles] - mesh.vertices[np.roll(mesh.triangles, 1, axis=1)]
    h = float(np.sqrt((edges**2).sum(axis=2)).min())

    return AssembledSystem(
        "diffusion_fem_2d",
        A,
        load[interior],
        mesh.vertices[interior],
        h,
        mesh=mesh,
        element_matrices=element_matrices,
        dof_of_vertex=dof_of_vertex,
        vertex_of_dof=interior,
    )


def helmholtz_2d(grid, omega, n=None, xi=0.0, boundary="dirichlet", f=None):
    """2D Helmholtz operator -Laplace - (k(x)^2 + i*xi) on a structured grid.

    Parameters
    ----------
    grid : StructuredGrid
    omega : float
        Angular frequency; the wavenumber is k(x) = n(x) * omega.
    n : callable or None
        Refractive index on node coordinates (vectorized); default 1.
    xi : float
        Absorption; xi > 0 forces the complex path.
    boundary : {"dirichlet", "impedance"}
        Dirichlet eliminates the boundary ring; impedance keeps boundary
        nodes as unknowns and closes the stencil by ghost elimination with
        the first-order absorbing condition du/dn = i k u.
    """
    if omega < 0 or xi < 0:
        raise ValueError("omega and xi must be nonnegative")
    if boundary not in ("dirichlet", "impedance"):
        raise ValueError("boundary must be 'dirichlet' or 'impedance'")
    if grid.dim != 2:
        raise ValueError("helmholtz_2d needs a 2D grid")

    if boundary == "dirichlet":
        coords = grid.interior_coords()
    else:
        coords = grid.closed_coords()
    k = omega * (np.ones(len(coords)) if n is None else np.asarray(n(coords), dtype=float))

    complex_path = boundary == "impedance" or xi > 0
    dtype = complex if complex_path else float
    sx, sy = 1.0 / grid.hx**2, 1.0 / grid.hy**2

    if boundary == "dirichlet":
        ncx, ncy = grid.nx, grid.ny
        interior_only = True
    else:
        ncx, ncy = grid.nx + 2, grid.ny + 2
        interior_only = False

    trips = []
    for iy in range(ncy):
        for ix in range(ncx):
            i = ix + ncx * iy
            diag = 2.0 * sx + 2.0 * sy - (k[i] ** 2 + (1j * xi if complex_path else 0.0))
            for d, (dx, dy, s, hstep) in enumerate(
                ((1, 0, sx, grid.hx), (-1, 0, sx, grid.hx), (0, 1, sy, grid.hy), (0, -1, sy, grid.hy))
            ):
                jx, jy = ix + dx, iy + dy
                if 0 <= jx < ncx and 0 <= jy < ncy:
                    trips.append((i, jx + ncx * jy, -s))
                elif not interior_only:
                    # ghost elimination with du/dn = i k u: the opposite
                    # neighbor coefficient doubles and the diagonal picks up
                    # -2ik/h per eliminated side
                    ox, oy = ix - dx, iy - dy
                    trips.append((i, ox + ncx * oy, -s))
                    diag = diag - 2j * k[i] / hstep
            trips.append((i, i, diag))
    ndof = ncx * ncy
    A = linalg.csr_from_triplets(ndof, ndof, trips)
    if not complex_path:
        A = linalg.compress(A.astype(float))
    h = min(grid.hx, grid.hy)
    return AssembledSystem("helmholtz_2d", A, _eval_rhs(f, coords).astype(dtype), coords, h, grid=grid)


def neumann_matrix(system, element_set):
    """Subdomain operator with natural (Neumann) artificial interfaces.

    Sums the retained element matrices over ``element_set``, keeps the
    original-boundary Dirichlet elimination, and leaves interior interfaces
    untouched.

    Returns
    -------
    (N, dofs) : (ndarray, ndarray)
        Dense matrix on the DoFs touched by the element set, and those DoFs'
        global indices in ascending order.
    """
    if system.element_matrices is None:
        raise UnsupportedProblemError(
            f"kind '{system.kind}' has no element matrices; Neumann operators need the FEM path"
        )
    element_set = np.asarray(element_set, dtype=int)
    mesh = system.mesh
    verts = np.unique(mesh.triangles[element_set])
    dofs = np.unique(system.dof_of_vertex[verts])
    dofs = dofs[dofs >= 0]  # original-boundary vertices stay eliminated
    dof = system.dof_of_vertex[mesh.triangles[element_set]]
    loc = np.where(dof >= 0, np.searchsorted(dofs, dof), -1)
    kept = (loc[:, :, None] >= 0) & (loc[:, None, :] >= 0)
    rows = np.broadcast_to(loc[:, :, None], kept.shape)[kept]
    cols = np.broadcast_to(loc[:, None, :], kept.shape)[kept]
    N = np.zeros((len(dofs), len(dofs)))
    # Unbuffered scatter in (element, a, b) order: the same sums in the
    # same order as adding the element matrices one entry at a time.
    np.add.at(N, (rows, cols), system.element_matrices[element_set][kept])
    return N, dofs
