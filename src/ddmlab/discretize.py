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
    "BOUNDARIES",
]

# boundary conditions of helmholtz_2d
BOUNDARIES = ("dirichlet", "impedance")

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
    grid : StructuredGrid or None
        The grid whose interior nodes are the DoFs, in lexicographic
        order; None when the DoFs are not those nodes (FEM meshes,
        impedance Helmholtz).
    element_matrices : ndarray or None
        Per-triangle 3x3 stiffness blocks, pre-elimination (FEM kinds only).
    dof_of_vertex : ndarray or None
        DoF of each mesh vertex for FEM kinds; Dirichlet vertices map to -1.
    """

    def __init__(self, kind, A, F, coords, h, grid=None, mesh=None,
                 element_matrices=None, dof_of_vertex=None):
        self.kind = kind
        self.A = A
        self.F = np.asarray(F)
        self.coords = np.asarray(coords)
        self.h = float(h)
        self.grid = grid
        self.mesh = mesh
        self.element_matrices = element_matrices
        self.dof_of_vertex = dof_of_vertex

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def dim(self):
        return self.coords.shape[1]


def _five_point(ncx, ncy, diag, sx, sy, ghosts=False):
    """Five-point-stencil matrix on the nodes of an ncx-by-ncy grid.

    Node ``ix + ncx * iy`` holds ``diag`` (a scalar or one value per node)
    on the diagonal and ``-sx`` (``-sy``) toward each on-grid neighbor in
    x (y). With ``ghosts``, a neighbor off the grid is a ghost node that
    the impedance closure eliminates: the coupling toward the opposite
    neighbor doubles. The closure's diagonal terms are the caller's.
    """
    n = ncx * ncy
    idx = linalg.index_dtype(5 * n)
    i = np.arange(n, dtype=idx)
    ix, iy = i % ncx, i // ncx
    # directions +x, -x, +y, -y: the nodes whose neighbor that way is on the grid
    on = (ix < ncx - 1, ix > 0, iy < ncy - 1, iy > 0)
    del ix, iy
    # the diagonal, then one block of entries per direction: block d is
    # ends[d]:ends[d + 1]; each part is freed once used, so that only the
    # triplets and the matrix are alive together
    rows = np.concatenate([i] + [i[o] for o in on])
    del i
    counts = [n] + [np.count_nonzero(o) for o in on]
    ends = np.cumsum(counts)
    vals = np.repeat(np.array([0.0, -sx, -sx, -sy, -sy], dtype=np.result_type(diag, float)),
                     counts)
    vals[:n] = diag
    cols = rows.copy()
    for d, step in enumerate((1, -1, ncx, -ncx)):
        block = slice(ends[d], ends[d + 1])
        cols[block] += step
        if ghosts:
            vals[block][~on[d ^ 1][on[d]]] *= 2.0
    del on
    return linalg.csr_from_triplets(n, n, rows, cols, vals)


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
    A = _five_point(m, 1, 2.0 * s, s, 0.0)
    coords = grid.interior_coords()
    return AssembledSystem("poisson_fd_1d", A, _eval_rhs(f, coords), coords, grid.hx, grid=grid)


def poisson_2d_fd(nx, ny, f=None):
    """2D Poisson, 5-point stencil, homogeneous Dirichlet boundary eliminated."""
    grid = StructuredGrid(2, nx, ny)
    sx, sy = 1.0 / grid.hx**2, 1.0 / grid.hy**2
    A = _five_point(nx, ny, 2.0 * sx + 2.0 * sy, sx, sy)
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
    i, j = np.meshgrid(np.arange(nx_cells), np.arange(ny_cells), indexing="xy")
    v00 = (i + nvx * j).ravel()
    v10 = v00 + 1
    v01 = v00 + nvx
    v11 = v01 + 1
    # two positively oriented triangles per cell, cell after cell
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    boundary = (
        (vertices[:, 0] == 0.0)
        | (vertices[:, 0] == 1.0)
        | (vertices[:, 1] == 0.0)
        | (vertices[:, 1] == 1.0)
    )
    return TriMesh(vertices, tris, boundary)


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
    corners = mesh.vertices[mesh.triangles]
    # only the callables are evaluated at the centroids
    centroids = corners.mean(axis=1) if callable(alpha) or f is not None else None
    if callable(alpha):
        alpha_e = np.array([float(alpha(c)) for c in centroids])
    else:
        alpha_e = np.asarray(alpha, dtype=float)
        if alpha_e.shape != (nt,):
            raise ValueError("alpha array must have one entry per element")
    if np.any(alpha_e <= 0):
        raise ValueError("alpha must be positive everywhere")

    # all element stiffness blocks at once; J[e] has columns p1 - p0 and p2 - p0
    J = np.stack([corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]], axis=2)
    areas = np.abs(J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]) / 2.0
    if np.any(areas < 1e-14):
        raise ValueError("degenerate triangle (area below 1e-14)")
    G = _REF_GRADS @ np.linalg.inv(J)
    element_matrices = (alpha_e * areas)[:, None, None] * (G @ G.swapaxes(1, 2))

    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    full = linalg.csr_from_triplets(nv, nv, rows, cols, element_matrices.ravel())

    if f is None:
        f_e = np.ones(nt)
    else:
        f_e = np.array([float(f(c)) for c in centroids])
    load = np.zeros(nv)
    # unbuffered scatter in (element, vertex) order
    np.add.at(load, mesh.triangles.ravel(), np.repeat(f_e * areas / 3.0, 3))

    # symmetric Dirichlet elimination: boundary rows and columns removed
    interior = np.flatnonzero(~mesh.boundary)
    A = linalg.compress(full[np.ix_(interior, interior)])
    dof_of_vertex = np.full(nv, -1, dtype=int)
    dof_of_vertex[interior] = np.arange(len(interior))

    # the shortest edge; the rounded square root is monotone, so taking it
    # after the min gives the same h
    edges = corners - np.roll(corners, 1, axis=1)
    h = float(np.sqrt((edges**2).sum(axis=2).min()))

    return AssembledSystem(
        "diffusion_fem_2d",
        A,
        load[interior],
        mesh.vertices[interior],
        h,
        mesh=mesh,
        element_matrices=element_matrices,
        dof_of_vertex=dof_of_vertex,
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
        the first-order absorbing condition du/dn = i k u. The grid indexes
        only the interior nodes, so an impedance system carries no grid.
    """
    if omega < 0 or xi < 0:
        raise ValueError("omega and xi must be nonnegative")
    if boundary not in BOUNDARIES:
        raise ValueError(f"boundary must be one of {BOUNDARIES}, got {boundary!r}")
    if grid.dim != 2:
        raise ValueError("helmholtz_2d needs a 2D grid")

    if boundary == "dirichlet":
        coords = grid.interior_coords()
        ncx, ncy = grid.nx, grid.ny
    else:
        coords = grid.closed_coords()
        ncx, ncy = grid.nx + 2, grid.ny + 2
    k = omega * (np.ones(len(coords)) if n is None else np.asarray(n(coords), dtype=float))

    complex_path = boundary == "impedance" or xi > 0
    dtype = complex if complex_path else float
    sx, sy = 1.0 / grid.hx**2, 1.0 / grid.hy**2

    # float_power squares through libm pow, as scalar ``**`` does; the array
    # ``k**2`` multiplies and can differ from pow in the last bit
    diag = 2.0 * sx + 2.0 * sy - (np.float_power(k, 2) + (1j * xi if complex_path else 0.0))
    if boundary == "impedance":
        # ghost elimination with du/dn = i k u: the builder doubles the
        # coupling opposite each ghost, and the diagonal picks up -2ik/h per
        # eliminated side, subtracted in direction order +x, -x, +y, -y (the
        # term is purely imaginary, so only the imaginary part changes)
        iy, ix = np.divmod(np.arange(ncx * ncy), ncx)
        for off, hstep in ((ix == ncx - 1, grid.hx), (ix == 0, grid.hx),
                           (iy == ncy - 1, grid.hy), (iy == 0, grid.hy)):
            diag.imag[off] -= 2.0 * k[off] / hstep
    A = _five_point(ncx, ncy, diag, sx, sy, ghosts=boundary == "impedance")
    h = min(grid.hx, grid.hy)
    return AssembledSystem("helmholtz_2d", A, _eval_rhs(f, coords).astype(dtype), coords, h,
                           grid=grid if boundary == "dirichlet" else None)


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
