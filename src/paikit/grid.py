"""Node-centered Cartesian grids and the discrete operators shared by every solver.

All solvers in this package work on a tensor grid of nodes covering the
bounding box of the domain.  Two domain flavors are supported:

* ``rectangle`` -- every node of the box is part of the domain; the
  outermost layer of nodes is the boundary.
* ``disk`` / ``ball`` -- nodes strictly inside the shape are unknowns and a
  one-node "ring" of outside neighbors carries Dirichlet data (staircase
  boundary, first order).

The stiffness matrix is assembled face by face, so it is symmetric positive
semidefinite with zero row sums.  Together with the (diagonal) lumped mass
and boundary matrices this makes the leapfrog schemes energy-exact, which
the energy-decay and Gramian-symmetry tests rely on.

The solvers' repeated products run on ``stepping_form`` of a matrix: the
diagonal (DIA) storage when the matrix is banded, as on rectangles, and
the CSR matrix itself otherwise, as on the staircase disk and ball.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

COARSEST_NODES = 9   # a multigrid hierarchy coarsens until every axis has at most this many nodes


@dataclass(frozen=True)
class NodeGrid:
    """Tensor grid of (n+1)**d nodes on the box [lo, hi]."""

    lo: tuple
    hi: tuple
    n: int  # cells per axis

    def __post_init__(self):
        if self.n < 4:
            raise ValueError(f"grid resolution must be >= 4 cells, got {self.n}")
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo/hi must be 1-d points of equal dimension")
        if np.any(hi <= lo):
            raise ValueError("box must have positive extent along every axis")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @cached_property
    def h(self) -> np.ndarray:
        """Spacing per axis."""
        return (np.asarray(self.hi) - np.asarray(self.lo)) / self.n

    @property
    def h_min(self) -> float:
        return float(self.h.min())

    @property
    def shape(self) -> tuple:
        return (self.n + 1,) * self.dim

    @property
    def n_nodes(self) -> int:
        return (self.n + 1) ** self.dim

    @cached_property
    def axes(self) -> list:
        return [np.asarray(self.lo)[a] + self.h[a] * np.arange(self.n + 1)
                for a in range(self.dim)]

    @cached_property
    def coords(self) -> np.ndarray:
        """Node coordinates, shape (n_nodes, dim), C-order flattening."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def field(self, fn) -> np.ndarray:
        """Sample a callable of the coordinates into a flat nodal array."""
        return np.asarray(fn(self.coords), dtype=float).ravel()

    def reshape(self, flat: np.ndarray) -> np.ndarray:
        return np.asarray(flat).reshape(self.shape)


def stepping_form(A: sp.csr_matrix, dim: int):
    """``A`` in the storage that its repeated products ``A @ x`` run on.

    A matrix with at most ``2 dim + 1`` distinct diagonals (a stencil on a
    full tensor grid) comes back in DIA form, any other the CSR matrix
    itself.  Both give the same bits: DIA adds the diagonals in ascending
    offset order, which in each row is the ascending column order of
    canonical CSR, and its padding adds exact zeros.
    """
    n_rows = A.shape[0]
    rows = np.repeat(np.arange(n_rows), np.diff(A.indptr))
    # diagonal of each entry, shifted to count from 0
    diag = A.indices - rows + (n_rows - 1)
    count = np.bincount(diag)
    present = np.flatnonzero(count)
    if present.size > 2 * dim + 1:
        return A
    if not A.has_canonical_format:
        raise ValueError("stepping form needs a CSR matrix with sorted indices "
                         "and no duplicates")
    # DIA row k holds diagonal offsets[k] by column, up to the last column
    # with an entry, as scipy's todia lays it out
    slot = np.zeros(count.size, dtype=np.intp)
    slot[present] = np.arange(present.size)
    width = A.indices.max(initial=-1) + 1
    data = np.zeros((present.size, width), dtype=A.dtype)
    data[slot[diag], A.indices] = A.data
    return sp.dia_matrix((data, present - (n_rows - 1)), shape=A.shape)


def _interpolation_1d(m: int) -> sp.csr_matrix:
    """Linear interpolation onto ``m`` nodes of a line from every second
    node, plus the last one when ``m`` is even: (m, m_coarse).  A node
    between two coarse ones takes half of each."""
    keep = np.arange(0, m, 2)
    if m % 2 == 0:
        keep = np.append(keep, m - 1)
    col = np.full(m, -1)
    col[keep] = np.arange(keep.size)
    mid = np.setdiff1d(np.arange(m), keep)
    rows = np.concatenate([keep, mid, mid])
    cols = np.concatenate([col[keep], col[mid - 1], col[mid + 1]])
    vals = np.concatenate([np.ones(keep.size), np.full(2 * mid.size, 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, keep.size))


def _axis_faces(grid: NodeGrid, axis: int):
    """Flat node indices (i, j) of every grid face along ``axis``."""
    idx = np.arange(grid.n_nodes).reshape(grid.shape)
    sl_i = tuple(slice(0, -1) if b == axis else slice(None) for b in range(grid.dim))
    sl_j = tuple(slice(1, None) if b == axis else slice(None) for b in range(grid.dim))
    return idx[sl_i].ravel(), idx[sl_j].ravel()


def _trapezoid_axis_weights(grid: NodeGrid, axis: int) -> np.ndarray:
    w = np.full(grid.n + 1, grid.h[axis])
    w[0] = w[-1] = 0.5 * grid.h[axis]
    return w


@dataclass
class FaceSet:
    """Faces used to assemble stiffness-type quadratic forms.

    ``i``/``j`` are flat node indices of the two endpoints, ``w`` the
    quadrature weight so that
    ``sum(w * ((u[j]-u[i])/h_axis)**2)`` approximates ``int |du/dx_axis|^2``.
    """

    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    h: np.ndarray  # spacing of each face's axis

    def stiffness(self, n_nodes: int, face_scale: np.ndarray | None = None) -> sp.csr_matrix:
        """Assemble K with quadratic form sum(scale*w*((u_j-u_i)/h)^2)."""
        coef = self.w / self.h**2
        if face_scale is not None:
            coef = coef * face_scale
        rows = np.concatenate([self.i, self.j, self.i, self.j])
        cols = np.concatenate([self.i, self.j, self.j, self.i])
        vals = np.concatenate([coef, coef, -coef, -coef])
        K = sp.coo_matrix((vals, (rows, cols)), shape=(n_nodes, n_nodes))
        return K.tocsr()

    def quadratic(self, u: np.ndarray, face_scale: np.ndarray | None = None) -> float:
        d = (u[self.j] - u[self.i]) / self.h
        q = self.w * d * d
        if face_scale is not None:
            q = q * face_scale
        return float(q.sum())

    def mean_of(self, nodal: np.ndarray) -> np.ndarray:
        """Arithmetic face average of a nodal field."""
        return 0.5 * (nodal[self.i] + nodal[self.j])

    def harmonic_of(self, nodal: np.ndarray) -> np.ndarray:
        """Harmonic face average (used for discontinuous diffusion)."""
        a, b = nodal[self.i], nodal[self.j]
        return 2.0 * a * b / (a + b)


@dataclass
class BoundaryInfo:
    """Ordered boundary description: node list, outward normals, weights."""

    idx: np.ndarray        # flat node indices, ordered along the boundary
    normals: np.ndarray    # (nb, dim) outward unit normals
    weights: np.ndarray    # (nb,) surface quadrature weights
    ds: np.ndarray | None  # (nb,) arclength to next node along the cycle (2-d only)


@dataclass
class TraceOperator:
    """Linear map from a full nodal field to normal-derivative samples."""

    op: sp.csr_matrix      # (n_trace, n_nodes)
    weights: np.ndarray    # (n_trace,) surface quadrature weights
    node_idx: np.ndarray   # boundary node (or ring node) backing each row

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.op @ u


class Discretization:
    """Discrete operators for one domain: masks, quadratures, K, traces.

    ``inside_idx`` are the Dirichlet unknowns, ``boundary.idx`` the pinned /
    damped boundary nodes.  For rectangles every node belongs to one of the
    two sets; for masked disk/ball domains the nodes outside the ring are
    unused.
    """

    def __init__(self, grid: NodeGrid, kind: str, center=None, radius=None):
        self.grid = grid
        self.kind = kind
        if kind == "rectangle":
            self._build_rectangle()
        elif kind == "disk":
            self._build_masked(np.asarray(center, dtype=float), float(radius))
        else:
            raise ValueError(f"unknown domain kind {kind!r}")
        self.n_nodes = grid.n_nodes
        self.K = self.faces.stiffness(self.n_nodes)

    # -- construction ------------------------------------------------------

    def _build_rectangle(self):
        g = self.grid
        shape = g.shape
        multi = np.unravel_index(np.arange(g.n_nodes), shape)
        on_face = [(m == 0) | (m == g.n) for m in multi]
        bmask = np.logical_or.reduce(on_face)
        self.inside_mask = ~bmask
        self.active_mask = np.ones(g.n_nodes, dtype=bool)

        # faces: all grid faces; transverse trapezoid weights keep the
        # quadratic form exact for int |grad u|^2 with trapezoid quadrature
        fi, fj, fw, fh = [], [], [], []
        for a in range(g.dim):
            i, j = _axis_faces(g, a)
            w = np.full(i.shape, g.h[a])
            mi = np.unravel_index(i, shape)
            for b in range(g.dim):
                if b == a:
                    continue
                tw = _trapezoid_axis_weights(g, b)
                w = w * tw[mi[b]]
            fi.append(i); fj.append(j)
            fw.append(w)
            fh.append(np.full(i.shape, g.h[a]))
        self.faces = FaceSet(np.concatenate(fi), np.concatenate(fj),
                             np.concatenate(fw), np.concatenate(fh))

        # volume trapezoid weights
        w_vol = np.ones(shape)
        for a in range(g.dim):
            tw = _trapezoid_axis_weights(g, a)
            sl = [None] * g.dim
            sl[a] = slice(None)
            w_vol = w_vol * tw[tuple(sl)]
        self.w_vol = w_vol.ravel()

        # boundary: ordered cycle in 2-d, lexicographic in 3-d
        b_idx = np.flatnonzero(bmask)
        if g.dim == 2:
            b_idx = self._rectangle_cycle()
        normals = np.zeros((b_idx.size, g.dim))
        for a in range(g.dim):
            ca = np.unravel_index(b_idx, shape)[a]
            normals[:, a] = np.where(ca == 0, -1.0, 0.0) + np.where(ca == g.n, 1.0, 0.0)
        normals /= np.linalg.norm(normals, axis=1)[:, None]

        w_surf = np.zeros(g.n_nodes)
        for a in range(g.dim):
            for side in (0, g.n):
                face_nodes = np.flatnonzero(np.unravel_index(
                    np.arange(g.n_nodes), shape)[a] == side)
                w = np.ones(face_nodes.size)
                fm = np.unravel_index(face_nodes, shape)
                for b in range(g.dim):
                    if b == a:
                        continue
                    tw = _trapezoid_axis_weights(g, b)
                    w *= tw[fm[b]]
                np.add.at(w_surf, face_nodes, w)
        weights = w_surf[b_idx]

        ds = None
        if g.dim == 2:
            pts = g.coords[b_idx]
            ds = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        self.boundary = BoundaryInfo(b_idx, normals, weights, ds)
        self.trace = self._rectangle_trace(b_idx, normals)

    def _rectangle_cycle(self) -> np.ndarray:
        """Boundary nodes ordered counterclockwise around the rectangle."""
        g = self.grid
        n = g.n
        shape = g.shape

        def flat(i, j):
            return np.ravel_multi_index((i, j), shape)

        bottom = flat(np.arange(0, n + 1), np.zeros(n + 1, dtype=int))
        right = flat(np.full(n, n), np.arange(1, n + 1))
        top = flat(np.arange(n - 1, -1, -1), np.full(n, n))
        left = flat(np.zeros(n - 1, dtype=int), np.arange(n - 1, 0, -1))
        return np.concatenate([bottom, right, top, left])

    def _rectangle_trace(self, b_idx, normals) -> TraceOperator:
        """Second-order one-sided normal derivative at every boundary node."""
        g = self.grid
        shape = g.shape
        strides = np.array([int(np.prod(shape[a + 1:])) for a in range(g.dim)])
        rows, cols, vals = [], [], []
        multi = np.stack(np.unravel_index(b_idx, shape), axis=1)
        for r, (b, nu) in enumerate(zip(b_idx, normals)):
            for a in range(g.dim):
                if nu[a] == 0.0:
                    continue
                s = 1 if multi[r, a] == 0 else -1
                step = s * strides[a]
                # d_a u ~ s*(-3 u_b + 4 u_1 - u_2) / (2 h_a), inward nodes u_1, u_2
                coef = nu[a] * s / (2.0 * g.h[a])
                rows += [r, r, r]
                cols += [b, b + step, b + 2 * step]
                vals += [-3.0 * coef, 4.0 * coef, -1.0 * coef]
        op = sp.coo_matrix((vals, (rows, cols)),
                           shape=(b_idx.size, g.n_nodes)).tocsr()
        return TraceOperator(op, self.boundary.weights.copy(), b_idx.copy())

    def _build_masked(self, center: np.ndarray, radius: float):
        g = self.grid
        r2 = ((g.coords - center) ** 2).sum(axis=1)
        inside = r2 < radius**2 * (1.0 - 1e-12)
        shape = g.shape
        strides = np.array([int(np.prod(shape[a + 1:])) for a in range(g.dim)])
        multi = np.stack(np.unravel_index(np.arange(g.n_nodes), shape), axis=1)

        ring = np.zeros(g.n_nodes, dtype=bool)
        exposed = []  # (inside_idx, ring_idx, axis)
        for a in range(g.dim):
            for s in (-1, 1):
                ok = (multi[:, a] + s >= 0) & (multi[:, a] + s <= g.n)
                src = np.flatnonzero(inside & ok)
                nbr = src + s * strides[a]
                out = ~inside[nbr]
                ring[nbr[out]] = True
                exposed.append((src[out], nbr[out], np.full(out.sum(), a)))
        if not ring.any():
            raise ValueError("masked domain has no boundary ring; increase resolution")
        self.inside_mask = inside
        self.active_mask = inside | ring

        # faces with both endpoints active and at least one inside
        cell = float(np.prod(g.h))
        fi, fj, fw, fh = [], [], [], []
        for a in range(g.dim):
            i, j = _axis_faces(g, a)
            keep = (inside[i] | inside[j]) & self.active_mask[i] & self.active_mask[j]
            fi.append(i[keep]); fj.append(j[keep])
            fw.append(np.full(keep.sum(), cell))
            fh.append(np.full(keep.sum(), g.h[a]))
        self.faces = FaceSet(np.concatenate(fi), np.concatenate(fj),
                             np.concatenate(fw), np.concatenate(fh))

        self.w_vol = np.where(inside, cell, 0.0)

        ring_idx = np.flatnonzero(ring)
        if g.dim == 2:
            ang = np.arctan2(g.coords[ring_idx, 1] - center[1],
                             g.coords[ring_idx, 0] - center[0])
            ring_idx = ring_idx[np.argsort(ang)]
        vec = g.coords[ring_idx] - center
        normals = vec / np.linalg.norm(vec, axis=1)[:, None]

        # per-node surface weight: exposed staircase face area
        area = {a: cell / g.h[a] for a in range(g.dim)}
        w_surf = np.zeros(g.n_nodes)
        rows, cols, vals, w_tr, backing = [], [], [], [], []
        r = 0
        for src, nbr, ax in exposed:
            for i_in, j_rg, a in zip(src, nbr, ax):
                w_surf[j_rg] += area[a]
                # outward derivative across the exposed face, first order
                rows += [r, r]
                cols += [j_rg, i_in]
                vals += [1.0 / g.h[a], -1.0 / g.h[a]]
                w_tr.append(area[a])
                backing.append(j_rg)
                r += 1
        op = sp.coo_matrix((vals, (rows, cols)), shape=(r, g.n_nodes)).tocsr()

        ds = None
        if g.dim == 2:
            pts = g.coords[ring_idx]
            ds = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        self.boundary = BoundaryInfo(ring_idx, normals, w_surf[ring_idx], ds)
        self.trace = TraceOperator(op, np.asarray(w_tr), np.asarray(backing))

    # -- derived operators ---------------------------------------------------

    @cached_property
    def inside_idx(self) -> np.ndarray:
        return np.flatnonzero(self.inside_mask)

    @cached_property
    def K_ii(self) -> sp.csr_matrix:
        return self.K[self.inside_idx][:, self.inside_idx].tocsr()

    @cached_property
    def K_step(self):
        """``K`` in its stepping form (``stepping_form``)."""
        return stepping_form(self.K, self.grid.dim)

    @cached_property
    def K_ii_step(self):
        """``K_ii`` in its stepping form (``stepping_form``)."""
        return stepping_form(self.K_ii, self.grid.dim)

    @cached_property
    def K_ii_lu(self) -> spla.SuperLU:
        """Sparse LU of ``K_ii``, built on first use.

        ``K_ii`` is symmetric, so a minimum-degree ordering of ``A' + A``
        gives a sparser factor than the default COLAMD column ordering.
        """
        return spla.splu(self.K_ii.tocsc(), permc_spec="MMD_AT_PLUS_A")

    @cached_property
    def prolongations(self) -> list:
        """Fine-to-coarse chain of the multigrid interpolations ``P``, each
        (fine nodes, coarse nodes) in CSR, built on first use.

        Each ``P`` is the tensor product of ``_interpolation_1d`` over the
        axes, restricted to the rows of the level's nodes (the active nodes
        on the finest level) and to the coarse columns that hold entries,
        which are the next level's nodes.  The chain stops once every axis
        has at most ``COARSEST_NODES`` nodes, so it is empty on such a grid.
        """
        shape = self.grid.shape
        nodes = np.flatnonzero(self.active_mask)
        chain = []
        while max(shape) > COARSEST_NODES:
            axes = [_interpolation_1d(m) for m in shape]
            P = reduce(sp.kron, axes).tocsr()[nodes]
            nodes = np.flatnonzero(np.diff(P.tocsc().indptr))
            chain.append(P[:, nodes].tocsr())
            shape = tuple(p.shape[1] for p in axes)
        return chain

    @cached_property
    def K_ib(self) -> sp.csr_matrix:
        return self.K[self.inside_idx][:, self.boundary.idx].tocsr()

    @cached_property
    def layer_idx(self) -> np.ndarray:
        """Positions in ``inside_idx`` of the boundary layer: the rows of
        ``K_ib`` and the columns of ``trace_inside`` that hold entries.
        ``K_ib g`` is zero off the layer, and ``K_ib' x`` and the normal
        trace read ``x`` only on it.  Sorted."""
        return np.union1d(np.flatnonzero(np.diff(self.K_ib.indptr)),
                          self.trace_inside.indices)

    @cached_property
    def K_ib_layer(self) -> sp.csr_matrix:
        """The rows of ``K_ib`` on the boundary layer, the only ones with
        entries."""
        return self.K_ib[self.layer_idx]

    @cached_property
    def trace_layer_T(self) -> sp.csr_matrix:
        """The transpose of ``trace_inside`` on the boundary layer's columns,
        (n_layer, n_trace): ``x @ trace_layer_T`` is the interior part of the
        normal trace of levels ``x`` kept on the layer."""
        return self.trace_inside[:, self.layer_idx].T.tocsr()

    @cached_property
    def boundary_pos(self) -> np.ndarray:
        """Position in ``boundary.idx`` of every node, -1 off the boundary."""
        pos = np.full(self.n_nodes, -1)
        pos[self.boundary.idx] = np.arange(self.boundary.idx.size)
        return pos

    @cached_property
    def trace_inside(self) -> sp.csr_matrix:
        return self.trace.op[:, self.inside_idx].tocsr()

    @cached_property
    def trace_boundary(self) -> sp.csr_matrix:
        return self.trace.op[:, self.boundary.idx].tocsr()

    def grad_quadratic(self, u: np.ndarray, nodal_scale: np.ndarray | None = None) -> float:
        """int scale |grad u|^2 using the energy's face-difference gradient."""
        scale = None if nodal_scale is None else self.faces.mean_of(nodal_scale)
        return self.faces.quadratic(u, scale)

    def scatter(self, interior: np.ndarray, boundary_vals: np.ndarray | None = None) -> np.ndarray:
        full = np.zeros(self.n_nodes)
        full[self.inside_idx] = interior
        if boundary_vals is not None:
            full[self.boundary.idx] = boundary_vals
        return full
