"""Domains, star-shaped inclusions, and piecewise-constant speed fields.

The acoustic speed is ``c = 1 + (a - 1) * chi`` where ``chi`` is the
(smoothed) indicator of the inclusion and the contrast ``a`` lies in
(1/2, 1).  Inclusions are radial graphs ``r(theta)`` about a center ``x0``,
which makes them star-shaped by construction; ``star_shape_check`` verifies
this numerically anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import Discretization, NodeGrid

CONTRAST_LO = 0.5
CONTRAST_CONTROL_LO = 0.75  # control/observability certification threshold
R_MIN = 1e-3                # smallest admissible inclusion radius
MARGIN = 0.02               # inclusion clearance to the boundary, in diameters
HORIZON_DIAMS = 4.0         # the experiments' horizon T = 4 diam
SMOOTHING_CELLS = 1.5       # interface smoothing width, in grid cells h_min
STAR_SAMPLES = 720          # boundary samples of star_shape_check


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Domain:
    """Computational domain: an axis-aligned rectangle/box or a disk/ball."""

    shape: str               # "rectangle" | "disk"
    dimension: int
    grid_resolution: int     # cells per axis of the bounding box
    lo: tuple = None
    hi: tuple = None
    center: tuple = None
    radius: float = None

    @staticmethod
    def rectangle(lo, hi, n: int) -> "Domain":
        lo = tuple(float(v) for v in lo)
        hi = tuple(float(v) for v in hi)
        return Domain("rectangle", len(lo), int(n), lo=lo, hi=hi)

    @staticmethod
    def disk(center, radius: float, n: int) -> "Domain":
        center = tuple(float(v) for v in center)
        return Domain("disk", len(center), int(n), center=center, radius=float(radius))

    def __post_init__(self):
        if self.dimension not in (2, 3):
            raise GeometryError("dimension must be 2 or 3")
        if self.shape == "rectangle":
            if self.lo is None or self.hi is None:
                raise GeometryError("rectangle domain needs lo and hi")
        elif self.shape == "disk":
            if self.center is None or self.radius is None or self.radius <= 0:
                raise GeometryError("disk domain needs center and positive radius")
        else:
            raise GeometryError(f"unknown domain shape {self.shape!r}")
        if self.diam <= 0:
            raise GeometryError("domain diameter must be positive")

    @property
    def diam(self) -> float:
        if self.shape == "rectangle":
            return float(np.linalg.norm(np.asarray(self.hi) - np.asarray(self.lo)))
        return 2.0 * self.radius

    @cached_property
    def disc(self) -> Discretization:
        if self.shape == "rectangle":
            grid = NodeGrid(self.lo, self.hi, self.grid_resolution)
            return Discretization(grid, "rectangle")
        pad = tuple(c - self.radius for c in self.center)
        top = tuple(c + self.radius for c in self.center)
        grid = NodeGrid(pad, top, self.grid_resolution)
        return Discretization(grid, "disk", center=self.center, radius=self.radius)

    @property
    def grid(self) -> NodeGrid:
        return self.disc.grid

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.shape == "rectangle":
            lo, hi = np.asarray(self.lo), np.asarray(self.hi)
            ok = np.all((pts > lo) & (pts < hi), axis=1)
        else:
            ok = np.linalg.norm(pts - np.asarray(self.center), axis=1) < self.radius
        return ok if ok.size > 1 else bool(ok[0])

    def dist_to_boundary(self, point) -> float:
        p = np.asarray(point, dtype=float)
        if self.shape == "rectangle":
            lo, hi = np.asarray(self.lo), np.asarray(self.hi)
            return float(min((p - lo).min(), (hi - p).min()))
        return float(self.radius - np.linalg.norm(p - np.asarray(self.center)))


@dataclass(frozen=True)
class StarInclusion:
    """Radial graph about ``x0``: r(theta) = r0 + sum a_k cos(k th) + b_k sin(k th).

    In 3-d the expansion is zonal (axisymmetric Legendre modes in the polar
    angle); the observability experiments only exercise the spherical case.
    """

    x0: tuple
    r0: float
    cos_coeffs: tuple = ()
    sin_coeffs: tuple = ()

    def __post_init__(self):
        if self.r0 <= 0:
            raise GeometryError("degenerate radius: r0 must be positive")
        k = max(len(self.cos_coeffs), len(self.sin_coeffs))
        n_samples = max(360, 36 * max(k, 1))
        r = self.radius(np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False))
        if r.min() <= R_MIN:
            raise GeometryError(
                f"invalid geometry: min radius {r.min():.4g} <= r_min {R_MIN:.4g}")

    @property
    def dim(self) -> int:
        return len(self.x0)

    @property
    def k_max(self) -> int:
        return max(len(self.cos_coeffs), len(self.sin_coeffs))

    @property
    def params(self) -> np.ndarray:
        """Coefficient vector [r0, a_1..a_K, b_1..b_K] (2-d convention)."""
        k = self.k_max
        a = np.zeros(k)
        b = np.zeros(k)
        a[: len(self.cos_coeffs)] = self.cos_coeffs
        b[: len(self.sin_coeffs)] = self.sin_coeffs
        return np.concatenate([[self.r0], a, b])

    @staticmethod
    def from_params(x0, params: np.ndarray, k_max: int) -> "StarInclusion":
        params = np.asarray(params, dtype=float)
        return StarInclusion(tuple(x0), float(params[0]),
                             tuple(params[1:1 + k_max]),
                             tuple(params[1 + k_max:1 + 2 * k_max]))

    def radius(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        r = np.full(theta.shape, self.r0)
        if self.dim == 2:
            for k, a in enumerate(self.cos_coeffs, start=1):
                r = r + a * np.cos(k * theta)
            for k, b in enumerate(self.sin_coeffs, start=1):
                r = r + b * np.sin(k * theta)
        else:
            # zonal Legendre modes in cos(polar angle)
            if self.cos_coeffs:
                coef = np.concatenate([[0.0], self.cos_coeffs])
                r = r + np.polynomial.legendre.legval(np.cos(theta), coef)
        return r

    def radius_jacobian(self, theta: np.ndarray) -> np.ndarray:
        """d r(theta) / d params, shape (len(theta), 1 + 2 k_max).  2-d only."""
        if self.dim != 2:
            raise GeometryError("radial-coefficient jacobian is 2-d only")
        theta = np.asarray(theta, dtype=float)
        k = self.k_max
        cols = [np.ones_like(theta)]
        cols += [np.cos(m * theta) for m in range(1, k + 1)]
        cols += [np.sin(m * theta) for m in range(1, k + 1)]
        return np.stack(cols, axis=1)

    def radius_prime(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        r = np.zeros(theta.shape)
        if self.dim == 2:
            for k, a in enumerate(self.cos_coeffs, start=1):
                r = r - a * k * np.sin(k * theta)
            for k, b in enumerate(self.sin_coeffs, start=1):
                r = r + b * k * np.cos(k * theta)
        else:
            if self.cos_coeffs:
                coef = np.concatenate([[0.0], self.cos_coeffs])
                dcoef = np.polynomial.legendre.legder(coef)
                r = -np.sin(theta) * np.polynomial.legendre.legval(np.cos(theta), dcoef)
        return r

    def angles_of(self, points: np.ndarray) -> np.ndarray:
        v = np.atleast_2d(points) - np.asarray(self.x0)
        if self.dim == 2:
            return np.arctan2(v[:, 1], v[:, 0])
        s = np.linalg.norm(v, axis=1)
        s = np.where(s == 0.0, 1.0, s)
        return np.arccos(np.clip(v[:, 2] / s, -1.0, 1.0))

    def level_set(self, points: np.ndarray) -> np.ndarray:
        """|x - x0| - r(theta(x)); negative inside, positive outside."""
        v = np.atleast_2d(points) - np.asarray(self.x0)
        return np.linalg.norm(v, axis=1) - self.radius(self.angles_of(points))

    def boundary_points(self, n: int = 720) -> np.ndarray:
        th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        r = self.radius(th)
        if self.dim == 2:
            return np.asarray(self.x0) + np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        raise GeometryError("boundary_points sampling is 2-d only")

    def max_radius(self) -> float:
        th = np.linspace(0.0, 2.0 * np.pi, max(720, 36 * max(self.k_max, 1)), endpoint=False)
        return float(self.radius(th).max())

    def validate_inside(self, domain: Domain, margin: float) -> None:
        if not domain.contains(np.asarray(self.x0)):
            raise GeometryError("inclusion center x0 lies outside the domain")
        room = domain.dist_to_boundary(self.x0) - margin
        if self.max_radius() >= room:
            raise GeometryError(
                f"inclusion touches the boundary: max radius {self.max_radius():.4g} "
                f">= allowed {room:.4g} (margin {margin:.4g})")


def star_shape_check(inclusion: StarInclusion):
    """Numerical check of n . (x - x0) >= 0 on the inclusion boundary.

    The boundary is sampled, outward normals are built from
    finite-difference tangents of the sampled points (so the check does not
    reuse the radial-graph identity it is meant to confirm), and the worst
    inner product with x - x0 is returned as ``(ok, worst_margin)``.
    """
    n = STAR_SAMPLES
    if inclusion.dim == 2:
        pts = inclusion.boundary_points(n)
        if inclusion.radius(np.linspace(0, 2 * np.pi, n, endpoint=False)).min() <= 0:
            raise GeometryError("degenerate radius in star-shape check")
        tang = np.roll(pts, -1, axis=0) - np.roll(pts, 1, axis=0)
        normal = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
        normal /= np.linalg.norm(normal, axis=1)[:, None]
        margin = (normal * (pts - np.asarray(inclusion.x0))).sum(axis=1)
    else:
        # zonal surface: profile normal (r u - r' t) in the meridian plane
        th = np.linspace(1e-3, np.pi - 1e-3, n)
        r = inclusion.radius(th)
        if r.min() <= 0:
            raise GeometryError("degenerate radius in star-shape check")
        rp = inclusion.radius_prime(th)
        margin = (r * r) / np.sqrt(r * r + rp * rp)
    worst = float(margin.min())
    return worst >= -1e-10, worst


def _smoothstep(z: np.ndarray) -> np.ndarray:
    """C^2 step: 0 for z <= -1, 1 for z >= 1, quintic blend between."""
    z = np.clip(z, -1.0, 1.0)
    return 0.5 + z * (0.9375 + z * z * (-0.625 + 0.1875 * z * z))


def _smoothstep_prime(z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    m = np.abs(z) < 1.0
    zm = z[m]
    out[m] = 0.9375 * (1.0 - zm * zm) ** 2
    return out


@dataclass
class SpeedField:
    """Grid sampling of c = 1 + (a-1) 1_omega and derived powers."""

    a: float
    eps: float
    chi: np.ndarray
    rho: np.ndarray | None          # the level set behind chi; None if c == 1
    inclusion: StarInclusion | None
    domain: Domain

    @cached_property
    def c(self) -> np.ndarray:
        return 1.0 + (self.a - 1.0) * self.chi

    @cached_property
    def c2(self) -> np.ndarray:
        return self.c * self.c

    @cached_property
    def c_inv2(self) -> np.ndarray:
        return 1.0 / self.c2

    @property
    def c_max(self) -> float:
        return float(self.c.max())

    def indicator_crisp(self) -> np.ndarray:
        """1 inside the inclusion and 0 outside; 0 everywhere if c == 1."""
        if self.rho is None:
            return np.zeros_like(self.chi)
        return (self.rho < 0.0).astype(float)


def interface_width(domain: Domain) -> float:
    """Half-width of the band over which the indicator is smoothed; the one
    place it is decided."""
    return SMOOTHING_CELLS * domain.grid.h_min


def build_speed_field(inclusion: StarInclusion | None, a: float,
                      domain: Domain) -> SpeedField:
    """Speed field for contrast ``a`` in (1/2, 1); a = 1 gives c == 1.

    The indicator is the smoothed step of the radial level set over
    ``|rho| < eps``, ``eps = interface_width(domain)``.  The inclusion must
    keep ``MARGIN * diam`` clear of the boundary.
    """
    if not (CONTRAST_LO < a <= 1.0):
        raise GeometryError(f"contrast a={a} outside (1/2, 1]")
    if inclusion is None or a == 1.0:
        chi = np.zeros(domain.grid.n_nodes)
        return SpeedField(a, 0.0, chi, None, inclusion, domain)
    inclusion.validate_inside(domain, MARGIN * domain.diam)
    ok, worst = star_shape_check(inclusion)
    if not ok:
        raise GeometryError(f"inclusion is not star-shaped about x0 (margin {worst:.3g})")
    eps = interface_width(domain)
    rho = inclusion.level_set(domain.grid.coords)
    chi = _smoothstep(-rho / eps)
    return SpeedField(float(a), float(eps), chi, rho, inclusion, domain)


def farthest_distance(domain: Domain, x0) -> float:
    """C(x0) = max over the domain of |x - x0|, exact for the analytic shapes."""
    x0 = np.asarray(x0, dtype=float)
    if not domain.contains(x0):
        raise GeometryError("x0 lies outside the domain")
    if domain.shape == "rectangle":
        lo, hi = np.asarray(domain.lo), np.asarray(domain.hi)
        corners = np.stack(np.meshgrid(*zip(lo, hi), indexing="ij"),
                           axis=-1).reshape(-1, domain.dimension)
        return float(np.linalg.norm(corners - x0, axis=1).max())
    return float(np.linalg.norm(x0 - np.asarray(domain.center)) + domain.radius)
