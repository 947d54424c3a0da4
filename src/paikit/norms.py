"""Discrete norms on grid fields and on boundary traces.

Trace norms follow one fixed, versioned recipe so that both sides of every
stability comparison, and the inversion's misfit, use the same discrete
definition.  One ``TraceForm`` per time grid and boundary holds it:

* H1((0,T) x bdry): trapezoid-in-time, surface-weighted values plus centered
  temporal and tangential first differences.  The misfit, its adjoint source
  and the public H1 norm all read this one sum.
* H^{3/2}: temporal DFT with multiplier (1 + xi^2)^{3/4} per boundary point,
  plus the spatial first-difference seminorm integrated in time.  The DFT
  runs over the N + 1 samples unpadded, since the multiplier acts on their
  periodic extension, whose period is n_samples dt = (N + 1) dt: the
  frequencies are xi_k = 2 pi k / (n_samples dt), and the Parseval factor is
  dt / n_samples.  ``wave_forward.time_grid`` makes every N + 1 11-smooth so
  that transform is fast.
* t^{-1/2}-weighted: the t = 0 sample is weighted with t = dt/2 so the
  integrable singularity stays finite.
"""

from __future__ import annotations

import numpy as np

from .grid import Discretization


# -- grid-field norms (central differences per the project convention) -------

def _central_gradient_sq(field2d: np.ndarray, h: np.ndarray) -> np.ndarray:
    """|grad u|^2 at interior nodes via central differences (ghost-free)."""
    g = np.zeros_like(field2d)
    core = tuple(slice(1, -1) for _ in range(field2d.ndim))
    for a in range(field2d.ndim):
        up = tuple(slice(2, None) if b == a else slice(1, -1) for b in range(field2d.ndim))
        dn = tuple(slice(0, -2) if b == a else slice(1, -1) for b in range(field2d.ndim))
        g[core] += ((field2d[up] - field2d[dn]) / (2.0 * h[a])) ** 2
    return g


def grid_l2(u: np.ndarray, disc: Discretization) -> float:
    return float(np.sqrt((disc.w_vol * u * u).sum()))


def grid_h1(u: np.ndarray, disc: Discretization) -> float:
    g = disc.grid
    grad2 = _central_gradient_sq(g.reshape(u), g.h).ravel()
    return float(np.sqrt((disc.w_vol * (u * u + grad2)).sum()))


def grid_h2(u: np.ndarray, disc: Discretization) -> float:
    g = disc.grid
    f = g.reshape(u)
    lap = np.zeros_like(f)
    core = tuple(slice(1, -1) for _ in range(f.ndim))
    for a in range(f.ndim):
        up = tuple(slice(2, None) if b == a else slice(1, -1) for b in range(f.ndim))
        dn = tuple(slice(0, -2) if b == a else slice(1, -1) for b in range(f.ndim))
        lap[core] += (f[up] - 2.0 * f[core] + f[dn]) / g.h[a] ** 2
    h1 = grid_h1(u, disc)
    return float(np.sqrt(h1 * h1 + (disc.w_vol * lap.ravel() ** 2).sum()))


# -- time quadrature and difference operators on traces ----------------------

def time_weights(n_samples: int, dt: float) -> np.ndarray:
    w = np.full(n_samples, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def time_derivative(y: np.ndarray, dt: float,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Centered in time, second-order one-sided at the ends.  y is (nt, nb).

    Written into ``out`` when given (same shape as y, not y itself).
    """
    d = np.empty_like(y) if out is None else out
    np.subtract(y[2:], y[:-2], out=d[1:-1])
    d[1:-1] /= 2.0 * dt
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    return d


def time_derivative_transpose(r: np.ndarray, dt: float) -> np.ndarray:
    """Exact transpose of ``time_derivative`` (needed by the misfit gradient)."""
    out = np.zeros_like(r)
    inner = r[1:-1] / (2.0 * dt)
    out[2:] += inner
    out[:-2] -= inner
    out[0] += -3.0 * r[0] / (2.0 * dt)
    out[1] += 4.0 * r[0] / (2.0 * dt)
    out[2] += -1.0 * r[0] / (2.0 * dt)
    out[-1] += 3.0 * r[-1] / (2.0 * dt)
    out[-2] += -4.0 * r[-1] / (2.0 * dt)
    out[-3] += 1.0 * r[-1] / (2.0 * dt)
    return out


def tangential_derivative(y: np.ndarray, ds: np.ndarray,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Centered difference along the closed boundary cycle.  y is (nt, nb).

    Written into ``out`` when given (same shape as y, not y itself).
    """
    span = ds + np.roll(ds, 1)  # distance from previous node to next node
    d = np.empty_like(y) if out is None else out
    np.subtract(y[:, 2:], y[:, :-2], out=d[:, 1:-1])
    np.subtract(y[:, 1], y[:, -1], out=d[:, 0])
    np.subtract(y[:, 0], y[:, -2], out=d[:, -1])
    d /= span
    return d


def tangential_derivative_transpose(r: np.ndarray, ds: np.ndarray) -> np.ndarray:
    span = ds + np.roll(ds, 1)
    q = r / span
    return np.roll(q, 1, axis=1) - np.roll(q, -1, axis=1)


# -- the trace form: the H1 misfit, its gradient and the public norms -------

def _weighted_sq(w: np.ndarray, d: np.ndarray, buf: np.ndarray) -> float:
    """sum(w * d * d), evaluated left to right in ``buf``."""
    np.multiply(w, d, out=buf)
    buf *= d
    return float(buf.sum())


class TraceForm:
    """The trace quadratures on one time grid and boundary.

    ``norm_sq(y)`` is the H1 form ``sum w_t w_b (y^2 + (Dt y)^2 + (Ds y)^2)``
    and ``apply(y)`` the gradient of ``0.5 * norm_sq``, so misfit values and
    adjoint sources come from literally the same quadrature.  ``form(y)``
    returns the L2, H1, H^{3/2} and t^{-1/2}-weighted norms of one
    (n_samples, nb) trace; its H1 norm is ``sqrt(norm_sq(y))`` bit for bit.

    The weights ``w_t w_b`` are built with the form.  The spectral
    multiplier, the t^{-1/2} weights and the complex scratch are built on
    the first ``form(y)`` only, so a form that serves the misfit and its
    gradient allocates none of them.  One form serves any number of traces.
    """

    def __init__(self, n_samples: int, dt: float, w_b: np.ndarray,
                 ds: np.ndarray | None):
        if n_samples < 4:
            raise ValueError("trace too short for the norm quadratures")
        self.dt, self.w_b, self.ds = dt, w_b, ds
        self.w_t = time_weights(n_samples, dt)
        self.w = self.w_t[:, None] * w_b[None, :]
        self._scratch = None    # (buf, d), built on the first sum
        self._spectral = None   # built on the first __call__

    @classmethod
    def of(cls, trace, disc: Discretization) -> "TraceForm":
        """The form on the time grid and weights of a ``BoundaryTrace``, with
        the tangential term of ``disc``'s boundary (none in 3-d)."""
        return cls(trace.n_samples, trace.dt, trace.weights, disc.boundary.ds)

    def _h1_sq(self, y: np.ndarray) -> tuple:
        """``(l2_sq, ds_sq, h1_sq)`` with ``h1_sq = (l2_sq + dt_sq) + ds_sq``
        (``ds_sq`` 0 without a tangential term).  The scratch array ``d``
        keeps the time derivative of ``y`` afterwards."""
        if self._scratch is None:
            self._scratch = (np.empty_like(self.w), np.empty_like(self.w))
        w, ds = self.w, self.ds
        buf, d = self._scratch
        l2_sq = _weighted_sq(w, y, buf)
        ds_sq = 0.0 if ds is None else \
            _weighted_sq(w, tangential_derivative(y, ds, d), buf)
        h1_sq = l2_sq + _weighted_sq(w, time_derivative(y, self.dt, d), buf) + ds_sq
        return l2_sq, ds_sq, h1_sq

    def norm_sq(self, y: np.ndarray) -> float:
        return self._h1_sq(y)[2]

    def apply(self, y: np.ndarray) -> np.ndarray:
        out = self.w * y
        d = time_derivative(y, self.dt)
        d *= self.w
        out += time_derivative_transpose(d, self.dt)
        if self.ds is not None:
            tangential_derivative(y, self.ds, d)
            d *= self.w
            out += tangential_derivative_transpose(d, self.ds)
        return out

    def _spectral_parts(self) -> tuple:
        """``(multiplier, t^{-1/2} weights, complex scratch)``, built once."""
        if self._spectral is None:
            n_samples, dt = self.w_t.size, self.dt
            # the t = 0 sample is weighted at t = dt/2
            t = np.maximum(np.arange(n_samples) * dt, 0.5 * dt)
            w_weighted = (self.w_t / t)[:, None] * self.w_b[None, :]
            # H^{3/2} in time by discrete Parseval over the periodic
            # extension of the samples, period n_samples dt:
            # sum |y|^2 dt = (dt/n_samples) * sum_k mult_k |Y_k|^2
            n_freq = n_samples // 2 + 1
            mult = np.full(n_freq, 2.0)
            mult[0] = 1.0
            if n_samples % 2 == 0:
                mult[-1] = 1.0
            xi = 2.0 * np.pi * np.arange(n_freq) / (n_samples * dt)
            sob = (1.0 + xi * xi) ** 1.5
            Y = np.empty((n_freq, self.w_b.size), dtype=complex)
            self._spectral = ((mult * sob)[:, None], w_weighted, Y)
        return self._spectral

    def __call__(self, values: np.ndarray) -> dict:
        # the L2 sum is the H1 form's first term, the H^{3/2} spatial term
        # its tangential sum, and its time derivative serves the weighted norm
        l2_sq, ds_sq, h1_sq = self._h1_sq(values)
        buf, dty = self._scratch
        spectral, w_weighted, Y = self._spectral_parts()

        # the spectral power sits in the first rows of the scratch array,
        # which no sum needs while it is in use
        power = buf[:Y.shape[0]]
        np.abs(np.fft.rfft(values, axis=0, out=Y), out=power)
        np.square(power, out=power)
        power *= spectral
        temporal = (self.dt / values.shape[0]) * power.sum(axis=0)
        h32_sq = float((self.w_b * temporal).sum()) + ds_sq

        wt_sq = _weighted_sq(w_weighted, dty, buf)
        return {"l2": float(np.sqrt(l2_sq)), "h1": float(np.sqrt(h1_sq)),
                "h32": float(np.sqrt(h32_sq)), "weighted_t": float(np.sqrt(wt_sq))}
