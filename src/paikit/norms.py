"""Discrete norms on grid fields and on boundary traces.

Trace norms follow one fixed, versioned recipe so that both sides of every
stability comparison use the same discrete definition:

* H1((0,T) x bdry): trapezoid-in-time, surface-weighted values plus centered
  temporal and tangential first differences.
* H^{3/2}: temporal DFT with multiplier (1 + xi^2)^{3/4} per boundary point,
  plus the spatial first-difference seminorm integrated in time.  The DFT
  runs over the N + 1 samples unpadded, since the multiplier acts on their
  periodic extension; ``wave_forward.time_grid`` makes every N + 1 11-smooth
  so that transform is fast.
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


# -- the H1((0,T) x bdry) quadratic form, value + gradient consistent --------

def _weighted_sq(w: np.ndarray, d: np.ndarray, buf: np.ndarray) -> float:
    """sum(w * d * d), evaluated left to right in ``buf``."""
    np.multiply(w, d, out=buf)
    buf *= d
    return float(buf.sum())


class TraceH1Form:
    """Quadratic form ||y||^2 = sum w_t w_b (y^2 + (Dt y)^2 + (Ds y)^2).

    ``apply`` returns the gradient of ``0.5 * norm_sq`` so misfit values and
    adjoint sources come from literally the same quadrature.
    """

    def __init__(self, dt: float, n_samples: int, w_b: np.ndarray,
                 ds: np.ndarray | None):
        self.dt = dt
        self.w_t = time_weights(n_samples, dt)
        self.w_b = w_b
        self.ds = ds
        self.w = self.w_t[:, None] * self.w_b[None, :]

    def norm_sq(self, y: np.ndarray) -> float:
        buf = np.empty_like(self.w)
        d = np.empty_like(self.w)
        total = _weighted_sq(self.w, y, buf)
        total += _weighted_sq(self.w, time_derivative(y, self.dt, d), buf)
        if self.ds is not None:
            total += _weighted_sq(self.w, tangential_derivative(y, self.ds, d), buf)
        return total

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


# -- public trace norms -------------------------------------------------------

class TraceNorms:
    """L2, H1, H^{3/2} and t^{-1/2}-weighted norms of traces on one time grid.

    ``TraceNorms(n_samples, dt, T, w_b, ds)(values)`` evaluates the norms of
    one (n_samples, nb) trace.  What depends on the grid alone, the weights
    ``w_t w_b`` and ``w_t w_b / t``, the spectral multiplier and the scratch
    arrays, is built once, so one evaluator serves any number of traces.

    The norms share their sums: the L2 sum is the first term of the H1
    form, the H^{3/2} spatial term is the H1 form's tangential sum, and
    one time derivative serves the H1 and the weighted norm.
    """

    def __init__(self, n_samples: int, dt: float, T: float, w_b: np.ndarray,
                 ds: np.ndarray | None):
        if n_samples < 4:
            raise ValueError("trace too short for the norm quadratures")
        self.dt, self.ds, self.w_b = dt, ds, w_b
        w_t = time_weights(n_samples, dt)
        self.w = w_t[:, None] * w_b[None, :]
        # the t = 0 sample is weighted at t = dt/2
        t = np.maximum(np.arange(n_samples) * dt, 0.5 * dt)
        self.w_weighted = (w_t / t)[:, None] * w_b[None, :]
        # H^{3/2} in time by discrete Parseval:
        # sum |y|^2 dt = (dt/nt) * sum_k mult_k |Y_k|^2
        n_freq = n_samples // 2 + 1
        mult = np.full(n_freq, 2.0)
        mult[0] = 1.0
        if n_samples % 2 == 0:
            mult[-1] = 1.0
        xi = 2.0 * np.pi * np.arange(n_freq) / T
        sob = (1.0 + xi * xi) ** 1.5
        self.spectral = (mult * sob)[:, None]
        self._buf = np.empty_like(self.w)
        self._d = np.empty_like(self.w)
        self._Y = np.empty((n_freq, w_b.size), dtype=complex)
        # the spectral power sits in the first rows of the scratch array,
        # which no sum needs while it is in use
        self._power = self._buf[:n_freq]

    def __call__(self, values: np.ndarray) -> dict:
        w, buf, d, ds = self.w, self._buf, self._d, self.ds
        l2_sq = _weighted_sq(w, values, buf)
        # the tangential term first, so that d then keeps the time derivative
        ds_sq = None
        if ds is not None:
            ds_sq = _weighted_sq(w, tangential_derivative(values, ds, d), buf)
        dty = time_derivative(values, self.dt, d)
        h1_sq = l2_sq + _weighted_sq(w, dty, buf)
        if ds_sq is not None:
            h1_sq += ds_sq

        power = self._power
        np.abs(np.fft.rfft(values, axis=0, out=self._Y), out=power)
        np.square(power, out=power)
        power *= self.spectral
        temporal = (self.dt / values.shape[0]) * power.sum(axis=0)
        h32_sq = float((self.w_b * temporal).sum())
        if ds_sq is not None:
            h32_sq += ds_sq

        wt_sq = _weighted_sq(self.w_weighted, dty, buf)
        return {"l2": float(np.sqrt(l2_sq)), "h1": float(np.sqrt(h1_sq)),
                "h32": float(np.sqrt(h32_sq)), "weighted_t": float(np.sqrt(wt_sq))}
