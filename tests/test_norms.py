import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paikit.norms import (TraceH1Form, TraceNorms, tangential_derivative,
                          tangential_derivative_transpose, time_derivative,
                          time_derivative_transpose, time_weights)


# the plain expressions the in-place evaluation replaces, operation for operation

def _plain_time_derivative_transpose(r, dt):
    out = np.zeros_like(r)
    out[2:] += r[1:-1] / (2.0 * dt)
    out[:-2] -= r[1:-1] / (2.0 * dt)
    out[0] += -3.0 * r[0] / (2.0 * dt)
    out[1] += 4.0 * r[0] / (2.0 * dt)
    out[2] += -1.0 * r[0] / (2.0 * dt)
    out[-1] += 3.0 * r[-1] / (2.0 * dt)
    out[-2] += -4.0 * r[-1] / (2.0 * dt)
    out[-3] += 1.0 * r[-1] / (2.0 * dt)
    return out


def _plain_time_derivative(y, dt):
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    return d


def _plain_tangential_derivative(y, ds):
    span = ds + np.roll(ds, 1)
    return (np.roll(y, -1, axis=1) - np.roll(y, 1, axis=1)) / span


def _plain_norm_sq(y, dt, w_b, ds):
    w = time_weights(y.shape[0], dt)[:, None] * w_b[None, :]
    total = float((w * y * y).sum())
    dty = time_derivative(y, dt)
    total += float((w * dty * dty).sum())
    if ds is not None:
        dsy = tangential_derivative(y, ds)
        total += float((w * dsy * dsy).sum())
    return total


def _plain_apply(y, dt, w_b, ds):
    w = time_weights(y.shape[0], dt)[:, None] * w_b[None, :]
    out = w * y
    out += _plain_time_derivative_transpose(w * time_derivative(y, dt), dt)
    if ds is not None:
        out += tangential_derivative_transpose(w * tangential_derivative(y, ds), ds)
    return out


def _plain_trace_norms(y, dt, T, w_b, ds):
    """The separate L2, H1, H^{3/2} and t^{-1/2} norms ``trace_norms`` folds."""
    nt = y.shape[0]
    w_t = time_weights(nt, dt)
    l2 = float(np.sqrt(((w_t[:, None] * w_b[None, :]) * y * y).sum()))
    h1 = float(np.sqrt(_plain_norm_sq(y, dt, w_b, ds)))
    Y = np.fft.rfft(y, axis=0)
    mult = np.full(Y.shape[0], 2.0)
    mult[0] = 1.0
    if nt % 2 == 0:
        mult[-1] = 1.0
    xi = 2.0 * np.pi * np.arange(Y.shape[0]) / T
    sob = (1.0 + xi * xi) ** 1.5
    temporal = (dt / nt) * ((mult * sob)[:, None] * np.abs(Y) ** 2).sum(axis=0)
    total = float((w_b * temporal).sum())
    if ds is not None:
        dsy = tangential_derivative(y, ds)
        total += float((w_t[:, None] * w_b[None, :] * dsy * dsy).sum())
    h32 = float(np.sqrt(total))
    dty = time_derivative(y, dt)
    t = np.maximum(np.arange(nt) * dt, 0.5 * dt)
    q = (w_t / t)[:, None] * w_b[None, :] * dty * dty
    return {"l2": l2, "h1": h1, "h32": h32, "weighted_t": float(np.sqrt(q.sum()))}


@pytest.mark.parametrize("with_ds", [True, False])
@pytest.mark.parametrize("nt", [56, 57])
def test_trace_norms_match_plain_expressions(with_ds, nt):
    rng = np.random.default_rng(nt)
    nb, dt = 23, 0.013
    w_b = rng.uniform(0.5, 1.5, nb)
    ds = rng.uniform(0.02, 0.05, nb) if with_ds else None
    for k in range(8):
        y = rng.normal(size=(nt, nb))
        if k % 2:
            y *= rng.random((nt, nb)) < 0.002
        assert TraceNorms(nt, dt, nt * dt, w_b, ds)(y) == _plain_trace_norms(
            y, dt, nt * dt, w_b, ds)


@pytest.mark.parametrize("with_ds", [True, False])
def test_trace_norm_evaluator_keeps_no_state(with_ds):
    # one evaluator on A, then B, then A again gives A's first norms bit for
    # bit: nothing of B stays in its scratch arrays
    rng = np.random.default_rng(11)
    nt, nb, dt = 57, 23, 0.013
    w_b = rng.uniform(0.5, 1.5, nb)
    ds = rng.uniform(0.02, 0.05, nb) if with_ds else None
    norms_of = TraceNorms(nt, dt, nt * dt, w_b, ds)
    a, b = rng.normal(size=(2, nt, nb))
    first = norms_of(a)
    assert norms_of(b) == _plain_trace_norms(b, dt, nt * dt, w_b, ds)
    assert norms_of(a) == first == _plain_trace_norms(a, dt, nt * dt, w_b, ds)


@pytest.mark.parametrize("with_ds", [True, False])
def test_trace_form_matches_plain_expressions(with_ds):
    rng = np.random.default_rng(5)
    nt, nb, dt = 57, 23, 0.013
    w_b = rng.uniform(0.5, 1.5, nb)
    ds = rng.uniform(0.02, 0.05, nb) if with_ds else None
    form = TraceH1Form(dt, nt, w_b, ds)
    for k in range(12):
        y = rng.normal(size=(nt, nb))
        if k % 2:
            # a few entries carry the whole sum, so a value that is one ulp
            # off is not lost in rounding the total
            y *= rng.random((nt, nb)) < 0.002
        assert form.norm_sq(y) == _plain_norm_sq(y, dt, w_b, ds)
        assert np.array_equal(form.apply(y), _plain_apply(y, dt, w_b, ds))
        assert np.array_equal(time_derivative_transpose(y, dt),
                              _plain_time_derivative_transpose(y, dt))


@pytest.mark.parametrize("nb", [2, 3, 23])
def test_derivatives_match_plain_expressions(nb):
    rng = np.random.default_rng(nb)
    nt, dt = 57, 0.013
    ds = rng.uniform(0.02, 0.05, nb)
    for k in range(6):
        y = rng.normal(size=(nt, nb)) * 10.0 ** rng.integers(-8, 9, size=(nt, nb))
        if k % 2:
            y *= rng.random((nt, nb)) < 0.1
        out = np.full_like(y, np.nan)
        assert np.array_equal(time_derivative(y, dt), _plain_time_derivative(y, dt))
        assert time_derivative(y, dt, out) is out
        assert np.array_equal(out, _plain_time_derivative(y, dt))
        out[:] = np.nan
        assert np.array_equal(tangential_derivative(y, ds),
                              _plain_tangential_derivative(y, ds))
        assert tangential_derivative(y, ds, out) is out
        assert np.array_equal(out, _plain_tangential_derivative(y, ds))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), nt=st.integers(3, 40), nb=st.integers(2, 30))
def test_derivative_transposes_property(seed, nt, nb):
    # <D y, r> = <y, D' r> for the time and the tangential difference
    rng = np.random.default_rng(seed)
    dt = rng.uniform(1e-3, 1e-1)
    ds = rng.uniform(0.01, 0.1, nb)
    y, r = rng.normal(size=(2, nt, nb))
    for fwd, adj in ((time_derivative(y, dt), time_derivative_transpose(r, dt)),
                     (tangential_derivative(y, ds), tangential_derivative_transpose(r, ds))):
        bound = np.linalg.norm(fwd) * np.linalg.norm(r) + np.linalg.norm(y) * np.linalg.norm(adj)
        assert abs((fwd * r).sum() - (y * adj).sum()) <= 1e-12 * bound
