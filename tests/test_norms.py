import numpy as np
import pytest

from paikit.norms import (TraceH1Form, tangential_derivative,
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
