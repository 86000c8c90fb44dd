"""Brute-force midpoint-rule oracle for the continuum integrals.

Deliberately independent of the adaptive engine: a uniform grid over
[0, 60*cutoff], optionally Richardson-checked by doubling the point count.
"""

import numpy as np

from ptbath.continuum import _phase_columns, gamma_integrand_hermitian, gamma_integrand_nh


def phase_rows(w, spec, t, thetas):
    """The integrand of each coupling phase in thetas at the nodes w, one row
    per phase: T0 + sin cos T1 + cos^2 T2 of gamma_integrand_nh's terms at
    every node, as core.dephasing_kernel combines them."""
    terms = gamma_integrand_nh(w, spec, t)
    sc, c2 = (c.reshape((-1,) + (1,) * np.ndim(w)) for c in _phase_columns(thetas))
    return terms[0] + sc * terms[1] + c2 * terms[2]


def riemann_gamma_nh(spec, t, n=2_000_000):
    hi = 60.0 * spec.cutoff
    w = (np.arange(n) + 0.5) * (hi / n)
    return float(phase_rows(w, spec, t, [spec.theta])[0].sum() * (hi / n))


def riemann_gamma_hermitian(amplitude, cutoff, temperature, t, n=2_000_000):
    hi = 60.0 * cutoff
    w = (np.arange(n) + 0.5) * (hi / n)
    return float(gamma_integrand_hermitian(w, amplitude, cutoff, temperature, t).sum() * (hi / n))
