"""Property tests over random multipliers, symbols, grids and expressions.

Derandomized: every run draws the same examples, so the suite stays
reproducible.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import circulant

import pdwell
from pdwell import ConfigurationError

EPS = np.finfo(float).eps

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)

coefficients = st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4)
grids = st.builds(lambda k, h: pdwell.make_grid(8.0, 2**k, h, xi_min=0.0),
                  st.integers(3, 8), st.floats(0.01, 1.0))


def _poly(coeffs, t):
    return sum(c * t**k for k, c in enumerate(coeffs))


@PROPERTY
@given(coefficients, grids)
def test_even_multiplier_circulant_is_real(coeffs, g):
    def a(xi):
        return _poly(coeffs, xi*xi) / (1.0 + xi*xi)

    C = pdwell.fourier_multiplier_matrix(a, g)
    assert C.dtype == np.float64
    complex_C = circulant(np.fft.ifft(a(g.eta_fft)))
    assert np.linalg.norm(C - complex_C) <= 4 * EPS * np.linalg.norm(complex_C)


@PROPERTY
@given(coefficients, coefficients, grids)
def test_symmetrized_matrices_exactly_hermitian(cx, cxi, g):
    coupled = pdwell.weyl_matrix(lambda x, xi: _poly(cx, x) * _poly(cxi, xi), g)
    assert coupled.entries.dtype == np.complex128
    even = pdwell.schrodinger_matrix(lambda x: _poly(cx, x), g, g.h, 2.0)
    assert even.entries.dtype == np.float64
    for M in (coupled, even):
        assert np.array_equal(M.entries, M.entries.conj().T)


@PROPERTY
@given(st.text(max_size=40)
       | st.text(alphabet="x i+-*/()0123456789.e_[]'", max_size=40))
def test_parse_symbol_raises_only_configuration_error(expr):
    try:
        pdwell.parse_symbol(expr)
    except ConfigurationError:
        pass
