"""Property tests over random multipliers, symbols, grids and expressions.

Derandomized: every run draws the same examples, so the suite stays
reproducible.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
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
    even = pdwell.schrodinger_matrix(lambda x: _poly(cx, x), g, 2.0)
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


# the custom-model grammar: literals, x, xi, + - * /, unary minus and
# non-negative integer powers, with and without parentheses
literals = st.integers(0, 9).map(str) | st.floats(0.0, 10.0).map(repr)


def _compound(sub):
    binary = st.tuples(sub, st.sampled_from("+-*/"), sub,
                       st.sampled_from(["({}) {} ({})", "{} {} {}"]))
    return (binary.map(lambda t: t[3].format(*t[:3]))
            | sub.map(lambda e: f"-{e}")
            | st.tuples(sub, st.integers(0, 3)).map(lambda t: f"({t[0]})**{t[1]}"))


expressions = st.recursive(literals | st.sampled_from(["x", "xi"]), _compound,
                           max_leaves=8)


@PROPERTY
@given(expressions, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_parse_symbol_accepts_its_grammar(text, x, xi):
    f = pdwell.parse_symbol(text)
    try:
        expected = eval(text, {"__builtins__": {}}, {"x": x, "xi": xi})
    except (ZeroDivisionError, OverflowError):
        assume(False)
    assume(math.isfinite(expected) and abs(expected) < 1e6)
    with np.errstate(all="ignore"):
        value = f(x, xi)
    # numpy's vectorized power and libm's pow differ in the last bits
    assert math.isclose(value, expected, rel_tol=1e-7, abs_tol=1e-7)


@PROPERTY
@given(coefficients, grids)
def test_weyl_symbol_in_x_only_is_diagonal(coeffs, g):
    # p(x) quantizes to multiplication by p at the nodes: the midpoint of
    # (x_j, x_j) is x_j and the momentum sum collapses to a Kronecker delta
    M = pdwell.weyl_matrix(lambda x, xi: _poly(coeffs, x) + 0.0*xi, g)
    D = np.diag(_poly(coeffs, g.x_nodes))
    assert np.linalg.norm(M.entries - D) <= 4 * EPS * np.linalg.norm(D)


@PROPERTY
@given(coefficients, grids)
def test_weyl_symbol_in_xi_only_is_circulant(coeffs, g):
    # no parity assumed: the Nyquist frequency leaves the circulant
    # non-Hermitian, and the assembly keeps its Hermitian part
    def a(xi):
        return _poly(coeffs, xi) / (1.0 + xi*xi)

    M = pdwell.weyl_matrix(lambda x, xi: a(xi) + 0.0*x, g)
    C = circulant(np.fft.ifft(a(g.eta_fft)))
    C = 0.5 * (C + C.conj().T)
    assert np.linalg.norm(M.entries - C) <= 4 * EPS * np.linalg.norm(C)


@PROPERTY
@given(coefficients, coefficients, grids)
def test_reflection_commutes_with_xi_even_operator(ca, cv, g):
    # U M U = M for U: x -> -x when a is even in xi and V even in x
    def a(xi):
        return _poly(ca, xi*xi) / (1.0 + xi*xi)

    def b(x, xi):
        return _poly(cv, x*x) + 0.0*xi

    m = pdwell.Model(a=pdwell.SymbolA(a),
                     b=pdwell.SymbolB(b, lambda x, xi: 0.0*x, xi_independent=True),
                     x_left=-1.0, x_right=1.0)
    M = pdwell.assemble_L(m, g).entries
    rev = pdwell.reverse_indices(g.n_points)
    assert np.linalg.norm(M[np.ix_(rev, rev)] - M) <= 4 * EPS * np.linalg.norm(M)
