"""Property tests over random multipliers, symbols, grids and expressions.

Derandomized: every run draws the same examples, so the suite stays
reproducible.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import circulant, eigh

import pdwell
from pdwell import ConfigurationError
from pdwell.model import CumulativeIntegral
from pdwell.quantize import (_circulant_plus_diagonal, _circulant_view,
                             _multiplier_column)

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

    C = np.array(_circulant_view(_multiplier_column(a, g)))
    assert C.dtype == np.float64
    complex_C = circulant(np.fft.ifft(a(g.eta_fft)))
    assert np.linalg.norm(C - complex_C) <= 4 * EPS * np.linalg.norm(complex_C)


@PROPERTY
@given(coefficients, coefficients, grids)
def test_symmetrized_matrices_exactly_hermitian(cx, cxi, g):
    coupled = pdwell.weyl_matrix(lambda x, xi: _poly(cx, x) * _poly(cxi, xi), g)
    assert coupled.entries.dtype == np.complex128
    even = pdwell.schrodinger_matrix(lambda x: _poly(cx, x), g, 2.0)
    assert even.dense().dtype == np.float64
    for A in (coupled.entries, even.dense()):
        assert np.array_equal(A, A.conj().T)


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


def _even_model(ca, cv):
    """a(xi) even in xi and b = V(x) even in x, so U L_h U = L_h."""
    def a(xi):
        return _poly(ca, xi*xi) / (1.0 + xi*xi)

    def b(x, xi):
        return _poly(cv, x*x) + 0.0*xi

    return pdwell.Model(a=a, b=b, x_right=1.0, xi_independent=True)


@PROPERTY
@given(coefficients, coefficients, grids)
def test_reflection_commutes_with_xi_even_operator(ca, cv, g):
    # U M U = M for U: x -> -x when a is even in xi and V even in x
    M = pdwell.assemble_L(_even_model(ca, cv), g).dense()
    rev = pdwell.reverse_indices(g.n_points)
    assert np.linalg.norm(M[np.ix_(rev, rev)] - M) <= 4 * EPS * np.linalg.norm(M)


# LAPACK's index-range eigensolvers (dsyevr, dsyevx), which the dense and
# the sector path both call, lose relative accuracy once ||M|| falls below
# about 1e-146, and can stop with an internal error on a numerically scalar
# matrix whose off-diagonal entries square to underflow. Coefficients of
# magnitude below 1e-100 build such matrices, so the sector property draws
# none; CHANGES.md records the LAPACK behaviour.
solvable = st.lists(st.floats(-3.0, 3.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-100),
                    min_size=1, max_size=4)


@PROPERTY
@given(solvable, solvable, grids, st.sampled_from(["1", "N/2", "N"]))
def test_parity_sectors_match_dense_eigh(ca, cv, g, k_rule):
    # k = N/2 asks for more pairs than the odd block (N/2 - 1) holds; the
    # oracle solves the full matrix for its whole spectrum
    M = pdwell.assemble_L(_even_model(ca, cv), g)
    assert M.reflection_symmetric
    N = g.n_points
    k = {"1": 1, "N/2": N // 2, "N": N}[k_rule]
    pairs = pdwell.lowest_eigenpairs(M, k)
    A = M.dense()
    ref, Q = eigh(A)
    norm = np.linalg.norm(A, 2)
    got = np.array([p.value for p in pairs])
    assert np.max(np.abs(got - ref[:k])) <= 32 * EPS * norm

    # each isolated level's vector agrees up to sign, and so its spectral
    # projector: ||v v^T - q q^T|| <= sqrt 2 min ||v -+ q||
    gaps = np.diff(ref)
    sep = np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))
    rev = pdwell.reverse_indices(N)
    for i, p in enumerate(pairs):
        v = p.vector
        assert np.array_equal(v[rev], v) or np.array_equal(v[rev], -v)
        j = int(np.argmax(np.abs(v)))
        assert j <= N // 2 and v[j] > 0
        if sep[i] > 1e-8 * norm:
            v = v * np.sqrt(g.dx)
            q = Q[:, i]
            dist = min(np.linalg.norm(v - q), np.linalg.norm(v + q))
            assert dist <= 32 * EPS * norm / sep[i]


@PROPERTY
@given(coefficients, coefficients, grids, st.floats(-1.0, 1.0))
def test_column_symmetrization_matches_full_matrix(ca, cv, g, odd):
    # the O(N) symmetrization of a circulant plus a diagonal against the
    # N x N route it replaced: circulant, then 0.5 (M + M^H)
    def a(xi):
        return (_poly(ca, xi*xi) + odd * xi) / (1.0 + xi*xi)

    def V(x):
        return _poly(cv, x)

    got = _circulant_plus_diagonal(a, V, g.h, g).dense()
    M = np.array(_circulant_view(_multiplier_column(a, g)))
    M[np.diag_indices_from(M)] += g.h * V(g.x_nodes)
    expected = 0.5 * (M + M.conj().T)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


def _take_blocks(A):
    """The parity blocks of A by the np.take route the column one replaced,
    before the even block's scaling."""
    N = A.shape[0]
    half = N // 2
    rev = pdwell.reverse_indices(N)
    even = np.take(A[:half + 1], rev[:half + 1], axis=1)
    even += A[:half + 1, :half + 1]
    odd = np.take(A[1:half], rev[1:half], axis=1)
    np.subtract(A[1:half, 1:half], odd, out=odd)
    return even, odd


@PROPERTY
@given(coefficients, coefficients, coefficients, grids,
       st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_column_form_matches_circulant_route(ca, cv, ck, g, odd, sealed, seed):
    # a circulant plus a diagonal, held as column and diagonal, against the
    # N x N routes it replaced: scipy's circulant of the symmetrized column
    # plus the diagonals in the order (c_0 + h V) + h k, its product, and
    # its parity blocks taken with np.take
    def a(xi):
        return (_poly(ca, xi*xi) + odd * xi) / (1.0 + xi*xi)

    M = _circulant_plus_diagonal(a, lambda x: _poly(cv, x), g.h, g)
    assert M.entries is None
    expected = circulant(M.column)
    expected[np.diag_indices_from(expected)] += g.h * _poly(cv, g.x_nodes)
    if sealed:
        seal = pdwell.SealingFunction(evaluator=lambda x: _poly(ck, x), eta=0.4)
        M = pdwell.assemble_onewell(M, seal)
        expected[np.diag_indices_from(expected)] += g.h * _poly(ck, g.x_nodes)
    dense = M.dense()
    buffer = np.full(dense.shape, np.nan, dtype=dense.dtype)
    assert dense.flags.f_contiguous and M.dense(out=buffer) is buffer
    assert dense.tobytes() == buffer.tobytes() == expected.tobytes()

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.n_points)
    for w in (v, v + 1j * rng.standard_normal(g.n_points)):
        bound = 64 * EPS * np.linalg.norm(dense) * np.linalg.norm(w)
        assert np.linalg.norm(M.apply(w) - dense @ w) <= bound

    for parity, block in zip((1.0, -1.0), _take_blocks(expected)):
        assert M.parity_block(parity).tobytes() == block.tobytes()


def _any_grid(N, h, L=8.0):
    """Grid of any even size N; make_grid admits only powers of two."""
    dx = L / N
    return pdwell.Grid(n_points=N, length=L, h=h, dx=dx,
                       x_nodes=-L/2.0 + dx * np.arange(N))


def _weyl_oracle(p, g):
    """The assembly route the lean one replaced: blocks of 512
    anti-diagonals, a loop over anti-diagonals, then 0.5 (M + M^H) with the
    full adjoint."""
    N = g.n_points
    eta = g.eta_fft
    mids = -g.length/2.0 + np.arange(2*N - 1) * (g.dx/2.0)
    M = np.zeros((N, N), dtype=np.complex128)
    for start in range(0, 2*N - 1, 512):
        cs = np.arange(start, min(start + 512, 2*N - 1))
        P = np.asarray(p(mids[cs][:, None], eta[None, :]), dtype=float)
        W = np.fft.ifft(P, axis=1)
        for i, c in enumerate(cs):
            js = np.arange(max(0, c - N + 1), min(c, N - 1) + 1)
            M[js, c - js] = W[i, (2*js - c) % N]
    return 0.5 * (M + M.conj().T)


def _assert_matches_oracle(p, g):
    got = pdwell.weyl_matrix(p, g)
    # bytes, not values, so that the signs of zeros must agree too
    assert got.entries.tobytes() == _weyl_oracle(p, g).tobytes()


# sizes below and above one 64-wide block; 2N - 1 anti-diagonals always
# leave the last block part full
ODD_SIZES = (2, 8, 96, 512)


@pytest.mark.parametrize("N", ODD_SIZES)
def test_lean_weyl_assembly_matches_old_route_on_model_b(model_b, N):
    g = _any_grid(N, 0.07)

    def combined(x, xi):
        return model_b.a(xi) + g.h * model_b.b(x, xi)

    _assert_matches_oracle(combined, g)


@PROPERTY
@given(coefficients, coefficients, st.sampled_from(ODD_SIZES),
       st.floats(0.01, 1.0), st.floats(0.1, 1.0))
def test_lean_weyl_assembly_matches_old_route(cx, cxi, N, h, odd):
    # a xi-odd symbol, so the matrix is complex Hermitian
    def p(x, xi):
        return _poly(cx, x) * (_poly(cxi, xi*xi) + odd * xi) / (1.0 + xi*xi)

    _assert_matches_oracle(p, _any_grid(N, h))


def _full_query(t, x):
    """The query rule without shortcuts: clip, then the n_gauss-point sum over
    the partial cell, also where its width is zero."""
    x = np.asarray(x, dtype=float)
    xc = np.clip(x, t.lo, t.hi)
    idx = np.minimum(((xc - t.lo) / t.width).astype(int), len(t.edges) - 2)
    a = t.edges[idx]
    half = 0.5 * (xc - a)
    mid = 0.5 * (xc + a)
    xs = mid[..., None] + half[..., None] * t.nodes
    vals = np.asarray(t.f(xs.ravel())).reshape(xs.shape)
    return t.cum[idx] + half * np.einsum("...g,g->...", vals, t.weights)


def _full_cumsum(t, n_cells):
    """The cumulative table from one integrand call on every cell."""
    mids = 0.5 * (t.edges[:-1] + t.edges[1:])
    xs = mids[:, None] + 0.5 * t.width * t.nodes[None, :]
    vals = np.asarray(t.f(xs.ravel())).reshape(n_cells, len(t.nodes))
    cell = 0.5 * t.width * np.einsum("cg,g->c", vals, t.weights)
    return np.concatenate([np.zeros(1, dtype=cell.dtype), np.cumsum(cell)])


# dyadic tables (lo and the cell width powers of two times integers, like
# every table the package builds) place hi on their last edge exactly, so
# the full rule's sum over the last cell at hi is the cached cell sum; on
# general tables hi - edges[-2] differs from the width by roundoff
dyadic_tables = st.builds(lambda j, i, n: (-i * 2.0**-j, (n - i) * 2.0**-j, n, True),
                          st.integers(0, 8), st.integers(0, 600), st.integers(1, 700))
general_tables = st.builds(lambda lo, length, n: (lo, lo + length, n, False),
                           st.floats(-6.0, 0.0), st.floats(0.1, 12.0), st.integers(1, 700))


@PROPERTY
@given(st.one_of(dyadic_tables, general_tables), st.floats(-2.0, 2.0),
       st.sampled_from([0.0, -1.5, 2.5]),
       st.lists(st.integers(0, 10**6), min_size=1, max_size=6),
       st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=6),
       st.floats(0.0, 5.0, exclude_min=True))
def test_cumulative_query_matches_full_rule(table, c, w, edge_draws, fracs, beyond):
    # exp(c x) + i exp(w x) has positive parts, so no cached sum past lo is a
    # signed zero whose sign the skipped 0 * sum could have flipped
    lo, hi, n, dyadic = table
    if w == 0.0:
        def f(x):
            return np.exp(c * x)
    else:
        def f(x):
            return np.exp(c * x) + 1j * np.exp(w * x)
    t = CumulativeIntegral(f, lo, hi, n)
    assert np.array_equal(t.cum, _full_cumsum(t, n))

    edges = [float(t.edges[k % n]) for k in edge_draws]
    inside = [float(t.edges[k % n] + u * t.width) for k, u in zip(edge_draws, fracs)]
    inside = [x for x in inside if x not in t.edges and lo < x < hi]
    exact = edges + inside + [lo - beyond, -1e300]
    above = [hi + beyond, 1e300]
    (exact if dyadic else above).append(hi)

    for x in exact:
        got, ref = t(np.float64(x)), _full_query(t, np.float64(x))
        assert isinstance(got, np.generic) and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
    grid = np.array(exact + exact[:1] * (len(exact) % 2)).reshape(2, -1)
    got, ref = t(grid), _full_query(t, grid)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    assert got.tobytes() == ref.tobytes()

    # at and above hi the table returns its full integral cum[-1]; the full
    # rule added the last cell's sum again, with hi in place of the last edge
    # computed as lo + n * width, which moves it by the integrand times that
    # edge's rounding
    slack = 16 * EPS * (np.max(np.abs(t.cum))
                        + max(abs(lo), abs(hi)) * np.max(np.abs(f(t.edges[-2:]))))
    for x in above:
        got, ref = t(np.array(x)), _full_query(t, np.array(x))
        assert isinstance(got, np.generic) and got.dtype == ref.dtype
        assert got == t.cum[-1]
        assert abs(got - ref) <= slack


@PROPERTY
@given(st.integers(4, 8), st.integers(-300, 300), st.integers(0, 300), st.integers(0, 300),
       st.integers(0, 300), st.integers(0, 300), st.sampled_from([0.0, 0.25, 0.75]),
       st.floats(-2.0, 2.0), st.sampled_from([0.0, -1.5, 2.5]),
       st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8))
def test_anchored_tables_agree_across_spans(j, a, left, right, wider_left, wider_right,
                                            offset, c, w, fracs):
    # two tables with cells of width 2^-j on a common lattice, both anchored
    # at a (a lattice point plus an offset); the wider one extends the
    # narrower by whole cells on either side, so the integrand's blocks fall
    # differently. Every query inside the narrower span reads the same bits.
    width = 2.0**-j
    anchor = (a + offset) * width
    lo, hi = (a - left) * width, (a + right + 1) * width
    if w == 0.0:
        def f(x):
            return np.exp(c * x)
    else:
        def f(x):
            return np.exp(c * x) + 1j * np.exp(w * x)
    narrow = CumulativeIntegral(f, lo, hi, left + right + 1, anchor=anchor)
    wide = CumulativeIntegral(f, lo - wider_left * width, hi + wider_right * width,
                              left + right + 1 + wider_left + wider_right, anchor=anchor)
    assert np.array_equal(narrow.edges, wide.edges[wider_left:len(wide.edges) - wider_right])
    at_anchor = narrow(np.array(anchor))
    assert at_anchor.tobytes() == wide(np.array(anchor)).tobytes()
    assert abs(at_anchor) <= 4 * EPS * np.max(np.abs(narrow.cum))

    xs = np.concatenate([narrow.edges, narrow.edges[:-1]
                         + width * np.resize(np.array(fracs), len(narrow.edges) - 1)])
    assert narrow(xs).tobytes() == wide(xs).tobytes()
    for x in xs[::max(1, len(xs) // 8)]:
        assert narrow(np.float64(x)).tobytes() == wide(np.float64(x)).tobytes()
