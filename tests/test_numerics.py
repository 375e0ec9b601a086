"""The in-house kernels against scipy, which the tests keep as an independent reference."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meantau._numerics import _PADE, brentq, expm

# -- expm --------------------------------------------------------------------


@pytest.mark.parametrize("m", sorted(_PADE))
def test_pade_coefficients_are_the_diagonal_approximant_of_exp(m):
    # b_j proportional to (2m - j)! m! / ((2m)! j! (m - j)!), scaled so b_m = 1
    f = math.factorial
    c = [Fraction(f(2 * m - j) * f(m), f(2 * m) * f(j) * f(m - j)) for j in range(m + 1)]
    assert [Fraction(b) for b in _PADE[m]] == [cj / c[m] for cj in c]


def _matrix(kind, n, norm, seed):
    """A matrix of 1-norm `norm`: dense, upper triangular, or a Van Loan block."""
    rng = np.random.default_rng(seed)
    if kind == "van loan":
        # [[A h, I h], [0, 0]], the block behind exp_with_integral
        m = max(1, n // 2)
        M = np.zeros((2 * m, 2 * m))
        M[:m, :m] = rng.standard_normal((m, m))
        M[:m, m:] = np.eye(m)
    else:
        M = rng.standard_normal((n, n))
        if kind == "triangular":
            M = np.triu(M)
    return M * (norm / np.abs(M).sum(axis=0).max())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(["dense", "triangular", "van loan"]),
    st.integers(1, 6),
    st.floats(0.0, 50.0),
    st.integers(0, 2**32 - 1),
)
def test_expm_matches_scipy(kind, n, norm, seed):
    M = _matrix(kind, n, norm, seed)
    ref = scipy.linalg.expm(M)
    rel = np.max(np.abs(expm(M) - ref)) / np.max(np.abs(ref))
    # 5.4 is just above the degree-13 bound, the largest norm without squaring
    assert rel <= (2e-12 if norm <= 5.4 else 2e-11)


@pytest.mark.parametrize("norm", [0.01, 0.2, 0.9, 2.0, 5.0, 40.0])
def test_expm_of_a_diagonal_is_the_exponential_of_its_entries(norm):
    # one degree per bound, and squaring at 40
    d = norm * np.array([1.0, -0.5, 0.25])
    np.testing.assert_allclose(np.diag(expm(np.diag(d))), np.exp(d), rtol=1e-13)


def test_expm_of_zero_is_the_identity_and_a_non_finite_entry_raises():
    assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            expm(np.array([[0.0, bad], [0.0, 0.0]]))


# -- brentq ------------------------------------------------------------------


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


@st.composite
def brackets(draw):
    """(f, a, b, xtol): an increasing exponential-plus-cubic through a root in
    (a, b), times a sign; one end may read an infinite value of its sign, as
    an overflowing e^{rate t} does."""
    a = draw(st.floats(-10.0, 10.0))
    b = a + draw(st.floats(1e-6, 20.0))
    root = a + (b - a) * draw(st.floats(0.0, 1.0))
    assume(a < root < b)
    rate, cubic = draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 3.0))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    wall = draw(st.sampled_from([None, "a", "b"]))

    def f(x):
        if x == {"a": a, "b": b}.get(wall):
            return sign * math.copysign(math.inf, x - root)
        return sign * (math.expm1(rate * (x - root)) + cubic * (x - root) ** 3 + 0.1 * (x - root))

    return f, a, b, draw(st.sampled_from([2e-12, 1e-10, 1e-3]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(brackets())
def test_brentq_takes_scipys_steps(case):
    f, a, b, xtol = case
    ours, theirs = _counted(f), _counted(f)
    root = brentq(ours, a, b, xtol=xtol)
    assert root == scipy.optimize.brentq(theirs, a, b, xtol=xtol)
    assert ours.calls == theirs.calls


def test_brentq_raises_as_scipy_does():
    def steep(x):
        return math.atan(1e6 * (x - 1.0 / 3.0))

    cases = [
        (lambda x: x * x + 1.0, -1.0, 2.0, {}, ValueError),  # no sign change
        (lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, {}, ValueError),
        (steep, 0.0, 1.0, {"maxiter": 3}, RuntimeError),
        (steep, 0.0, 1.0, {"xtol": 0.0}, ValueError),
        (steep, 0.0, 1.0, {"rtol": 1e-16}, ValueError),
    ]
    for f, a, b, kwargs, error in cases:
        with pytest.raises(error):
            scipy.optimize.brentq(f, a, b, **kwargs)
        with pytest.raises(error):
            brentq(f, a, b, **kwargs)
