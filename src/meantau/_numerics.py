"""The two numerical kernels the package needs beyond numpy.

* `expm`, the matrix exponential behind every Van Loan block
  (`adjoint._van_loan`): a diagonal Pade approximant of degree 3, 5, 7, 9
  or 13, picked from the 1-norm of the matrix, with scaling and squaring
  above the degree-13 bound (Higham, "The scaling and squaring method for
  the matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26, 2005;
  Al-Mohy and Higham, "A new scaling and squaring algorithm for the matrix
  exponential", SIAM J. Matrix Anal. Appl. 31, 2009).
* `brentq`, Brent's bracketed root (Brent, "Algorithms for Minimization
  Without Derivatives", 1973, ch. 4), step for step the variant of
  `scipy.optimize.brentq`, with its defaults and its errors, for the switch
  times and the wealth target's tau.

The callers bind these by name (`from ._numerics import brentq`), so each
stays a module attribute that is looked up at call time and can be
replaced there, as a tracer does with `bangbang.brentq`.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["expm", "brentq"]

# -- expm --------------------------------------------------------------------

# Coefficients b_0..b_m of the degree-m diagonal Pade approximant of e^x,
# b_j proportional to (2m - j)! m! / ((2m)! j! (m - j)!), scaled to integers.
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
# Largest 1-norm at which each degree's backward error is below 2^-53
# (Higham 2005).
_THETA = ((1.495585217958292e-2, 3), (2.539398330063230e-1, 5),
          (9.504178996162932e-1, 7), (2.097847961257068e0, 9))
_THETA_13 = 5.371920351148152
# Coefficient rows over the stacked even powers I, A^2, A^4, ...: U / A
# from the odd b, V from the even b.  Degree 13 stops at A^6 and adds
# A^6 (b13 A^6 + b11 A^4 + b9 A^2) and A^6 (b12 A^6 + b10 A^4 + b8 A^2)
# from two more rows.
_UV = {m: np.array([b[1::2], b[0::2]]) for m, b in _PADE.items() if m < 13}
_UV[13] = np.array([_PADE[13][1:8:2], _PADE[13][0:7:2],
                    (0.0, *_PADE[13][9::2]), (0.0, *_PADE[13][8::2])])
_EYE = {}


def _pade(A, m):
    """r_m(A) = (V - U)^-1 (V + U), U the odd and V the even part of the numerator.

    The even powers I, A^2, A^4, ... go into one stack, and one product
    with the coefficient rows gives U / A and V together.
    """
    n = A.shape[0]
    k = 4 if m == 13 else (m + 1) // 2
    powers = np.empty((k, n, n))
    eye = _EYE.get(n)
    if eye is None:
        eye = _EYE[n] = np.eye(n)
    powers[0] = eye
    np.dot(A, A, out=powers[1])
    for j in range(2, k):
        np.dot(powers[j - 1], powers[1], out=powers[j])
    uv = np.dot(_UV[m], powers.reshape(k, n * n)).reshape(-1, n, n)
    if m == 13:
        uv = uv[:2] + np.matmul(powers[3], uv[2:])
    u = np.dot(A, uv[0])
    v = uv[1]
    return np.linalg.solve(v - u, v + u)


def expm(a) -> np.ndarray:
    """e^a of a square float matrix `a`, to about 1e-15 relative at 1-norms up to 5.4.

    The lowest Pade degree whose bound holds the 1-norm is used as is;
    above the degree-13 bound, a / 2^s with the least such s is squared s
    times.  A non-finite entry raises ValueError.
    """
    A = np.asarray(a, dtype=float)
    columns = np.add.reduce(abs(A), 0).tolist()
    if not all(map(math.isfinite, columns)):
        raise ValueError("expm needs a finite matrix")
    norm = max(columns, default=0.0)
    for theta, m in _THETA:
        if norm <= theta:
            return _pade(A, m)
    s = max(0, math.ceil(math.log2(norm / _THETA_13)))
    E = _pade(A * 2.0**-s, 13)
    for _ in range(s):
        E = np.dot(E, E)
    return E


# -- brentq ------------------------------------------------------------------

_XTOL = 2e-12
_RTOL = 4.0 * sys.float_info.epsilon
_MAXITER = 100


def _value(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brentq(f, a, b, xtol=_XTOL, rtol=_RTOL, maxiter=_MAXITER) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to xtol + rtol |x|.

    Brent's method as `scipy.optimize.brentq` runs it: the same steps in
    the same order, so the same evaluations and the same root.  All
    arithmetic is on Python floats, where a division by zero raises, and
    each such step is the bisection that C's infinite or NaN trial step
    falls to.  An infinite f at an end still brackets the root.  A NaN
    value or f(a), f(b) of the same sign raises ValueError, and no
    convergence in `maxiter` steps RuntimeError.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    if maxiter < 0:
        raise ValueError("maxiter should be > 0")
    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (
            math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        ):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            # xcur is the best guess so far; xblk keeps the bracket
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # inverse quadratic interpolation
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                bisect = not 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
            except ZeroDivisionError:
                pass
        if bisect:
            spre = scur = sbis
        else:
            spre, scur = scur, stry
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")
