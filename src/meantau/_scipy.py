"""The scipy functions the package calls, each imported on its first call.

Importing scipy.linalg, scipy.optimize and scipy.integrate is most of a
fresh interpreter's start-up, and `mean` and `simulate` call none of
them.  The callers bind these wrappers by name (`from ._scipy import
brentq`), so each stays a module attribute that is looked up at call
time and can be replaced there, as a tracer does with `bangbang.brentq`.
"""


def expm(a):
    from scipy.linalg import expm as _expm

    return _expm(a)


def brentq(f, a, b, **kwargs):
    from scipy.optimize import brentq as _brentq

    return _brentq(f, a, b, **kwargs)


def quad(func, a, b, **kwargs):
    from scipy.integrate import quad as _quad

    return _quad(func, a, b, **kwargs)
