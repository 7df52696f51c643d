"""Small certified numeric routines.

Plain bisection and golden-section search are used instead of faster
library root finders because convergence reports quote these numbers as
certified radii: a bracketed sign change halved down to width `tol`
leaves nothing to argue about. scipy remains an independent cross-check
in the tests.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConfigError, NumericalError

__all__ = ["bisect_root", "golden_max", "geometric_grid"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

_KINDS = {int: "an integer", float: "a finite number", complex: "a finite number"}


def _cast(raw, where: str, cast, least=None):
    """`raw` passed through `cast` (int, float or complex), the one check of
    a numeric argument or config value: a value `cast` cannot take as it
    is, or one below `least`, is a ConfigError naming `where`."""
    # int() would truncate 2.5 and parse "2", every cast reads true as 1,
    # and float() and complex() parse strings and pass nan and inf, all
    # without a word.
    try:
        value = cast(raw)
        exact = value == raw if cast is int else cmath.isfinite(value)
    except (TypeError, ValueError, OverflowError):
        exact = False
    if not exact or isinstance(raw, (bool, np.bool_, str, bytes)):
        raise ConfigError(f"{where} must be {_KINDS[cast]}, got {raw!r}")
    if least is not None and value < least:
        raise ConfigError(f"{where} must be at least {least}, got {raw!r}")
    return value


def _array(data, where: str) -> np.ndarray:
    """A new float64 array of `data`, complex128 if an entry is complex: the
    one check of an array argument, as `_cast` is of a number. Ragged
    nesting, an entry that is not a number (a string, a boolean, None) and a
    non-finite entry are a ConfigError naming `where`."""
    try:  # np.array raises on ragged nesting, and reads [1.0, True] as floats
        arr = np.array(data)
        leaves = () if isinstance(data, np.ndarray) else np.array(data, dtype=object).flat
    except (TypeError, ValueError):
        arr, leaves = np.array(None), ()
    if arr.dtype.kind not in "iufc" or any(isinstance(x, (bool, np.bool_)) for x in leaves):
        raise ConfigError(f"{where} must be a regular array of numbers")
    arr = arr.astype(complex if arr.dtype.kind == "c" else float, copy=False)
    if not np.isfinite(arr).all():
        raise ConfigError(f"{where} has a non-finite entry")
    return arr


def _unbounded(f, x: float) -> float:
    """f(x) for `math.exp` or `math.expm1`, or inf where it overflows a float."""
    try:
        return f(x)
    except OverflowError:
        return math.inf


def bisect_root(f, lo: float, hi: float, tol: float = 1e-12, maxiter: int = 200) -> float:
    """Root of f by interval halving; requires a sign change on [lo, hi]."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise NumericalError(f"no sign change on [{lo}, {hi}]")
    for _ in range(maxiter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def golden_max(f, lo: float, hi: float, tol: float = 1e-12, maxiter: int = 300):
    """Maximize a unimodal function on [lo, hi]; returns (argmax, max)."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(maxiter):
        if b - a <= tol:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def geometric_grid(lo: float, hi: float, per_decade: int = 64) -> np.ndarray:
    """Geometrically spaced points from lo to hi, per_decade per factor 10."""
    lo, hi = _cast(lo, "lo", float), _cast(hi, "hi", float)
    per_decade = _cast(per_decade, "per_decade", int, least=1)
    if not 0 < lo < hi:
        raise ConfigError(f"geometric grid needs 0 < lo < hi, got lo={lo}, hi={hi}")
    n = max(2, int(math.ceil(math.log10(hi / lo) * per_decade)) + 1)
    return np.geomspace(lo, hi, n)
