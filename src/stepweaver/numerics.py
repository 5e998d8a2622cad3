"""Small root-finding and line-search routines used by the builders and bounds."""

import math


def bisect_root(fn, lo: float, hi: float, tol: float = 1e-14) -> float:
    """Find a root of ``fn`` inside the bracket ``(lo, hi)`` by bisection.

    ``tol`` is an absolute tolerance on the bracket width.  Raises
    ``ValueError`` if the endpoints do not straddle a sign change.
    """
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"root not bracketed on ({lo}, {hi}): f(lo)={flo}, f(hi)={fhi}")
    for _ in range(256):  # a guard: the tolerance or the float resolution ends the loop first
        mid = 0.5 * (lo + hi)
        if hi - lo < tol or mid == lo or mid == hi:
            return mid
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


_INVGOLD = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(fn, lo: float, hi: float, tol: float = 1e-12):
    """Golden-section search for a minimum of a unimodal ``fn`` on ``[lo, hi]``.

    Returns ``(x, fn(x))``.  ``tol`` is absolute on the interval width.
    """
    a, b = lo, hi
    c = b - _INVGOLD * (b - a)
    d = a + _INVGOLD * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(400):  # a guard, as in bisect_root
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVGOLD * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVGOLD * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)
