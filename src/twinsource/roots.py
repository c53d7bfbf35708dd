"""Brent's root finder, in the floats of scipy's ``brentq``.

Brent, Algorithms for Minimization without Derivatives (1973), ch. 4, as
scipy's C ``brentq`` runs it: ``brentq`` solves one bracket in plain floats,
``brentq_lanes`` many brackets at once, one lane each, with every lane taking
the steps ``brentq`` would take.
"""

from __future__ import annotations

import math

import numpy as np

_RTOL = 4.0 * np.finfo(float).eps  # Brent's relative tolerance, the least it accepts
_MAXITER = 100  # Brent iterations before giving up


def brentq(f, a, b, xtol, rtol=_RTOL, maxiter=_MAXITER):
    """Root of ``f`` in the sign-changing bracket [a, b] by Brent's method.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 4, in
    the form of the C ``brentq`` that scipy ships: the same steps, the same
    stopping rule |step| < (xtol + rtol |x|) / 2, and the same errors
    (ValueError on an unbracketed root, a NaN value or a bad tolerance,
    RuntimeError after ``maxiter`` iterations), so it returns the same float.
    ``brentq_lanes`` runs these steps on many brackets at once; this
    plain-float form serves callers that solve one cheap function at a time.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def brentq_lanes(f, a, b, xtol, rtol=_RTOL, maxiter=_MAXITER):
    """Roots of many brackets at once, lane i in [a[i], b[i]].

    ``f(x, lanes)`` returns, for each j, the value at x[j] of the function
    of lane ``lanes[j]``. Every lane takes exactly the steps of ``brentq``,
    in the same floating-point operations, so it returns the same float; a
    lane that stops leaves the arrays, and each iteration costs one call of
    ``f`` on the lanes still running. The errors are ``brentq``'s, raised
    for the whole call when any lane meets one.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def value(x, lanes):
        fx = np.asarray(f(x, lanes), dtype=float)
        if np.isnan(fx).any():
            bad = x[np.isnan(fx)][0]
            raise ValueError(f"The function value at x={bad} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = np.array(a, dtype=float), np.array(b, dtype=float)
    lanes = np.arange(xpre.size)
    fpre, fcur = np.split(value(np.concatenate((xpre, xcur)), np.concatenate((lanes, lanes))), 2)
    root = np.where(fpre == 0, xpre, xcur)
    live = (fpre != 0) & (fcur != 0)
    if np.any(live & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(a) and f(b) must have different signs")
    lanes, xpre, xcur, fpre, fcur = lanes[live], xpre[live], xcur[live], fpre[live], fcur[live]
    xblk, fblk, spre, scur = (np.zeros(lanes.size) for _ in range(4))
    for _ in range(maxiter):
        new = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(new, xpre, xblk), np.where(new, fpre, fblk)
        spre, scur = np.where(new, xcur - xpre, spre), np.where(new, xcur - xpre, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (
            np.where(swap, xcur, xpre), np.where(swap, xblk, xcur), np.where(swap, xcur, xblk)
        )
        fpre, fcur, fblk = (
            np.where(swap, fcur, fpre), np.where(swap, fblk, fcur), np.where(swap, fcur, fblk)
        )
        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        root[lanes[done]] = xcur[done]
        if done.any():
            state = (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis)
            lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                v[~done] for v in state
            )
        if not lanes.size:
            return root
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            quadratic = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, secant, quadratic)
        interpolate = (np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
        take = interpolate & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta))
        spre, scur = np.where(take, scur, sbis), np.where(take, stry, sbis)
        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = value(xcur, lanes)
    if lanes.size:
        raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
    return root
