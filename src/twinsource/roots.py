"""Brent's root finder, in the floats of scipy's ``brentq``.

Brent, Algorithms for Minimization without Derivatives (1973), ch. 4, as
scipy's C ``brentq`` runs it, written once: ``_brent`` takes the steps of one
bracket in plain floats, yielding each point to evaluate and taking its value
back. Two drivers run it: ``brentq`` on one bracket, and ``brentq_lanes`` on
many, one lane each, with every running lane's next point in one call of the
function. Where C divides an interpolation step by an underflowed 0, it gets
inf or NaN, which its acceptance test refuses; ``_brent`` takes the bisection
step there, as C does. Ends of one sign raise ``NotBracketed``.
"""

from __future__ import annotations

import math

import numpy as np

_RTOL = 4.0 * np.finfo(float).eps  # Brent's relative tolerance, the least it accepts
_MAXITER = 100  # Brent iterations before giving up


class NotBracketed(ValueError):
    """The function has one sign at both ends of a bracket."""


def _tolerances(xtol, rtol):
    """The tolerances as Python floats, so that ``_brent`` runs in floats alone."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    return float(xtol), float(rtol)


def _checked(x, fx):
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def _brent(xpre, xcur, fpre, fcur, xtol, rtol, maxiter):
    """Brent's steps on the bracket [xpre, xcur], given its end values: yields
    each point to evaluate, is sent the value there, and returns the root."""
    fpre, fcur = _checked(xpre, fpre), _checked(xcur, fcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NotBracketed("f(a) and f(b) must have different signs")
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
        stry = math.inf  # refused below: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's inf or NaN, refused below
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _checked(xcur, (yield xcur))
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def brentq(f, a, b, xtol, rtol=_RTOL, maxiter=_MAXITER):
    """Root of ``f`` in the sign-changing bracket [a, b] by Brent's method.

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 4, in
    the form of the C ``brentq`` that scipy ships: the same steps, the same
    stopping rule |step| < (xtol + rtol |x|) / 2, and the same errors
    (ValueError on a NaN value or a bad tolerance, its subclass
    ``NotBracketed`` on ends of one sign, RuntimeError after ``maxiter``
    iterations), so it returns the same float.
    """
    xtol, rtol = _tolerances(xtol, rtol)
    a, b = float(a), float(b)
    steps = _brent(a, b, float(f(a)), float(f(b)), xtol, rtol, maxiter)
    try:
        x = next(steps)
        while True:
            x = steps.send(float(f(x)))
    except StopIteration as stop:
        return stop.value


def brentq_lanes(f, a, b, xtol, rtol=_RTOL, maxiter=_MAXITER):
    """Roots of many brackets at once, lane i in [a[i], b[i]].

    ``f(x, lanes)`` returns, for each j, the value at x[j] of the function
    of lane ``lanes[j]``. The first call holds both ends of every lane,
    ``[a..., b...]``; each later call holds the next point of every lane
    still running, in lane order. Every lane takes ``brentq``'s steps, so it
    returns the same float. The errors are ``brentq``'s, raised for the
    whole call when any lane meets one.
    """
    xtol, rtol = _tolerances(xtol, rtol)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = a.size
    ends = np.asarray(f(np.concatenate((a, b)), np.tile(np.arange(n), 2)), dtype=float).tolist()
    running = [
        (lane, _brent(lo, hi, f_lo, f_hi, xtol, rtol, maxiter))
        for lane, lo, hi, f_lo, f_hi in zip(range(n), a.tolist(), b.tolist(), ends[:n], ends[n:])
    ]
    values = [None] * n  # what each lane is sent next; None starts it
    root = np.empty(n)
    while True:
        kept, points = [], []
        for (lane, steps), fx in zip(running, values):
            try:
                points.append(steps.send(fx))
            except StopIteration as stop:
                root[lane] = stop.value
            else:
                kept.append((lane, steps))
        if not kept:
            return root
        running = kept
        lanes = np.array([lane for lane, _ in running])
        values = np.asarray(f(np.array(points), lanes), dtype=float).tolist()
