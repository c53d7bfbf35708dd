"""Independent brute-force oracles used by the tests.

These deliberately avoid the package's transfer-matrix machinery: the slab
solver below works from the textbook three-layer transcendental equation in
its phase form and locates roots by bisection on each mode branch, and the
transfer-matrix oracle multiplies the layer matrices one at a time in plain
complex arithmetic.
"""

import cmath
import math


def slab_modes(n_clad_top, n_core, n_clad_bot, thickness_nm, wavelength_nm, pol):
    """All guided n_eff of an asymmetric 3-layer slab, descending order.

    Solves kappa t - atan(w1/kappa) - atan(w2/kappa) = m pi with the TM
    admittance weights. The left side decreases monotonically in n_eff from
    its value at the cladding cut-off down to -pi at the core line, so each
    branch m holds exactly one root, found here by bisection.
    """
    k0 = 2.0 * math.pi / wavelength_nm

    def phase(neff):
        u = neff * neff
        kappa = k0 * math.sqrt(n_core**2 - u)
        g1 = k0 * math.sqrt(u - n_clad_top**2)
        g2 = k0 * math.sqrt(u - n_clad_bot**2)
        if pol == "TM":
            g1 *= n_core**2 / n_clad_top**2
            g2 *= n_core**2 / n_clad_bot**2
        return kappa * thickness_nm - math.atan2(g1, kappa) - math.atan2(g2, kappa)

    lo = max(n_clad_top, n_clad_bot) + 1e-9
    hi = n_core - 1e-9
    roots = []
    m = 0
    while phase(lo) - m * math.pi > 0:  # phase(hi) ~ -pi, so a root exists
        a, b = lo, hi
        for _ in range(200):
            mid = 0.5 * (a + b)
            if phase(mid) - m * math.pi >= 0:
                a = mid
            else:
                b = mid
        roots.append(0.5 * (a + b))
        m += 1
    return sorted(roots, reverse=True)


def char_matrix_loop(n_list, t_list, n0_sin, wavelength, pol):
    """Characteristic matrix of a layer list at one wavelength, multiplied
    layer by layer, top to bottom (the textbook admittance form)."""
    k0 = 2.0 * math.pi / wavelength
    m00, m01, m10, m11 = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for n, t in zip(n_list, t_list):
        ct = cmath.sqrt(1.0 - (n0_sin / n) ** 2)
        eta = n * ct if pol == "TE" else n / ct
        d = k0 * n * ct * t
        c, s = cmath.cos(d), cmath.sin(d)
        a00, a01 = c, -1j * s / eta
        a10, a11 = -1j * eta * s, c
        m00, m01, m10, m11 = (
            m00 * a00 + m01 * a10,
            m00 * a01 + m01 * a11,
            m10 * a00 + m11 * a10,
            m10 * a01 + m11 * a11,
        )
    return m00, m01, m10, m11


def response_loop(n0, n_list, t_list, n_sub, wavelength, theta_deg, pol):
    """(R, T) of a layer list at one wavelength from ``char_matrix_loop``."""
    n0_sin = n0 * math.sin(math.radians(theta_deg))

    def admittance(n):
        ct = cmath.sqrt(1.0 - (n0_sin / n) ** 2)
        return n * ct if pol == "TE" else n / ct

    eta0, eta_sub = admittance(n0), admittance(n_sub)
    m00, m01, m10, m11 = char_matrix_loop(n_list, t_list, n0_sin, wavelength, pol)
    b = m00 + m01 * eta_sub
    c = m10 + m11 * eta_sub
    denom = eta0 * b + c
    r = (eta0 * b - c) / denom
    return abs(r) ** 2, 4.0 * eta0.real * eta_sub.real / abs(denom) ** 2
