import math

import mpmath as mp
import pytest

from casimir_medium import QuadratureSpec


@pytest.fixture(scope="session")
def default_spec() -> QuadratureSpec:
    return QuadratureSpec()


@pytest.fixture(scope="session")
def loose_spec() -> QuadratureSpec:
    # enough for 1e-6 comparisons without burning time in nested quadrature
    return QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11)


def mp_inner_mode_integral(a: float, h: float) -> float:
    """Reference for the closed-form mode integral, computed with mpmath.

    The working precision must grow with x = 2 a h: the Li_1 term is
    -log(1 - e^{-x}) and the complement sits within e^{-x} of 1, so a
    fixed precision silently zeroes it for large x.
    """
    if a == 0.0:
        with mp.workdps(40):
            return float(2 * mp.zeta(3) / (2 * mp.mpf(h)) ** 3)
    x = 2.0 * a * h
    with mp.workdps(max(40, int(0.4343 * x) + 25)):
        xm = 2 * mp.mpf(a) * mp.mpf(h)
        y = mp.e ** (-xm)
        val = (
            xm * xm * mp.polylog(1, y)
            + 2 * xm * mp.polylog(2, y)
            + 2 * mp.polylog(3, y)
        ) / (2 * mp.mpf(h)) ** 3
        return float(val)


def polarization_far_drude(wp: float, gamma: float, h: float) -> float:
    """Far-separation polarization-BC ratio to the vacuum force, Drude medium.

    180 gamma/(pi^4 wp^2 H) (1 + r2/H^2 + r3/H^3), derived in
    ``checks.check_limits``; the remainder is O(H^-4).
    """
    r2 = 7.5 * (1.0 / wp**2 - gamma**2 / wp**4)
    r3 = -105.0 * gamma**2 / (8.0 * wp**4)
    return 180.0 * gamma / (math.pi**4 * wp**2 * h) * (1.0 + r2 / h**2 + r3 / h**3)


def polarization_far_lorentz(wp: float, w0: float, gamma: float, h: float):
    """Far-separation polarization-BC ratio to the vacuum force, Lorentz medium.

    R0 (1 + c/H + r/H^2) from M_k(chi) = (k+3)! chi^2 Li_k+4(chi^-2)/((k+1)
    n^(k+1)), as derived in ``checks.check_limits`` but at a general chi0 =
    (wp/w0)^2 where the check has chi0 = 1; the remainder is O(H^-3).
    Returns the ratio and r.
    """
    chi0 = (wp / w0) ** 2
    chi1, chi2 = -chi0 * gamma / w0**2, chi0 * (gamma**2 - w0**2) / w0**4
    big_n = 1.0 + chi0  # n0^2
    li = {s: float(mp.polylog(s, chi0**-2)) for s in (4, 5, 6)}
    m0 = 6.0 * chi0**2 * li[4] / math.sqrt(big_n)
    g5, dg5 = chi0**2 * li[5], 2.0 * chi0 * (li[5] - li[4])
    dm1 = 12.0 * (dg5 / big_n - g5 / big_n**2)
    f, df = chi0**2 * li[6], 2.0 * chi0 * (li[6] - li[5])
    d2f = 2.0 * li[6] - 6.0 * li[5] + 4.0 * li[4]
    dm2 = 40.0 * (df * big_n**-1.5 - 1.5 * f * big_n**-2.5)
    d2m2 = 40.0 * (d2f * big_n**-1.5 - 3.0 * df * big_n**-2.5 + 3.75 * f * big_n**-3.5)
    c = chi1 * dm1 / (2.0 * m0)
    r = (chi2 * dm2 + 0.5 * chi1**2 * d2m2 + 60.0 * chi1 * li[5] / big_n) / (4.0 * m0)
    return 15.0 * m0 / math.pi**4 * (1.0 + c / h + r / h**2), r
