"""Truth sweep: a force reported ``converged`` is within ``rel_tol`` of the truth.

Both force routes run over media x separations H = 10^(-3 + k/5), k = 0..40
(1e-3 to 1e5), and every result that reports ``converged`` must satisfy
|vacuum_ratio/reference - 1| <= rel_tol.  This is the evidence for the
engine's error estimate (``quadrature._integrate_de``): an estimate that is
too optimistic shows here as a false convergence.

* Field route: Lorentz(1, 1, 0.1), (1, 1, 1) and (2, 1, 1); Drude(1, 0.5),
  (2, 0.3) and (1, 2); the 60-node Gaussian tabulated coupling; and EM
  through Lorentz(1, 1, 0.1) with a Constant(0.2) magnetic response.
  References: ``FIELD_RATIO``.
* Polarization route: the six Lorentz and Drude media and the narrow
  lines Lorentz(1, 1, 0.03) and (1, 1, 0.01) against ``POLARIZATION_RATIO``
  in mid-range and (from rel_tol 1e-10 up) against the far forms of
  ``conftest`` from H = 1e4 up; Constant(1), (2) and (4) at every H against
  the exact 90 chi0^2 Li_4(chi0^-2)/(pi^4 n0); and the tabulated coupling
  scaled by 30 at nine H from 0.25 to 158, inside the route's regime,
  against ``TABULATED_X30_RATIO``.  Points outside the regime
  (``InvalidRegimeError``; every point of the unscaled tabulated coupling
  on this grid) have no reference.

Both routes run at rel_tol 1e-6, 1e-9, 1e-10, 1e-11 and 1e-12.  The
tables were computed with mpmath 1.3 by the script below, the tabulated
one with QUADPACK on the script's chi_bar and panel edges at every kink
t = 2 H w_k (estimates 1.1e-14 to 2.9e-14).  They agree with the package's
routes run at rel_tol 1e-13 (field) and 1e-12 (polarization) to 1.6e-15
and 2.7e-15.  Copies of the engine with a weaker estimate fail: the
estimate divided by 100 or by 1000, at polarization rel_tol 1e-12
(Drude(2, 0.3) at H = 0.25 is off by 2.4 rel_tol); and an estimate of 0
fails the field half at 1e-10 to 1e-12 as well (Drude(2, 0.3) at H = 1e5,
127 rel_tol at 1e-12).  So does the polarization route without its panels
at the medium's sharp frequencies, at every tolerance: Lorentz(1, 1, 0.01)
at H = 10 is off by 1.7 rel_tol at 1e-9 and the scaled tabulated coupling
at H = 10 by 1.2; Lorentz(1, 1, 0.1) at H = 10 by 2.3 at 1e-11.

    import math

    import mpmath as mp

    mp.mp.dps = 20

    HS = [10.0 ** (-3 + 0.2 * k) for k in range(41)]
    # even k from each medium's first point inside the polarization regime to H = 6.3e3
    MID = {name: range(first, 35, 2) for name, first in zip(
        ("lorentz(1, 1, 0.1)", "lorentz(1, 1, 1)", "lorentz(2, 1, 1)", "drude(1, 0.5)",
         "drude(2, 0.3)", "drude(1, 2)"), (14, 16, 12, 14, 12, 14))}
    # the narrow lines' damping, and every k where their panel edge 2 H w0 <= 50
    NARROW = {"lorentz(1, 1, 0.03)": 0.03, "lorentz(1, 1, 0.01)": 0.01}
    MID |= {name: (16, 17, 18, 19, 20, 21, *range(22, 35, 2)) for name in NARROW}
    TABULATED_K = (12, 14, 16, 18, 20, 21, 22, 24, 26)
    W = [0.2 + 2.8 * k / 59 for k in range(60)]
    G = [math.exp(-((w - 1.2) / 0.4) ** 2) for w in W]


    def lorentz(wp, w0, g):
        # chi, chi - 1 (without cancellation where chi(0) = 1) and Im chi
        wp, w0, g = mp.mpf(wp), mp.mpf(w0), mp.mpf(g)
        return (lambda x: wp**2 / (w0**2 + x * x + g * x),
                lambda x: (wp**2 - w0**2 - x * x - g * x) / (w0**2 + x * x + g * x),
                lambda w: wp**2 * g * w / ((w0**2 - w * w) ** 2 + g * g * w * w))


    def tabulated_chi(x):
        # g(u) linear between the nodes, integrated against 1/(u^2 + x^2)
        total = mp.mpf(0)
        for u1, u2, g1, g2 in zip(W, W[1:], G, G[1:]):
            u1, u2, g1, g2 = map(mp.mpf, (u1, u2, g1, g2))
            m = (g2 - g1) / (u2 - u1)
            total += m / 2 * mp.log((u2**2 + x**2) / (u1**2 + x**2))
            total += (g1 - m * u1) * (mp.atan(u2 / x) - mp.atan(u1 / x)) / x
        return total


    MEDIA = {
        "lorentz(1, 1, 0.1)": lorentz(1, 1, 0.1), "lorentz(1, 1, 1)": lorentz(1, 1, 1),
        "lorentz(2, 1, 1)": lorentz(2, 1, 1), "drude(1, 0.5)": lorentz(1, 0, 0.5),
        "drude(2, 0.3)": lorentz(2, 0, 0.3), "drude(1, 2)": lorentz(1, 0, 2),
        **{name: lorentz(1, 1, gamma) for name, gamma in NARROW.items()},
    }


    def index(name):
        if name == "tabulated":
            return lambda p: mp.sqrt(1 + tabulated_chi(p))
        if name == "em":  # Lorentz(1, 1, 0.1) and Constant(0.2) magnetic, mu = 1/(1 - 0.2)
            chi = MEDIA["lorentz(1, 1, 0.1)"][0]
            return lambda p: mp.sqrt((1 + chi(p)) / (1 - mp.mpf(0.2)))
        chi = MEDIA[name][0]
        return lambda p: mp.sqrt(1 + chi(p))


    def breakpoints(h, top, gamma=None):
        # the medium's features at p0 ~ 0.1..5 sit at t = 2 H p0; a narrow
        # line's also at p0 = 1 +- gamma and 1 +- 3 gamma
        pts = {mp.mpf(x) for x in (0, 1, 5, 20, 60, 200)}
        pts |= {x for x in (2 * h * mp.mpf(s) for s in (0.1, 0.5, 1, 2, 5)) if 0 < x < 200}
        if gamma is not None:
            pts |= {2 * h * (1 + k * mp.mpf(gamma)) for k in (-3, -1, 1, 3)}
        return sorted(x for x in pts if x < top) + [top]


    def j(x):
        y = mp.exp(-x)
        return x * x * mp.polylog(1, y) + 2 * x * mp.polylog(2, y) + 2 * mp.polylog(3, y)


    def field_ratio(name, h):
        # (15/pi^4) integral_0^inf J(n(t/2H) t) dt
        n, h = index(name), mp.mpf(h)
        return mp.re(15 / mp.pi**4 * mp.quad(lambda t: j(n(t / (2 * h)) * t),
                                             breakpoints(h, mp.inf)))


    def polarization_ratio(name, h):
        # (15/pi^4) int dt e^-v0 int ds chi^2 v^2 e^-s/D, v = v0 + s, v0 = n t
        chi_f, chi_m1, im_f = MEDIA[name]
        h = mp.mpf(h)

        def outer(t):
            p = t / (2 * h)
            chi = chi_f(p)
            v0, a, gap = mp.sqrt(1 + chi) * t, im_f(p) / (2 * h), chi_m1(p) * (chi + 1)

            def inner(s):
                v = v0 + s
                return chi * chi * v * v * mp.exp(-s) / (v * a + gap - mp.expm1(-v))
            return mp.exp(-v0) * mp.quad(inner, [0, 1, 5, 20, 60, 150])

        # n >= 1, so exp(-v0) < 1e-52 past t = 120
        return 15 / mp.pi**4 * mp.quad(outer, breakpoints(h, mp.mpf(120), NARROW.get(name)))


    def tabulated_polarization_ratio(h, scale=30):
        # the same double integral by QUADPACK, with panel edges at every t = 2 H w_k
        import numpy as np
        from scipy.integrate import quad

        def outer(t):
            p = t / (2 * h)
            chi = scale * float(tabulated_chi(p))
            im = scale * math.pi / 2 * float(np.interp(p, W, G, left=0, right=0)) / p
            v0, gap = math.sqrt(1 + chi) * t, (chi - 1) * (chi + 1)

            def inner(s):
                v = v0 + s
                return chi * chi * v * v * math.exp(-s) / (v * im / (2 * h) + gap - math.expm1(-v))
            return math.exp(-v0) * quad(inner, 0, 60, epsabs=0, epsrel=1e-13, limit=200,
                                        points=[1, 5, 20])[0]

        edges = [0, *(2 * h * w for w in W if 2 * h * w < 150), 150]
        return 15 / math.pi**4 * math.fsum(quad(outer, a, b, epsabs=0, epsrel=1e-13, limit=200)[0]
                                           for a, b in zip(edges, edges[1:]))


    if __name__ == "__main__":
        for name in [*MEDIA, "tabulated", "em"]:
            if name not in NARROW:
                print(repr(name), [float(field_ratio(name, h)) for h in HS])
        for name in MEDIA:  # at the grid indices k of POLARIZATION_RATIO[name]
            print(repr(name), {k: float(polarization_ratio(name, HS[k])) for k in MID[name]})
        print({k: tabulated_polarization_ratio(HS[k]) for k in TABULATED_K})
"""

import math

import mpmath as mp
import pytest

from casimir_medium import (
    BoundaryCondition,
    Constant,
    Drude,
    FieldKind,
    ForceQuery,
    Lorentz,
    Medium,
    QuadratureSpec,
    TabulatedCoupling,
    force_field_bc,
    force_polarization_bc,
)

from .conftest import polarization_far_drude, polarization_far_lorentz

HS = tuple(10.0 ** (-3 + 0.2 * k) for k in range(41))
# from this grid index up the far-separation forms are references
FAR_K = 35
LORENTZ = {"lorentz(1, 1, 0.1)": (1.0, 1.0, 0.1), "lorentz(1, 1, 1)": (1.0, 1.0, 1.0),
           "lorentz(2, 1, 1)": (2.0, 1.0, 1.0), "lorentz(1, 1, 0.03)": (1.0, 1.0, 0.03),
           "lorentz(1, 1, 0.01)": (1.0, 1.0, 0.01)}
DRUDE = {"drude(1, 0.5)": (1.0, 0.5), "drude(2, 0.3)": (2.0, 0.3), "drude(1, 2)": (1.0, 2.0)}
_W = [0.2 + 2.8 * k / 59 for k in range(60)]
_G = [math.exp(-((w - 1.2) / 0.4) ** 2) for w in _W]
MEDIA = {
    **{name: Medium(electric=Lorentz(*p)) for name, p in LORENTZ.items()},
    **{name: Medium(electric=Drude(*p)) for name, p in DRUDE.items()},
    "tabulated": Medium(electric=TabulatedCoupling(tuple(_W), tuple(_G))),
    "tabulated x30": Medium(electric=TabulatedCoupling(tuple(_W), tuple(30.0 * g for g in _G))),
    "em": Medium(electric=Lorentz(1.0, 1.0, 0.1), magnetic=Constant(0.2)),
}

# vacuum_ratio of the field route at HS
FIELD_RATIO = {
    "lorentz(1, 1, 0.1)": (
        0.999999494706574, 0.9999987325687919, 0.9999968233675433,
        0.9999920477763888, 0.9999801294704544, 0.9999504888584918,
        0.9998771650452069, 0.999697245034856, 0.9992611557354063,
        0.9982235648042349, 0.9958223791042091, 0.9904902904298301,
        0.9793494575661742, 0.9580510681275111, 0.9222030540813028,
        0.8716511719637934, 0.8151542957204124, 0.7673000306457977,
        0.7366698701321952, 0.72087274924816, 0.7135626385888838,
        0.7102497110898501, 0.7087127219935578, 0.7079687305467992,
        0.7075901488803495, 0.7073876341539393, 0.7072743688088763,
        0.7072086898324391, 0.7071695549884087, 0.7071457810224148,
        0.7071311464277529, 0.7071220582659201, 0.707116382012477,
        0.7071128236263706, 0.7071105876283609, 0.707109180468447,
        0.7071082940674477, 0.7071077353662301, 0.7071073830804987,
        0.7071071608951545, 0.707107020742276,
    ),
    "lorentz(1, 1, 1)": (
        0.999999497595967, 0.9999987430653272, 0.9999968611678299,
        0.999992182500116, 0.9999806037078083, 0.9999521332472174,
        0.9998827625157678, 0.9997158671251853, 0.999321351742105,
        0.9984111546143091, 0.9963800322231926, 0.9920490861673731,
        0.9833671515083852, 0.967350843991313, 0.9408864893189854,
        0.9029497918388365, 0.8572671103861236, 0.8120736798710789,
        0.7752311067612857, 0.7495133074160371, 0.7331566362141012,
        0.7231328786504687, 0.7170243231425116, 0.7132797454848134,
        0.7109662644637176, 0.7095274444819777, 0.7086282398790041,
        0.7080643921099323, 0.7077100452259464, 0.7074870362584157,
        0.7073465547230644, 0.707258007771603, 0.7072021746852174,
        0.7071669608441531, 0.7071447481716807, 0.7071307352167652,
        0.7071218945534594, 0.7071163168357665, 0.7071127976786524,
        0.7071105772982872, 0.7071091763559452,
    ),
    "lorentz(2, 1, 1)": (
        0.9999979903932559, 0.9999949723152364, 0.9999874449782717,
        0.9999687317287395, 0.9999224244359987, 0.9998085855273856,
        0.9995313319142737, 0.9988649444448107, 0.9972929047377725,
        0.993681262924173, 0.9856905192934171, 0.968938758187121,
        0.9364379205107393, 0.8800096261859635, 0.796236211780006,
        0.6955334526439905, 0.602136820310155, 0.5357963126810094,
        0.4970514302459509, 0.47596262397444766, 0.46428567619180827,
        0.4575706426795304, 0.4535866101687771, 0.4511711350251989,
        0.44968555161888857, 0.44876336460882826, 0.4481874945848796,
        0.4478265195985628, 0.44759970243064556, 0.44745696508950045,
        0.4473670528879989, 0.4473103813894974, 0.4472746476748505,
        0.44725211061131365, 0.44723789442159445, 0.4472289260994608,
        0.4472232680627585, 0.44721969831862113, 0.4472174460561611,
        0.4472160250119706, 0.447215128408571,
    ),
    "drude(1, 0.5)": (
        0.999999495523717, 0.9999987353812686, 0.9999968328306965,
        0.9999920786670329, 0.9999802261177091, 0.999950772568386,
        0.9998779131195946, 0.9996988184622501, 0.9992624323555004,
        0.9982119233230142, 0.9957250701809238, 0.9899740205640306,
        0.9771070792869763, 0.949661391698557, 0.8950881506503365,
        0.7973414032495058, 0.647319079059363, 0.4623598543642097,
        0.29018191364740026, 0.17029583069041782, 0.10099293809324246,
        0.0617713771179147, 0.03847258481079162, 0.024148482671747653,
        0.015205060885893067, 0.00958581548736567, 0.0060462498523802324,
        0.003814425772266041, 0.0024066143767101753, 0.001518439473201706,
        0.0009580626145903773, 0.0006044946529458983, 0.0003814098410601062,
        0.0002406532149009955, 0.0001518418818720763, 9.580574264376961e-05,
        6.044933497427025e-05, 3.814095137104473e-05, 2.4065313267449725e-05,
        1.5184186121771563e-05, 9.580573745562895e-06,
    ),
    "drude(2, 0.3)": (
        0.9999979790769917, 0.9999949304295993, 0.9999872908354589,
        0.9999681682972364, 0.9999203814910411, 0.9998012500097182,
        0.9995053082361698, 0.9987740163080575, 0.9969813901488527,
        0.9926415982186854, 0.9823426759630558, 0.9586873636599353,
        0.9072412093833664, 0.8052036855031294, 0.6318287105393038,
        0.40294951087178177, 0.19701112350948657, 0.08376293379013028,
        0.041272107896298024, 0.023890666580945845, 0.014635721066086673,
        0.00913258399473276, 0.005737387137063794, 0.0036138647189914263,
        0.002278648424981221, 0.0014373422757969917, 0.0009068043505430027,
        0.00057213042725293, 0.00036098375726256125, 0.00022776381120053664,
        0.00014370886223735087, 9.067406482431044e-05, 5.721144272140797e-05,
        3.609797383600347e-05, 2.277628017104155e-05, 1.4370860866615216e-05,
        9.067400113023061e-06, 5.721142672219111e-06, 3.6097969817183137e-06,
        2.2776279161559647e-06, 1.437086061304484e-06,
    ),
    "drude(1, 2)": (
        0.9999995002135279, 0.9999987523867316, 0.9999968939540309,
        0.9999922961136525, 0.9999809903454042, 0.9999534200764094,
        0.9998869287838504, 0.9997288956115933, 0.9993603257057379,
        0.9985211849098905, 0.9966673653810276, 0.9927207947836684,
        0.9846867255479846, 0.9691811134737535, 0.9410809970948218,
        0.8937878050743159, 0.8208249492724079, 0.7192063337144126,
        0.5935552187503499, 0.4576562591340584, 0.3300050654682048,
        0.2250980053279993, 0.1478134524816811, 0.09499275305433032,
        0.06040930108684426, 0.03823909710509971, 0.02415873730499559,
        0.015251096512343158, 0.009624797021212186, 0.006073340698609057,
        0.003832145654002186, 0.002417952285126963, 0.0015256327511840723,
        0.0009626111984694098, 0.000607367110229174, 0.00038322286576422416,
        0.0002417973135697748, 0.0001525637988710576, 9.626125140865783e-05,
        6.073674406982647e-05, 3.832229487744066e-05,
    ),
    "tabulated": (
        0.9999996417199285, 0.9999991012357167, 0.9999977471338738,
        0.999994359715899, 0.999985905608365, 0.9999648833087433,
        0.999912903398321, 0.9997854907503945, 0.9994772925726843,
        0.9987465616116052, 0.9970649445102845, 0.9933612542873391,
        0.9857063729572696, 0.9712507394198306, 0.9471580943500896,
        0.9131594645664874, 0.8742360265427849, 0.8391957182473578,
        0.8144356626722958, 0.8001757239010021, 0.7930569869718803,
        0.7898060397669168, 0.7884028195182511, 0.7878190721280014,
        0.7875816203794747, 0.787486175475536, 0.7874480240127412,
        0.7874328105310604, 0.7874267499096467, 0.7874243364918974,
        0.7874233755912211, 0.7874229930336313, 0.7874228407321527,
        0.7874227800994364, 0.787422755961053, 0.7874227463513793,
        0.7874227425256977, 0.7874227410026662, 0.7874227403963363,
        0.7874227401549521, 0.7874227400588553,
    ),
    "em": (
        0.8944266262288568, 0.8944257746056424, 0.8944236418828367,
        0.8944183096655987, 0.8944050117012206, 0.8943719760170711,
        0.8942903896359591, 0.8940907008566321, 0.893608541699532,
        0.8924678998314015, 0.8898507365622134, 0.8841122627467254,
        0.8723432224047648, 0.8504407101661466, 0.8149483077389827,
        0.7673984373834151, 0.7175536793228935, 0.6781858462115449,
        0.6544735789225398, 0.6426813847357629, 0.6372859978844861,
        0.6348336411098916, 0.633685499869109, 0.6331231744727693,
        0.6328334782392763, 0.6326767267197141, 0.6325882124783602,
        0.632536505437568, 0.6325055306491735, 0.6324866441323319,
        0.6324749892805769, 0.632467739783854, 0.6324632071551668,
        0.6324603637802529, 0.6324585763091719, 0.6324574511096712,
        0.632456742199247, 0.6324562953220254, 0.6324560135267829,
        0.6324558357917817, 0.6324557236747634,
    ),
}

# vacuum_ratio of the polarization route at HS[k], keyed by k
POLARIZATION_RATIO = {
    "lorentz(1, 1, 0.1)": {
        14: 0.47160142738610317, 16: 0.5994404221195941, 18: 0.7173785808156801,
        20: 0.7127765075054355, 22: 0.7087177983397276, 24: 0.7076317258960156,
        26: 0.7072969148439927, 28: 0.7071794708364522, 30: 0.7071352425502074,
        32: 0.7071180362284419, 34: 0.7071112499099199,
    },
    "lorentz(1, 1, 1)": {
        16: 0.4140334035166103, 18: 0.6554017150577395, 20: 0.7202217690098076,
        22: 0.7165567391756131, 24: 0.7113247970775355, 26: 0.70884621193509,
        28: 0.7078081166605507, 30: 0.7073873499533181, 32: 0.7072186909333681,
        34: 0.7071513669056111,
    },
    "lorentz(2, 1, 1)": {
        12: 0.11277198812285748, 14: 0.23882664934721606, 16: 0.3941015426354254,
        18: 0.44479579806892494, 20: 0.4298197053557708, 22: 0.42081846446322635,
        24: 0.4172029381393229, 26: 0.41577335327928805, 28: 0.4152064218203106,
        30: 0.41498110566559704, 32: 0.4148914685374229, 34: 0.4148557934440255,
    },
    "drude(1, 0.5)": {
        14: 0.2906989408185023, 16: 0.39958677703414985, 18: 0.2567120060494386,
        20: 0.09705930193242038, 22: 0.03710328691862103, 24: 0.014663945119646594,
        26: 0.005830957983766099, 28: 0.0023209105876619467, 30: 0.0009239435970554084,
        32: 0.00036782683119501773, 34: 0.0001464343891927111,
    },
    "drude(2, 0.3)": {
        12: 0.39609954809380005, 14: 0.41602050497729365, 16: 0.17437188216204708,
        18: 0.03981266236792095, 20: 0.014120600114013367, 22: 0.00553348173351053,
        24: 0.0021975269446643216, 26: 0.0008745123784650886, 28: 0.00034812827615400316,
        30: 0.00013859101443971315, 32: 5.5173991529678846e-05, 34: 2.1965156286886435e-05,
    },
    "drude(1, 2)": {
        14: 0.15536937301319445, 16: 0.349632824573319, 18: 0.449298277874884,
        20: 0.30612632604386303, 22: 0.14199305121755473, 24: 0.05823707504980679,
        26: 0.023297500519059676, 28: 0.009281988381284573, 30: 0.0036956702698192983,
        32: 0.0014713007619121673, 34: 0.0005857371428519122,
    },
    "lorentz(1, 1, 0.03)": {
        16: 0.6760109883919684, 17: 0.7166837094845063, 18: 0.7257865160263484,
        19: 0.7176865949029756, 20: 0.7118572753221247, 21: 0.709218800285205,
        22: 0.7080751854030933, 24: 0.7073411484992135, 26: 0.7071760043536239,
        28: 0.7071305187724437, 30: 0.707115625575776, 32: 0.7071102061927943,
        34: 0.7071081294892314,
    },
    "lorentz(1, 1, 0.01)": {
        16: 0.7292859588828273, 17: 0.7354278127292666, 18: 0.7292865098808199,
        19: 0.7177890083028016, 20: 0.7115841968304205, 21: 0.70896749951305,
        22: 0.7078907137490525, 24: 0.7072580382424994, 26: 0.7071414476492288,
        28: 0.7071165309471358, 30: 0.7071100204973928, 32: 0.7071079690043244,
        34: 0.7071072379348985,
    },
}

# vacuum_ratio of the polarization route for the tabulated coupling scaled by 30 at HS[k]
TABULATED_X30_RATIO = {
    12: 0.5599624648378014, 14: 0.2712503644540645, 16: 0.22218426214752462,
    18: 0.21217054702228444, 20: 0.21026398636868981, 21: 0.210041142936451,
    22: 0.20995187489167372, 24: 0.20990203453873657, 26: 0.20989412469474536,
}


def _false_convergence(route, cases, rel_tol):
    """Run ``route`` on (label, query, reference) cases.

    Returns the labels of the results not reported converged and a line for
    each converged one whose ratio is off its reference by more than
    ``rel_tol``.
    """
    unconverged, false = [], []
    for label, query, reference in cases:
        res = route(query)
        error = abs(res.vacuum_ratio / reference - 1.0)
        if not res.converged:
            unconverged.append(label)
        elif error > rel_tol:
            false.append(f"{label} at H = {query.separation:.4g}: {error / rel_tol:.3g} rel_tol")
    return unconverged, false


TOLERANCES = [1e-6, 1e-9, 1e-10, 1e-11, 1e-12]


@pytest.mark.parametrize("rel_tol", TOLERANCES)
def test_field_route(rel_tol):
    spec = QuadratureSpec(rel_tol=rel_tol)
    cases = [
        (name, ForceQuery(medium=MEDIA[name], separation=h, spec=spec,
                          kind=FieldKind.EM if name == "em" else FieldKind.SCALAR), reference)
        for name, references in FIELD_RATIO.items() for h, reference in zip(HS, references)
    ]
    unconverged, false = _false_convergence(force_field_bc, cases, rel_tol)
    assert not false
    # a sweep that converges nowhere would prove nothing
    assert len(unconverged) <= 0.1 * len(cases)


def _polarization_references(far):
    for chi0 in (1.0, 2.0, 4.0):
        closed = 90.0 * chi0**2 * float(mp.polylog(4, chi0**-2)) / (
            math.pi**4 * math.sqrt(1.0 + chi0))
        for h in HS:
            yield f"constant({chi0:g})", Medium(electric=Constant(chi0)), h, closed
    for name, table in POLARIZATION_RATIO.items():
        for k, reference in table.items():
            yield name, MEDIA[name], HS[k], reference
        for h in HS[FAR_K:] if far else ():
            yield name, MEDIA[name], h, (
                polarization_far_lorentz(*LORENTZ[name], h)[0] if name in LORENTZ
                else polarization_far_drude(*DRUDE[name], h))
    for k, reference in TABULATED_X30_RATIO.items():
        yield "tabulated x30", MEDIA["tabulated x30"], HS[k], reference


@pytest.mark.parametrize("rel_tol", TOLERANCES)
def test_polarization_route(rel_tol):
    spec = QuadratureSpec(rel_tol=rel_tol)
    cases = [
        (name, ForceQuery(medium=medium, bc=BoundaryCondition.POLARIZATION, separation=h,
                          spec=spec), reference)
        # the far forms' remainders reach 7e-12 (Lorentz(1, 1, 1) at H = 1e4)
        for name, medium, h, reference in _polarization_references(far=rel_tol >= 1e-10)
    ]
    unconverged, false = _false_convergence(force_polarization_bc, cases, rel_tol)
    assert not false
    assert len(unconverged) <= 0.1 * len(cases)
    # every kink of the grid is a panel edge, so none of these is left unconverged
    assert "tabulated x30" not in unconverged
