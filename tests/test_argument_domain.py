"""One rule for finite, signed arguments, at every place that states it.

``errors.require_positive`` raises "<field> must be > 0, got <value>" (or
">= 0").  Each site below must refuse NaN, +inf and the first value out of
its range (0 for "> 0", the largest negative double for ">= 0") with its
documented error class and a message that names its field.  The command
line's sites exit 1 with one stderr line.
"""

import json

import numpy as np
import pytest

from casimir_medium import (
    Axis,
    Constant,
    DomainError,
    Drude,
    FieldKind,
    ForceQuery,
    Lorentz,
    Medium,
    MomentumFrequencyPoint,
    QuadratureSpec,
    TabulatedCoupling,
    g0,
    g_omega,
    g_phiphi,
    inner_mode_integral,
    integrate_1d,
    matter_only_force,
    mode_logdet,
    reservoir_gap,
    vacuum_force_analytic,
)
from casimir_medium.cli import main

LORENTZ = Lorentz(1.0, 1.0, 0.1)
TABULATED = TabulatedCoupling((0.5, 1.0, 2.0), (0.0, 1.0, 0.0))
REAL = Axis.REAL

# id -> (call with the value, field, zero allowed)
LIBRARY_SITES = {
    "constant-chi0": (lambda x: Constant(x), "chi0", True),
    "lorentz-omega_p": (lambda x: Lorentz(x, 1.0, 0.1), "omega_p", False),
    "lorentz-omega_0": (lambda x: Lorentz(1.0, x, 0.1), "omega_0", True),
    "lorentz-gamma": (lambda x: Lorentz(1.0, 1.0, x), "gamma", True),
    "tabulated-omega_grid": (lambda x: TabulatedCoupling((x, 2.0), (1.0, 1.0)),
                             "omega_grid", False),
    "tabulated-g_values": (lambda x: TabulatedCoupling((1.0, 2.0), (1.0, x)),
                           "g_values", True),
    "constant-chi_bar": (lambda x: Constant(1.0).chi_bar(x),
                         "imaginary-axis frequency", True),
    "lorentz-chi_bar": (lambda x: LORENTZ.chi_bar(x), "imaginary-axis frequency", True),
    "drude-chi_bar-array": (lambda x: Drude(1.0, 0.5).chi_bar(np.array([1.0, x])),
                            "imaginary-axis frequency", True),
    "tabulated-chi_bar": (lambda x: TABULATED.chi_bar(x),
                          "imaginary-axis frequency", True),
    "constant-im_chi": (lambda x: Constant(1.0).im_chi(x), "real-axis frequency", False),
    "lorentz-im_chi-array": (lambda x: LORENTZ.im_chi(np.array([[1.0, x]])),
                             "real-axis frequency", False),
    "tabulated-im_chi": (lambda x: TABULATED.im_chi(x), "real-axis frequency", False),
    "force-query-separation": (lambda x: ForceQuery(separation=x), "separation", False),
    "vacuum-force-separation": (lambda x: vacuum_force_analytic(FieldKind.EM, x),
                                "separation", False),
    "matter-only-separation": (lambda x: matter_only_force(x), "separation", False),
    "mode_logdet-energy": (lambda x: mode_logdet(x, 1.0), "mode energy", False),
    "mode_logdet-separation": (lambda x: mode_logdet(1.0, x), "separation", False),
    "point-k": (lambda x: MomentumFrequencyPoint(x, 1.0, REAL), "momentum magnitude",
                True),
    "g0-k": (lambda x: g0(x, 1.0), "momentum magnitude", True),
    "g0-eta": (lambda x: g0(1.0, 2.0, x), "eta", True),
    "g_omega-omega_res": (lambda x: g_omega(x, 1.0), "reservoir frequency", False),
    "g_omega-eta": (lambda x: g_omega(2.0, 1.0, x), "eta", True),
    "g_phiphi-eta-real": (lambda x: g_phiphi(Medium(LORENTZ), FieldKind.EM,
                                             MomentumFrequencyPoint(1.0, 2.0, REAL), x),
                          "eta", True),
    "g_phiphi-eta-euclidean": (
        lambda x: g_phiphi(Medium(LORENTZ), FieldKind.EM,
                           MomentumFrequencyPoint(1.0, 2.0, Axis.EUCLIDEAN), x),
        "eta", True),
    "reservoir_gap-omega_res": (lambda x: reservoir_gap(x, 1.0), "reservoir frequency",
                                False),
    "reservoir_gap-separation": (lambda x: reservoir_gap(1.0, x), "separation", False),
    "spec-rel_tol": (lambda x: QuadratureSpec(rel_tol=x), "rel_tol", False),
    "spec-abs_tol": (lambda x: QuadratureSpec(abs_tol=x), "abs_tol", False),
    "inner_mode_integral-separation": (lambda x: inner_mode_integral(1.0, x),
                                       "separation", False),
    "integrate_1d-scale": (lambda x: integrate_1d(lambda q: 1.0, (0.0, np.inf), scale=x),
                           "transform scale", False),
}


def _bad_values(zero_ok):
    return [float("nan"), float("inf"), -5e-324 if zero_ok else 0.0]


def _message(field, zero_ok, value):
    return f"{field} must be {'>=' if zero_ok else '>'} 0, got {value!r}"


@pytest.mark.parametrize("site", LIBRARY_SITES)
def test_library_site_refuses(site):
    call, field, zero_ok = LIBRARY_SITES[site]
    for value in _bad_values(zero_ok):
        with pytest.raises(DomainError) as info:
            call(value)
        assert str(info.value) == _message(field, zero_ok, value)


# id -> (argv with the value as "{}", environment, field, zero allowed); a
# flag takes "--flag=value", as argparse reads "-5e-324" as an option
CLI_SITES = {
    "force-hmin": (["force", "--hmin={}"], {}, "hmin", False),
    "force-rel-tol": (["force", "--rel-tol={}"], {}, "rel_tol", False),
    "force-env-rel-tol": (["force"], {"CASIMIR_MEDIUM_RELTOL": "{}"},
                          "CASIMIR_MEDIUM_RELTOL", False),
    "check-env-rel-tol": (["check", "kk"], {"CASIMIR_MEDIUM_RELTOL": "{}"},
                          "CASIMIR_MEDIUM_RELTOL", False),
    "propagator-eta": (["propagator", "--point", "1,1", "--eta={}"], {}, "--eta", True),
    "propagator-omega-res": (["propagator", "--point", "1,1", "--omega-res={}"], {},
                             "--omega-res", False),
}


@pytest.mark.parametrize("site", CLI_SITES)
def test_cli_site_exits_1_with_one_line(site, monkeypatch, capsys):
    argv, env, field, zero_ok = CLI_SITES[site]
    for value in _bad_values(zero_ok):
        raw = repr(value)
        for key, text in env.items():
            monkeypatch.setenv(key, text.format(raw))
        assert main([arg.format(raw) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {_message(field, zero_ok, value)}\n"


def test_medium_file_site_names_the_file_field(tmp_path, capsys):
    path = tmp_path / "medium.json"
    path.write_text(json.dumps({"electric": {"type": "lorentz", "omega_p": 0.0,
                                             "omega_0": 1.0}}))
    assert main(["force", "--medium", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: medium.electric: omega_p must be > 0, got 0.0\n"
    )


def test_message_shows_a_numpy_scalar_as_a_float():
    with pytest.raises(DomainError, match=r"got -1\.0$"):
        reservoir_gap(np.float64(-1.0), 1.0)
