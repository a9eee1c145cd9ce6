"""Command-line interface.

Three subcommands:

* ``force``: force per unit area over a separation grid, CSV or JSON.
* ``check``: built-in cross-validation suites, one pass/fail line each.
* ``propagator``: dump propagator values at requested points as CSV.

Exit codes: 0 success; 1 malformed configuration, medium file or arguments;
2 medium unstable (or outside a boundary condition's validity regime);
3 rows emitted but not all clean (unconverged quadrature or pole sentinels);
4 a check suite failed.

Output is byte-deterministic for a fixed configuration and build: every
number is printed with 17 significant digits so values round-trip exactly.
The core works in natural units (hbar = c = 1); ``--scale`` multiplies
emitted forces by a constant for unit conversions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .checks import SUITES
from .errors import (
    CasimirMediumError,
    InvalidRegimeError,
    MediumFileError,
    MediumInstabilityError,
    PoleError,
)
from .forces import BoundaryCondition, ForceQuery, force_field_bc, force_polarization_bc
from .medium import FieldKind, Medium, VACUUM, load_medium
from .propagators import (
    DEFAULT_ETA,
    Axis,
    MomentumFrequencyPoint,
    cross_correlators,
    g0,
    g_omega,
    g_phiphi,
)
from .quadrature import QuadratureSpec

RELTOL_ENV = "CASIMIR_MEDIUM_RELTOL"

_FORCE_COLUMNS = ("H", "force_per_area", "error_estimate", "vacuum_ratio",
                  "evaluations", "converged")
_PROPAGATOR_COLUMNS = ("axis", "kind", "k", "freq", "re", "im", "status")
_PROPAGATOR_KINDS = ("G0", "Gomega", "Gphiphi", "GphiP", "GphiM", "GPP", "GMM")


class _Option(NamedTuple):
    """One ``force`` option: the ``--key`` flag and the ``key`` of --config."""

    key: str
    kind: object  # str, float, int or bool, or a tuple of the allowed strings
    default: object  # None: no value (medium, out) or derived (hmax, rel_tol)
    help: str | None = None


_FORCE_OPTIONS = (
    _Option("medium", str, None, "path to a medium JSON file (default vacuum)"),
    _Option("field", ("scalar", "em"), "scalar"),
    _Option("bc", ("field", "polarization"), "field"),
    _Option("hmin", float, 1.0, "smallest separation (default 1)"),
    _Option("hmax", float, None, "largest separation"),
    _Option("points", int, 1, "grid size (default 1)"),
    _Option("log", bool, False, "log-spaced grid"),
    _Option("rel_tol", float, None),
    _Option("format", ("csv", "json"), "csv"),
    _Option("out", str, None, "write output to this file instead of stdout"),
    _Option("scale", float, 1.0, "multiply emitted forces"),
)
_JSON_TYPE_NAMES = {str: "a string", float: "a number", int: "an integer",
                    bool: "true or false"}


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as err:
        raise MediumFileError(f"{path}: {err.strerror or err}") from err
    except json.JSONDecodeError as err:
        raise MediumFileError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
    if not isinstance(cfg, dict):
        raise MediumFileError(f"{path}: config must be a JSON object")
    kinds = {opt.key: opt.kind for opt in _FORCE_OPTIONS}
    unknown = set(cfg) - set(kinds)
    if unknown:
        raise MediumFileError(f"{path}: unknown config key {sorted(unknown)[0]!r}")
    return {key: _config_value(path, key, value, kinds[key])
            for key, value in cfg.items()}


def _config_value(path: str, key: str, value, kind):
    """``value`` as the flag would give it, or MediumFileError naming ``key``."""
    if isinstance(kind, tuple):
        ok, wanted = value in kind, f"one of {', '.join(kind)}"
    else:
        # JSON true/false load as bool, a subclass of int: only "log" takes them
        ok = isinstance(value, bool) == (kind is bool) and isinstance(
            value, (int, float) if kind is float else kind
        )
        wanted = _JSON_TYPE_NAMES[kind]
    if not ok:
        raise MediumFileError(
            f"{path}: config key {key!r} must be {wanted}, got {value!r}"
        )
    return value if isinstance(kind, tuple) else kind(value)


def _default_rel_tol() -> float:
    """rel_tol from the environment, else QuadratureSpec's default."""
    raw = os.environ.get(RELTOL_ENV)
    if raw is None:
        return QuadratureSpec.rel_tol
    try:
        value = float(raw)
    except ValueError:
        raise MediumFileError(f"{RELTOL_ENV}={raw!r} is not a number") from None
    if not (value > 0.0 and math.isfinite(value)):
        raise MediumFileError(f"{RELTOL_ENV}={raw!r} must be positive")
    return value


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as err:
        raise MediumFileError(f"out: {out}: {err.strerror or err}") from err


def _separation_grid(hmin: float, hmax: float, points: int, log: bool) -> list[float]:
    if not (hmin > 0.0 and math.isfinite(hmin)):
        raise MediumFileError(f"hmin must be > 0, got {hmin!r}")
    if points < 1:
        raise MediumFileError(f"points must be >= 1, got {points!r}")
    if points == 1:
        return [hmin]
    if not (hmax >= hmin and math.isfinite(hmax)):
        raise MediumFileError(f"hmax must be >= hmin, got {hmax!r}")
    grid = np.geomspace(hmin, hmax, points) if log else np.linspace(hmin, hmax, points)
    return [float(h) for h in grid]


def _force_settings(args: argparse.Namespace) -> dict:
    """Each option from its flag, else --config, else its default."""
    config = _load_config(args.config)
    settings = {}
    for opt in _FORCE_OPTIONS:
        value = getattr(args, opt.key)
        settings[opt.key] = config.get(opt.key, opt.default) if value is None else value
    if settings["hmax"] is None:
        settings["hmax"] = settings["hmin"]
    if settings["rel_tol"] is None:
        settings["rel_tol"] = _default_rel_tol()
    return settings


def _cmd_force(args: argparse.Namespace) -> int:
    settings = _force_settings(args)
    medium = load_medium(settings["medium"]) if settings["medium"] else VACUUM
    field = FieldKind(settings["field"])
    bc = BoundaryCondition(settings["bc"])
    scale, out = settings["scale"], settings["out"]
    if not math.isfinite(scale):
        raise MediumFileError(f"scale must be finite, got {scale!r}")

    spec = QuadratureSpec(rel_tol=settings["rel_tol"])
    grid = _separation_grid(
        settings["hmin"], settings["hmax"], settings["points"], settings["log"]
    )
    compute = force_field_bc if bc is BoundaryCondition.FIELD else force_polarization_bc

    rows = []
    for h in grid:
        query = ForceQuery(medium=medium, kind=field, bc=bc, separation=h, spec=spec)
        res = compute(query)
        rows.append(dict(zip(_FORCE_COLUMNS, (
            h, scale * res.force_per_area, scale * res.error_estimate,
            res.vacuum_ratio, res.evaluations, res.converged,
        ))))

    if settings["format"] == "csv":
        # floats in full, the evaluation count as is, converged as true/false
        lines = [",".join(_FORCE_COLUMNS)] + [
            ",".join(_fmt(v) if isinstance(v, float) else str(v).lower()
                     for v in row.values())
            for row in rows
        ]
        _write_out("\n".join(lines) + "\n", out)
    else:
        _write_out(json.dumps({"rows": rows}, indent=2) + "\n", out)
    return 0 if all(row["converged"] for row in rows) else 3


def _cmd_check(args: argparse.Namespace) -> int:
    names = args.suite or sorted(SUITES)
    for name in names:
        if name not in SUITES:
            sys.stderr.write(
                f"unknown check suite {name!r}; available: {', '.join(sorted(SUITES))}\n"
            )
            return 1
    rel_tol = args.rel_tol if args.rel_tol is not None else _default_rel_tol()
    spec = QuadratureSpec(rel_tol=rel_tol)
    all_passed = True
    for name in names:
        for result in SUITES[name](spec):
            sys.stdout.write(result.format_line() + "\n")
            all_passed = all_passed and result.passed
    return 0 if all_passed else 4


def _parse_point(raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise MediumFileError(f"--point expects 'k,freq', got {raw!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise MediumFileError(f"--point expects two numbers, got {raw!r}") from None


def _propagator_value(
    kind: str,
    medium: Medium,
    field: FieldKind,
    point: MomentumFrequencyPoint,
    omega_res: float,
    eta: float,
) -> complex:
    if kind == "G0":
        return g0(point.k, point.frequency, eta)
    if kind == "Gomega":
        return g_omega(omega_res, point.frequency, eta)
    if kind == "Gphiphi":
        return g_phiphi(medium, field, point, eta)
    correlators = cross_correlators(medium, point, eta)
    return {
        "GphiP": correlators.g_phi_p,
        "GphiM": correlators.g_phi_m,
        "GPP": correlators.g_pp,
        "GMM": correlators.g_mm,
    }[kind]


def _cmd_propagator(args: argparse.Namespace) -> int:
    medium = load_medium(args.medium) if args.medium else VACUUM
    field = FieldKind(args.field)
    axis = Axis(args.axis)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    for kind in kinds:
        if kind not in _PROPAGATOR_KINDS:
            raise MediumFileError(
                f"unknown propagator kind {kind!r}; "
                f"available: {', '.join(_PROPAGATOR_KINDS)}"
            )
        if axis is Axis.EUCLIDEAN and kind != "Gphiphi":
            raise MediumFileError(
                f"kind {kind!r} is defined on the real axis only"
            )
    if not args.point:
        raise MediumFileError("at least one --point k,freq is required")
    if not (args.eta >= 0.0 and math.isfinite(args.eta)):
        raise MediumFileError(f"--eta must be finite and >= 0, got {args.eta!r}")
    if not (args.omega_res > 0.0 and math.isfinite(args.omega_res)):
        raise MediumFileError(
            f"--omega-res must be finite and > 0, got {args.omega_res!r}"
        )

    lines = [",".join(_PROPAGATOR_COLUMNS)]
    clean = True
    for raw in args.point:
        k, freq = _parse_point(raw)
        point = MomentumFrequencyPoint(k=k, frequency=freq, axis=axis)
        for kind in kinds:
            try:
                value = _propagator_value(
                    kind, medium, field, point, args.omega_res, args.eta
                )
                re, im, status = _fmt(value.real), _fmt(value.imag), "ok"
            except PoleError:
                re, im, status = "", "", "pole"
                clean = False
            except MediumInstabilityError:
                raise
            except CasimirMediumError:
                re, im, status = "", "", "error"
                clean = False
            lines.append(
                ",".join((axis.value, kind, _fmt(k), _fmt(freq), re, im, status))
            )
    _write_out("\n".join(lines) + "\n", args.out)
    return 0 if clean else 3


class _ArgumentParser(argparse.ArgumentParser):
    """Report malformed arguments with exit code 1, not argparse's 2.

    Exit code 2 is reserved for an unstable medium or an invalid regime.
    ``add_subparsers`` builds subparsers with ``type(self)``, so they
    inherit this too.
    """

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="casimir-medium",
        description="Casimir force per unit area across a dispersive medium "
        "(natural units, attractive forces negative).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    force = sub.add_parser("force", help="force over a separation grid")
    for opt in _FORCE_OPTIONS:
        if opt.kind is bool:
            how = {"action": argparse.BooleanOptionalAction}
        elif isinstance(opt.kind, tuple):
            how = {"choices": opt.kind}
        else:
            how = {"type": opt.kind}
        # no argparse default: None marks a flag not given
        force.add_argument("--" + opt.key.replace("_", "-"), help=opt.help, **how)
    force.add_argument("--config", help="JSON file with these options; flags win")
    force.set_defaults(handler=_cmd_force)

    check = sub.add_parser("check", help="run built-in validation suites")
    check.add_argument(
        "suite", nargs="*", help=f"suites to run (default all: {', '.join(sorted(SUITES))})"
    )
    check.add_argument("--rel-tol", dest="rel_tol", type=float)
    check.set_defaults(handler=_cmd_check)

    prop = sub.add_parser("propagator", help="dump propagator values as CSV")
    prop.add_argument("--medium", help="path to a medium JSON file (default vacuum)")
    prop.add_argument("--axis", choices=("real", "euclidean"), default="real")
    prop.add_argument("--field", choices=("scalar", "em"), default="em")
    prop.add_argument(
        "--kinds",
        default="Gphiphi",
        help=f"comma-separated subset of {','.join(_PROPAGATOR_KINDS)}",
    )
    prop.add_argument(
        "--point",
        action="append",
        help="momentum,frequency pair; repeat for more points",
    )
    prop.add_argument(
        "--omega-res",
        dest="omega_res",
        type=float,
        default=1.0,
        help="reservoir frequency for Gomega rows (momentum column is ignored)",
    )
    prop.add_argument(
        "--eta", type=float, default=DEFAULT_ETA, help="retarded pole shift"
    )
    prop.add_argument("--out", help="write output to this file instead of stdout")
    prop.set_defaults(handler=_cmd_propagator)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        # argparse exits after --help (0) and malformed arguments (1)
        return stop.code
    try:
        return args.handler(args)
    except (MediumInstabilityError, InvalidRegimeError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    except CasimirMediumError as err:
        sys.stderr.write(f"error: {err}\n")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
