"""The CLI output corpus: what ``casimir-medium`` prints for a fixed set of runs.

``CASES`` lists the invocations, each with an id, its argv, the medium JSON
it reads and the environment variables it sets.  A medium is written to a
file whose path takes the place of ``{medium}`` in the argv.
``cli_corpus.json`` records each case's exit code, stdout and stderr, and
``test_cli_corpus.py`` runs every case in process through ``main()`` and
compares them with ``differences``.

Regenerate the record from the repository root with

    python3 tests/cli_corpus.py

It reruns every case and rewrites the record of each one whose output no
longer matches it by ``differences`` (a case that still matches keeps its
record, last digits included), adds new cases and drops removed ones.  It
prints a unified diff of every record it changed, then a summary line.
Every regeneration goes into CHANGES.md with that diff.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import math
import os
import sys
import tempfile
import warnings
from pathlib import Path

DATA = Path(__file__).with_name("cli_corpus.json")

# floats printed with 17 digits round-trip; this much relative slack lets a
# BLAS build that rounds a matrix product differently pass
REL_TOL = 1e-13
# an error estimate or a check's measured deviation is itself a rounding
# residue in part, so it only has to agree within this factor
ERROR_FACTOR = 10.0

LORENTZ = {"type": "lorentz", "omega_p": 1.0, "omega_0": 1.0, "gamma": 0.1}
BROAD_LORENTZ = {"type": "lorentz", "omega_p": 1.0, "omega_0": 1.0, "gamma": 1.0}
DRUDE = {"type": "drude", "omega_p": 1.0, "gamma": 0.5}
SMOOTH_GRID = {"type": "tabulated", "omega_grid": [0.5, 1.0, 2.0],
               "g_values": [0.0, 1.0, 0.0]}
EDGE_GRID = {"type": "tabulated", "omega_grid": [0.5, 1.0, 2.0],
             "g_values": [0.4, 1.0, 0.3]}
# strong enough for the polarization boundary condition's regime
STRONG_GRID = {"type": "tabulated", "omega_grid": [0.5, 1.0, 2.0],
               "g_values": [0.0, 30.0, 0.0]}
STRONG_EDGE_GRID = {"type": "tabulated", "omega_grid": [0.5, 1.0, 2.0],
                    "g_values": [12.0, 30.0, 9.0]}
SHARP = {"type": "sharp_resonance", "omega_p": 2.0, "omega_0": 1.0}
CONSTANT = {"type": "constant", "chi0": 1.25}
MAGNETIC_CONSTANT = {"type": "constant", "chi0": 0.2}
MAGNETIC_LORENTZ = {"type": "lorentz", "omega_p": 0.3, "omega_0": 1.0, "gamma": 0.5}
WIDE_GRID = {"type": "tabulated", "omega_grid": [1e-300, 0.5, 1, 2, 1e300],
             "g_values": [0, 0.3, 1, 0.2, 0]}

# name -> medium JSON; None is the default vacuum (no --medium)
MEDIA = {
    "vacuum": None,
    "lorentz": {"electric": LORENTZ},
    "lorentz-magnetic": {"electric": BROAD_LORENTZ, "magnetic": MAGNETIC_LORENTZ},
    "drude": {"electric": DRUDE},
    "drude-magnetic": {"electric": DRUDE, "magnetic": MAGNETIC_CONSTANT},
    "tabulated": {"electric": SMOOTH_GRID},
    "tabulated-edges": {"electric": EDGE_GRID},
    "tabulated-magnetic": {"electric": EDGE_GRID, "magnetic": MAGNETIC_CONSTANT},
    "tabulated-strong": {"electric": STRONG_GRID},
    "tabulated-strong-edges": {"electric": STRONG_EDGE_GRID},
    "sharp": {"electric": SHARP},
    "sharp-magnetic": {"electric": SHARP, "magnetic": MAGNETIC_LORENTZ},
    "constant": {"electric": CONSTANT},
    "constant-magnetic": {"electric": CONSTANT, "magnetic": MAGNETIC_CONSTANT},
}
PROPAGATOR_KINDS = "G0,Gomega,Gphiphi,GphiP,GphiM,GPP,GMM"
FREQUENCIES = ("1.1", "0", "-0", "-1.1")
EXTREME_POINTS = ("0,0", "1e-13,0", "1e200,1", "1,1e200", "1e200,1e200", "1e-200,0",
                  "0,1e-200", "1,1")


def _case(case_id, argv, medium=None, env=None):
    if medium is not None:
        argv = [*argv, "--medium", "{medium}"]
    return {"id": case_id, "argv": argv, "medium": medium, "env": env or {}}


def _force_cases():
    grid = ["--hmin", "0.5", "--hmax", "4", "--points", "3", "--log"]
    for name, medium in MEDIA.items():
        yield _case(f"force-{name}", ["force", *grid], medium)
        yield _case(f"force-{name}-em", ["force", "--field", "em", *grid], medium)
        yield _case(f"force-{name}-polarization",
                    ["force", "--bc", "polarization", "--hmin", "1.4"], medium)
        yield _case(f"force-{name}-json", ["force", "--format", "json", "--hmin", "2"],
                    medium)
    lorentz = MEDIA["lorentz"]
    yield _case("force-lorentz-linear", ["force", "--hmin", "0.5", "--hmax", "2",
                                         "--points", "4"], lorentz)
    yield _case("force-lorentz-tight", ["force", "--rel-tol", "1e-12", *grid], lorentz)
    yield _case("force-lorentz-loose", ["force", "--rel-tol", "1e-6", *grid], lorentz)
    yield _case("force-lorentz-scale", ["force", "--scale", "2.5"], lorentz)
    yield _case("force-lorentz-env-tol", ["force", *grid], lorentz,
                env={"CASIMIR_MEDIUM_RELTOL": "1e-11"})
    yield _case("force-lorentz-far", ["force", "--hmin", "1e-3", "--hmax", "1e5",
                                      "--points", "5", "--log"], lorentz)
    for name in ("drude", "tabulated-strong", "tabulated-strong-edges"):
        yield _case(f"force-{name}-polarization-far",
                    ["force", "--bc", "polarization", "--hmin", "0.5", "--hmax", "1e5",
                     "--points", "4", "--log"], MEDIA[name])
    yield _case("force-drude-polarization-json",
                ["force", "--bc", "polarization", "--format", "json", "--hmin", "0.5",
                 "--hmax", "4", "--points", "2"], MEDIA["drude"])
    yield _case("force-tabulated-polarization-tight",
                ["force", "--bc", "polarization", "--rel-tol", "1e-12", "--hmin", "1"],
                MEDIA["tabulated-strong-edges"])
    yield _case("force-unconverged", ["force", "--rel-tol", "1e-16"])


def _check_cases():
    yield _case("check", ["check"])
    yield _case("check-tight", ["check", "--rel-tol", "1e-12"])
    for suite in ("limits", "kk", "dyson", "action"):
        yield _case(f"check-{suite}", ["check", suite])
        yield _case(f"check-{suite}-loose", ["check", suite, "--rel-tol", "1e-6"])
        yield _case(f"check-{suite}-tight", ["check", suite, "--rel-tol", "1e-12"])
    yield _case("check-unknown-suite", ["check", "limits", "nope"])


def _propagator_cases():
    points = [arg for f in FREQUENCIES for k in ("0.4", "0")
              for arg in ("--point", f"{k},{f}")]
    for name in ("vacuum", "lorentz-magnetic", "drude", "tabulated-edges", "sharp"):
        for field in ("em", "scalar"):
            for eta in ("1e-8", "0"):
                yield _case(f"propagator-{name}-{field}-eta{eta}",
                            ["propagator", "--kinds", PROPAGATOR_KINDS, "--field", field,
                             "--eta", eta, *points], MEDIA[name])
        # a negative Euclidean frequency refuses the whole run, so it runs alone
        for label, freqs in (("", FREQUENCIES[:3]), ("-negative", FREQUENCIES[3:])):
            yield _case(f"propagator-{name}-euclidean{label}",
                        ["propagator", "--axis", "euclidean", "--kinds", "Gphiphi",
                         *(arg for f in freqs for k in ("0.4", "0")
                           for arg in ("--point", f"{k},{f}"))], MEDIA[name])
    yield _case("propagator-on-resonance",
                ["propagator", "--kinds", PROPAGATOR_KINDS, "--point", "0.4,1",
                 "--eta", "0"], MEDIA["sharp"])
    yield _case("propagator-gomega-pole",
                ["propagator", "--kinds", "Gomega", "--omega-res", "1.1", "--eta", "0",
                 "--point", "0,1.1", "--point", "0,-1.1"])
    yield _case("propagator-euclidean-real-kind",
                ["propagator", "--axis", "euclidean", "--kinds", "G0", "--point", "1,1"])


def _refusal_cases():
    """Malformed arguments, environment and medium files: exit 1, one line."""
    for flag, raw in (("--eta", "-1"), ("--eta", "nan"), ("--eta", "inf"),
                      ("--omega-res", "0"), ("--omega-res", "-1"),
                      ("--omega-res", "nan"), ("--omega-res", "inf")):
        yield _case(f"propagator-bad{flag}={raw}",
                    ["propagator", "--point", "1,1", "--kinds", "Gphiphi,GPP", flag, raw])
    for raw in ("abc", "0", "-1", "nan", "inf"):
        yield _case(f"force-env-tol={raw}", ["force"],
                    env={"CASIMIR_MEDIUM_RELTOL": raw})
        yield _case(f"check-env-tol={raw}", ["check", "kk"],
                    env={"CASIMIR_MEDIUM_RELTOL": raw})
    for raw in ("0", "-1", "nan", "inf", "1e-80", "1e80"):
        yield _case(f"force-hmin={raw}", ["force", "--hmin", raw])
    for flag, raw in (("--rel-tol", "0"), ("--rel-tol", "-1"), ("--rel-tol", "nan"),
                      ("--scale", "inf"), ("--points", "0"), ("--hmax", "0.5")):
        yield _case(f"force-bad{flag}={raw}", ["force", "--points", "2", flag, raw])
    yield _case("check-bad-rel-tol", ["check", "kk", "--rel-tol", "-1"])
    yield _case("propagator-euclidean-negative",
                ["propagator", "--axis", "euclidean", "--point", "1,-1"])
    bad_models = {
        "constant-negative": {"type": "constant", "chi0": -1.0},
        "constant-nan": {"type": "constant", "chi0": math.nan},
        "lorentz-omega_p-0": {"type": "lorentz", "omega_p": 0.0, "omega_0": 1.0},
        "lorentz-omega_p-inf": {"type": "lorentz", "omega_p": math.inf, "omega_0": 1.0},
        "lorentz-omega_0-negative": {"type": "lorentz", "omega_p": 1.0, "omega_0": -1.0},
        "lorentz-gamma-negative": {"type": "lorentz", "omega_p": 1.0, "omega_0": 1.0,
                                   "gamma": -0.1},
        "drude-gamma-0": {"type": "drude", "omega_p": 1.0, "gamma": 0.0},
        "tabulated-descending": {"type": "tabulated", "omega_grid": [2.0, 1.0],
                                 "g_values": [1.0, 1.0]},
        "tabulated-negative": {"type": "tabulated", "omega_grid": [1.0, 2.0],
                               "g_values": [1.0, -1.0]},
        "tabulated-length": {"type": "tabulated", "omega_grid": [1.0, 2.0],
                             "g_values": [1.0]},
        "unknown-type": {"type": "plasma"},
    }
    for name, model in bad_models.items():
        yield _case(f"medium-{name}", ["force"], {"electric": model})
    yield _case("medium-unstable", ["force", "--field", "em"],
                {"electric": CONSTANT, "magnetic": {"type": "constant", "chi0": 1.5}})
    yield _case("medium-unstable-euclidean",
                ["propagator", "--axis", "euclidean", "--point", "1,1"],
                {"electric": CONSTANT, "magnetic": {"type": "constant", "chi0": 1.5}})
    yield _case("polarization-out-of-regime", ["force", "--bc", "polarization"],
                {"electric": {"type": "constant", "chi0": 0.5}})


def _extreme_cases():
    """The cases of ``test_cli.test_extreme_inputs``."""
    tiny_line = {"type": "lorentz", "omega_p": 1, "omega_0": 1e-100, "gamma": 1e-100}
    huge = {"type": "lorentz", "omega_p": 1e200, "omega_0": 1, "gamma": 0.1}
    huge_broad = {"type": "lorentz", "omega_p": 1e200, "omega_0": 1, "gamma": 1}
    underflowed = {"type": "lorentz", "omega_p": 1, "omega_0": 1e-200, "gamma": 1e-200}
    giant = {"type": "constant", "chi0": 1e308}
    euclidean_origin = ["propagator", "--axis", "euclidean", "--kinds", "Gphiphi",
                        "--point", "1,0"]
    cases = [
        ("lorentz-tiny-line-propagator", tiny_line,
         ["propagator", "--point", "1,1e-100", "--kinds", "GPP", "--field", "scalar"]),
        ("wide-grid-force", WIDE_GRID,
         ["force", "--hmin", "0.5", "--hmax", "5", "--points", "3"]),
        ("wide-grid-euclidean", WIDE_GRID,
         ["propagator", "--axis", "euclidean", "--field", "scalar",
          *(arg for point in EXTREME_POINTS for arg in ("--point", point))]),
        ("constant-1e308-force", giant, ["force"]),
        ("constant-1e308-polarization", giant, ["force", "--bc", "polarization"]),
        ("lorentz-wp-1e200-polarization", huge, ["force", "--bc", "polarization"]),
        ("lorentz-wp-1e200-force", huge, ["force"]),
        ("lorentz-wp-1e200-force-em", huge, ["force", "--field", "em"]),
        ("lorentz-underflowed-propagator", underflowed,
         ["propagator", "--point", "1,1e-200", "--kinds", "GPP", "--field", "scalar"]),
        ("lorentz-wp-1e200-gamma-1-polarization", huge_broad,
         ["force", "--bc", "polarization"]),
        ("lorentz-wp-1e200-euclidean", huge_broad, euclidean_origin),
        ("sharp-line-underflowed-euclidean",
         {"type": "sharp_resonance", "omega_p": 1, "omega_0": 1e-200}, euclidean_origin),
        ("sharp-line-on-a-node-polarization", SHARP,
         ["force", "--bc", "polarization", "--hmin", "0.4", "--hmax", "0.6",
          "--points", "3"]),
        ("sharp-line-huge-gpp",
         {"type": "sharp_resonance", "omega_p": 3.3797779783728956e95,
          "omega_0": 23.790363726494764},
         ["propagator", "--kinds", "GPP", "--field", "scalar",
          "--point", "1.2944035672348795,2.3342490389379824"]),
        ("tabulated-steep-slope",
         {"type": "tabulated", "omega_grid": [1e-200, 2e-200], "g_values": [0, 1e120]},
         ["force"]),
        ("lorentz-underflowed-polarization",
         {"type": "lorentz", "omega_p": 1, "omega_0": 1e-200, "gamma": 5e-201},
         ["force", "--bc", "polarization"]),
    ]
    for case_id, electric, argv in cases:
        yield _case(f"extreme-{case_id}", argv, {"electric": electric})


CASES = [*_force_cases(), *_check_cases(), *_propagator_cases(), *_refusal_cases(),
         *_extreme_cases()]


def run_case(case: dict, workdir: str) -> dict:
    """Run one case through ``main()`` in this process: its code, stdout, stderr.

    A numpy RuntimeWarning is an error here, as in the test suite; the medium
    file's path is written back as ``{medium}`` in the output.
    """
    from casimir_medium.cli import main

    path = os.path.join(workdir, "medium.json")
    if case["medium"] is not None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(case["medium"], fh)
    argv = [path if arg == "{medium}" else arg for arg in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    saved = {key: os.environ.get(key) for key in case["env"]}
    os.environ.update(case["env"])
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return {"code": code, "stdout": out.getvalue().replace(path, "{medium}"),
            "stderr": err.getvalue().replace(path, "{medium}")}


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _close(expected: str, actual: str) -> bool:
    # a value, the same sign of zero and within REL_TOL; anything else exactly
    a, b = _number(expected), _number(actual)
    if a is None or b is None or not math.isfinite(a) or not math.isfinite(b):
        return expected == actual
    if a == 0.0 or b == 0.0:
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _within_factor(expected: str, actual: str) -> bool:
    # two values of one sign within ERROR_FACTOR; a zero or anything else exactly
    a, b = _number(expected), _number(actual)
    if a is None or b is None or not math.isfinite(a) or not math.isfinite(b):
        return expected == actual
    if a == 0.0 or b == 0.0 or (a > 0.0) != (b > 0.0):
        return a == b
    return abs(math.log(abs(a)) - math.log(abs(b))) <= math.log(ERROR_FACTOR)


# how each column compares; a column not named here compares exactly
_FORCE_RULES = {"H": _close, "force_per_area": _close, "vacuum_ratio": _close,
                "error_estimate": _within_factor}
_PROPAGATOR_RULES = {"k": _close, "freq": _close, "re": _close, "im": _close}


def _compare_csv(expected: str, actual: str, rules: dict) -> list[str]:
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    if len(exp_lines) != len(act_lines) or exp_lines[:1] != act_lines[:1]:
        return [f"stdout shape: expected {exp_lines[:1]} and {len(exp_lines)} lines, "
                f"got {act_lines[:1]} and {len(act_lines)}"]
    header = exp_lines[0].split(",")
    problems = []
    for exp_row, act_row in zip(exp_lines[1:], act_lines[1:]):
        exp_fields, act_fields = exp_row.split(","), act_row.split(",")
        if len(exp_fields) != len(act_fields):
            problems.append(f"row {exp_row!r} became {act_row!r}")
            continue
        for column, e, a in zip(header, exp_fields, act_fields):
            if not rules.get(column, str.__eq__)(e, a):
                problems.append(f"{column}: {e} became {a} in row {exp_row!r}")
    return problems


def _compare_force_json(expected: str, actual: str) -> list[str]:
    exp_rows, act_rows = json.loads(expected)["rows"], json.loads(actual)["rows"]
    if [list(r) for r in exp_rows] != [list(r) for r in act_rows]:
        return [f"json rows: expected {exp_rows}, got {act_rows}"]
    problems = []
    for exp_row, act_row in zip(exp_rows, act_rows):
        for column, e in exp_row.items():
            a = act_row[column]
            if not _FORCE_RULES.get(column, str.__eq__)(json.dumps(e), json.dumps(a)):
                problems.append(f"{column}: {e} became {a}")
    return problems


def _compare_check(expected: str, actual: str) -> list[str]:
    # "<status> <name>: measured <x> (bound <y>) [detail]": all but the
    # measured deviation exactly
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    if len(exp_lines) != len(act_lines):
        return [f"check printed {len(act_lines)} lines, expected {len(exp_lines)}"]
    problems = []
    for e, a in zip(exp_lines, act_lines):
        e_head, _, e_rest = e.partition(": measured ")
        a_head, _, a_rest = a.partition(": measured ")
        e_value, _, e_tail = e_rest.partition(" ")
        a_value, _, a_tail = a_rest.partition(" ")
        if (e_head, e_tail) != (a_head, a_tail) or not _within_factor(e_value, a_value):
            problems.append(f"check line {e!r} became {a!r}")
    return problems


def differences(case: dict, expected: dict, actual: dict) -> list[str]:
    """What differs between a recorded and a fresh run of ``case``; [] if none.

    Exit codes and stderr compare exactly.  In stdout, forces, ratios and
    propagator values compare within REL_TOL (and the sign of a zero
    exactly), error estimates and check deviations within ERROR_FACTOR, and
    everything else (headers, statuses, ``converged``, evaluation counts,
    check names, verdicts and bounds) exactly.
    """
    problems = []
    for key in ("code", "stderr"):
        if expected[key] != actual[key]:
            problems.append(f"{key}: expected {expected[key]!r}, got {actual[key]!r}")
    exp_out, act_out = expected["stdout"], actual["stdout"]
    command = case["argv"][0]
    if exp_out == act_out:
        return problems
    if not exp_out or not act_out:
        compared = [f"stdout: expected {exp_out!r}, got {act_out!r}"]
    elif command == "force" and "json" in case["argv"]:
        compared = _compare_force_json(exp_out, act_out)
    elif command == "force":
        compared = _compare_csv(exp_out, act_out, _FORCE_RULES)
    elif command == "propagator":
        compared = _compare_csv(exp_out, act_out, _PROPAGATOR_RULES)
    else:
        compared = _compare_check(exp_out, act_out)
    return problems + compared


def load() -> dict:
    """The recorded corpus: case id -> {"code", "stdout", "stderr"}."""
    with open(DATA, encoding="utf-8") as fh:
        return {record.pop("id"): record for record in json.load(fh)}


def _record_lines(record: dict | None) -> list[str]:
    if record is None:
        return []
    lines = [f"exit {record['code']}"]
    lines += [f"stdout: {line}" for line in record["stdout"].splitlines()]
    lines += [f"stderr: {line}" for line in record["stderr"].splitlines()]
    return lines


def regenerate() -> None:
    """Rerun every case, rewrite the records that moved and print the diff."""
    old = load() if DATA.exists() else {}
    new = {}
    with tempfile.TemporaryDirectory() as workdir:
        for case in CASES:
            fresh, kept = run_case(case, workdir), old.get(case["id"])
            matches = kept is not None and not differences(case, kept, fresh)
            new[case["id"]] = kept if matches else fresh
    changed = 0
    for case_id in [*new, *(i for i in old if i not in new)]:
        before, after = old.get(case_id), new.get(case_id)
        if before == after:
            continue
        changed += 1
        sys.stdout.writelines(line + "\n" for line in difflib.unified_diff(
            _record_lines(before), _record_lines(after),
            f"{case_id} (recorded)", f"{case_id} (now)", lineterm=""))
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump([{"id": case_id, **record} for case_id, record in new.items()],
                  fh, indent=1)
        fh.write("\n")
    print(f"{len(new)} cases, {changed} changed, added or removed")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    regenerate()
