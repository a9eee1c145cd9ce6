"""Seeded workloads: inputs, the operations that run them, and their checks.

Every workload is a closed loop with one caller: one operation at a time, in
one process (``cli_cold`` adds one child process at a time).  Inputs come
from ``random.Random(seed)`` only; the library receives the generated media
and separations, never the seed.

field_sweep
    ``force_field_bc`` at rel_tol 1e-9 on 4 media x 100 separations, one op
    per force value.  Grid: H_i = 10^(-3 + 8 (i + d_i) / 99) with d_i in
    [-0.3, 0.3], clipped to [1e-3, 1e5], drawn per medium.  Media:
    Lorentz(omega_p 1 +-5%, omega_0 1 +-5%, gamma 0.1 +-10%) scalar;
    Drude(omega_p 1 +-5%, gamma 0.5 +-10%) scalar; a 60-node tabulated
    coupling on [0.2, 3] with g = A exp(-((w - c)/s)^2), A 1 +-10%,
    c 1.2 +-5%, s 0.4 +-10%, scalar; and EM with a Lorentz as above plus
    Constant(chi0 0.2 +-10%) magnetic.
polarization
    ``force_polarization_bc`` for Lorentz(1, 1, 1) and Drude(1, 0.5) at
    H = 1.4 and 2.8, each times 10^u with u uniform in [-0.02, 0.02] (a
    wider range moves the op cost with the seed), plus three fixed points that
    show today's defects: Lorentz at H = 12 and Drude at H = 16, flagged
    converged beyond rel_tol (the absolute tolerance again), and Drude at
    H = 0.5, whose nested quadrature does not converge.  The fixed points
    keep the accuracy metrics from varying with the seed.  Two expected
    refusals, Lorentz(0.5, 1, 0.05) at H = 1 and at a log-uniform H in
    [1, 4], must raise InvalidRegimeError.
cli_cold
    ``python -m casimir_medium.cli`` in a fresh child per op: ``force`` at
    one log-uniform H in [0.5, 4]; a 13-point ``--log`` sweep from
    U[0.4, 0.6] to U[3, 5]; ``check`` limits, kk, dyson and action.  The
    medium file holds a Lorentz drawn as in field_sweep.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PERFBENCH = Path(__file__).resolve().parent

# the library default, which every operation requests
REL_TOL = 1e-9
CHILD_TIMEOUT_S = 90.0


@dataclass
class Check:
    """Verdict on one distinct operation's outcome."""

    failure: str | None = None
    rel_errs: list[float] = field(default_factory=list)
    rows: int = 0
    false_converged: int = 0
    unconverged: int = 0


def _jitter(rng: random.Random, value: float, frac: float) -> float:
    return value * rng.uniform(1.0 - frac, 1.0 + frac)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _lorentz(rng: random.Random) -> dict:
    return {"type": "lorentz", "omega_p": _jitter(rng, 1.0, 0.05),
            "omega_0": _jitter(rng, 1.0, 0.05), "gamma": _jitter(rng, 0.1, 0.1)}


def _check_force(value: float, converged: bool, ref: float | None) -> Check:
    if not (math.isfinite(value) and value < 0.0):
        return Check(failure=f"force {value!r} is not finite and negative")
    if ref is None:
        return Check(failure="reference refuses a point the library computed")
    err = abs(value / ref - 1.0)
    return Check(rel_errs=[err], rows=1,
                 false_converged=int(converged and err > REL_TOL),
                 unconverged=int(not converged))


class Workload:
    """A seeded list of operations (``specs``) with a runner and a checker."""

    name = ""
    specs: list[dict]
    op = -1  # id of the operation in flight, for the traced run

    def setup(self) -> None:
        """Import the library and turn the specs into calls."""

    def run(self, i: int) -> tuple:
        raise NotImplementedError

    def check(self, spec: dict, outcome: tuple, ref) -> Check:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def trace_children(self) -> None:
        """Run any child processes under the tracer from now on."""

    def child_traces(self) -> list[tuple[int, dict]]:
        return []

    def cleanup(self) -> None:
        pass


class _LibraryWorkload(Workload):
    """Ops that call a force route in this process."""

    _refusal: type[BaseException] | tuple = ()

    def run(self, i: int):
        try:
            res = self._calls[i]()
        except self._refusal as err:
            return ("refused", type(err).__name__)
        except Exception as err:  # an op that breaks is counted, not fatal
            return ("error", type(err).__name__, str(err))
        return ("force", res.force_per_area, res.converged, res.evaluations)


class FieldSweep(_LibraryWorkload):
    name = "field_sweep"
    POINTS = 100

    def __init__(self, seed: int):
        rng = random.Random(seed)
        w = [0.2 + 2.8 * k / 59 for k in range(60)]
        amp, centre, width = (_jitter(rng, 1.0, 0.1), _jitter(rng, 1.2, 0.05),
                              _jitter(rng, 0.4, 0.1))
        tabulated = {"type": "tabulated", "omega_grid": w,
                     "g_values": [amp * math.exp(-((x - centre) / width) ** 2)
                                  for x in w]}
        media = (
            ("lorentz", {"electric": _lorentz(rng)}, "scalar"),
            ("drude", {"electric": {"type": "drude",
                                    "omega_p": _jitter(rng, 1.0, 0.05),
                                    "gamma": _jitter(rng, 0.5, 0.1)}}, "scalar"),
            ("tabulated", {"electric": tabulated}, "scalar"),
            ("em", {"electric": _lorentz(rng),
                    "magnetic": {"type": "constant",
                                 "chi0": _jitter(rng, 0.2, 0.1)}}, "em"),
        )
        step = 8.0 / (self.POINTS - 1)
        self.specs = []
        for label, medium, kind in media:
            for i in range(self.POINTS):
                exponent = -3.0 + step * (i + rng.uniform(-0.3, 0.3))
                h = 10.0 ** min(5.0, max(-3.0, exponent))
                self.specs.append({"label": label, "medium": medium,
                                   "field": kind, "H": h})

    def setup(self) -> None:
        # the route is looked up in ``forces`` at each call, so the traced
        # run's wrapper sees it (tracer.install rebinds module attributes)
        import casimir_medium.forces as forces
        from casimir_medium import FieldKind, ForceQuery, medium_from_dict

        media = {}
        self._calls = []
        for spec in self.specs:
            key = spec["label"]
            if key not in media:
                media[key] = medium_from_dict(spec["medium"])
            query = ForceQuery(medium=media[key], kind=FieldKind(spec["field"]),
                               separation=spec["H"])
            self._calls.append(lambda q=query: forces.force_field_bc(q))

    def check(self, spec: dict, outcome: tuple, ref) -> Check:
        if outcome[0] != "force":
            return Check(failure=f"{spec['label']} H={spec['H']:.4g}: {outcome}")
        return _check_force(outcome[1], outcome[2],
                            ref.field(spec["medium"], spec["field"], spec["H"]))


class Polarization(_LibraryWorkload):
    name = "polarization"
    LORENTZ = {"type": "lorentz", "omega_p": 1.0, "omega_0": 1.0, "gamma": 1.0}
    DRUDE = {"type": "drude", "omega_p": 1.0, "gamma": 0.5}
    WEAK = {"type": "lorentz", "omega_p": 0.5, "omega_0": 1.0, "gamma": 0.05}
    CENTRES = (1.4, 2.8)
    FIXED = (("lorentz", LORENTZ, 12.0), ("drude", DRUDE, 16.0), ("drude", DRUDE, 0.5))

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.specs = []
        for label, model in (("lorentz", self.LORENTZ), ("drude", self.DRUDE)):
            for h in self.CENTRES:
                self.specs.append({"label": label, "model": model,
                                   "H": h * 10.0 ** rng.uniform(-0.02, 0.02),
                                   "refusal": False})
        for label, model, h in self.FIXED:
            self.specs.append({"label": label, "model": model, "H": h,
                               "refusal": False})
        for h in (1.0, _log_uniform(rng, 1.0, 4.0)):
            self.specs.append({"label": "weak-lorentz", "model": self.WEAK,
                               "H": h, "refusal": True})

    def setup(self) -> None:
        import casimir_medium.forces as forces
        from casimir_medium import (BoundaryCondition, ForceQuery, InvalidRegimeError,
                                    medium_from_dict)

        self._refusal = InvalidRegimeError
        self._calls = []
        for spec in self.specs:
            query = ForceQuery(medium=medium_from_dict({"electric": spec["model"]}),
                               bc=BoundaryCondition.POLARIZATION, separation=spec["H"])
            self._calls.append(lambda q=query: forces.force_polarization_bc(q))

    def check(self, spec: dict, outcome: tuple, ref) -> Check:
        where = f"{spec['label']} H={spec['H']:.4g}"
        expected = ref.polarization(spec["model"], spec["H"])
        if spec["refusal"]:
            if outcome[0] != "refused":
                return Check(failure=f"{where}: expected InvalidRegimeError, got {outcome}")
            if expected is not None:
                return Check(failure=f"{where}: refused, but the reference computes it")
            return Check()
        if outcome[0] != "force":
            return Check(failure=f"{where}: {outcome}")
        return _check_force(outcome[1], outcome[2], expected)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CASIMIR_MEDIUM_RELTOL", None)
    return env


def run_child(argv: list[str], tag: str, env: dict) -> tuple[int, bytes, bytes, int]:
    """Run one child to completion; returns (code, stdout, stderr, max RSS kB)."""
    WORK.mkdir(exist_ok=True)
    out_path = WORK / f"{tag}-{os.getpid()}.out"
    err_path = WORK / f"{tag}-{os.getpid()}.err"
    try:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                usage.ru_maxrss)
    finally:
        out_path.unlink(missing_ok=True)
        err_path.unlink(missing_ok=True)


class CliCold(Workload):
    name = "cli_cold"
    SUITES = ("limits", "kk", "dyson", "action")
    SWEEP_POINTS = 13

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.medium = {"electric": _lorentz(rng)}
        self.medium_path = WORK / f"cli_cold-medium-{os.getpid()}.json"
        h1 = _log_uniform(rng, 0.5, 4.0)
        hmin, hmax = rng.uniform(0.4, 0.6), rng.uniform(3.0, 5.0)
        m = str(self.medium_path)
        self.specs = [
            {"label": "force-1", "args": ["force", "--medium", m, "--hmin", repr(h1)],
             "H": [h1]},
            {"label": "force-13",
             "args": ["force", "--medium", m, "--hmin", repr(hmin), "--hmax",
                      repr(hmax), "--points", str(self.SWEEP_POINTS), "--log"],
             "H": [hmin * (hmax / hmin) ** (k / (self.SWEEP_POINTS - 1))
                   for k in range(self.SWEEP_POINTS)]},
        ] + [{"label": f"check-{s}", "args": ["check", s]} for s in self.SUITES]
        self._trace_path: Path | None = None
        self._traces: list[tuple[int, dict]] = []
        self._max_rss_kb = 0

    def setup(self) -> None:
        import casimir_medium.cli  # noqa: F401  (what a cold start imports)

        WORK.mkdir(exist_ok=True)
        self.medium_path.write_text(json.dumps(self.medium))
        self._env = child_env()

    def cleanup(self) -> None:
        self.medium_path.unlink(missing_ok=True)

    def peak_rss_kb(self) -> int:
        return self._max_rss_kb

    def trace_children(self) -> None:
        self._trace_path = WORK / f"cli-trace-{os.getpid()}.json"

    def child_traces(self) -> list[tuple[int, dict]]:
        return self._traces

    def run(self, i: int):
        args = self.specs[i]["args"]
        if self._trace_path is None:
            argv = [sys.executable, "-m", "casimir_medium.cli", *args]
        else:
            argv = [sys.executable, str(PERFBENCH / "cli_child.py"),
                    str(self._trace_path), *args]
        code, out, err, rss = run_child(argv, "cli", self._env)
        self._max_rss_kb = max(self._max_rss_kb, rss)
        if self._trace_path is not None:
            try:
                self._traces.append((self.op, json.loads(self._trace_path.read_text())))
            except (OSError, ValueError):
                pass  # a child that died before writing its trace fails its check
            self._trace_path.unlink(missing_ok=True)
        return ("cli", code, out, err)

    def check(self, spec: dict, outcome: tuple, ref) -> Check:
        _, code, out, err = outcome
        where = spec["label"]
        if code != 0:
            return Check(failure=f"{where}: exit {code}: {err.decode(errors='replace')[-300:]}")
        text = out.decode()
        if where.startswith("check-"):
            lines = text.splitlines()
            if not lines or not all(line.startswith("PASS ") for line in lines):
                return Check(failure=f"{where}: not every line passes:\n{text}")
            return Check()
        try:
            rows = [(float(r["H"]), float(r["force_per_area"]), r["converged"] == "true")
                    for r in csv.DictReader(io.StringIO(text))]
        except (KeyError, TypeError, ValueError) as parse_error:
            return Check(failure=f"{where}: unreadable output ({parse_error!r}):\n{text}")
        if len(rows) != len(spec["H"]):
            return Check(failure=f"{where}: {len(rows)} rows, expected {len(spec['H'])}")
        total = Check()
        for (got_h, force, converged), h in zip(rows, spec["H"]):
            if abs(got_h / h - 1.0) > 1e-12:
                return Check(failure=f"{where}: row H={got_h!r}, expected {h!r}")
            one = _check_force(force, converged, ref.field(self.medium, "scalar", got_h))
            if one.failure:
                return Check(failure=f"{where} H={got_h:.4g}: {one.failure}")
            total.rel_errs += one.rel_errs
            total.rows += 1
            total.false_converged += one.false_converged
            total.unconverged += one.unconverged
        return total


WORKLOADS = {w.name: w for w in (FieldSweep, Polarization, CliCold)}
