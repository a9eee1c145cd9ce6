"""End-to-end and per-layer benchmark of casimir-medium.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads (see ``workloads.py``): ``field_sweep``,
``polarization`` and ``cli_cold``.  A run repeats whole passes over the
workload's operations until ``--seconds`` have elapsed (at least two passes,
so every output is also checked for repeatability), then checks every
distinct output against the independent reference in ``reference.py``.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:

* setup_s: library import plus input generation, median of five fresh
  processes (this one and four probes);
* wall_s: median time of one full pass; ops_per_s: median over passes of
  the pass's operations per second;
* op_ms_p50, op_ms_p90: percentiles over the workload's distinct operations
  of each operation's median latency across the passes (sample count
  printed above the result line);
* max_rel_err: worst relative deviation of a force from the reference,
  floored at the requested rel_tol (1e-9), so errors inside the accuracy
  contract all read 1e-9;
* converged_truthful_frac: share of force rows whose ``converged`` flag
  holds, i.e. unflagged or within rel_tol of the reference (the complement
  of the false_converged count printed above the result line);
* success_frac: operations that passed their check over operations run;
* peak_rss_mb: peak resident memory of this process after the timed passes,
  or of the largest CLI child for cli_cold.

``--trace 1`` runs untraced passes for half the time and traced passes for
the rest, and reports the per-layer metrics: per-pass call counts and self
times of the wrapped layers, their counters, and trace.overhead_frac (median
traced pass over median untraced pass, minus one).  Spans are written to
``.perfbench_work/spans-<workload>.csv``.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time

from workloads import (PERFBENCH, REL_TOL, ROOT, SRC, WORK, WORKLOADS, child_env,
                       run_child)

SETUP_PROBES = 4
MIN_PASSES = 2
IMPORTTIME_RUNS = 3
LAYERS = (
    "medium.chi_bar", "medium.im_chi", "medium.refractive_index",
    "medium.kk_imaginary_axis", "quadrature.inner_mode_integral",
    "quadrature.integrate_1d", "quadrature.integrate_2d_oracle",
    "forces.field_bc", "forces.polarization_bc", "forces.action_fd",
    "propagators.g_phiphi", "propagators.dyson_partial_sum",
)
COUNTERS = (
    "quadrature.integrate_1d.evals", "quadrature.integrate_1d.unconverged",
    "quadrature.integrate_2d_oracle.evals", "forces.evaluations",
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="only time set-up and print the seconds")
    return parser.parse_args(argv)


def run_passes(workload, order: list[int], seconds: float, min_passes: int,
               first: dict, mismatches: dict, on_op=None, after_pass=None):
    """Whole passes until ``seconds`` of them are timed; returns pass and op times."""
    passes, latencies = [], []
    while len(passes) < min_passes or sum(passes) < seconds:
        t_pass = time.perf_counter()
        for i in order:
            if on_op is not None:
                on_op()
            t_op = time.perf_counter()
            outcome = workload.run(i)
            latencies.append(time.perf_counter() - t_op)
            # stderr may carry timings; repeatability is judged on the rest
            key = outcome[:3] if outcome[0] == "cli" else outcome
            if i not in first:
                first[i] = (outcome, key)
            elif key != first[i][1]:
                mismatches[i] = mismatches.get(i, 0) + 1
        passes.append(time.perf_counter() - t_pass)
        if after_pass is not None:
            after_pass(sum(passes))
    return passes, latencies


def probe_setup(args, env: dict) -> float:
    """Set-up time of a fresh process: library import plus input generation."""
    code, out, err, _ = run_child(
        [sys.executable, str(PERFBENCH / "run.py"), "--probe-setup",
         "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
        "probe", env)
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {err.decode(errors='replace')[-500:]}")
    return float(out)


def import_times(env: dict) -> tuple[float, float]:
    """(import of casimir_medium.cli, of which scipy.integrate), in seconds."""
    totals, scipy_parts = [], []
    for _ in range(IMPORTTIME_RUNS):
        _, _, err, _ = run_child(
            [sys.executable, "-X", "importtime", "-c", "import casimir_medium.cli"],
            "importtime", env)
        total = scipy_part = 0
        for line in err.decode(errors="replace").splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                cumulative = int(parts[1])
            except ValueError:
                continue  # the header line
            if parts[2] == " casimir_medium.cli":
                total = cumulative
            elif parts[2].strip() == "scipy.integrate":
                scipy_part = cumulative
        totals.append(total / 1e6)
        scipy_parts.append(scipy_part / 1e6)
    return statistics.median(totals), statistics.median(scipy_parts)


def layer_metrics(summary: dict, passes: int) -> dict:
    calls, self_ns = summary["calls"], summary["self_ns"]
    total_ns, counters = summary["total_ns"], summary["counters"]
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls.get(layer, 0) / passes
        m[f"{layer}.self_s"] = self_ns.get(layer, 0) / passes / 1e9
    n_inner = calls.get("quadrature.inner_mode_integral", 0)
    m["quadrature.inner_mode_integral.us_per_call"] = (
        self_ns.get("quadrature.inner_mode_integral", 0) / n_inner / 1e3 if n_inner else 0.0
    )
    for name in COUNTERS:
        m[name] = counters.get(name, 0) / passes
    for suite in ("limits", "kk", "dyson", "action"):
        m[f"checks.{suite}.wall_s"] = total_ns.get(f"checks.{suite}", 0) / passes / 1e9
    m["cli.main.self_s"] = self_ns.get("cli.main", 0) / passes / 1e9
    return m


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by statistics.quantiles' inclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "casimir_medium" / "__init__.py").is_file():
        sys.stderr.write(f"no library source under {SRC}; run from a checkout root\n")
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()
    own_setup = time.perf_counter() - t0
    if args.probe_setup:
        workload.cleanup()
        print(repr(own_setup))
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env()
    # one seeded order for every pass, so each kind of op meets every phase
    # of the machine's speed rather than one stretch of each pass
    order = list(range(len(workload.specs)))
    random.Random(args.seed).shuffle(order)
    first, mismatches = {}, {}
    metrics: dict[str, float] = {}
    try:
        if args.trace == 0:
            # probes spread over the run, so the median sees the same mix of
            # machine speed as the timed passes
            samples = [own_setup]

            def after_pass(timed: float) -> None:
                due = (len(samples) - 1) * args.seconds / SETUP_PROBES
                if len(samples) <= SETUP_PROBES and timed >= due:
                    samples.append(probe_setup(args, env))

            passes, latencies = run_passes(workload, order, args.seconds, MIN_PASSES,
                                           first, mismatches, after_pass=after_pass)
            while len(samples) <= SETUP_PROBES:
                samples.append(probe_setup(args, env))
            metrics["setup_s"] = statistics.median(samples)
            metrics["peak_rss_mb"] = workload.peak_rss_kb() / 1024.0
        else:
            import tracer as tracing

            half = args.seconds / 2.0
            plain, plain_lat = run_passes(workload, order, half, 1, first, mismatches)
            tr = tracing.Tracer()
            tracing.install(tr)
            workload.trace_children()

            def on_op() -> None:
                tr.op += 1
                workload.op = tr.op

            traced, traced_lat = run_passes(workload, order, half, 1, first, mismatches,
                                            on_op)
            passes, latencies = plain + traced, plain_lat + traced_lat
            for op, child in workload.child_traces():
                tr.absorb(child, op)
            WORK.mkdir(exist_ok=True)
            tr.write_spans(WORK / f"spans-{args.workload}.csv")
            metrics.update(layer_metrics(tr.summary(), len(traced)))
            metrics["trace.overhead_frac"] = (
                statistics.median(traced) / statistics.median(plain) - 1.0
            )
            metrics["cli.import_s"], metrics["cli.import_scipy_integrate_s"] = (
                import_times(env)
            )
    finally:
        workload.cleanup()

    import reference

    problems = reference.self_test()
    ref = reference.ReferenceCache(WORK / "reference-cache.json")
    n_ops = len(workload.specs)
    failed, rel_errs, rows, false_conv, unconv, failures = 0, [], 0, 0, 0, []
    for i, spec in enumerate(workload.specs):
        chk = workload.check(spec, first[i][0], ref)
        if chk.failure:
            failed += len(passes)
            failures.append(chk.failure)
            continue
        if mismatches.get(i):
            failed += mismatches[i]
            failures.append(f"{spec.get('label')}: output changed between passes")
        rel_errs += chk.rel_errs
        rows += chk.rows
        false_conv += chk.false_converged
        unconv += chk.unconverged
    ref.save()
    attempted = len(latencies)

    # each op's median over the passes, then percentiles across the ops: the
    # machine's speed drifts over seconds, and the per-op median filters that
    # drift better than percentiles of the pooled samples do
    lat_ms = [x * 1e3 for x in latencies]
    per_op = [statistics.median(lat_ms[k::n_ops]) for k in range(n_ops)]
    p50, p90 = quantile(per_op, 50), quantile(per_op, 90)
    if args.trace == 0:
        metrics["wall_s"] = statistics.median(passes)
        metrics["ops_per_s"] = statistics.median(n_ops / p for p in passes)
        metrics["op_ms_p50"] = p50
        metrics["op_ms_p90"] = p90
        metrics["max_rel_err"] = max([REL_TOL] + rel_errs)
        metrics["converged_truthful_frac"] = (rows - false_conv) / rows if rows else 1.0
        metrics["success_frac"] = 1.0 - failed / attempted
    else:
        metrics["forces.false_converged"] = false_conv
        metrics["forces.unconverged"] = unconv

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes of {n_ops} ops, {attempted} ops")
    print(f"# op latency samples {attempted}: {n_ops} ops x {len(passes)} passes, "
          f"ops above p90: {sum(x > p90 for x in per_op)}; pass times "
          f"{min(passes):.3f}..{max(passes):.3f} s")
    print(f"# force rows {rows}: false_converged {false_conv}, unconverged {unconv}, "
          f"worst rel err {max(rel_errs, default=0.0):.3e}")
    print(f"# failed {failed} of {attempted} (failed_frac {failed / attempted:.4f}); "
          f"reference cache {ref.hits} hits, {ref.misses} misses")
    for line in problems + failures[:10]:
        sys.stderr.write(f"check: {line}\n")

    key = "end_to_end" if args.trace == 0 else "per_layer"
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared[key]},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
