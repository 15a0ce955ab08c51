#!/usr/bin/env python3
"""Time to verdict on program corpora and on MBP image enumeration.

    python3 perfbench/run.py --workload bool-programs --seed 1 --seconds 20 --trace 0

Runs one workload in this process and thread as a closed loop with one
caller: each operation starts when the previous one returns.  The loop
runs whole rounds of the seeded corpus until --seconds have passed, then
checks the outputs of the first round against computations made apart
from the checker, and checks that every later round returned the same
outputs.  The last line of standard output is one JSON object with the
counts of operations attempted and failed and, with --trace 0, the
end-to-end metrics, or with --trace 1 the per-layer metrics of a run
whose calls into the checker are recorded as spans.  Times are scaled to
a host of fixed speed (see hostspeed.py).  The result and, with
--trace 1, the spans are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


class LayerCounts:
    """Per-layer figures read from each Verdict (traced run only)."""

    def __init__(self):
        from recmc.formula import formula_size

        self._size = formula_size
        self.stats = {"steps": 0, "sum": 0, "reach": 0, "query": 0}
        self.events = self.added = self.facts = self.max_fact_nodes = 0

    def add(self, verdict) -> None:
        for key in self.stats:
            self.stats[key] += verdict.stats.get(key, 0)
        for e in verdict.trace:
            if e.rule in ("sum", "reach"):
                self.events += 1
                self.added += e.outcome == "fact-added"
        facts = list(verdict.rho.items()) + list(verdict.sigma.items())
        self.facts += len(facts)
        for fact in facts:
            self.max_fact_nodes = max(self.max_fact_nodes, self._size(fact.formula))


def time_setup(name: str, seed: int) -> float:
    """Seconds to import the checker and the benchmark and build the
    corpus, in a fresh interpreter (see measure_setup)."""
    t0 = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads as wl

    wl.WORKLOADS[name].build(seed)
    return time.perf_counter() - t0


def measure_setup(name: str, seed: int) -> float:
    """Median set-up time over SETUP_REPEATS fresh interpreters, so that
    every repeat pays the imports as a run does, scaled by the host's
    speed while they ran."""
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; print(run.time_setup({name!r}, {seed}))"
    speed = hostspeed.HostSpeed()
    times = []
    for _ in range(SETUP_REPEATS):
        for _ in range(5):
            speed.sample(force=True)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times) * speed.scale()


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, counts, rounds):
    from tracer import SETUP_OP

    ops = tracer.totals(lambda op: op != SETUP_OP)
    setup = tracer.totals(lambda op: op == SETUP_OP)

    def total(table, key, *names):
        return sum(table.get(n, {}).get(key, 0) for n in names)

    def self_s(layer):
        return sum(t["self_s"] for n, t in ops.items() if n.startswith(layer + ".")) / rounds

    def per_round(key, *names):
        return total(ops, key, *names) / rounds

    env = ("program.under_env", "program.over_env")
    inst = ("program.instantiate", "program.instantiate_path_mixed")
    validate = ("driver.validate_proof", "driver.validate_cex")
    c, s = "count", "s"
    out = {
        "parser.parse_calls": metric(total(setup, "calls", "parser.parse"), c),
        "parser.parse_s": metric(total(setup, "s", "parser.parse"), s),
        "driver.check_inductive_calls": metric(per_round("calls", "driver.check_inductive"), c),
        "driver.check_inductive_s": metric(per_round("s", "driver.check_inductive"), s),
        "driver.build_cex_calls": metric(per_round("calls", "driver.build_cex"), c),
        "driver.build_cex_s": metric(per_round("s", "driver.build_cex"), s),
        "driver.validate_s": metric(per_round("s", *validate), s),
        "driver.self_s": metric(self_s("driver"), s),
        "engine.bounded_safety_calls": metric(per_round("calls", "engine.bounded_safety"), c),
        "engine.bounded_safety_s": metric(per_round("s", "engine.bounded_safety"), s),
        "engine.self_s": metric(self_s("engine"), s),
        "engine.steps": metric(counts.stats["steps"] / rounds, c),
        "engine.sum": metric(counts.stats["sum"] / rounds, c),
        "engine.reach": metric(counts.stats["reach"] / rounds, c),
        "engine.query": metric(counts.stats["query"] / rounds, c),
        "engine.new_fact_ratio": metric(counts.added / counts.events if counts.events else 0.0, "ratio"),
        "program.instantiate_calls": metric(per_round("calls", *inst), c),
        "program.instantiate_s": metric(per_round("s", *inst), s),
        "program.env_calls": metric(per_round("calls", *env), c),
        "program.env_s": metric(per_round("s", *env), s),
        "program.facts": metric(counts.facts / rounds, c),
        "interpolate.itp_calls": metric(per_round("calls", "interpolate.itp"), c),
        "interpolate.itp_s": metric(per_round("s", "interpolate.itp"), s),
        "interpolate.self_s": metric(self_s("interpolate"), s),
        "project.mbp_calls": metric(per_round("calls", "project.mbp"), c),
        "project.mbp_s": metric(per_round("s", "project.mbp"), s),
        "project.qe_calls": metric(per_round("calls", "project.qe"), c),
        "project.qe_s": metric(per_round("s", "project.qe"), s),
        "solver.check_sat_calls": metric(per_round("calls", "solver.check_sat"), c),
        "solver.check_sat_s": metric(per_round("s", "solver.check_sat"), s),
        "solver.entails_calls": metric(per_round("calls", "solver.entails"), c),
        "solver.entails_s": metric(per_round("s", "solver.entails"), s),
        "solver.self_s": metric(self_s("solver"), s),
        "solver.unknown_calls": metric(tracer.unknown_calls / rounds, c),
        "formula.max_fact_nodes": metric(counts.max_fact_nodes, "nodes"),
    }
    return out, ops


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "recmc" / "__init__.py").is_file():
        print(f"perfbench: checker sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import checks
    import tracer as tracing
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: no workload {args.workload!r}; one of {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = counts = speed = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(extra_sites=[wl])
        counts = LayerCounts()
    else:
        speed = hostspeed.HostSpeed()
        setup_s = measure_setup(args.workload, args.seed)
    cases = workload.build(args.seed)

    first = [None] * len(cases)  # (output, fingerprint) of round 1
    latencies = []
    failed = rounds = 0
    errors = []
    mismatched = []
    deadline = time.perf_counter() + args.seconds
    while True:
        for i, case in enumerate(cases):
            if tracer:
                tracer.op_id = len(latencies)
            t = time.perf_counter()
            error = None
            try:
                out = tracer.span("bench.op", workload.run, case) if tracer else workload.run(case)
            except Exception:
                error = traceback.format_exc()
            latencies.append(time.perf_counter() - t)
            if tracer:
                tracer.op_id = tracing.SETUP_OP
            else:
                speed.sample()
            if error is not None:
                failed += 1
                if rounds == 0:
                    errors.append(f"{case.label}: {error}")
                elif first[i] is not None:
                    mismatched.append(case.label)
                continue
            failed += workload.failed(case, out)
            out = workload.settle(out, counts)
            fp = workload.fingerprint(out)
            if rounds == 0:
                first[i] = (out, fp)
            elif first[i] is None or first[i][1] != fp:
                mismatched.append(case.label)
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    busy_s = sum(latencies)
    attempted = len(latencies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = [f"{label}: output differs between rounds" for label in sorted(set(mismatched))]
    t_check = time.perf_counter()
    output_nodes = 0
    for case, entry in zip(cases, first):
        if entry is None:
            continue
        if not workload.failed(case, entry[0]):
            output_nodes += workload.output_nodes(entry[0])
        try:
            workload.check(case, entry[0])
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    check_s = time.perf_counter() - t_check

    if tracer:
        tracer.uninstall()
        metrics, ops = layer_metrics(tracer, counts, rounds)
    else:
        k = speed.scale()
        cuts = statistics.quantiles(latencies, n=100)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "ops_per_s": metric(attempted / (busy_s * k), "1/s"),
            "op_p50_ms": metric(cuts[49] * 1000 * k, "ms"),
            "op_p95_ms": metric(cuts[94] * 1000 * k, "ms"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "output_nodes": metric(output_nodes, "nodes"),
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}

    log = sys.stderr
    print(
        f"{args.workload} seed {args.seed}: {len(cases)} cases, {rounds} rounds, "
        f"{attempted} ops ({failed} failed) in {busy_s:.2f} s busy; "
        f"checks {check_s:.2f} s",
        file=log,
    )
    for line in errors[:5] + problems[:20]:
        print(f"  {line.rstrip()}", file=log)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        print(f"  busy per round {busy_s / rounds:.4f} s (traced)", file=log)
        for name, t in sorted(ops.items(), key=lambda it: -it[1]["self_s"]):
            print(
                f"  {name:34s} {t['calls'] / rounds:10.1f} calls {t['s'] / rounds:9.4f} s "
                f"{t['self_s'] / rounds:9.4f} self s  per round",
                file=log,
            )
        tracer.write(OUT / f"{stem}.spans.tsv.gz")
    else:
        print(
            f"  busy per round {busy_s / rounds:.4f} s as measured; "
            f"host block median {statistics.median(speed.times) * 1000:.2f} ms over "
            f"{len(speed.times)} blocks, scale {k:.4f}",
            file=log,
        )
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
