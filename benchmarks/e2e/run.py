#!/usr/bin/env python3
"""End-to-end wall-clock benchmark of the ``repro`` external-memory library.

Run every workload once, each in its own fresh process, and write the
records to a file::

    python3 benchmarks/e2e/run.py --seed 1 --out result.json

Run one workload in this process (the form ``BENCHMARK.json``'s command
takes; the last line of output is one JSON object)::

    python3 benchmarks/e2e/run.py --workload sort_mem --seed 1 \\
        --seconds 15 --trace 0

End-to-end timings are in *ref*, wall time divided by the time of a
reference loop sampled beside the work (``e2e_clock``), which cancels
the host's swings in speed; wall-clock equivalents are printed too.
``--trace 1`` reruns the workload with timing wrappers around each
layer's public entry points and reports per-layer metrics instead of the
end-to-end ones; it also writes a Chrome/Perfetto trace under
``.bench_e2e/``.  Every output is checked against an in-RAM reference;
a wrong answer makes the exit status non-zero.

The library is imported from ``src/`` of the checkout this file lives in
(or of ``--src DIR``), never from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

import numpy as np

from e2e_clock import NOMINAL_LOOP_S, HostClock, Steps

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(ROOT, ".bench_e2e")

WORKLOADS = ("sort_mem", "sort_file_d4", "btree_file_rw", "oltp_olap_mix",
             "join_rank")
#: Set-ups timed per run when one set-up serves every unit.
SETUPS = 9
#: Share of the traced units' wall time the root spans must cover.  The
#: rest is the benchmark's own loop: under 6% at full scale, 22% for the
#: B+-tree's tiny operations at the smoke test's 1% scale.
MIN_ROOT_COVERAGE = 0.75


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def import_library(src):
    """Put ``src`` first on the path and import ``repro`` from it."""
    package = os.path.join(src, "repro")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        raise SystemExit(f"error: no repro package under {src!r}")
    sys.path.insert(0, src)
    import repro
    if os.path.dirname(os.path.abspath(repro.__file__)) \
            != os.path.abspath(package):
        raise SystemExit(
            f"error: imported repro from {repro.__file__!r}, "
            f"not from {package!r}")


class SelfCheckError(Exception):
    """The trace's wrappers did not fire where the workload says they
    must, or the root spans miss part of the traced units' work."""


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def _direct(layer, name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _same(gen):
    return gen


def _counters(machine):
    pool = machine.pool
    return machine.stats(), (pool.hits, pool.misses, pool.evictions,
                             pool.bypasses)


def measure(workload, seconds, traced, tracer=None):
    """Set up, warm up, then run units until ``seconds`` have passed.

    Untraced, the host clock samples the host's speed throughout.  With
    ``traced``, timed units alternate traced / untraced, starting
    traced, and nothing is sampled; counts are taken over the first
    timed unit."""
    clock = HostClock()
    now = clock.now
    setups = Steps()

    def set_up():
        gc.collect()
        start = now()
        state = workload.setup()
        setups.add(start, now())
        return state

    if not traced:
        clock.start()
    state = None
    try:
        if not workload.fresh_per_unit:
            for _ in range(SETUPS):
                if state is not None:
                    # Drop the old machine before building the next, so
                    # every set-up starts from the same free memory.
                    workload.close(state)
                    state = None
                state = set_up()
        walls = {False: [], True: []}
        units = []       # (start, end, steps) of untraced timed units
        attempted = failed = 0
        counted = {}
        deadline = None
        index = 0        # 0 is the warm-up unit
        while True:
            if workload.fresh_per_unit:
                state = set_up()
            on = traced and index > 0 and index % 2 == 1
            call, wrap_gen = _direct, _same
            if on:
                tracer.iteration = index
                tracer.sampling = index == 1 or workload.sample_every_unit
                tracer.install()
                call, wrap_gen = tracer.call, lambda gen: tracer.generator(
                    gen, "kernel", "send")
            before = _counters(state.machine)
            # Every unit starts from an empty young generation, so the
            # collector runs at the same points in every unit, and the
            # previous unit's machine (a reference cycle) is freed.
            gc.collect()
            start = now()
            try:
                output, steps = workload.unit(state, call, wrap_gen, now)
            finally:
                end = now()
                if on:
                    tracer.uninstall()
            if index == 1:
                counted = _count_unit(workload, state, output, before)
                if on:
                    counted["calls"] = tracer.layer_totals(tracer.calls)
            unit_attempted, unit_failed = workload.check(state, output)
            attempted += unit_attempted
            failed += unit_failed
            if index > 0:
                walls[on].append(end - start)
                if not on:
                    units.append((start, end, steps))
            workload.release(state, output)
            output = steps = None
            if workload.fresh_per_unit:
                workload.close(state)
                state = None
            index += 1
            if index == 1:
                deadline = now() + seconds
            elif now() >= deadline and walls[False] \
                    and (walls[True] or not traced):
                break
        if state is not None:
            final_attempted, final_failed = workload.finish(state)
            attempted += final_attempted
            failed += final_failed
    finally:
        clock.stop()
        if state is not None:
            workload.close(state)
    return {
        "setups": setups, "walls": walls, "units": units,
        "attempted": attempted, "failed": failed, "counted": counted,
        "clock": clock,
    }


def _count_unit(workload, state, output, before):
    """Exact counts of the first timed unit (same seed, same counts)."""
    machine = state.machine
    stats, pool = _counters(machine)
    io = stats - before[0]
    hits, misses, evictions, bypasses = (
        now - then for now, then in zip(pool, before[1]))
    user_bytes = workload.user_bytes(state, output)
    path = getattr(machine.disk, "path", None)
    return {
        "sim_steps": io.total_steps,
        "reads": io.reads, "writes": io.writes, "retries": io.retries,
        "steps_over_optimal":
            io.total_steps / max(1, -(-io.total // machine.D)),
        "pool_hits": hits, "pool_misses": misses,
        "pool_evictions": evictions, "pool_bypasses": bypasses,
        "memory_peak_frac": machine.budget.peak / machine.M,
        # Through the first timed unit, a fixed amount of work: over the
        # whole run it grows with the number of units (the B+-tree's
        # inserts), which depends on the host's speed.
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bytes_per_user_byte":
            os.path.getsize(path) / user_bytes if path and user_bytes else 0,
        **{f"service_{k}": v
           for k, v in workload.service_counts(output).items()},
    }


def end_to_end_metrics(workload, result):
    """Every timing in ref (see ``e2e_clock``): the median set-up, shown
    in seconds at the nominal reference-loop time; the median unit; and
    the latency slots' percentiles over every step of their kind in the
    run."""
    from e2e_workloads import nearest_rank, pooled

    units, clock, setups = result["units"], result["clock"], result["setups"]
    metrics = {
        "setup_s": (float(np.median(clock.refs(setups.starts, setups.ends)))
                    * NOMINAL_LOOP_S, "s"),
        "unit_ref": (float(np.median(clock.refs(
            [start for start, _, _ in units],
            [end for _, end, _ in units]))), "ref"),
    }
    for slot, (kind, pct) in workload.latency.items():
        steps = pooled(units, kind)
        metrics[slot] = (float(nearest_rank(
            clock.refs(steps.starts, steps.ends), pct)), "ref")
    metrics["peak_rss_mb"] = (result["counted"]["peak_rss_mb"], "MB")
    return metrics


def end_to_end_details(workload, result):
    from e2e_workloads import pooled

    units = result["units"]
    walls = sorted(end - start for start, end, _ in units)
    quartiles = (statistics.quantiles(walls, n=4) if len(walls) > 1
                 else [walls[0]] * 3)
    counted = result["counted"]
    details = {
        "setup_wall_s": (float(np.median(result["setups"].walls())), "s"),
        "units": (len(walls), "count"),
        "unit_q1_s": (quartiles[0], "s"),
        "unit_median_s": (statistics.median(walls), "s"),
        "unit_q3_s": (quartiles[2], "s"),
        "reference_loop_us":
            (result["clock"].median_reference_s() * 1e6, "us"),
    }
    for slot, (kind, _) in workload.latency.items():
        details[f"{slot}_samples"] = (len(pooled(units, kind)), "count")
    details.update({
        "sim_steps": (counted["sim_steps"], "steps"),
        "failed_frac": (result["failed"] / result["attempted"], "fraction"),
        "peak_rss_run_mb":
            (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    })
    details.update(workload.details(units))
    return details


def per_layer_metrics(workload, result, tracer, calibration):
    """Per-layer metrics of a traced run; raises SelfCheckError when the
    wrappers did not fire where expected or the root spans miss work."""
    calls = tracer.layer_totals(tracer.calls)
    selfs = tracer.layer_totals(tracer.self_ns)
    # Self times sum to the root spans by construction; what can go
    # wrong is library work running outside every root span, where no
    # wrapper sees it.
    traced_wall_ns = sum(result["walls"][True]) * 1e9
    coverage = tracer.root_ns / traced_wall_ns
    if coverage < MIN_ROOT_COVERAGE:
        raise SelfCheckError(
            f"{workload.name}: root spans cover {coverage:.1%} of the "
            f"traced units' wall time, below {MIN_ROOT_COVERAGE:.0%}")
    for expectation, want in ((workload.expect_fire, True),
                              (workload.expect_silent, False)):
        for item in expectation:
            layer, _, name = item.partition(".")
            fired = (tracer.calls.get((layer, name), 0) if name
                     else calls.get(layer, 0))
            if bool(fired) != want:
                raise SelfCheckError(
                    f"{workload.name}: {item} fired {fired} times, "
                    f"expected {'some' if want else 'none'}")
    traced_units = len(result["walls"][True])
    per_unit = 1e-9 / traced_units
    counted = result["counted"]
    first = counted["calls"]
    accesses = counted["pool_hits"] + counted["pool_misses"]
    metrics = {
        "kernel.self_s": selfs["kernel"] * per_unit,
        "kernel.run_formation_s":
            tracer.name_total("kernel", "run_formation") * per_unit,
        "kernel.merge_s": tracer.name_total("kernel", "merge") * per_unit,
        "stream.self_s": selfs["stream"] * per_unit,
        "stream.calls": first["stream"],
        "pool.self_s": selfs["pool"] * per_unit,
        "pool.calls": first["pool"],
        "pool.hit_rate": counted["pool_hits"] / accesses if accesses else 0,
        "pool.misses": counted["pool_misses"],
        "pool.evictions": counted["pool_evictions"],
        "pool.bypasses": counted["pool_bypasses"],
        "runtime.self_s": selfs["runtime"] * per_unit,
        "runtime.calls": first["runtime"],
        "runtime.retries": counted["retries"],
        "runtime.steps_over_optimal": counted["steps_over_optimal"],
        "device.self_s": selfs["device"] * per_unit,
        "device.codec_s": tracer.name_total("device", "codec") * per_unit,
        "device.calls": first["device"],
        "device.reads": counted["reads"],
        "device.writes": counted["writes"],
        "device.bytes_per_user_byte": counted["bytes_per_user_byte"],
        "service.self_s": selfs["service"] * per_unit,
        "service.rounds": counted["service_rounds"],
        "service.oltp_p50_steps": counted["service_oltp_p50_steps"],
        "service.oltp_p99_steps": counted["service_oltp_p99_steps"],
        "memory.peak_frac": counted["memory_peak_frac"],
        "trace.overhead_frac":
            min(result["walls"][True]) / min(result["walls"][False]) - 1,
        "trace.wrapper_ns": calibration[0],
        "sim_steps": counted["sim_steps"],
    }
    corrected = tracer.corrected_self_ns(*calibration)
    details = {f"{layer}.self_corrected_s": (corrected[layer] * per_unit, "s")
               for layer in corrected}
    details.update({
        "trace.root_s": (tracer.root_ns * per_unit, "s"),
        "trace.root_coverage": (coverage, "fraction"),
        "trace.wrapper_inside_ns": (calibration[1], "ns"),
        "trace.traced_units": (traced_units, "count"),
    })
    return metrics, details


def run_one(args):
    import_library(os.path.join(os.path.abspath(args.src), "src")
                   if args.src else os.path.join(ROOT, "src"))
    import e2e_trace
    import e2e_workloads

    spec = benchmark_spec()
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch)
    try:
        workload = e2e_workloads.make_workload(
            args.workload, args.seed, args.scale, scratch)
        # The generated inputs and references live for the whole run;
        # keep the collector from rescanning them inside timed units.
        gc.collect()
        gc.freeze()
        tracer = calibration = None
        if args.trace:
            calibration = e2e_trace.calibrate()
            tracer = e2e_trace.Tracer(workload.root_every,
                                      workload.child_every)
        result = measure(workload, args.seconds, bool(args.trace), tracer)
        if args.trace:
            values, details = per_layer_metrics(
                workload, result, tracer, calibration)
            metrics = {name: (values[name], units[name]) for name in units}
            trace_path = os.path.join(
                OUT_DIR, f"trace-{args.workload}-s{args.seed}.json")
            tracer.write_chrome(trace_path)
            print(f"# trace written to {trace_path}", file=sys.stderr)
        else:
            metrics = end_to_end_metrics(workload, result)
            details = end_to_end_details(workload, result)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = result["failed"] == 0
    for name, (value, unit) in {**metrics, **details}.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    record = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.out:
        full = dict(record, workload=args.workload, seed=args.seed,
                    trace=args.trace, scale=args.scale,
                    seconds=args.seconds,
                    details={name: {"value": value, "unit": unit}
                             for name, (value, unit) in details.items()})
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(full, fh, indent=1)
    print(json.dumps(record))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# every workload, each in a fresh process
# ----------------------------------------------------------------------
def run_workload_process(workload, seed, seconds, trace, scale, src=None,
                         timeout=600):
    """Run one workload in a child process; returns ``(record, lines)``
    where ``record`` holds the details too, or raises on failure."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"record-{os.getpid()}-{workload}.json")
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scale", str(scale), "--out", out]
    if src:
        command += ["--src", src]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=timeout)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not os.path.exists(out):
            raise RuntimeError(
                f"{workload} (seed {seed}, trace {trace}) exited "
                f"{proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh), lines[:-1]
    finally:
        if os.path.exists(out):
            os.unlink(out)


def run_all(args):
    records = []
    ok = True
    for workload in WORKLOADS:
        try:
            record, lines = run_workload_process(
                workload, args.seed, args.seconds, args.trace, args.scale,
                args.src)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            ok = False
            continue
        print("\n".join(lines), flush=True)
        ok = ok and record["correct"]
        records.append(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "trace": args.trace, "scale": args.scale,
                       "runs": records}, fh, indent=1)
    return 0 if ok else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase length (default: run_seconds "
                             "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every input size (smoke runs: 0.01)")
    parser.add_argument("--out", help="write the full records as JSON")
    parser.add_argument("--src", help="checkout whose src/ to benchmark "
                                      "(default: this one)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    return args


def main(argv=None):
    args = parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
