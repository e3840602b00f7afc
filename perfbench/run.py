"""Benchmark singulant end to end and, traced, layer by layer.

    python3 perfbench/run.py --workload report --seed 0 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
One pass runs every op of the workload once, in order, in this process and
on one thread (a closed loop with a single caller).  Right before or after
each op, in alternation, a worker process runs the same op on the same
inputs with ``reference/singulant``, a frozen copy of the package; this
process waits meanwhile, so the two never run at once.  The first pass
runs whole; later ones run while the next op's pair of runs still fits in
``--seconds``, so the last pass may stop part way.

The speed of a shared host drifts by up to 1.5x within minutes, more than
any bound allows, so the gated times are relative: ``wall_rel`` and
``cpu_rel`` are one pass of the program over one pass of the reference,
each op at its median over the passes.  The absolute ``wall_s`` and
``cpu_s`` are printed and recorded, not gated.  ``setup_s`` is the median
of several fresh interpreters timed from start until the workload's inputs
are generated and parsed; one is timed before each pass, so they spread
over the run.

With ``--trace 1`` the untraced passes are followed by one pass with every
layer function wrapped (see ``tracer.py``); its outputs must match the
untraced ones byte for byte.  Both tables are printed; the last line of
standard output is the JSON result, holding the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  A record of
the run, and the spans of a traced pass, go to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
OUT = HERE / "out"

SETUP_PROBES = 9
# percentiles tried for the tail, highest first; a run needs at least ten
# op timings beyond the one chosen, and with fewer than twenty the tail is
# the maximum
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class SetupError(Exception):
    """The checkout holds no importable singulant source."""


def import_package(where=SRC):
    if not (where / "singulant" / "__init__.py").is_file():
        raise SetupError(f"no singulant package under {where}")
    sys.path.insert(0, str(where))
    import singulant
    if Path(singulant.__file__).resolve().parent != (where / "singulant").resolve():
        raise SetupError(f"singulant imported from {singulant.__file__}, not {where}")
    return singulant


def build(workload, seed, where=SRC):
    from workloads import WORKLOADS
    pkg = import_package(where)
    return pkg, WORKLOADS[workload](pkg, seed)


def probe_setup(workload, seed):
    """Seconds from spawning a fresh interpreter until its first op is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if code != 0 or line.strip() != "ready":
        raise SetupError(f"setup probe exited with code {code}")
    return elapsed


# ---------------------------------------------------------------------------
# the reference: a frozen copy of singulant in a worker process


def timed(thunk):
    """(output or None, error or None, wall seconds, CPU seconds) of one op."""
    out, err = None, None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        out = thunk()
    except Exception as exc:   # a failing op is counted, not fatal
        err = f"{type(exc).__name__}: {exc}"
    return out, err, time.perf_counter() - t0, time.process_time() - c0


def sha(text):
    return hashlib.sha256((text if text is not None else "<failed>").encode()).hexdigest()


def reference_worker(workload, seed):
    """Build the workload on the reference copy, then run the ops asked for."""
    _, work = build(workload, seed, REFERENCE)
    print("ready", flush=True)
    for line in sys.stdin:
        out, _, wall, cpu = timed(work.ops[int(line)][1])
        print(json.dumps({"wall": wall, "cpu": cpu, "sha": sha(out)}), flush=True)
    return 0


class Reference:
    """Runs single ops on the reference worker; the caller waits for each."""

    def __init__(self, workload, seed):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--reference-worker",
               "--workload", workload, "--seed", str(seed)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise SetupError("the reference worker did not start")

    def run(self, i):
        self.proc.stdin.write(f"{i}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError("the reference worker stopped")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# measurement


def run_pass(workload, reference=None, parity=0, tracer=None, fits=None):
    """Every op once, or up to the first op that ``fits(i)`` refuses.

    With a reference, each op is paired with the reference's run of it, the
    reference going first on every other op.
    """
    outputs, errors, latencies, cpus, ref = [], {}, [], [], []
    wall0 = time.perf_counter()
    for i, (_, thunk) in enumerate(workload.ops):
        if fits is not None and not fits(i):
            break
        ref_first = reference is not None and (i + parity) % 2 == 0
        if ref_first:
            ref.append(reference.run(i))
        if tracer is not None:
            tracer.op = i
        out, err, wall, cpu = timed(thunk)
        if tracer is not None:
            tracer.end_op()
        outputs.append(out)
        if err:
            errors[i] = [err]
        latencies.append(wall)
        cpus.append(cpu)
        if reference is not None and not ref_first:
            ref.append(reference.run(i))
    return {"wall": time.perf_counter() - wall0, "latencies": latencies,
            "cpus": cpus, "outputs": outputs, "errors": errors,
            "ref_latencies": [r["wall"] for r in ref], "ref_cpus": [r["cpu"] for r in ref],
            "ref_shas": [r["sha"] for r in ref]}


def run_passes(workload, seconds, reference, between, reserve=0):
    """One whole paired pass, then more while the next op still fits.

    An op fits if its pair of runs in the first pass would end within
    ``seconds`` of the start, less ``reserve`` times the first pass, which
    is kept free for what follows, such as a traced pass.  ``between()``
    runs before each pass.
    """
    start = time.perf_counter()
    between()
    passes = [run_pass(workload, reference)]
    cost = [w + r for w, r in zip(passes[0]["latencies"], passes[0]["ref_latencies"])]
    deadline = start + seconds - reserve * sum(cost)

    def fits(i):
        return time.perf_counter() + cost[i] <= deadline

    while fits(0):
        between()
        passes.append(run_pass(workload, reference, parity=len(passes), fits=fits))
        if len(passes[-1]["outputs"]) < len(workload.ops):
            break
    return passes


def per_op(passes, key):
    """The samples of each op over the passes; a partial pass adds fewer."""
    samples = [[] for _ in passes[0][key]]
    for p in passes:
        for i, value in enumerate(p[key]):
            samples[i].append(value)
    return samples


def op_medians(passes, key):
    """Seconds of one pass with every op at its median over the passes."""
    return sum(statistics.median(times) for times in per_op(passes, key))


def nearest_rank(sorted_values, pct):
    k = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(k) - 1]


def tail_percentile(n):
    for pct in TAIL_LADDER:
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 100.0


def end_to_end(passes, setup_s, rss_mb):
    return {
        "setup_s": (setup_s, "s"),
        "wall_rel": (op_medians(passes, "latencies") / op_medians(passes, "ref_latencies"),
                     "ratio"),
        "cpu_rel": (op_medians(passes, "cpus") / op_medians(passes, "ref_cpus"), "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def absolute_times(passes):
    """The program's and the reference's pass times: recorded, not gated."""
    return {
        "wall_s": (op_medians(passes, "latencies"), "s"),
        "cpu_s": (op_medians(passes, "cpus"), "s"),
        "reference_wall_s": (op_medians(passes, "ref_latencies"), "s"),
        "reference_cpu_s": (op_medians(passes, "ref_cpus"), "s"),
    }


def op_latency(passes):
    """Median and tail latency of one op over every op timed; not gated.

    ``report`` and ``resolve`` time their slowest ops only a few times per
    run; on a shared two-core machine that spread up to 0.30 across runs,
    more than any bound allows, so these figures are printed and recorded
    but left out of BENCHMARK.json.
    """
    lat = sorted(t for p in passes for t in p["latencies"])
    pct = tail_percentile(len(lat))
    metrics = {
        "op_ms_p50": (statistics.median(lat) * 1000, "ms"),
        "op_ms_tail": (nearest_rank(lat, pct) * 1000, "ms"),
    }
    return metrics, {"percentile": pct, "samples": len(lat)}


def judge(workload, passes):
    """Failed op indices per pass, and the notes of the checks."""
    first = passes[0]
    failures, notes = {}, {}
    if not first["errors"]:
        failures, notes = workload.check(first["outputs"])
    per_pass = []
    for p in passes:
        bad = dict(p["errors"])
        for i, out in enumerate(p["outputs"]):
            if i in failures:
                bad.setdefault(i, failures[i])
            elif out != first["outputs"][i] and i not in bad:
                bad[i] = ["output differs from the first pass"]
        per_pass.append(bad)
    return per_pass, notes


def src_lines():
    return sum(len(f.read_text().splitlines())
               for f in sorted((SRC / "singulant").rglob("*.py")))


def digest(outputs):
    h = hashlib.sha256()
    for out in outputs:
        h.update((out if out is not None else "<failed>").encode())
        h.update(b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# printing


def show(title, metrics):
    print(title)
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<{width}}  {value:.6g} {unit}")


def as_result(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("report", "resolve", "groebner"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--reference-worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        if args.setup_probe:
            build(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        if args.reference_worker:
            return reference_worker(args.workload, args.seed)
        load = os.getloadavg()
        probes = [probe_setup(args.workload, args.seed)]
        pkg, workload = build(args.workload, args.seed)
        with Reference(args.workload, args.seed) as reference:
            # a traced pass takes up to twice an untraced one: one paired pass
            passes = run_passes(
                workload, args.seconds, reference, reserve=1 if args.trace else 0,
                between=lambda: probes.append(probe_setup(args.workload, args.seed)))
        while len(probes) < SETUP_PROBES:
            probes.append(probe_setup(args.workload, args.seed))
        setup_s = statistics.median(probes)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = end_to_end(passes, setup_s, rss_mb)
    absolute = absolute_times(passes)
    latency, tail = op_latency(passes)
    same = sum(sha(out) == ref for out, ref in zip(passes[0]["outputs"], passes[0]["ref_shas"]))

    traced = None
    if args.trace:
        from tracer import Tracer
        with Tracer() as tracer:
            tracer.install(pkg)
            traced = run_pass(workload, tracer=tracer)
    per_pass, notes = judge(workload, passes + ([traced] if traced else []))
    attempted = sum(len(p["outputs"]) for p in passes) + (len(traced["outputs"]) if traced else 0)
    failed = sum(len(bad) for bad in per_pass)

    show(f"end-to-end metrics, {args.workload} seed {args.seed}, tracing off "
         f"({len(passes)} passes):", e2e)
    show("pass times, each op at its median (recorded, not gated):", absolute)
    show(f"op latency, tail p{tail['percentile']:g} of {tail['samples']} ops "
         "(recorded, not gated):", latency)
    layer = None
    if traced:
        layer = tracer.layer_metrics()
        layer["trace.overhead"] = (traced["wall"] / absolute["wall_s"][0], "ratio")
        show("per-layer metrics, one traced pass:", layer)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": {workload.ops[i][0]: msgs
                     for bad in per_pass for i, msgs in bad.items()},
        "end_to_end": as_result(e2e),
        "pass_times": as_result(absolute),
        "op_latency": as_result(latency),
        "per_layer": as_result(layer) if layer else None,
        "info": {
            "tail": tail,
            "src_lines": src_lines(),
            "outputs_sha256": digest(passes[0]["outputs"]),
            "outputs_same_as_reference": f"{same}/{len(workload.ops)}",
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg": load,
            "recorded": notes,
            "missing_hooks": tracer.missing if traced else None,
        },
    }
    print(f"fail_ratio {failed}/{attempted}; src lines {record['info']['src_lines']}; "
          f"outputs sha256 {record['info']['outputs_sha256'][:16]}, "
          f"{same}/{len(workload.ops)} byte-identical to the reference")
    for label, msgs in list(record["failures"].items())[:10]:
        print(f"FAILED {label}: {'; '.join(msgs)}")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if traced:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for row in tracer.span_rows():
                fh.write(json.dumps(row) + "\n")

    metrics = layer if args.trace else e2e
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": as_result(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
