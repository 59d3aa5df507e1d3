"""The pipeline benchmark: four workloads over a stream-generated world.

    python3 bench/run.py --workload detect-cold --seed 7 --seconds 15 --trace 0
    python3 bench/run.py --seed 7 --trace 1 --out runs.jsonl   # every workload
    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

For each workload, one child process sets the workload up three times and
a fresh child runs the timed rounds for ``--seconds``. Both check the
program's outputs. Each timed metric is the median over rounds (set-ups)
of the round's time scaled by the host's speed at its start. The report
prints each metric with the raw minimum, quartiles, median and sample
count, the per-round timings, and the host's load and CPU steal around
the workload; its last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics (from one traced pass over the
pipeline, after the untraced rounds) with ``--trace 1``. Any failed
operation or check makes the exit code 1.

Everything the run writes stays under ``.bench/`` in the checkout: a
scratch directory removed at the end, and the Chrome trace of a traced
run (``.bench/trace-<workload>-seed<seed>.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from compare import compare, summary

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench")

DEFAULT_SEED = 20231024

#: World scale: about 900 domains and 70k rows. Large enough that every
#: detector, shard and event type has work; small enough that set-up
#: three times plus the timed rounds fits one run's time limit.
DEFAULT_SCALE = 0.05

#: The reference work's time on this 2-vCPU host when no other tenant slows
#: it. The host's speed swings by up to 2x, for a second to minutes; each
#: round's time is scaled by this over the reference time taken at the
#: start of the round (see README.md, "Host speed").
REFERENCE_NOMINAL_S = 0.15

#: Wall-clock limit for one workload's child processes, in seconds.
CHILD_BUDGET_S = 170


class BenchError(RuntimeError):
    """A child process failed or ran out of time; no result is printed."""


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def host_sample() -> dict:
    """Load average and the CPU tick counters of ``/proc/stat``."""
    sample = {"loadavg": list(os.getloadavg())}
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            ticks = [int(field) for field in handle.readline().split()[1:9]]
        sample.update(total_ticks=sum(ticks), steal_ticks=ticks[7])
    except (OSError, ValueError, IndexError):
        pass
    return sample


def host_noise(before: dict, after: dict) -> dict:
    noise = {"loadavg_before": before["loadavg"], "loadavg_after": after["loadavg"],
             "nproc": os.cpu_count()}
    if "total_ticks" in before and "total_ticks" in after:
        total = after["total_ticks"] - before["total_ticks"]
        steal = after["steal_ticks"] - before["steal_ticks"]
        noise["steal_share"] = steal / total if total else 0.0
    return noise


def run_child(phase: str, args, workload: str, work: str, deadline: float) -> dict:
    """Run one phase in a child process (its own process group) and return
    the JSON it leaves in *work*."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child", phase,
        "--workload", workload, "--seed", str(args.seed), "--scale", repr(args.scale),
        "--seconds", repr(args.seconds), "--trace", str(args.trace), "--work", work,
    ]
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    # The hash seed follows --seed too, so a seed fixes set and dict layouts.
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=tmp, PYTHONHASHSEED=str(args.seed % 2**32))
    child = subprocess.Popen(command, cwd=ROOT, env=env, stdout=sys.stderr,
                             start_new_session=True)
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {phase} ran out of time") from None
    finally:
        # Ends the child (if still running) and any worker it left behind.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if code != 0:
        raise BenchError(f"{workload} {phase} exited with code {code}")
    with open(os.path.join(work, f"{phase}.json"), encoding="utf-8") as handle:
        return json.load(handle)


def scaled_metric(samples, references, unit: str) -> dict:
    """A timed metric: the median over rounds of each round's time scaled
    to a host that runs the reference work in REFERENCE_NOMINAL_S; the raw
    samples' summary and the median speed factor ride along."""
    speeds = [REFERENCE_NOMINAL_S / reference for reference in references]
    return {
        "value": statistics.median(x * speed for x, speed in zip(samples, speeds)),
        "unit": unit,
        "speed": statistics.median(speeds),
        "raw": summary(samples),
    }


def run_workload(args, spec: dict, workload: str) -> dict:
    """Set up and measure one workload; the run's record."""
    work = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    deadline = time.monotonic() + CHILD_BUDGET_S
    before = host_sample()
    try:
        setup = run_child("setup", args, workload, work, deadline)
        measured = run_child("measure", args, workload, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    after = host_sample()

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {
        "setup_s": scaled_metric(setup["seconds"], setup["reference_s"], units["setup_s"]),
        "latency_ms": scaled_metric([s * 1e3 for s in measured["latency"]],
                                    measured["reference_s"], units["latency_ms"]),
        "round_s": scaled_metric(measured["round"], measured["reference_s"], units["round_s"]),
        "peak_rss_mib": {"value": measured["peak_rss_mib"], "unit": units["peak_rss_mib"]},
    }
    record = {
        "workload": workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": setup["attempted"] + measured["attempted"],
        "failed": setup["failed"] + measured["failed"],
        "findings_digest": measured.get("findings_digest"),
        "bundle_digest": measured.get("bundle_digest", setup["expected"].get("bundle_digest")),
        "class_counts": measured.get("class_counts"),
        "host": host_noise(before, after),
        "metrics": metrics,
        "legs": {name: summary(values) for name, values in measured["legs"].items()},
        "samples": {"setup_s": setup["seconds"], **measured["legs"],
                    "reference_s": measured["reference_s"]},
    }
    if "per_layer" in measured:
        record["per_layer"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(measured["per_layer"].items())
        }
    return record


def print_report(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']} scale={record['scale']} "
          f"seconds={record['seconds']} trace={record['trace']} "
          f"nproc={record['host']['nproc']}")
    print(f"  {'metric':<14}{'unit':<6}{'value':>11}{'speed':>8}  raw:"
          + "".join(f"{column:>10}" for column in ("min", "q1", "median", "q3", "n")))
    for name, metric in record["metrics"].items():
        line = f"  {name:<14}{metric['unit']:<6}{metric['value']:>11.5g}"
        raw = metric.get("raw")
        if raw:
            line += f"{metric['speed']:>8.3f}      " + "".join(
                f"{raw[column]:>10.5g}" for column in ("min", "q1", "median", "q3"))
            line += f"{raw['n']:>10}"
        print(line)
    for name, values in record["samples"].items():
        shown = " ".join(f"{v:.4g}" for v in values[:40])
        print(f"  rounds {name}: {shown}{' ...' if len(values) > 40 else ''}")
    for name, metric in record.get("per_layer", {}).items():
        print(f"  layer {name:<44}{metric['value']:>14.6g} {metric['unit']}")
    host = record["host"]
    steal = host.get("steal_share")
    print(f"  host: loadavg {host['loadavg_before'][0]:.2f} -> {host['loadavg_after'][0]:.2f}"
          + ("" if steal is None else f", steal {steal:.2%}")
          + f"; speed = {REFERENCE_NOMINAL_S:g} s / reference time at the start of a round")
    print(f"  checks: {record['attempted']} attempted, {record['failed']} failed; "
          f"findings {record['findings_digest']} {record['class_counts']}; "
          f"bundle {record['bundle_digest']}")


def result_line(record: dict, spec: dict) -> str:
    """The last line of the output: the metrics of the chosen trace mode."""
    if record["trace"]:
        chosen = record["per_layer"]
        names = [m["name"] for m in spec["per_layer"]]
    else:
        chosen = record["metrics"]
        names = [m["name"] for m in spec["end_to_end"]]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": chosen[n]["value"], "unit": chosen[n]["unit"]} for n in names},
    })


def child_main(args) -> int:
    import workloads

    ctx = workloads.Context(args.workload, args.seed, args.scale, args.seconds, args.work)
    if args.child == "setup":
        result = workloads.run_setup(ctx)
    else:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        result = workloads.run_measure(ctx, bool(args.trace), trace_path)
    with open(ctx.path(f"{args.child}.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def parse_args(argv, spec: dict):
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all of them, in order)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long the timed rounds of a workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced pass and print per-layer metrics")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="world scale (the smoke test uses 0.02)")
    parser.add_argument("--out", help="append one JSON record per workload run to this file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="label each workload's end-to-end metrics from two --out files")
    parser.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program source at {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    if args.child:
        return child_main(args)
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    # A terminated run still ends its children (run_child's finally).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    exit_code = 0
    for workload in [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]:
        try:
            record = run_workload(args, spec, workload)
        except BenchError as error:
            print(f"bench: {error}", file=sys.stderr)
            return 2
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        print_report(record)
        print(result_line(record, spec), flush=True)
        if record["failed"]:
            exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
