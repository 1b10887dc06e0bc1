#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of `bpcr replicate|sweep`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replicate-joint --seed 1 \
        --seconds 15 --trace 0

The script builds the bpcr CLI and the perfbench_layers helper from the
checkout's sources into .bench_build/ (perfbench/CMakeLists.txt), then
measures one workload (or `all` of them):

  set-up     --seed S selects the run's inputs, the programs' input seeds
             12S+1 ... 12S+12. Each input gets one untimed reference
             invocation per program, which is checked: a replicated module
             is reloaded, verified and co-executed with its original; a
             sweep's reference runs at --jobs 1.
  --trace 0  end-to-end passes for --seconds seconds: the built CLI runs as
             users run it, one child process at a time, with --jobs 4 and
             no --metrics/--trace-out. A pass runs each program once, in a
             fixed order, at the 1,000,000-event cap, on the next input of
             the cycle. It is a closed loop: the next invocation starts when
             the previous one has exited. Each invocation's stdout must equal
             its reference's; a difference is a failed operation.
  --trace 1  the traced pass: perfbench_layers times each layer's public
             call in process (columnar overloads, the CLI's options, a cold
             search cache before every searching call) on the same inputs.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
WORK_DIR = BUILD_DIR / "work"
BPCR = BUILD_DIR / "tools" / "bpcr"
LAYERS = BUILD_DIR / "perfbench_layers"

EVENT_CAP = 1_000_000
JOBS = 4
# Program run time varies up to 3x with the input seed (ghostview stops
# early on some), so a run averages over this many inputs.
INPUTS_PER_RUN = 12
STARTUP_SAMPLES = 20
# `perfbench_layers calibrate` on the machine the bounds were set on, at
# rest (4-vCPU x86-64 VM, g++ 12 RelWithDebInfo). Gated times are scaled to
# this speed; see README.md, "Noise and bounds".
REFERENCE_CALIBRATION_MS = 50.0
# Invocations that run longer than this are killed and count as failed.
INVOCATION_TIMEOUT_S = 60
# The sweep-all operating point: the last curve step at or below this
# size factor.
SWEEP_POINT_MAX_SIZE = 2.0

ALL_PROGRAMS = ["abalone", "c-compiler", "compress", "ghostview", "predict",
                "prolog", "scheduler", "doduc"]
WORKLOADS = {
    "replicate-joint": ("replicate", ["scheduler", "ghostview"]),
    "replicate-interp": ("replicate",
                         ["abalone", "c-compiler", "compress", "prolog"]),
    "sweep-all": ("sweep", ALL_PROGRAMS),
}

END_TO_END_UNITS = {
    "pass_ms_p50": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "mispred_pct": "%",
    "size_factor": "x",
}

PER_LAYER_UNITS = {
    "cli.startup_ms": "ms",
    "pass.cli_ms": "ms",
    "pass.accounted_share": "ratio",
    "interp.trace.ms": "ms",
    "interp.trace.events": "count",
    "interp.trace.events_per_s": "1/s",
    "interp.measure.ms": "ms",
    "interp.measure.events_per_s": "1/s",
    "analysis.ms": "ms",
    "analysis.branches": "count",
    "sa.proofs.ms": "ms",
    "sa.proofs.proven": "count",
    "sa.soundness.ms": "ms",
    "sa.soundness.blocks_per_s": "1/s",
    "core.profiles.ms": "ms",
    "core.profiles.events_per_s": "1/s",
    "core.paths.ms": "ms",
    "core.paths.candidates": "count",
    "core.paths.events_per_s": "1/s",
    "core.search.ms": "ms",
    "core.search.cpu_ms": "ms",
    "core.search.cache_misses": "count",
    "core.search.useful_ratio": "ratio",
    "core.joint.ms": "ms",
    "core.joint.profile_ms": "ms",
    "core.joint.groups": "count",
    "core.joint.events_per_s": "1/s",
    "core.replicate.ms": "ms",
    "core.replicate.cpu_ms": "ms",
    "core.replicate.applied": "count",
    "core.replicate.skipped_structure": "count",
    "core.replicate.skipped_budget": "count",
    "core.replicate.applied_ratio": "ratio",
    "core.sweep.ms": "ms",
    "core.sweep.cpu_ms": "ms",
    "core.sweep.points": "count",
    "search.cache.hits": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed build, a
    reference that fails its check)."""


def input_seeds(seed):
    return [INPUTS_PER_RUN * seed + j + 1 for j in range(INPUTS_PER_RUN)]


def build():
    """Builds bpcr and perfbench_layers; a no-op when they are current."""
    for needed in (ROOT / "src" / "CMakeLists.txt",
                   ROOT / "tools" / "bpcr.cpp"):
        if not needed.is_file():
            raise BenchError(f"missing {needed.relative_to(ROOT)}: "
                             "run from a full bpcr checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(JOBS),
                  "--target", "bpcr", "perfbench_layers"])
    # The compiler's scratch files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "TMPDIR": str(tmp)}
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    WORK_DIR.mkdir(parents=True, exist_ok=True)


class Invocation:
    """One child process: wall time, exit code, stdout and peak RSS."""

    def __init__(self, argv):
        with open(WORK_DIR / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
            watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            self.wall_s = time.perf_counter() - start
        # Reaped by wait4; tell Popen so it does not wait again.
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.exit_code = proc.returncode
        self.stdout = out.decode("utf-8", "replace")
        self.maxrss_kib = usage.ru_maxrss  # Linux reports KiB


def bpcr_argv(command, program, seed, jobs=JOBS, extra=()):
    return [str(BPCR), command, program, "--seed", str(seed),
            "--events", str(EVENT_CAP), "--jobs", str(jobs), *extra]


def layers_json(argv):
    inv = Invocation([str(LAYERS), *argv])
    if inv.exit_code != 0:
        raise BenchError(f"perfbench_layers {' '.join(argv)} exited "
                         f"{inv.exit_code}")
    return json.loads(inv.stdout.strip().splitlines()[-1])


def calibrate_ms():
    """One run of the fixed calibration kernel: the machine's speed now."""
    return layers_json(["calibrate"])["ms"]


def median_pass_s(walls):
    """The typical pass from per-invocation wall times keyed (program,
    input seed): the median over each key's repetitions, averaged over the
    inputs, summed over the programs. On a shared machine most passes of
    several programs contain one invocation slowed by a neighbour's burst,
    so the median of whole-pass times follows the burst rate of the minute;
    per-key medians do not."""
    per_program = {}
    for (program, _), times in walls.items():
        per_program.setdefault(program, []).append(statistics.median(times))
    return sum(statistics.mean(m) for m in per_program.values())


REPLICATIONS_RE = re.compile(
    r"replications: (\d+) loop, (\d+) joint, (\d+) correlated "
    r"\((\d+) skipped for size, (\d+) structurally\)")
CODE_SIZE_RE = re.compile(r"code size: (\d+) -> (\d+) instructions")
MISPRED_RE = re.compile(r"semi-static misprediction: [\d.]+% -> ([\d.]+)%")
WROTE_PREFIX = "  wrote transformed module to "


class Reference:
    """One program's untimed reference invocation on one input seed, and
    what it shows. A reference that fails its check raises BenchError:
    without it there is nothing to time against."""

    def __init__(self, command, program, seed):
        self.program = program
        self.seed = seed
        if command == "replicate":
            self._replicate()
        else:
            self._sweep()

    def label(self):
        return f"{self.program} seed {self.seed}"

    def _invoke(self, argv):
        inv = Invocation(argv)
        if inv.exit_code != 0:
            raise BenchError(f"reference `bpcr {argv[1]}` on {self.label()} "
                             f"exited {inv.exit_code}")
        self.wall_s = inv.wall_s
        return inv.stdout

    def _check(self, *module):
        check = layers_json(["check", self.program, str(self.seed),
                             *map(str, module)])
        if not check["ok"]:
            raise BenchError(f"{self.label()}: {check['error']}")
        return check

    def _replicate(self):
        module = WORK_DIR / f"{self.program}.bpcrir"
        module.unlink(missing_ok=True)
        out = self._invoke(bpcr_argv("replicate", self.program, self.seed,
                                     extra=("-o", str(module))))
        # The timed invocations write no module, so they print no such line.
        self.stdout = "".join(line for line in out.splitlines(keepends=True)
                              if not line.startswith(WROTE_PREFIX))
        check = self._check(module)
        reps = REPLICATIONS_RE.search(out)
        size = CODE_SIZE_RE.search(out)
        mispred = MISPRED_RE.search(out)
        if not (reps and size and mispred):
            raise BenchError(f"cannot read `bpcr replicate` output on "
                             f"{self.label()}")
        self.replications = [int(g) for g in reps.groups()]
        self.orig_instructions = int(size.group(1))
        self.new_instructions = int(size.group(2))
        self.predictions = check["predictions"]
        self.mispredictions = check["mispredictions"]
        if (self.orig_instructions != check["orig_instructions"] or
                self.new_instructions != check["new_instructions"]):
            raise BenchError(f"{self.label()}: printed code size differs "
                             "from the written module's")
        measured = 100.0 * self.mispredictions / self.predictions
        if f"{measured:.1f}" != mispred.group(1):
            raise BenchError(f"{self.label()}: printed misprediction differs "
                             f"from the written module's ({measured:.3f}%)")

    def _sweep(self):
        self.stdout = self._invoke(bpcr_argv("sweep", self.program, self.seed,
                                             jobs=1))
        # Curve rows: step, size factor, mispredict %, grown branch, states.
        self.rows = [line.split() for line in self.stdout.splitlines()
                     if line[:1].isdigit()]
        within = [r for r in self.rows if float(r[1]) <= SWEEP_POINT_MAX_SIZE]
        if not within:
            raise BenchError(f"`bpcr sweep` printed no curve on "
                             f"{self.label()}")
        self.point_size = float(within[-1][1])
        self.point_mispred = float(within[-1][2])
        check = self._check()
        self.events = check["events"]
        self.orig_instructions = check["orig_instructions"]


def quality_metrics(command, refs):
    """mispred_pct and size_factor over every reference of the run."""
    if command == "replicate":
        mispred = 100.0 * sum(r.mispredictions for r in refs) / \
            sum(r.predictions for r in refs)
        size = sum(r.new_instructions for r in refs) / \
            sum(r.orig_instructions for r in refs)
    else:
        events = sum(r.events for r in refs)
        insts = sum(r.orig_instructions for r in refs)
        mispred = sum(r.point_mispred * r.events for r in refs) / events
        size = sum(r.point_size * r.orig_instructions for r in refs) / insts
    return mispred, size


def tail_index(n):
    """Index (ascending order) of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than eleven."""
    return n - 11 if n >= 11 else n - 1


def measure_end_to_end(command, refs, setup_calibration_ms, seconds):
    """Closed-loop passes cycling through the inputs, for `seconds` and at
    least one cycle. Every invocation is one operation. Gated times are
    scaled to the reference speed by the calibration runs of their own
    phase."""
    seeds = list(refs)
    walls = {}  # (program, seed) -> wall seconds of its invocations
    pass_walls, rss_kib, calibration_ms = [], [], []
    attempted = failed = 0
    errors = []
    start = time.perf_counter()
    while len(pass_walls) < len(seeds) or \
            time.perf_counter() - start < seconds:
        pass_refs = refs[seeds[len(pass_walls) % len(seeds)]]
        pass_start = time.perf_counter()
        invocations = [Invocation(bpcr_argv(command, r.program, r.seed))
                       for r in pass_refs]
        pass_walls.append(time.perf_counter() - pass_start)
        rss_kib.append(max(inv.maxrss_kib for inv in invocations))
        calibration_ms.append(calibrate_ms())
        for ref, inv in zip(pass_refs, invocations):
            walls.setdefault((ref.program, ref.seed), []).append(inv.wall_s)
            attempted += 1
            if inv.exit_code != 0 or inv.stdout != ref.stdout:
                failed += 1
                same = "matches" if inv.stdout == ref.stdout else \
                    "differs from"
                if len(errors) < 8:
                    errors.append(f"{ref.label()}: exit {inv.exit_code}, "
                                  f"stdout {same} the reference")

    all_refs = [r for rs in refs.values() for r in rs]
    pass_s = median_pass_s(walls)
    setup_pass_s = median_pass_s({(r.program, r.seed): [r.wall_s]
                                  for r in all_refs})
    speed = REFERENCE_CALIBRATION_MS / statistics.median(calibration_ms)
    setup_speed = REFERENCE_CALIBRATION_MS / \
        statistics.median(setup_calibration_ms)
    mispred, size = quality_metrics(command, all_refs)
    n = len(pass_walls)
    metrics = {
        "pass_ms_p50": pass_s * speed * 1e3,
        "peak_rss_mb": statistics.median(rss_kib) / 1024.0,
        "setup_s": setup_pass_s * setup_speed,
        "mispred_pct": mispred,
        "size_factor": size,
    }
    at_ref = f"at reference speed over {len(seeds)} inputs"
    samples = {
        "pass_ms_p50": f"{n} passes, {at_ref}",
        "peak_rss_mb": f"{n} passes",
        "setup_s": f"{len(seeds)} reference passes, {at_ref}",
        "mispred_pct": f"{len(all_refs)} program runs",
        "size_factor": f"{len(all_refs)} program runs",
    }
    # Printed for the reader, not gated: the wall times the gated ones are
    # scaled from, the whole-pass tail, and the machine's speed.
    ordered = sorted(pass_walls)
    ungated = [
        ("pass_ms_p50_wall", pass_s * 1e3, "ms", "as measured"),
        ("setup_s_wall", setup_pass_s, "s", "as measured"),
        ("pass_ms_tail", ordered[tail_index(n)] * 1e3, "ms",
         f"whole passes, p{100.0 * (tail_index(n) + 1) / n:.0f} of {n}, "
         "as measured"),
        ("calibration_ms", statistics.median(calibration_ms), "ms",
         f"median of {n} kernel runs; reference {REFERENCE_CALIBRATION_MS}"),
    ]
    return metrics, samples, ungated, attempted, failed, errors


def cli_match_errors(command, refs, programs):
    """The traced pass must describe the programs the CLI ran."""
    by_key = {(r.program, r.seed): r for rs in refs.values() for r in rs}
    errors = []
    for prog in programs:
        ref = by_key[(prog["program"], prog["seed"])]
        if command == "replicate":
            traced = [prog["loop"], prog["joint"], prog["correlated"],
                      prog["skipped_budget"], prog["skipped_structure"]]
            if traced != ref.replications:
                errors.append(f"{ref.label()}: traced replications {traced} "
                              f"!= CLI {ref.replications}")
            if (prog["orig_instructions"], prog["new_instructions"]) != \
                    (ref.orig_instructions, ref.new_instructions):
                errors.append(f"{ref.label()}: traced code size differs "
                              "from the CLI's")
        elif prog["sweep_points"] != len(ref.rows):
            errors.append(f"{ref.label()}: traced {prog['sweep_points']} "
                          f"curve points != CLI {len(ref.rows)} rows")
    return errors


def measure_layers(command, refs, seconds):
    """The traced pass. Its times are as measured: layers are not gated."""
    startup = []
    for _ in range(STARTUP_SAMPLES):
        inv = Invocation([str(BPCR), "list"])
        if inv.exit_code != 0:
            raise BenchError("`bpcr list` failed")
        startup.append(inv.wall_s)
    programs = [r.program for r in next(iter(refs.values()))]
    traced = layers_json(["trace", command, ",".join(map(str, refs)),
                          str(seconds), str(JOBS), *programs])
    metrics = dict(traced["metrics"])
    metrics["cli.startup_ms"] = statistics.median(startup) * 1e3
    # The untraced CLI pass on the same inputs: the reference passes.
    metrics["pass.cli_ms"] = median_pass_s(
        {(r.program, r.seed): [r.wall_s] for rs in refs.values() for r in rs}
    ) * 1e3
    # The CLI pass's top-level calls, as timed in the traced pass.
    if command == "replicate":
        top = ["interp.trace.ms", "core.replicate.ms", "interp.measure.ms"]
    else:
        top = ["interp.trace.ms", "analysis.ms", "core.profiles.ms",
               "core.sweep.ms"]
    metrics["pass.accounted_share"] = \
        sum(metrics[k] for k in top) / metrics["pass.cli_ms"]
    mismatches = cli_match_errors(command, refs, traced["programs"])
    errors = traced["errors"] + mismatches
    failed = traced["failed"] + len(mismatches)
    attempted = traced["attempted"] + len(traced["programs"])
    samples = {name: f"{traced['repetitions']} traced repetitions"
               for name in traced["metrics"]}
    samples["cli.startup_ms"] = f"{STARTUP_SAMPLES} invocations"
    samples["pass.cli_ms"] = f"{len(refs)} reference passes"
    samples["pass.accounted_share"] = "medians above"
    return metrics, samples, [], attempted, failed, errors


def run_workload(name, seed, seconds, trace):
    command, programs = WORKLOADS[name]
    seeds = input_seeds(seed)
    refs, setup_calibration_ms = {}, []
    for s in seeds:
        refs[s] = [Reference(command, p, s) for p in programs]
        setup_calibration_ms.append(calibrate_ms())
    if trace:
        measured = measure_layers(command, refs, seconds)
    else:
        measured = measure_end_to_end(command, refs, setup_calibration_ms,
                                      seconds)
    metrics, samples, ungated, attempted, failed, errors = measured
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")

    print(f"{name}: `bpcr {command}` on {', '.join(programs)} "
          f"(--seed {seeds[0]}..{seeds[-1]} --events {EVENT_CAP} "
          f"--jobs {JOBS})")
    for metric, unit in units.items():
        print(f"  {metric:34} {metrics[metric]:16.4f} {unit:6} "
              f"({samples[metric]})")
    for metric, value, unit, sample in ungated:
        print(f"  {metric:34} {value:16.4f} {unit:6} ({sample}; not gated)")
    print(f"  ops_failed/ops_total {failed}/{attempted} "
          f"(fail_share {failed / attempted:.4f})")
    for err in errors:
        print(f"  error: {err}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u}
                    for m, u in units.items()},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        build()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {n: run_workload(n, args.seed, args.seconds, args.trace)
                   for n in names}
    except BenchError as err:
        print(f"perfbench: error: {err}", file=sys.stderr)
        return 2
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
