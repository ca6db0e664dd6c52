#!/usr/bin/env python3
"""End-to-end benchmark of wecsim: see README.md beside this file.

One workload, timed (the end-to-end metrics) or traced (the per-layer ones):

    python3 perfbench/run.py --workload compute --seed 42 --seconds 25 --trace 0

Every workload, one after another, printing each one's metrics:

    python3 perfbench/run.py --workload all

Steadiness check: two sets of N round-robin rounds over the workloads, the
same seeds in both, compared against the bounds in BENCHMARK.json:

    python3 perfbench/run.py --steadiness 10

The driver builds the simulator from the checkout it sits in (CMake, into
.bench_build), runs every repetition in a fresh wecbench process, and prints
one JSON result object as the last line of its output.
"""

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["compute", "memwall", "sampled", "service"]

# Set-up samples taken before each repetition, besides the repetition's own:
# set-up takes milliseconds, so its median needs more samples than the
# repetitions give, spread over the run like the repetitions.
SETUP_PROBES_PER_REP = 2
MIN_REPS = 3         # timed repetitions per run, whatever --seconds says
MIN_TRACED_REPS = 2  # traced and untraced each, in a --trace 1 run
RUN_BUDGET_S = 170   # a run must end within 180 s

# Why a per-layer metric can be absent on a workload (README.md).
ABSENT = [
    ("service.", lambda w: w != "service",
     "wecsimd is never started on this workload"),
    ("sampled.", lambda w: w != "sampled",
     "no point runs in sampled mode on this workload"),
    ("func.", lambda w: w != "sampled",
     "the program never calls the interpreter on this workload"),
    ("harness.point_overhead_ms", lambda w: w == "service",
     "drain() runs inside wecsimd's workers (see service.point_overhead_ms)"),
    ("harness.report_ms", lambda w: w == "service",
     "wecsimd writes the job reports (see service.job_s_p50)"),
    ("core.minstr_per_s.", lambda w: True,
     "no point of this workload runs this kernel at full fidelity"),
    ("core.", lambda w: w == "sampled",
     "Simulator::run is never called; the detailed core runs inside "
     "SampledSimulator::run (sampled.run_s)"),
    ("cpu.", lambda w: w == "sampled",
     "SampledResult carries no branch counters"),
    ("mem.", lambda w: w == "sampled",
     "SampledResult carries no cache counters"),
    ("sta.cycles_per_jump", lambda w: w == "sampled",
     "SampledSimulator exposes skipped cycles but not skip jumps"),
    ("self_s.", lambda w: True, "no span of this layer is opened on this workload"),
]


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures and builds wecbench + wecsimd; returns the bin dir."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    gen = [] if (out / "CMakeCache.txt").exists() or not shutil.which("ninja") \
        else ["-G", "Ninja"]
    cmds = [["cmake", "-S", str(BENCH_DIR), "-B", str(out), *gen,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", str(out), "-j", str(min(4, os.cpu_count() or 1))]]
    # The compiler's temporary files stay inside the checkout too.
    tmp = out / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    with open(log_path, "w") as log:
        for cmd in cmds:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    return out


def become_subreaper():
    """Orphans of a workload process (wecsimd, its workers) are re-parented
    to this driver, so it can reap them; best effort."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


class Runner:
    """Launches wecbench processes in fresh directories under a work dir."""

    def __init__(self, bin_dir, workload, seed, deadline):
        self.exe = str(bin_dir / "wecbench")
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = bin_dir / "work" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.count = 0

    def new_dir(self, mode):
        self.count += 1
        d = self.work / f"{self.count:03d}-{mode}"
        d.mkdir()
        return d

    def launch(self, mode, d, extra=()):
        """Runs one wecbench process to completion. Returns (JSON reply,
        process wall seconds, user+sys CPU seconds); the CPU includes every
        descendant the process reaped."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run time budget exhausted")
        t0 = time.monotonic_ns()
        args = [self.exe, mode, "--workload", self.workload, "--seed", str(self.seed),
                "--dir", str(d), "--t0-ns", str(t0), *extra]
        with open(d / "stderr.log", "w") as err:
            p = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=err,
                                 start_new_session=True)
            timer = threading.Timer(timeout, kill_group, (p.pid,))
            timer.start()
            try:
                out = p.stdout.read()
                _, status, ru = os.wait4(p.pid, 0)
                p.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                p.stdout.close()
                stop_group(p.pid)
        wall = (time.monotonic_ns() - t0) * 1e-9
        if p.returncode != 0:
            msg = (d / "stderr.log").read_text().strip()
            raise BenchError(f"wecbench {mode} exited {p.returncode}: {msg}")
        return (json.loads(out.decode().strip().splitlines()[-1]), wall,
                ru.ru_utime + ru.ru_stime)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def stop_group(pgid):
    """Kills whatever is left of a workload process's group and reaps it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def median(xs):
    return statistics.median(xs) if xs else 0.0


def measure(bin_dir, workload, seed, seconds, trace):
    """One run of one workload. Returns the result dict printed by main."""
    start = time.monotonic()
    r = Runner(bin_dir, workload, seed, start + RUN_BUDGET_S)
    try:
        return measure_with(r, workload, seconds, trace, start)
    finally:
        r.close()


def measure_with(r, workload, seconds, trace, start):
    """The body of measure(): untimed checks, set-up probes, repetitions."""
    problems = []
    prep_dir = r.new_dir("prepare")
    prep, _, _ = r.launch("prepare", prep_dir, ["--trace"] if trace else [])
    if prep["checksum_errors"]:
        problems.append("checksum differs from the interpreter's on " +
                        ", ".join(prep["checksum_errors"]))

    setups = []
    reps = []  # (reply, process wall, cpu, traced)
    t_reps = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        for _ in range(0 if trace else SETUP_PROBES_PER_REP):
            reply, _, _ = r.launch("setup", r.new_dir("setup"))
            setups.append(reply["setup_s"])
        d = r.new_dir("rep")
        if workload == "service":
            shutil.copytree(prep_dir / "cache", d / "cache")
        reps.append((*r.launch("rep", d, ["--trace"] if traced else []), traced))
        if traced:
            spans = build_dir() / "trace" / f"{workload}-seed{r.seed}.spans.jsonl"
            spans.parent.mkdir(exist_ok=True)
            shutil.copyfile(d / "spans.jsonl", spans)
        n_untraced = sum(1 for x in reps if not x[3])
        n_traced = len(reps) - n_untraced
        enough = (n_untraced >= MIN_REPS if not trace else
                  min(n_untraced, n_traced) >= MIN_TRACED_REPS and n_untraced == n_traced)
        elapsed = time.monotonic() - t_reps
        typical = median([x[1] for x in reps[-2:]])
        if enough and elapsed + typical > seconds:
            break

    untraced = [x for x in reps if not x[3]]
    setups += [x[0]["setup_s"] for x in untraced]
    first = reps[0][0]
    attempted = failed = 0
    for reply, _, _, _ in reps:
        attempted += reply["points"]
        failed += reply["failed"]
        if reply["digest"] != first["digest"]:
            problems.append("run report digest differs between repetitions")
        if reply["counts"] != first["counts"]:
            problems.append("deterministic counts differ between repetitions")
        if reply.get("replay_mismatches", 0):
            problems.append(f"{reply['replay_mismatches']} point(s) replayed "
                            "directly disagree with the runner's results")
    failed += len(prep["checksum_errors"])
    if workload == "sampled" and first["counts"]["func_instrs"] != prep["arch_instrs"]:
        problems.append("sampled runs did not cover every architectural instruction")
    if workload == "service" and first["counts"]["cached"] != prep["cached_points"]:
        problems.append("wecsimd did not serve the pre-filled points from the cache")
    if failed:
        problems.append(f"{failed} point(s) failed")

    result = {
        "workload": workload, "seed": r.seed, "reps": len(reps),
        "digest": first["digest"], "counts": first["counts"],
        "rep_wall_s": [round(x[0]["wall_s"], 4) for x in untraced],
        "attempted": attempted, "failed": failed, "problems": sorted(set(problems)),
        "elapsed_s": time.monotonic() - start,
    }
    arch = prep["arch_instrs"]
    result["e2e"] = {
        "setup_s": median(setups),
        "wall_s": median([x[0]["wall_s"] for x in untraced]),
        "cpu_s": median([x[2] for x in untraced]),
        "minstr_per_s": median([arch / 1e6 / x[0]["wall_s"] for x in untraced]),
        "peak_rss_mb": median([x[0]["peak_rss_kib"] / 1024 for x in untraced]),
    }
    if workload == "sampled":
        result["ci95_pct"] = first["counts"]["ci95_pct"]
    if trace:
        traced = [x for x in reps if x[3]]
        layers = {}
        for name in traced[0][0]["layers"]:
            layers[name] = median([x[0]["layers"][name] for x in traced])
        # Each traced repetition against the untraced one just before it, so
        # that slow drift of the host's speed cancels.
        layers["trace.overhead_pct"] = median(
            [(t[0]["wall_s"] / u[0]["wall_s"] - 1) * 100
             for u, t in zip(reps[0::2], reps[1::2])])
        if "ipc_err_pct" in prep:
            layers["sampled.ipc_err_pct"] = prep["ipc_err_pct"]
        result["layers"] = layers
    return result


def absent_reason(name, workload):
    for prefix, applies, why in ABSENT:
        if name.startswith(prefix) and applies(workload):
            return why
    return "not measured"


def report(result, spec, trace):
    """Prints a run's metrics by name and unit; returns the contract line."""
    w = result["workload"]
    print(f"workload {w}  seed {result['seed']}  repetitions {result['reps']}  "
          f"points attempted {result['attempted']}  failed {result['failed']}")
    metrics = {}
    if not trace:
        for m in spec["end_to_end"]:
            v = result["e2e"][m["name"]]
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
            print(f"  {m['name']:<28} {v:>14.6g} {m['unit']:<9} ({m['better']} is better)")
        if "ci95_pct" in result:
            print(f"  {'ci95_pct':<28} {result['ci95_pct']:>14.6g} %         "
                  "(lower is better; deterministic)")
    else:
        for m in spec["per_layer"]:
            v = result["layers"].get(m["name"])
            if v is None:
                print(f"  {m['name']:<28} {'absent':>14} {m['unit']:<9} "
                      f"({absent_reason(m['name'], w)})")
                v = 0
            else:
                print(f"  {m['name']:<28} {v:>14.6g} {m['unit']}")
            metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(f"  digest {result['digest']}  counts {json.dumps(result['counts'])}")
    for p in result["problems"]:
        print(f"  WRONG: {p}")
    print("# detail " + json.dumps({k: v for k, v in result.items()
                                    if k not in ("layers",)}))
    return {"correct": not result["problems"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def steadiness(args, spec):
    """Two sets of `args.steadiness` round-robin rounds over the workloads,
    each run a separate `run.py --workload W --seed S` process."""
    rounds = args.steadiness
    seeds = [args.seed + i for i in range(rounds)]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    runs = {}  # (set, workload) -> list of detail dicts
    for s in (1, 2):
        for i, seed in enumerate(seeds):
            for w in workloads:
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", "0"]
                p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = p.stdout.strip().splitlines()
                detail = next((json.loads(line[len("# detail "):]) for line in lines
                               if line.startswith("# detail ")), None)
                if p.returncode != 0 or detail is None:
                    raise BenchError(f"set {s} {w} seed {seed} failed:\n{p.stdout}")
                runs.setdefault((s, w), []).append(detail)
                print(f"set {s} round {i + 1}/{rounds} {w:<8} seed {seed}: " +
                      "  ".join(f"{k} {v:.4g}" for k, v in detail["e2e"].items()),
                      flush=True)
    ok = True
    print()
    print(f"{'workload':<9}{'metric':<14}{'set':>4}{'q1':>11}{'median':>11}{'q3':>11}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            med = {}
            for s in (1, 2):
                xs = [d["e2e"][name] for d in runs[(s, w)]]
                q1, q2, q3 = quartiles(xs)
                spread = (q3 - q1) / q2 if q2 else 0.0
                med[s] = q2
                verdict = ""
                if name != "setup_s":
                    verdict = ("steady" if spread < bound / 3 else
                               "within bound" if spread <= bound else "TOO NOISY")
                    ok &= spread <= bound
                print(f"{w:<9}{name:<14}{s:>4}{q1:>11.5g}{q2:>11.5g}{q3:>11.5g}"
                      f"{spread:>9.3f}{bound:>7.2f}  {verdict}")
            worse = ((med[2] - med[1]) / med[1] if m["better"] == "lower"
                     else (med[1] - med[2]) / med[1])
            agree = worse <= bound
            ok &= agree
            print(f"{'':<9}{name:<14}  set 2 vs set 1: {worse * 100:+.2f}% worse "
                  f"-> {'agree' if agree else 'DISAGREE'}")
        differ = [a["seed"] for a, b in zip(runs[(1, w)], runs[(2, w)])
                  if (a["digest"], a["counts"], a.get("ci95_pct")) !=
                  (b["digest"], b["counts"], b.get("ci95_pct"))]
        wrong = [d["seed"] for s in (1, 2) for d in runs[(s, w)] if d["problems"]]
        ok &= not differ and not wrong
        print(f"{w}: deterministic values (digest, counts, ci95_pct) " +
              (f"DIFFER between sets for seeds {differ}" if differ else
               "repeat exactly for every seed") +
              (f"; WRONG outputs for seeds {wrong}" if wrong else ""))
    print("steadiness: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int,
                    help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", type=int, metavar="N", default=0,
                    help="run two sets of N round-robin rounds and compare them")
    args = ap.parse_args()
    # A SIGTERM unwinds like an exception, so the running workload process
    # group is killed and reaped on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not 0 <= args.seed < 2 ** 32:
        ap.error("--seed must be in [0, 2^32)")
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        bin_dir = build()
        if args.steadiness:
            return steadiness(args, spec)
        become_subreaper()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        lines = {}
        for w in workloads:
            lines[w] = report(measure(bin_dir, w, args.seed, args.seconds, args.trace),
                              spec, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        print(json.dumps(next(iter(lines.values()))))
    else:
        print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
