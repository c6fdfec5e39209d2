"""Benchmark of the wignerlab CLI pipelines.

Usage (from the repository root):

    python3 bench/run.py --workload {ensemble_sweep,archive_stats,quadrature,all}
                         --seed N --seconds S --trace {0,1}

With --trace 0 it times whole rounds of program processes until they have
taken S reference seconds (see Calibrated) and prints the end-to-end
metrics; with --trace 1 it runs the traced in-process pass (traced.py) and
prints the per-layer metrics. Either way it checks every output, and the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. See README.md.
"""

# Every process started here, and this one, runs single-threaded. Set before
# numpy loads its BLAS.
import os

THREAD_ENV = {"WLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
CAL_ARGV = [os.path.join(HERE, "calibrate.py")]
CAL_REF_S = 0.7  # calibrate.py's time on the reference host (README: reference figures)
DEADLINE_S = 170.0  # a run must end within 180 s



def declared_metrics():
    """{trace: [(name, unit)]} as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {t: [(m["name"], m["unit"]) for m in spec[key]] for t, key in ((0, "end_to_end"), (1, "per_layer"))}


def program_env():
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = SRC
    return env


def fingerprint():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "cpu": cpu, "thread_env": THREAD_ENV}


class Launcher:
    """Client of launcher.py, which starts every program process (see there why)."""

    def __init__(self):
        # Its own process group, so that close() can end it and whatever it started.
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")], env=program_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)

    def run(self, argv, log_path, deadline):
        req = {"argv": argv, "cwd": ROOT, "log": log_path, "timeout": max(1.0, deadline - time.monotonic())}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process exited")
        return json.loads(line)

    def close(self):
        """End the launcher and its program process, and wait for both."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs operations through the launcher, logging to one file, within one deadline."""

    def __init__(self, launcher, log_path, deadline):
        self.launcher, self.log_path, self.deadline = launcher, log_path, deadline

    def run(self, argv):
        return self.launcher.run(argv, self.log_path, self.deadline)


class Calibrated:
    """Runs operations with a calibration run (calibrate.py) before the first and after each one.

    The host's speed drifts by tens of percent over minutes, and processes run
    close together slow down together. Each operation's wall and CPU time are also given
    in reference seconds: scaled by CAL_REF_S over the mean of the two
    calibrations around it.
    """

    def __init__(self, runner):
        self.runner = runner
        self.calibrations = []
        self.last = self._calibrate()

    def _calibrate(self):
        cal = self.runner.run(CAL_ARGV)
        if cal["rc"] != 0:
            raise SystemExit(f"error: calibration exited {cal['rc']}; see {self.runner.log_path}")
        self.calibrations.append(cal)
        return cal

    def run(self, argv):
        res = self.runner.run(argv)
        before, after = self.last, self._calibrate()
        self.last = after
        res["ref_wall_s"] = res["wall_s"] * 2 * CAL_REF_S / (before["wall_s"] + after["wall_s"])
        res["ref_cpu_s"] = res["cpu_s"] * 2 * CAL_REF_S / (before["cpu_s"] + after["cpu_s"])
        return res


def check_program(runner):
    """Fail unless wignerlab imports from this checkout; also compiles its bytecode once."""
    probe = runner.run(["-c", "import sys, wignerlab.cli; sys.exit(0 if wignerlab.cli.__file__.startswith("
                        f"{SRC + os.sep!r}) else 3)"])
    if probe["rc"] != 0:
        raise SystemExit(f"error: wignerlab.cli does not import from {SRC} (exit {probe['rc']})")


def digests(directory):
    import checks

    return {n: checks.sha256(os.path.join(directory, n)) for n in sorted(os.listdir(directory))
            if not n.endswith(".manifest.json")}


def check_outputs(workload, out_dir, reference=None):
    """Problems in one round's outputs; later rounds must repeat the first byte for byte."""
    try:
        problems = workload.check(out_dir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"outputs could not be read: {type(exc).__name__}: {exc}"]
    if reference is not None:
        now = digests(out_dir)
        problems += [f"{name} differs from the first round" for name in sorted(set(now) | set(reference))
                     if now.get(name) != reference.get(name)]
    return problems


def timed_run(workload, args, work, runner):
    deadline = runner.deadline
    check_program(runner)
    calibrated = Calibrated(runner)
    # set-up: a fresh interpreter importing the CLI, which imports every module a workload uses
    setup_samples = [calibrated.run(["-c", "import wignerlab.cli"]) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(s["ref_wall_s"] for s in setup_samples)
    # Whole rounds until the operations have taken --seconds in reference
    # seconds, so that the round count does not follow the host's speed.
    rounds, measured = [], 0.0
    while not rounds or (measured < args.seconds and time.monotonic() < deadline - 60):
        out = os.path.join(work, f"round{len(rounds)}")
        os.makedirs(out)
        ops = [dict(calibrated.run(argv), name=name) for name, argv in workload.ops(out)]
        rounds.append({"dir": out, "ops": ops})
        measured += sum(o["ref_wall_s"] for o in ops)
    checks_start = time.perf_counter()
    problems = check_outputs(workload, rounds[0]["dir"])
    reference = digests(rounds[0]["dir"])
    for r in rounds[1:]:
        problems += check_outputs(workload, r["dir"], reference)
    # Per operation, the median over rounds; a round is the sum of its operations.
    per_op = [[r["ops"][i] for r in rounds] for i in range(len(rounds[0]["ops"]))]

    def median_round(key, combine=sum):
        return combine(statistics.median(o[key] for o in runs) for runs in per_op)

    metrics = {"wall_s": median_round("ref_wall_s"), "cpu_s": median_round("ref_cpu_s"), "setup_s": setup_s,
               "peak_rss_mb": median_round("rss_mb", max)}
    ops = [o for r in rounds for o in r["ops"]]
    detail = {"raw_wall_s": median_round("wall_s"), "raw_cpu_s": median_round("cpu_s"),
              "setup_samples": setup_samples, "calibrations": calibrated.calibrations,
              "checks_s": time.perf_counter() - checks_start, "rounds": [r["ops"] for r in rounds]}
    return metrics, ops, problems, detail


def traced_run(workload, args, work, runner, prepared):
    """An untraced in-process pass of this workload, then a traced pass of every workload."""
    passes = [(workload.name, False, os.path.join(work, "untraced"))]
    passes += [(n, True, os.path.join(work, "traced-" + n)) for n in prepared]
    for _, _, d in passes:
        os.makedirs(d)
    plan, result = os.path.join(work, "plan.json"), os.path.join(work, "traced-result.json")
    trace = os.path.join(OUT, f"trace-{workload.name}-s{args.seed}.json")
    with open(plan, "w") as fh:
        json.dump({"workload": workload.name,
                   "passes": [{"name": n, "traced": t, "ops": prepared[n].ops(d)} for n, t, d in passes]}, fh)
    child = runner.run([os.path.join(HERE, "traced.py"), plan, result, trace])
    if child["rc"] != 0:
        raise SystemExit(f"error: traced run exited {child['rc']}; see {runner.log_path}")
    with open(result) as fh:
        res = json.load(fh)
    problems = []
    for n, _, d in passes:
        problems += [f"{os.path.basename(d)}: {x}" for x in check_outputs(prepared[n], d)]
    if digests(passes[0][2]) != digests(os.path.join(work, "traced-" + workload.name)):
        problems.append("traced outputs differ from the untraced pass")
    ops = [o for p in res["passes"] for o in p["ops"]]
    detail = {"passes": res["passes"], "trace_file": os.path.relpath(trace, ROOT), "child": child}
    return res["metrics"], ops, problems, detail


def run_workload(name, args, launcher, declared):
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(OUT, f"work-{name}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        names = list(workloads.WORKLOADS) if args.trace else [name]
        prepared = {}
        prepare_start = time.perf_counter()
        for n in names:
            w = workloads.WORKLOADS[n]()
            in_dir = os.path.join(work, "inputs-" + n)
            os.makedirs(in_dir)
            w.prepare(args.seed, in_dir)
            prepared[n] = w
        prepare_s = time.perf_counter() - prepare_start
        runner = Runner(launcher, os.path.join(work, "ops.log"), deadline)
        if args.trace:
            metrics, ops, problems, detail = traced_run(prepared[name], args, work, runner, prepared)
        else:
            metrics, ops, problems, detail = timed_run(prepared[name], args, work, runner)
        detail["prepare_s"] = prepare_s
    finally:
        log = os.path.join(work, "ops.log")
        if os.path.exists(log):
            shutil.copy(log, os.path.join(OUT, f"ops-{name}-s{args.seed}-t{args.trace}.log"))
        shutil.rmtree(work, ignore_errors=True)
    if sorted(metrics) != sorted(n for n, _ in declared):
        raise SystemExit(f"error: measured metrics {sorted(metrics)} differ from BENCHMARK.json")
    failed = [o["name"] for o in ops if o["rc"] != 0]
    result = {"correct": not problems, "attempted": len(ops), "failed": len(failed),
              "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit in declared}}
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fingerprint(), "problems": problems, "failed_ops": failed, "detail": detail,
              "result": result}
    with open(os.path.join(OUT, f"result-{name}-s{args.seed}-t{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return result, problems, failed


def main(argv=None):
    # SIGTERM unwinds like an error, so that the launcher is still closed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    launcher = Launcher()  # first, while this process is still small
    try:
        return run_main(argv, launcher)
    finally:
        launcher.close()


def run_main(argv, launcher):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wignerlab", "cli.py")):
        print(f"error: no wignerlab source tree at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, problems, failed = run_workload(name, args, launcher, declared_metrics()[args.trace])
        for p in problems[:20]:
            print(f"CHECK FAILED [{name}] {p}", file=sys.stderr)
        for op in failed:
            print(f"OPERATION FAILED [{name}] {op}", file=sys.stderr)
        print(f"[{name}] seed={args.seed} attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}")
        for metric, v in result["metrics"].items():
            print(f"[{name}] {metric} = {v['value']:.6g} {v['unit']}")
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
