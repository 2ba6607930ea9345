"""bhlab benchmark: fixed CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source tree of the repository; the library is
imported from its `src/` directory, nothing is installed.  Each op is one
`bhlab` invocation in a fresh child process (perfbench/op.py), one at a time.
A pass runs every op of the workload once.  After two passes, ops go on
running in pass order while the next one would still end within --seconds,
so the last pass may be partial.  Outputs are checked outside the timed
region.

Every measured op process is bracketed by CPU speed probes taken in this
(idle) process, and its times are scaled to the probe's reference speed
(speed.py).  --trace 0 reports the end-to-end metrics:
  wall_s       spawn-to-exit time of each op at reference speed; each op's
               median pass, summed
  cpu_s        user + system CPU of each op process (os.wait4) at reference
               speed; each op's median pass, summed
  setup_s      interpreter start plus `import bhlab` at reference speed;
               median over every measured op process
  peak_rss_mb  largest ru_maxrss among a pass's op processes; median pass
and prints error_rate = failed / attempted ops, and the unscaled medians of
the timings next to their scaled values.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of layers.py from the traced ones, plus the tracing overhead.

--out DIR writes DIR/<workload>[.trace].json (run record, metrics, every
sample) and, when tracing, DIR/<workload>.spans.jsonl.  The last line of
standard output is always one JSON object: correct, attempted, failed and
metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import speed
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SHIM = Path(__file__).resolve().with_name("op.py")
MIN_PASSES = 2          # trace mode: one untraced and one traced
SETUP_PROBES = 4        # extra `bhlab --help` processes for setup_s
OP_TIMEOUT_S = 60       # an op still running after this is killed
# Import-only op: its record gives one more setup_s sample.
PROBE = Op("setup-probe", ("--help",),
           lambda stdout: None if stdout.startswith("usage: bhlab")
           else "no usage text")


@dataclass
class OpResult:
    name: str
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    record: dict = field(default_factory=dict)
    failure: object = None
    scale: float = 1.0      # REF_S / CPU speed probe around this op

    def at_ref(self, name):
        """A time of this op, in seconds at the probe's reference speed."""
        return getattr(self, name) * self.scale

    @property
    def setup_s(self):
        return self.record.get("setup_s")


class OpRunner:
    """Spawns op processes one at a time and measures each from outside."""

    def __init__(self, work):
        self.work = work
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src + (os.pathsep + path if path else ""),
                        PERFBENCH_RECORD=str(work / "record.json"))

    def run(self, name, argv, trace_id=None):
        out_path = self.work / "stdout"
        record_path = self.work / "record.json"
        record_path.unlink(missing_ok=True)
        env = dict(self.env)
        if trace_id is not None:
            env["PERFBENCH_TRACE"] = trace_id
        with open(out_path, "wb") as out, \
                open(self.work / "stderr", "wb") as err:
            t0 = time.monotonic()
            env["PERFBENCH_T0"] = repr(t0)
            proc = subprocess.Popen([sys.executable, str(SHIM), *argv],
                                    stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = OpResult(
            name=name, returncode=proc.returncode,
            wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024,
            stdout=out_path.read_text(errors="replace"))
        if record_path.exists():
            result.record = json.loads(record_path.read_text())
        if proc.returncode != 0:
            stderr = (self.work / "stderr").read_text(errors="replace")
            last = stderr.strip().splitlines()[-1:]
            result.failure = f"exit code {proc.returncode}" + "".join(
                f": {line}" for line in last)
        elif not result.record:
            result.failure = "the op wrote no record"
        return result


def check_output(op, result, verified):
    """Set result.failure from the op's check; identical output to an
    already verified run of the same op needs no second check."""
    if result.failure is None and verified.get(op.name) != result.stdout:
        try:
            result.failure = op.check(result.stdout)
        except Exception as exc:   # a malformed output is a failed check
            result.failure = f"unreadable output: {exc!r}"
        if result.failure is None:
            verified[op.name] = result.stdout
    return result


def run_record(seed, ops):
    import bhlab
    import numpy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bhlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bhlab": bhlab.__version__,
        "seed": seed,
        "argv": {op.name: ["bhlab", *op.argv] for op in ops},
    }


# Timings scaled to the CPU speed probe's reference speed (speed.py); the
# unscaled median is reported next to each.
SCALED = frozenset({"wall_s", "cpu_s", "setup_s", "trace.overhead_s"})


def _median_per_op(passes, field):
    """(sum over ops of each op's median at reference speed, the same
    unscaled).  passes[-1] may be partial; passes[0] is complete."""
    runs = {}
    for ops in passes:
        for r in ops:
            runs.setdefault(r.name, []).append(r)
    return (sum(statistics.median(r.at_ref(field) for r in rs)
                for rs in runs.values()),
            sum(statistics.median(getattr(r, field) for r in rs)
                for rs in runs.values()))


def _metric(unit, value, samples, raw=None):
    return {"value": value, "unit": unit, "samples": samples,
            "raw": value if raw is None else raw}


def run_workload(workload, seed, seconds, trace, work):
    """All passes of one workload run; returns the results dictionary."""
    timed, check_ops = workload.ops(seed)
    runner = OpRunner(work)
    verified = {}
    results = []    # every op process, probes and check ops included

    def run(op, trace_id=None):
        result = check_output(op, runner.run(op.name, op.argv, trace_id),
                              verified)
        results.append(result)
        if result.failure is not None:
            print(f"perfbench: {workload.name}: {op.name} failed: "
                  f"{result.failure}", file=sys.stderr)
        return result

    speeds = []     # speed.measure() before each measured op, after the last
    measured = []   # the op results those measurements bracket, in order

    def measure(op, trace_id=None):
        speeds.append(speed.measure())
        measured.append(run(op, trace_id))
        return measured[-1]

    # The first process compiles bytecode and warms the file cache; a user
    # does not pay for that on every run, so it is not a setup sample.
    run(PROBE)
    setups = [measure(PROBE) for _ in range(SETUP_PROBES)]

    # After MIN_PASSES whole passes, an op starts only if its previous run
    # would still end within --seconds; the last pass may be partial.
    passes = []     # (traced, [OpResult])
    last_wall = {}
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        ops = []
        for op in timed:
            if (len(passes) >= MIN_PASSES and time.monotonic() - start
                    + last_wall[op.name] + 2 * speeds[-1] * speed.REPEATS
                    > seconds):
                break
            ops.append(measure(op, f"pass{len(passes)}.{op.name}"
                               if traced else None))
            last_wall[op.name] = ops[-1].wall_s
        if ops:
            passes.append((traced, ops))
        if len(ops) < len(timed):
            break
    speeds.append(speed.measure())
    for i, result in enumerate(measured):
        result.scale = speed.REF_S / statistics.fmean(speeds[i:i + 2])
    for op in check_ops:
        run(op)
    complete = [(traced, ops) for traced, ops in passes
                if len(ops) == len(timed)]

    setups = [r for r in setups + [r for _, ops in passes for r in ops]
              if r.setup_s is not None]
    plain = [ops for traced, ops in passes if not traced]
    metrics = {}
    if not trace:
        for name in ("wall_s", "cpu_s"):
            ref, raw = _median_per_op(plain, name)
            metrics[name] = _metric("s", ref, len(plain), raw)
        metrics["setup_s"] = _metric(
            "s", statistics.median(r.at_ref("setup_s") for r in setups),
            len(setups), statistics.median(r.setup_s for r in setups))
        rss = [max(r.peak_rss_mb for r in ops)
               for traced, ops in complete if not traced]
        metrics["peak_rss_mb"] = _metric("MB", statistics.median(rss),
                                         len(rss))
        profiles = {}
    else:
        traced_passes = [ops for traced, ops in passes if traced]
        per_pass = [layers.layer_metrics([(r.record, r.wall_s) for r in ops])
                    for traced, ops in complete if traced
                    and all(r.record.get("spans") is not None for r in ops)]
        for name, unit, _, _ in layers.PER_LAYER:
            if name != "trace.overhead_s":
                values = [m[name] for m in per_pass] or [0]
                metrics[name] = _metric(unit, statistics.median(values),
                                        len(values))
        traced_ref, traced_raw = _median_per_op(traced_passes, "wall_s")
        plain_ref, plain_raw = _median_per_op(plain, "wall_s")
        metrics["trace.overhead_s"] = _metric(
            "s", traced_ref - plain_ref, len(traced_passes),
            traced_raw - plain_raw)
        first = next((ops for traced, ops in complete if traced), [])
        profiles = {r.name: {"wall_s": r.wall_s,
                             "functions": layers.op_profile(r.record)}
                    for r in first if r.record.get("spans") is not None}

    failed = sum(r.failure is not None for r in results)
    return {
        "workload": workload.name,
        "seconds": seconds,
        "trace": trace,
        "record": run_record(seed, [PROBE, *timed, *check_ops]),
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "error_rate": failed / len(results),
        "failures": [f"{r.name}: {r.failure}" for r in results if r.failure],
        "metrics": metrics,
        "profile": profiles,
        "speed_probes_s": speeds,
        "passes": [{"traced": traced,
                    "ops": [{"name": r.name, "wall_s": r.wall_s,
                             "cpu_s": r.cpu_s, "setup_s": r.setup_s,
                             "peak_rss_mb": r.peak_rss_mb, "scale": r.scale,
                             "ok": r.failure is None} for r in ops]}
                   for traced, ops in passes],
        "spans": [{"op": r.record["op"], "name": name, "start": s, "end": e,
                   "parent": parent}
                  for _, ops in passes for r in ops if r.record.get("spans")
                  for name, s, e, parent in r.record["spans"]],
    }


def print_summary(res):
    print(f"== {res['workload']}  seed={res['record']['seed']}  "
          f"trace={res['trace']}  passes={len(res['passes'])}")
    prediction = {name: moves for name, _, _, moves in layers.PER_LAYER}
    for name, m in res["metrics"].items():
        moves = f"  -> {prediction[name]}" if res["trace"] else ""
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']:5s} "
              f"(median of {m['samples']}"
              + (f", unscaled {m['raw']:.6g}" if name in SCALED else "")
              + f"){moves}")
    print(f"  {'error_rate':42s} {res['error_rate']:>14.6g} ratio "
          f"({res['failed']} of {res['attempted']} ops failed)")
    if res["trace"]:
        print("  largest self times per op, first traced pass:")
        for op, prof in res["profile"].items():
            print(f"    {op} (wall {prof['wall_s']:.4g} s)")
            rows = sorted(prof["functions"].items(),
                          key=lambda kv: -kv[1]["self_s"])[:5]
            for name, entry in rows:
                print(f"      {name:42s} self {entry['self_s']:9.4f} s "
                      f"({entry['self_s'] / prof['wall_s']:6.1%})  "
                      f"calls {entry['calls']}")


def write_results(res, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = res["workload"] + (".trace" if res["trace"] else "")
    spans = res.pop("spans")
    (out_dir / f"{stem}.json").write_text(json.dumps(res, indent=1) + "\n")
    if spans:
        with open(out_dir / f"{res['workload']}.spans.jsonl", "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bhlab" / "__init__.py").is_file():
        print(f"perfbench: no bhlab sources under {ROOT / 'src'}; run it "
              f"from a source tree of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bhlab
    from tracer import public_functions
    try:
        public_functions(bhlab)
    except LookupError as exc:
        print(f"perfbench: {exc}; update perfbench/tracer.py", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.all else [args.workload]
    reports = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for name in names:
            res = run_workload(WORKLOADS[name], args.seed, args.seconds,
                               args.trace, Path(tmp))
            print_summary(res)
            if args.out is not None:
                write_results(res, args.out)
            reports.append(res)

    def metric_key(res, name):
        return f"{res['workload']}.{name}" if args.all else name

    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {metric_key(r, name): {"value": m["value"],
                                          "unit": m["unit"]}
                    for r in reports for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
