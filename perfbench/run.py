"""Benchmark of the xfem2d command line, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1]

For ``--seconds`` seconds it starts worker processes one at a time.  Each
worker imports xfem2d from ``src``, writes the workload's inputs built from
``--seed``, calls ``xfem2d.cli.main`` once and checks the artifacts.  With
``--trace 0`` the run reports the medians of ``run_s``, ``setup_s`` and
``peak_rss_mb`` over its workers, the two times scaled to the reference
core speed (see ``speed.py``); with ``--trace 1`` every worker runs
under the span tracer and the run reports the median of each per-layer
metric.  A summary goes to standard output, a full record (every sample,
every SIF, the environment) to ``.perfbench_work/results``, and the last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("plate-sif", "crack-field", "hole-growth")
# Runnable by name, but not part of BENCHMARK.json: with a fourth workload
# the runs the benchmark's contract asks for would not fit its time limit.
EXTRA_WORKLOADS = ("inclined-dump",)
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
MIN_SETUPS = 5
# A run must end within 180 s: a worker still running this long after the
# run started is killed and the run fails.
RUN_LIMIT_S = 170.0
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed check)."""


def git_commit(root=ROOT):
    """Commit of a git checkout read from ``.git``, or None."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(workload, seed, trace, setup_only, timeout):
    """Run one worker process to completion and return its JSON record."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    argv = [sys.executable, WORKER, "--workload", workload,
            "--seed", str(seed), "--workdir", workdir]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only
    try:
        proc = subprocess.run(argv, cwd=ROOT, env={**os.environ, **SINGLE_THREAD},
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"worker for {workload} ran over {timeout:.0f} s") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker for {workload} exited with code "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace):
    """Run workers for ``seconds``; return (result, record)."""
    start = time.perf_counter()
    runs = []
    while True:
        elapsed = time.perf_counter() - start
        if runs and elapsed + elapsed / len(runs) > seconds:
            break
        runs.append(run_worker(workload, seed, trace, False,
                               RUN_LIMIT_S - elapsed))
    setups = [r["setup_s"] for r in runs]
    while not trace and len(setups) < MIN_SETUPS:
        elapsed = time.perf_counter() - start
        setups.append(run_worker(workload, seed, trace, True,
                                 RUN_LIMIT_S - elapsed)["setup_s"])

    failed = sum(1 for r in runs if r["problems"])
    if trace:
        good = [r["metrics"] for r in runs if "metrics" in r]
        values = {name: statistics.median(m[name] for m in good)
                  for name in (good[0] if good else ())}
        units = {name: _layer_unit(name) for name in values}
    else:
        raw = {"run_s": statistics.median(r["run_s"] for r in runs),
               "setup_s": statistics.median(setups)}
        probes = [p for r in runs for p in r["probe_s"]]
        # no probe at all only if every invocation failed within 0.1 s
        mean_probe = statistics.fmean(probes) if probes else speed.REFERENCE_S
        scale = speed.REFERENCE_S / mean_probe
        values = {
            "run_s": raw["run_s"] * scale,
            "setup_s": raw["setup_s"] * scale,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        units = dict(END_TO_END)
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    first = runs[0]
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "git_commit": git_commit(),
        "environment": first.pop("environment"),
        "config": first.pop("config"),
        "sifs": first.get("sifs"),
        "sif_precision": "full" if trace else "9 significant digits (sif_history.csv)",
        "result": result,
        "fail_frac": failed / len(runs),
        "setup_samples_s": setups,
        "unscaled_medians_s": None if trace else raw,
        "mean_probe_s": None if trace else mean_probe,
        "probe_count": None if trace else len(probes),
        "sample_counts": {"run_s": len(runs), "setup_s": len(setups),
                          "peak_rss_mb": len(runs)},
        "runs": [{k: v for k, v in r.items()
                  if k not in ("environment", "config", "sifs", "probe_s")}
                 for r in runs],
    }
    return result, record


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("per_classify"):
        return "ratio"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def summary(record):
    result = record["result"]
    n = result["attempted"]
    lines = [f"{record['workload']} seed={record['seed']} "
             f"trace={record['trace']} seconds={record['seconds']}: "
             f"{n} runs attempted, {result['failed']} failed"]
    for name, metric in result["metrics"].items():
        count = record["sample_counts"].get(name, n)
        lines.append(f"  {name:<34} {metric['value']:.6g} {metric['unit']} "
                     f"(median of {count})")
    if not record["trace"]:
        lines.append(f"  {'fail_frac':<34} {record['fail_frac']:.6g} ratio "
                     f"({result['failed']}/{n})")
        unscaled = record["unscaled_medians_s"]
        lines.append(f"  times above are at the reference core speed; mean "
                     f"of {record['probe_count']} probes "
                     f"{record['mean_probe_s']:.6g} s, reference "
                     f"{speed.REFERENCE_S} s; unscaled run_s "
                     f"{unscaled['run_s']:.6g} s, setup_s "
                     f"{unscaled['setup_s']:.6g} s")
    env = record["environment"]
    lines.append(f"  env: nproc={env['nproc']} python={env['python']} "
                 f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']} "
                 f"blas_threads={sorted(set(env['blas_threads'].values()))} "
                 f"commit={record['git_commit']}")
    for run in record["runs"]:
        for problem in run["problems"]:
            lines.append(f"  FAILED CHECK: {problem}")
    return "\n".join(lines)


def write_record(record):
    directory = os.path.join(WORK, "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{record['workload']}-seed{record['seed']}"
                                   f"-trace{record['trace']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return os.path.relpath(path, ROOT)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Benchmark of the xfem2d command line.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + EXTRA_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "xfem2d", "cli.py")):
        print(f"perfbench: no xfem2d sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, record = run_workload(name, args.seed, args.seconds,
                                          args.trace)
            print(summary(record))
            print(f"  record {write_record(record)}")
            results[name] = result
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
