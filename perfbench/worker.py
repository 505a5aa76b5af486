"""One benchmark process: set up one workload, run it once, check it.

Usage: python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
       [--trace] [--setup-only]

The process imports xfem2d from the checkout's ``src`` and writes the
workload's mesh and config into DIR (this is ``setup_s``).  Unless
``--setup-only`` is given it then calls ``xfem2d.cli.main`` once on those
files, with the span tracer installed if ``--trace`` is given, and checks
the artifacts.  The last line of standard output is a JSON record.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

START = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import xfem2d  # noqa: E402  (timed as part of setup)
from xfem2d.cli import main as cli_main  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads")


def _blas_threads():
    """Thread count of each OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower()
                        and line.split()[-1].startswith("/")})
    out = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                out[os.path.basename(path)] = fn()
                break
    return out


def environment():
    """Machine and library versions this process ran with."""
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _bytes_in(directory):
    return sum(entry.stat().st_size for entry in os.scandir(directory)
               if entry.is_file())


def run_once(name, config_path, out_dir, traced):
    """Call the CLI once on the workload's files; return a record."""
    command = workloads.WORKLOADS[name].command
    argv = [command, "--config", config_path, "--out", out_dir]
    record = {"problems": []}
    trace = tracer.Tracer() if traced else None
    sampler = speed.Sampler()
    code = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            if traced:
                with trace.installed():
                    code = trace.call(cli_main, argv)
            else:
                with sampler:
                    code = cli_main(argv)
        except Exception as exc:  # a traceback is a failed run, not a crash
            record["problems"].append(f"uncaught {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - start
    if not traced:
        # the probes' own time is not the program's
        record["probe_s"] = sampler.probes
        wall -= sampler.total
    record["run_s"] = wall
    if code is not None and code != 0:
        record["problems"].append(f"exit code {code}")
    if code == 0:
        problems, rows = workloads.check_outputs(name, out_dir)
        record["problems"] += problems
        record["sifs"] = rows
        record["bytes_written"] = _bytes_in(out_dir)
    if traced:
        record["problems"] += _trace_problems(trace)
        if code == 0:
            metrics = trace.metrics()
            metrics["output.bytes_written"] = record["bytes_written"]
            record["metrics"] = metrics
            record["sifs"] = trace.sifs
        record["missing_sites"] = trace.missing
    return record


def _trace_problems(trace):
    """Checks on the tracer itself: originals restored, self times add up."""
    problems = [f"{site} was not restored" for site in trace.unrestored()]
    if trace.spans:
        metrics = trace.metrics()
        total = sum(metrics[m] for m in tracer.SELF_TIME_METRICS)
        if abs(total - metrics["trace.wall_s"]) > 1e-9 * max(1.0, total):
            problems.append(f"layer self times sum to {total!r}, "
                            f"traced wall time is {metrics['trace.wall_s']!r}")
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.abspath(xfem2d.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"xfem2d was imported from {xfem2d.__file__}, "
                         f"not from {SRC}")
    config_path = workloads.write_inputs(args.workload, args.seed, args.workdir)
    record = {"setup_s": time.perf_counter() - START}
    if not args.setup_only:
        with open(config_path, encoding="utf-8") as fh:
            record["config"] = fh.read()
        record.update(run_once(args.workload, config_path,
                               os.path.join(args.workdir, "out"), args.trace))
        record["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        record["environment"] = environment()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
