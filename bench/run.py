"""survmix benchmark: one workload per process, JSON result on the last line.

    python3 bench/run.py --workload desk_fit --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-check

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
and one traced pass and prints the per-layer metrics. The line before the
result is a JSON record of the environment, sample counts, check counts and
result digests. ``--self-check`` runs every workload at a tiny size in fresh
processes and checks that each metric named in BENCHMARK.json is present.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

# One BLAS/OpenMP thread, fixed before NumPy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Seeds 1-10 were used while the benchmark was defined; this one was not,
# and is kept for confirming later claims.
HELDOUT_SEED = 104729
WORKLOAD_NAMES = ("desk_fit", "wide_fit", "cli_pipeline")


def environment():
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def import_program():
    """Imports survmix from this checkout's src/, and from nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import survmix
    except ImportError as exc:
        sys.exit(f"error: cannot import survmix from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(survmix.__file__))) != SRC:
        sys.exit(f"error: survmix was imported from {survmix.__file__}, not {SRC}")


def run_workload(args):
    import_program()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work_dir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    run = workloads.Run(args.seed, args.seconds, work_dir)
    size = "smoke" if args.smoke else "full"
    try:
        if args.trace:
            metrics, counts, info = workloads.measure_traced(workload, run, size)
            units = workloads.per_layer_units()
        else:
            metrics, counts, info = workloads.measure(workload, run, size)
            units = workloads.END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size, "heldout_seed": HELDOUT_SEED,
        "environment": environment(), "samples": counts, "info": info,
        "digests": run.digests,
        "checks": run.checks,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0


def self_check():
    """Tiny runs of every workload, traced and untraced, each in a fresh
    process; every metric BENCHMARK.json names must come back."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            label = f"{name} --trace {trace}"
            found = []
            if proc.returncode != 0:
                found.append(f"exit {proc.returncode}: {proc.stderr[-500:]}")
            else:
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    found.append(f"result keys {sorted(result)}")
                if not result["correct"]:
                    checks = json.loads(lines[-2])["record"]["checks"]
                    found.append(f"failed checks {[k for k, (_, f) in checks.items() if f]}")
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    found.append("metrics differ from BENCHMARK.json: "
                                 f"missing {sorted(set(expected[trace]) - set(got))}, "
                                 f"extra {sorted(set(got) - set(expected[trace]))}")
            print(f"{label}: {'ok' if not found else 'FAILED'}")
            problems += [f"{label}: {line}" for line in found]
    for line in problems:
        print("PROBLEM:", line)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny input sizes, for checking the harness")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
