"""Record one benchmark run of each workload as BENCH_<N>.json.

    python scripts/bench_record.py N [--repo DIR]

Runs ``python perfbench/run.py --workload W --seed 1`` in the checkout
DIR (this repository by default) for each workload named in its
BENCHMARK.json, keeps the final line of each run's output (the run's JSON
result) and writes them, with the machine, the Python version and DIR's git
commit, to BENCH_<N>.json at the top of this repository.  ``dirty`` says that
tracked files differed from that commit, as they do before a change is
committed.  ``--repo`` records
another checkout, such as a clone of an earlier commit, into this one.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1  # the benchmark's default seed; seed 2 is held out for gain claims


def record(repo):
    """The BENCH document for the checkout at ``repo``."""
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    runs = {}
    for workload in spec["workloads"]:
        argv = [sys.executable, "perfbench/run.py", "--workload", workload["name"],
                "--seed", str(SEED)]
        out = subprocess.run(argv, cwd=repo, capture_output=True, text=True)
        lines = out.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.exit(f"{workload['name']}: no result (exit {out.returncode})\n{out.stderr}")
        runs[workload["name"]] = json.loads(lines[-1])
    def git(*args):
        return subprocess.run(["git", *args], cwd=repo, check=True,
                              capture_output=True, text=True).stdout.strip()

    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "seed": SEED,
        "workloads": runs,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("n", type=int, help="the number N in BENCH_<N>.json")
    p.add_argument("--repo", type=Path, default=ROOT, help="the checkout to run")
    args = p.parse_args(argv)
    doc = record(args.repo.resolve())
    path = ROOT / f"BENCH_{args.n}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
