"""Run one trielab benchmark workload and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition is a fresh interpreter
(perfbench/worker.py) that imports trielab from the checkout's `src`, so
set-up time and peak RSS are those of one CLI invocation.  Repetitions
continue while the next one is expected to end within `--seconds`, with at
least two.  With `--trace 0` the result holds the end-to-end metrics: the
medians of `wall_s`, `cpu_s` and `peak_rss_mb` over the repetitions and of
`setup_s` over at least eleven set-ups.  With `--trace 1` plain and traced
repetitions alternate; the result holds the medians of the per-layer
metrics of the traced ones and `trace.overhead_s`, the traced minus the
plain median wall time.

Every check a repetition makes counts in `attempted`; a failed one counts
in `failed`.  The last stdout line is the JSON result; earlier lines give
one summary per repetition and the stamp (versions, nproc, argv, ...).
Exits 1 without a result when a repetition cannot run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from layers import METRICS
from workloads import CHAIN, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_SETUPS = 11
MIN_REPS = 2
DEADLINE_S = 170.0  # a run must end within 180 s
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class RepetitionFailed(RuntimeError):
    pass


def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _repetition(name: str, seed: int, tmp: Path, mode: str, timeout: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), name, str(seed), str(tmp), mode],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise RepetitionFailed(f"{mode} repetition exceeded {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise RepetitionFailed(f"{mode} repetition exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def _measure(args, tmp: Path) -> tuple[list, list, list]:
    """Plain repetitions, traced repetitions and set-up times of one run."""
    plain, traced, setups, durations = [], [], [], []
    start = time.perf_counter()
    while True:
        mode = "traced" if args.trace and len(traced) < len(plain) else "plain"
        began = time.perf_counter()
        rep = _repetition(args.workload, args.seed, tmp / f"rep{len(durations)}", mode,
                          DEADLINE_S - (began - start))
        durations.append(time.perf_counter() - began)
        (traced if mode == "traced" else plain).append(rep)
        setups.append(rep["setup_s"])
        print(f"{mode} repetition: wall {rep['wall_s']:.3f} s, cpu {rep['cpu_s']:.3f} s, "
              f"setup {rep['setup_s']:.3f} s, peak rss {rep['peak_rss_mb']:.1f} MB, "
              f"checks failed {sum(not ok for _, ok, _ in rep['checks'])}"
              f"/{len(rep['checks'])}", flush=True)
        next_end = time.perf_counter() - start + statistics.median(durations)
        if next_end > DEADLINE_S or (len(durations) >= MIN_REPS and next_end > args.seconds):
            break
    while (not args.trace and len(setups) < MIN_SETUPS
           and time.perf_counter() - start < DEADLINE_S - 10.0):
        setups.append(_repetition(args.workload, args.seed, tmp, "setup",
                                  DEADLINE_S - (time.perf_counter() - start))["setup_s"])
    return plain, traced, setups


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench_tmp-", dir=ROOT) as tmp:
            plain, traced, setups = _measure(args, Path(tmp))
            if args.trace and not traced:
                raise RepetitionFailed("no traced repetition fitted in the deadline")
            argvs = [[a.replace(tmp, "<tmp>") for a in argv] for argv in plain[0]["argvs"]]
    except RepetitionFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    checks = [check for rep in plain + traced for check in rep["checks"]]
    failed = [(name, detail) for name, ok, detail in checks if not ok]
    for name, detail in failed:
        print(f"FAILED check {name}: {detail}", file=sys.stderr)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        metrics = {name: _metric(statistics.median(r["layers"][name] for r in traced), unit)
                   for name, unit in METRICS.items() if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = _metric(
            statistics.median(r["wall_s"] for r in traced) - plain_wall, "s")
    else:
        values = {name: statistics.median(r[name] for r in plain)
                  for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(setups)
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": _git_sha(), "source_sha256": _source_sha256(),
        **plain[0]["versions"], "nproc": os.cpu_count(),
        "threads": WORKLOADS[args.workload].threads, "chain": CHAIN, "argvs": argvs,
        "repetitions": {"plain": len(plain), "traced": len(traced), "setups": len(setups)},
    }
    print("stamp: " + json.dumps(stamp))
    print(json.dumps({
        "correct": bool(checks) and not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
