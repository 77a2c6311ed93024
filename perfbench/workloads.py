"""The benchmark's workloads: the CLI argv lists each runs and the checks on its output.

Every workload runs the chain p00=0.6, p11=0.7, mu0=0.5 of the ROADMAP
baselines, with thread counts pinned (never 0 = auto).  This module imports
nothing beyond the standard library at load time, so the parent process of
a run can read the table without importing numpy or trielab.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

HERE = Path(__file__).resolve().parent

CHAIN = {"mu0": 0.5, "p00": 0.6, "p11": 0.7}
CHAIN_FLAGS = ["--p00", "0.6", "--p11", "0.7"]  # mu0 keeps the CLI default 0.5

SIM_N, SIM_M = 2048, 2000
ORACLE_N = 32768
POISSON_N, POISSON_LAMBDAS = 8192, "10,50,200,1000"
REBUILT_REPLICATES = 3
RESIDUAL_LIMIT = 1e-6  # the limit verify's own poisson item applies
REFERENCE_RTOL = 1e-9


class Outcome(NamedTuple):
    """One `trielab.cli.main(argv)` call of the timed phase."""

    argv: list
    code: int
    stdout: str


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    kernel: bool  # runs the Monte Carlo kernel, so the kernel invariants apply
    argvs: Callable[[int, Path], list]
    check: Callable[[int, list, Path], list]


def _csv_body(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def _report(outcome: Outcome) -> dict | None:
    try:
        return json.loads(outcome.stdout)
    except json.JSONDecodeError:
        return None


def _exit_checks(outcomes) -> list:
    return [Check(f"{o.argv[0]} exit 0", o.code == 0, f"exit {o.code}") for o in outcomes]


def _simulate_argvs(seed: int, tmp: Path) -> list:
    return [["simulate", *CHAIN_FLAGS, "--n", str(SIM_N), "--m", str(SIM_M),
             "--standardize", "oracle", "--threads", "1", "--seed", str(seed),
             "--samples", str(tmp / "samples.csv"), "--json"]]


def _check_simulate(seed: int, outcomes, tmp: Path) -> list:
    """Exit code, the report's flags, and exact rebuilds of a few replicates.

    The raw path length of replicate r is sample * scale + center + n; a
    trie built explicitly with `build_trie` from the same replicate seed
    must have exactly that external path length.
    """
    from trielab.markov_source import MarkovChain, generate_strings, replicate_seed
    from trielab.trie import build_trie

    checks = _exit_checks(outcomes)
    report = _report(outcomes[0])
    if report is None:
        return checks + [Check("simulate report is JSON", False, outcomes[0].stdout[:200])]
    checks += [Check(f"simulate {flag}", report["flags"][flag] is True,
                     str(report["flags"][flag])) for flag in ("mean_ok", "var_ok", "ks_ok")]
    samples = [float(row[0]) for row in _csv_body(tmp / "samples.csv")]
    checks.append(Check("simulate sample count", len(samples) == SIM_M, str(len(samples))))
    if len(samples) != SIM_M:
        return checks
    chain = MarkovChain(**CHAIN)
    for r in sorted(random.Random(seed).sample(range(SIM_M), REBUILT_REPLICATES)):
        raw = samples[r] * report["scale"] + report["center"] + SIM_N
        epl = build_trie(generate_strings(chain, SIM_N, replicate_seed(seed, r))).epl
        ok = abs(raw - round(raw)) <= 1e-6 and round(raw) == epl
        checks.append(Check(f"replicate {r} rebuilt by build_trie", ok,
                            f"sample gives {raw!r}, build_trie gives {epl}"))
    return checks


def _oracle_argvs(seed: int, tmp: Path) -> list:
    return [["oracle", *CHAIN_FLAGS, "--n-max", str(ORACLE_N),
             "--out", str(tmp / "oracle.csv"), "--json"],
            ["poisson-check", *CHAIN_FLAGS, "--n-max", str(POISSON_N),
             "--lambdas", POISSON_LAMBDAS, "--json"]]


def _check_oracle(seed: int, outcomes, tmp: Path) -> list:
    """Exit codes, reference rows of the CSV, and the worst split-identity residual."""
    checks = _exit_checks(outcomes)
    reference = json.loads((HERE / "oracle_reference.json").read_text())
    body = _csv_body(tmp / "oracle.csv")
    rows = {int(row[0]): [float(v) for v in row[1:]] for row in body[1:]}
    checks.append(Check("oracle row count", len(rows) == ORACLE_N + 1, str(len(rows))))
    for n, expected in reference["rows"].items():
        got = rows.get(int(n), [])
        ok = len(got) == len(expected) and all(
            math.isclose(g, e, rel_tol=REFERENCE_RTOL, abs_tol=0.0)
            for g, e in zip(got, expected))
        checks.append(Check(f"oracle row n={n} matches reference", ok, f"{got} vs {expected}"))
    report = _report(outcomes[1])
    worst = report["worst_residual"] if report else math.inf
    checks.append(Check("poisson-check worst_residual <= 1e-6", worst <= RESIDUAL_LIMIT,
                        f"{worst!r}"))
    return checks


def _verify_argvs(seed: int, tmp: Path) -> list:
    return [["verify", *CHAIN_FLAGS, "--budget", "full", "--threads", "2",
             "--seed", str(seed), "--json"]]


def _check_verify(seed: int, outcomes, tmp: Path) -> list:
    """Exit code, the scorecard's verdict and every item's status."""
    checks = _exit_checks(outcomes)
    report = _report(outcomes[0])
    if report is None:
        return checks + [Check("verify report is JSON", False, outcomes[0].stdout[:200])]
    checks.append(Check("verify passed", report["passed"] is True, str(report["passed"])))
    checks += [Check(f"verify item {item['name']} not failed", item["status"] != "fail",
                     item["detail"]) for item in report["items"]]
    return checks


WORKLOADS = {w.name: w for w in (
    Workload(
        "simulate-2048",
        "Monte Carlo kernel (trie + markov_source ~94% of work) at n=2048, 1 thread: kernel "
        "changes move wall_s, cpu_s, peak_rss_mb here; the ns-per-string run",
        threads=1, kernel=True, argvs=_simulate_argvs, check=_check_simulate),
    Workload(
        "oracle-32768",
        "exact DP (exact_moments ~93%, binomial_window ~53%, CLI CSV ~7%) at N=8192 and "
        "32768 on one chain: DP, table-cache and CSV changes move wall_s; kernel changes "
        "should not",
        threads=1, kernel=False, argvs=_oracle_argvs, check=_check_oracle),
    Workload(
        "verify-full",
        "the scorecard users run (verify quick is the same path): 30M strings in small "
        "tries over 2 threads, so small-n and parallel-scaling costs of kernel or "
        "clt_harness changes show",
        threads=2, kernel=True, argvs=_verify_argvs, check=_check_verify),
)}
