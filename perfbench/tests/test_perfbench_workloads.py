import json
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, Outcome

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", ["simulate-2048", "verify-full"])
@pytest.mark.parametrize("seed", [0, 7, 123456789])
def test_seed_reaches_the_cli_seed_flag(name, seed, tmp_path):
    (argv,) = WORKLOADS[name].argvs(seed, tmp_path)
    assert argv[argv.index("--seed") + 1] == str(seed)


def test_thread_counts_are_pinned_and_match_the_argv(tmp_path):
    for workload in WORKLOADS.values():
        for argv in workload.argvs(0, tmp_path):
            if "--threads" in argv:
                assert int(argv[argv.index("--threads") + 1]) == workload.threads
        assert 1 <= workload.threads <= 2


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {w["why"] for w in BENCHMARK["workloads"]} == {w.why for w in WORKLOADS.values()}
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.METRICS)


def test_verify_check_counts_failed_items():
    report = {"passed": False, "items": [
        {"name": "mean", "status": "pass", "detail": ""},
        {"name": "contraction", "status": "fail", "detail": "ks 0.06"}]}
    checks = WORKLOADS["verify-full"].check(0, [Outcome(["verify"], 1, json.dumps(report))],
                                            None)
    assert [c.ok for c in checks] == [False, False, True, False]
