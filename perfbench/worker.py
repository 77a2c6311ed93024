"""One repetition of a benchmark workload, in a fresh interpreter.

usage: python3 perfbench/worker.py WORKLOAD SEED TMPDIR {setup,plain,traced}

Set-up (`setup_s`) is importing `trielab.cli` from the checkout's `src` plus
one tiny warm-up call.  Mode `setup` stops there.  Otherwise the timed phase
runs the workload's argv lists in-process through `trielab.cli.main` with
stdout captured, then the workload's checks run on the captured output.
`traced` installs the layer probes for the timed phase; `plain` first
asserts that none is installed.  The last stdout line is a JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

from workloads import CHAIN_FLAGS, WORKLOADS, Outcome

SRC = Path(__file__).resolve().parent.parent / "src"

WARMUP = ["simulate", *CHAIN_FLAGS, "--n", "8", "--m", "4", "--threads", "1",
          "--standardize", "oracle", "--json"]


def _call(main, argv) -> Outcome:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return Outcome(argv, code, out.getvalue())


def main() -> int:
    name, seed, tmp, mode = sys.argv[1:]
    workload, seed, tmp = WORKLOADS[name], int(seed), Path(tmp)

    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import trielab.cli

    warm = _call(trielab.cli.main, WARMUP)
    setup_s = time.perf_counter() - start
    if not Path(trielab.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"trielab imported from {trielab.cli.__file__}, not {SRC}")
    if warm.code != 0:
        raise SystemExit(f"warm-up call exited {warm.code}")
    result = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    import numpy
    import scipy

    import layers
    import spans

    tmp.mkdir(parents=True)
    argvs = workload.argvs(seed, tmp)
    tracer = None
    if mode == "traced":
        tracer = spans.Tracer()
        layers.install(tracer)
        root = tracer.open(layers.ROOT)
    else:
        spans.assert_unpatched(layers.PROBED_NAMES)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    outcomes = [_call(trielab.cli.main, argv) for argv in argvs]
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = []
    if tracer is not None:
        tracer.close(root)
        tracer.uninstall()
        spans.assert_unpatched(layers.PROBED_NAMES)
        result["layers"] = layers.layer_metrics(tracer.spans)
        checks += layers.invariants(tracer.spans, result["layers"], workload.kernel)
    checks += workload.check(seed, outcomes, tmp)
    result.update(
        wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=peak_rss_mb,
        checks=[list(c) for c in checks], argvs=argvs,
        versions={"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__},
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
