"""Byte-identity pins: fixed argvs held to the digests in pins.json.

Run `python -m pytest -q pins`; tier-1's testpaths leave it out.  Each case
runs one argv in-process, through `trielab.cli.main` or, for `scripts/...`,
the script as __main__, with "{tmp}" set to tmp_path.  It compares the exit
code, stderr, the sha256 of stdout (its "generated" stamp masked) and that of
each written CSV body (its lines not starting with "#"), tmp_path read as
<tmp>.  The digests are Linux float bits (numpy on OpenBLAS, glibc's libm).
A moved pin is a contract change: the failure prints the new entry, and the
change that pastes it in says in CHANGES.md which bodies moved, and why.
"""

import contextlib
import hashlib
import io
import json
import re
import runpy
import sys
from pathlib import Path

import pytest

from trielab.cli import main

ROOT = Path(__file__).resolve().parents[1]
CASES = json.loads(Path(__file__).with_name("pins.json").read_text())


def run(argv, tmp_path, monkeypatch):
    """(exit code, stdout, stderr) of one argv, tmp_path written as <tmp>."""
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to it
    code, out, err = 0, io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if argv and argv[0].startswith("scripts/"):
                monkeypatch.setattr(sys, "argv", argv)
                runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
            else:
                sys.exit(main(argv))
        except SystemExit as exc:
            code = exc.code
    return code, *(s.getvalue().replace(str(tmp_path), "<tmp>") for s in (out, err))


def outcome(argv, tmp_path, monkeypatch) -> dict:
    """One case as pins.json holds it."""
    code, out, err = run(argv, tmp_path, monkeypatch)
    out = re.sub(r'"generated": "[^"]*"', '"generated": "<masked>"', out)
    bodies = {}
    for path in sorted(p for p in tmp_path.rglob("*") if p.is_file()):
        lines = path.read_bytes().splitlines(keepends=True)
        body = b"".join(line for line in lines if not line.startswith(b"#"))
        bodies[path.relative_to(tmp_path).as_posix()] = hashlib.sha256(body).hexdigest()
    return {"argv": argv, "exit": code, "stderr": err,
            "stdout": hashlib.sha256(out.encode()).hexdigest(), "bodies": bodies}


@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]) or "(none)")
def test_pin(case, tmp_path, monkeypatch):
    got = outcome(case["argv"], tmp_path, monkeypatch)
    assert got == case, "new entry: " + json.dumps(got)


def test_every_script_has_a_help_pin():
    # so a new script's failed import shows here too
    helped = {case["argv"][0] for case in CASES if case["argv"][1:] == ["--help"]}
    assert helped == {f"scripts/{path.name}" for path in (ROOT / "scripts").glob("*.py")}


def test_contraction_reaches_the_iteration_cap(tmp_path, monkeypatch):
    # the exact map's longest run: a class of tiny weight and large
    # multiplicity lost to rounding in log sinc shows as a KS that climbs back
    # up, or stalls above the 1.7e-7 grid floor (3.9e-6 at 40 steps without
    # the small-argument series)
    code, out, _ = run(["contraction", "--p00", "0.6", "--p11", "0.7", "--iters", "40",
                        "--json"], tmp_path, monkeypatch)
    report = json.loads(out)
    rows, final = report["rows"], report["final_ks"]
    assert (code, rows[-1]["iteration"]) == (0, 40)
    assert final <= max(rows[10]["ks0"], rows[10]["ks1"]) and final <= 1e-6
