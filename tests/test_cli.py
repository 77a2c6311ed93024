import dataclasses
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import trielab
import trielab.cli
from trielab.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, main, schema_for
from trielab.exact_moments import MAX_HORIZON, compute_moment_table, root_split
from trielab.markov_source import MarkovChain
from trielab.spectral import sigma_squared, spectral_constants

CHAIN = ["--p00", "0.6", "--p11", "0.7"]
SUBCOMMANDS = ("analyze", "oracle", "poisson-check", "simulate",
               "contraction", "trie-stats", "verify")
ENVELOPE = ["manifest", "generated", "chain"]


@pytest.fixture
def builds(monkeypatch):
    """(chain, N) of every moment table the CLI builds, in call order."""
    calls = []

    def counting(chain, N):
        calls.append((chain, N))
        return compute_moment_table(chain, N)

    monkeypatch.setattr(trielab.cli, "compute_moment_table", counting)
    return calls


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def csv_body(path):
    """File content minus the timestamp line; manifest line is returned parsed."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1].startswith("# generated: ")
    manifest = json.loads(lines[0][len("# manifest: "):])
    return manifest, [lines[0]] + lines[2:]


def closed(schema):
    """`schema` with every object that lists its properties closed to others,
    nested ones and `$ref` targets included."""
    if isinstance(schema, list):
        return [closed(s) for s in schema]
    if not isinstance(schema, dict):
        return schema
    out = {k: closed(v) for k, v in schema.items()}
    if isinstance(schema.get("properties"), dict):
        out = {"additionalProperties": False, **out}
    return out


def validate(report, sub):
    """The report satisfies its schema, and the schema describes every field
    at every depth."""
    jsonschema.validate(report, closed(schema_for(sub)))


def assert_rerun_identical(capsys, path, body, *argv):
    """Rerunning the same flags rewrites `path` byte identical but for the timestamp."""
    code, _, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert csv_body(path)[1] == body


def test_schemas_ship_for_every_subcommand():
    files = resources.files("trielab.schemas")
    for sub in SUBCOMMANDS:
        schema = schema_for(sub)
        assert schema["$schema"].startswith("http://json-schema.org/")
        assert schema["required"][:3] == ENVELOPE
        assert {"chain", "manifest"} <= set(schema["definitions"])
        # the envelope lives in report.schema.json alone, not copied per subcommand
        own = json.loads(files.joinpath(sub.replace("-", "_") + ".schema.json").read_text())
        assert not {"$schema", "definitions"} & set(own)
        assert not set(ENVELOPE) & (set(own["properties"]) | set(own["required"]))


def test_analyze_json(capsys):
    code, report, _ = run_json(capsys, "analyze", *CHAIN)
    assert code == EXIT_OK
    validate(report, "analyze")
    assert report["chain"] == {"mu0": 0.5, "p00": 0.6, "p11": 0.7}
    assert report["H"] == pytest.approx(0.6374988870353349, abs=1e-13)
    assert report["sigma2"] == pytest.approx(0.44566789578520777, abs=1e-10)
    assert report["cond39"] is True
    assert report["manifest"]["subcommand"] == "analyze"
    # the report's fields are the library's dict as it is, in its order
    consts = spectral_constants(MarkovChain(0.5, 0.6, 0.7))
    assert list(consts) == ["H", "H0", "H1", "pi0", "pi1", "lambda_dot", "lambda_ddot",
                            "sigma2", "xi_s3", "cond39"]
    assert {k: report[k] for k in consts} == consts


def test_analyze_symmetric_chain_reports_zero_sigma2():
    # a whole process, so a warning would reach the real stderr rather than
    # pytest's warning capture
    src = Path(trielab.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "trielab", "analyze", "--p00", "0.5", "--p11", "0.5", "--json"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    report = json.loads(proc.stdout)
    validate(report, "analyze")
    assert report["sigma2"] == 0.0


def test_simulate_asymptotic_scale_rejects_symmetric_chain(capsys):
    code, out, err = run(capsys, "simulate", "--p00", "0.5", "--p11", "0.5",
                         "--n", "64", "--m", "20", "--standardize", "asymptotic")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("invalid request: all transition probabilities equal 1/2")


def test_simulate_asymptotic_scale_refuses_before_the_table(capsys, monkeypatch):
    # the refusal needs no moment table, so none is built for it, however
    # large the horizon
    def no_table(*args):
        raise AssertionError("moment table built for a symmetric chain")

    monkeypatch.setattr(trielab.cli, "compute_moment_table", no_table)
    code, out, err = run(capsys, "simulate", "--p00", "0.5", "--p11", "0.5",
                         "--n", "32768", "--m", "2", "--standardize", "asymptotic")
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("invalid request: all transition probabilities equal 1/2")


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", *CHAIN)
    assert code == EXIT_OK
    assert any(line.startswith("H = ") for line in out.splitlines())
    assert any(line.startswith("sigma2 = ") for line in out.splitlines())


def test_oracle_csv_reproducible(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code, report, _ = run_json(capsys, "oracle", *CHAIN, "--n-max", "32",
                               "--out", str(out))
    assert code == EXIT_OK
    validate(report, "oracle")
    assert len(report["head"]) == 9
    assert report["head"][2]["nu0"] == pytest.approx(335.0 / 78.0, abs=1e-12)
    manifest, body_a = csv_body(out)
    code, _, _ = run(capsys, "oracle", *CHAIN, "--n-max", "32",
                     "--out", str(out))
    assert code == EXIT_OK
    _, body_b = csv_body(out)
    assert manifest["subcommand"] == "oracle"
    assert body_a[1] == "n,nu0,nu1,var0,var1,f0,f1"
    assert len(body_a) == 2 + 33
    # same flags, byte identical apart from the timestamp line
    assert body_a == body_b


def test_oracle_symmetric_chain(tmp_path, capsys):
    # the error-term columns need no variance constant, so a symmetric chain
    # is a valid oracle request
    out = tmp_path / "table.csv"
    argv = ["oracle", "--p00", "0.5", "--p11", "0.5", "--n-max", "16", "--out", str(out)]
    code, report, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    validate(report, "oracle")
    manifest, body = csv_body(out)
    assert manifest["outputs"] == [str(out)]
    assert body[1] == "n,nu0,nu1,var0,var1,f0,f1"
    assert len(body) == 2 + 17
    code, text, _ = run(capsys, *argv)
    assert code == EXIT_OK
    assert text.splitlines()[-1] == f"wrote {out}"


def test_poisson_check_json(tmp_path, capsys):
    out = tmp_path / "resid.csv"
    argv = ["poisson-check", *CHAIN, "--lambdas", "5,20", "--n-max", "128",
            "--out", str(out)]
    code, report, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    validate(report, "poisson-check")
    assert len(report["rows"]) == 4
    assert report["worst_residual"] <= 1e-10
    _, body = csv_body(out)
    assert body[1] == "lambda,i,eq10_residual,lemma4_residual"
    assert len(body) == 2 + 4
    assert_rerun_identical(capsys, out, body, *argv)


def test_poisson_check_horizon_error(capsys):
    code, _, err = run(capsys, "poisson-check", *CHAIN,
                       "--lambdas", "4000", "--n-max", "64")
    assert code == EXIT_NUMERIC
    assert "numeric error" in err


def test_poisson_check_rejects_bad_rates(capsys, monkeypatch):
    for lambdas, message in (("inf", "finite and > 0"), ("nan", "finite and > 0"),
                             (",", "at least one rate")):
        code, out, err = run(capsys, "poisson-check", *CHAIN,
                             "--lambdas", lambdas, "--n-max", "64")
        assert code == EXIT_USAGE
        assert out == ""
        assert message in err

    # a bad rate is rejected before the moment table is built
    def no_table(*args):
        raise AssertionError("moment table built for a bad rate")

    monkeypatch.setattr(trielab.cli, "compute_moment_table", no_table)
    for lambdas in ("inf", "5,nan"):
        code, out, err = run(capsys, "poisson-check", *CHAIN,
                             "--lambdas", lambdas, "--n-max", "32768")
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite and > 0" in err


def test_poisson_check_refuses_a_rate_the_table_cannot_hold_before_building_it(
        capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("moment table built for a rate it cannot hold")

    monkeypatch.setattr(trielab.cli, "compute_moment_table", no_table)
    # --n-max itself is checked after the windows: below 0 a usage error,
    # above the cap a numeric one (a window beyond it is refused first, below)
    code, _, err = run(capsys, "poisson-check", *CHAIN, "--n-max", "-1")
    assert (code, err) == (EXIT_USAGE, "invalid request: horizon must be >= 0\n")
    code, out, err = run(capsys, "poisson-check", *CHAIN, "--n-max", "40000")
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err == f"numeric error: horizon 40000 exceeds cap {MAX_HORIZON}\n"
    code, out, err = run(capsys, "poisson-check", *CHAIN, "--lambdas", "4000", "--n-max", "64")
    assert (code, out) == (EXIT_NUMERIC, "")
    assert err == "numeric error: lambda=4000.0 needs table horizon >= 4772, have 64\n"
    # a need above the cap is named by the cap, not by a horizon no table can
    # reach (for 1e300 that was a 301-digit integer)
    for lambdas, n_max in (("40000", "32768"), ("10,1e300", "32768"), ("40000", "40000")):
        code, out, err = run(capsys, "poisson-check", *CHAIN, "--lambdas", lambdas,
                             "--n-max", n_max)
        assert (code, out) == (EXIT_NUMERIC, "")
        assert f"needs table horizon above the cap of {MAX_HORIZON}, have {n_max}" in err
        assert len(err) < 100


def test_table_built_once_and_served_as_read_only_prefix(capsys, builds, chain67, table67):
    # each subcommand builds one table, at the horizon it reads
    for argv in (("oracle", *CHAIN, "--n-max", "64"),
                 ("simulate", *CHAIN, "--n", "8", "--m", "50", "--threads", "1"),
                 ("verify", *CHAIN, "--budget", "quick", "--threads", "1")):
        assert run(capsys, *argv)[0] == EXIT_OK, argv
    assert builds == [(chain67, 64), (chain67, 8), (chain67, 8192)]
    # poisson-check's top window at its default rates ends at 1392 (lambda =
    # 1000) and the slope reads one slot past it; --n-max only bounds the
    # windows, so the rows equal those read from the prefix of a table to --n-max
    builds.clear()
    code, report, _ = run_json(capsys, "poisson-check", *CHAIN)
    assert code == EXIT_OK
    assert builds == [(chain67, 1393)]
    rows, worst = trielab.cli._residual_rows(table67, [10.0, 50.0, 200.0, 1000.0])
    assert report["rows"] == rows
    assert report["worst_residual"] == worst
    small = compute_moment_table(chain67, 1393)
    assert np.array_equal(small.nu, table67.nu[:, :1394])
    assert np.array_equal(small.var, table67.var[:, :1394])
    with pytest.raises(dataclasses.FrozenInstanceError):
        small.N = 8192
    # --n-max, not a table, bounds the Poisson window: refused before any build
    code, _, err = run(capsys, "poisson-check", *CHAIN, "--n-max", "100",
                       "--lambdas", "1000")
    assert code == EXIT_NUMERIC
    assert "have 100" in err
    assert builds == [(chain67, 1393)]


def test_table_rebuilt_for_other_chain_or_longer_horizon(capsys, builds):
    requests = [
        ((), "64"),
        ((), "32"),  # shorter, same chain
        (("--mu0", "0.3"), "32"),  # mu0 enters table.chain, so it is a new chain
        (("--mu0", "0.3"), "64"),
        (("--mu0", "0.3", "--p11", "0.71"), "64"),
        (("--mu0", "0.3", "--p11", "0.71"), "128"),  # longer horizon
        (("--mu0", "0.3", "--p11", "0.71"), "64"),
    ]
    for extra, n_max in requests:
        code, _, _ = run(capsys, "oracle", *CHAIN, *extra, "--n-max", n_max)
        assert code == EXIT_OK
    # no table outlives its subcommand: every request builds its own
    assert builds == [(MarkovChain(0.5, 0.6, 0.7), 64), (MarkovChain(0.5, 0.6, 0.7), 32),
                      (MarkovChain(0.3, 0.6, 0.7), 32), (MarkovChain(0.3, 0.6, 0.7), 64),
                      (MarkovChain(0.3, 0.6, 0.71), 64), (MarkovChain(0.3, 0.6, 0.71), 128),
                      (MarkovChain(0.3, 0.6, 0.71), 64)]
    # a negative horizon reaches the builder, which refuses it
    code, _, err = run(capsys, "oracle", *CHAIN, "--n-max", "-1")
    assert (code, err) == (EXIT_USAGE, "invalid request: horizon must be >= 0\n")


def test_simulate_json_and_samples(tmp_path, capsys):
    samples = tmp_path / "cloud.csv"
    argv = ["simulate", *CHAIN, "--n", "64", "--m", "300", "--seed", "5",
            "--standardize", "oracle", "--samples", str(samples)]
    code, report, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    validate(report, "simulate")
    assert report["config"]["n"] == 64 and report["config"]["m"] == 300
    assert report["scale"] > 0.0
    assert set(report["flags"]) == {"mean_ok", "var_ok", "ks_ok"}
    _, body = csv_body(samples)
    assert len(body) == 1 + 300  # manifest line + one value per replicate
    float(body[1])  # raw values, no header
    assert_rerun_identical(capsys, samples, body, *argv)


@pytest.mark.parametrize("mu0", ["0.5", "1"])
def test_simulate_reports_exact_center_and_mode_scale(capsys, mu0):
    # center is the exact mean in both modes; the scale is the oracle sd or
    # the asymptotic sqrt(sigma^2 n ln n)
    chain, n = MarkovChain(float(mu0), 0.6, 0.7), 64
    table = compute_moment_table(chain, n)
    center, variance = root_split(chain, table, n)
    scales = {"oracle": math.sqrt(variance),
              "asymptotic": math.sqrt(sigma_squared(chain)[1] * n * math.log(n))}
    for mode, scale in scales.items():
        code, report, _ = run_json(capsys, "simulate", "--mu0", mu0, *CHAIN, "--n", str(n),
                                   "--m", "50", "--standardize", mode)
        assert code == EXIT_OK
        assert report["center"] == center
        assert report["scale"] == scale
        if chain.mu0 == 1.0:
            # every string starts in state 0: the oracle's row 0 exactly
            assert report["center"] == table.nu[0][n]


def test_simulate_depth_cap_exits_numeric(capsys):
    code, out, err = run(capsys, "simulate", "--p00", "0.5", "--p11", "0.999999999",
                         "--n", "64", "--m", "20", "--threads", "1", "--seed", "1")
    assert code == EXIT_NUMERIC
    assert out == ""
    assert "in replicate" in err and "share a prefix of length 896" in err


def test_simulate_rejects_tiny_n(capsys):
    code, _, err = run(capsys, "simulate", *CHAIN, "--n", "1", "--m", "10")
    assert code == EXIT_USAGE
    assert "n >= 2" in err


def test_simulate_rejects_tiny_m_before_building_table(capsys, builds):
    code, out, err = run(capsys, "simulate", *CHAIN, "--n", "32768", "--m", "1")
    assert code == EXIT_USAGE
    assert out == ""
    assert "m >= 2" in err
    assert builds == []


@pytest.mark.parametrize("sub", ["simulate", "verify"])
def test_negative_threads_is_usage_error(capsys, monkeypatch, sub):
    # rejected before the moment table is built, as a bad Poisson rate is
    def no_table(*args):
        raise AssertionError("moment table built for a bad thread count")

    monkeypatch.setattr(trielab.cli, "compute_moment_table", no_table)
    extra = ["--n", "32768", "--m", "20"] if sub == "simulate" else []
    code, out, err = run(capsys, sub, *CHAIN, *extra, "--threads", "-4")
    assert code == EXIT_USAGE
    assert out == ""
    assert "threads must be >= 0 (0 = auto), got -4" in err


def test_contraction_rejects_negative_iters(capsys):
    code, out, err = run(capsys, "contraction", *CHAIN, "--iters", "-3")
    assert code == EXIT_USAGE
    assert out == ""
    assert "iters >= 0" in err


def test_contraction_refuses_iters_above_cap(capsys, monkeypatch):
    def no_law(*args):
        raise AssertionError("law measured above the cap")

    monkeypatch.setattr(trielab.cli, "law_ks", no_law)
    cap = trielab.cli.MAX_CONTRACTION_ITERS
    code, out, err = run(capsys, "contraction", *CHAIN, "--iters", str(cap + 1))
    assert code == EXIT_USAGE
    assert out == ""
    assert f"iters {cap + 1} is above the cap of {cap} iterations" in err


@pytest.mark.parametrize("flag", [["--m", "2000"], ["--m", "0.5"], ["--seed", "1"]])
def test_contraction_has_no_sample_size_or_seed(capsys, flag):
    # the laws are exact; --m must not pass as a prefix of --mu0 either
    with pytest.raises(SystemExit) as exc:
        main(["contraction", *CHAIN, "--iters", "2", *flag])
    assert exc.value.code == EXIT_USAGE
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["oracle", *CHAIN, "--n-max", "32", "--out", "{missing}/table.csv"],
    ["simulate", *CHAIN, "--n", "64", "--m", "20", "--threads", "1", "--samples", "{dir}"],
    ["trie-stats", *CHAIN, "--n", "50", "--histogram", "{missing}/hist.csv"],
], ids=["out", "samples", "histogram"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv):
    argv = [a.format(missing=tmp_path / "missing", dir=tmp_path) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("cannot write output: ") and err.count("\n") == 1
    assert argv[-1] in err


def test_invalid_chain_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "--p00", "1.0", "--p11", "0.7")
    assert code == EXIT_USAGE
    assert "invalid request" in err


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--p00", "0.6"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_no_subcommand_prints_help(capsys):
    code, _, err = run(capsys)
    assert code == EXIT_USAGE
    assert "usage:" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()


def test_public_names_resolve():
    # a name dropped from the package but left in __all__ breaks `import *`
    missing = [name for name in trielab.__all__ if getattr(trielab, name, None) is None]
    assert missing == []


def test_contraction_json(tmp_path, capsys):
    out = tmp_path / "iters.csv"
    argv = ["contraction", *CHAIN, "--iters", "2", "--out", str(out)]
    code, report, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    validate(report, "contraction")
    assert report["manifest"]["seed"] is None
    assert [r["iteration"] for r in report["rows"]] == [0, 1, 2]
    assert report["final_ks"] == pytest.approx(
        max(report["rows"][-1]["ks0"], report["rows"][-1]["ks1"]))
    _, body = csv_body(out)
    assert body[1] == "iteration,ks0,ks1"
    assert len(body) == 2 + 3
    assert_rerun_identical(capsys, out, body, *argv)


def test_trie_stats_json(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    argv = ["trie-stats", *CHAIN, "--n", "500", "--seed", "3", "--histogram", str(hist)]
    code, report, _ = run_json(capsys, *argv)
    assert code == EXIT_OK
    validate(report, "trie-stats")
    assert report["epl"] == 5713
    assert report["size"] == 829
    assert report["height"] == 21
    counts = report["depth_histogram"]
    assert sum(counts) == 500
    assert sum(d * c for d, c in enumerate(counts)) == report["epl"]
    _, body = csv_body(hist)
    assert body[1] == "depth,count"
    assert len(body) == 2 + len(counts)
    assert_rerun_identical(capsys, hist, body, *argv)


def assert_margins_decide(items):
    """Each run item passes iff its margin value/limit is at most 1; a skipped
    item has no margin."""
    for item in items:
        if item["status"] == "skipped":
            assert item["margin"] is None, item
        else:
            assert (item["status"] == "pass") == (item["margin"] <= 1.0), item


def test_verify_quick_symmetric_skips(capsys):
    code, report, _ = run_json(capsys, "verify", "--p00", "0.5", "--p11", "0.5",
                               "--budget", "quick")
    assert code == EXIT_OK
    validate(report, "verify")
    status = {item["name"]: item["status"] for item in report["items"]}
    # only the variance constant is undefined; the oracle sd scales clt_ks
    assert status["variance_fit"] == "skipped"
    for name in ("spectral", "mean", "poisson", "clt_ks", "contraction"):
        assert status[name] == "pass"
    assert report["passed"] is True
    assert [item["name"] for item in report["items"]] == [
        "spectral", "mean", "poisson", "variance_fit", "clt_ks", "contraction"]
    assert_margins_decide(report["items"])


def test_verify_quick_margins(capsys):
    code, report, _ = run_json(capsys, "verify", *CHAIN, "--budget", "quick")
    assert code == EXIT_OK
    validate(report, "verify")
    assert all(item["status"] == "pass" for item in report["items"])
    assert_margins_decide(report["items"])


def test_verify_failed_item_exits_one_with_margin(capsys, monkeypatch):
    monkeypatch.setattr(trielab.cli, "check_mean_decomposition", lambda *args: 1.0)
    code, report, err = run_json(capsys, "verify", *CHAIN, "--budget", "quick")
    assert code == EXIT_VERIFY_FAILED
    validate(report, "verify")
    assert report["passed"] is False
    poisson = next(item for item in report["items"] if item["name"] == "poisson")
    assert poisson["status"] == "fail"
    assert poisson["margin"] == pytest.approx(1e6)
    assert poisson["detail"] == "worst residual 1.00e+00 (limit 1e-06)"
    assert "'poisson'" in err
    assert_margins_decide(report["items"])


def test_cli_imports_no_scipy(tmp_path):
    # scipy is a test dependency only: no subcommand may load any part of it
    argvs = [
        ["analyze", *CHAIN],
        ["oracle", *CHAIN, "--n-max", "32", "--out", str(tmp_path / "oracle.csv")],
        ["poisson-check", *CHAIN, "--lambdas", "5,20", "--n-max", "128"],
        ["simulate", *CHAIN, "--n", "64", "--m", "300", "--seed", "5"],
        ["contraction", *CHAIN, "--iters", "2"],
        ["trie-stats", *CHAIN, "--n", "500", "--seed", "3"],
        ["verify", *CHAIN, "--budget", "quick"],
    ]
    assert [argv[0] for argv in argvs] == list(SUBCOMMANDS)
    script = f"""
import contextlib, io, sys
from trielab.cli import main
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
"""
    src = Path(trielab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_every_csv_writer_keeps_one_type_per_column(tmp_path, capsys, monkeypatch):
    # the writer builds one `%` format from the first row's types (`%d` for
    # an int), so a later float in an int column would be printed truncated
    seen = {}
    original = trielab.cli._write_csv

    def recording(path, manifest, header, rows):
        rows = [tuple(row) for row in rows]
        seen[manifest["subcommand"]] = [{type(v) for v in column} for column in zip(*rows)]
        original(path, manifest, header, rows)

    monkeypatch.setattr(trielab.cli, "_write_csv", recording)
    for argv in (["oracle", *CHAIN, "--n-max", "32", "--out"],
                 ["poisson-check", *CHAIN, "--lambdas", "5,20", "--n-max", "128", "--out"],
                 ["simulate", *CHAIN, "--n", "64", "--m", "300", "--seed", "5", "--samples"],
                 ["contraction", *CHAIN, "--iters", "2", "--out"],
                 ["trie-stats", *CHAIN, "--n", "500", "--seed", "3", "--histogram"]):
        assert run(capsys, *argv, str(tmp_path / f"{argv[0]}.csv"))[0] == EXIT_OK
    assert set(seen) == set(SUBCOMMANDS) - {"analyze", "verify"}
    for sub, columns in seen.items():
        assert columns and all(len(types) == 1 for types in columns), (sub, columns)
