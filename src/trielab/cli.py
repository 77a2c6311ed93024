"""Command line front end.

Subcommands: analyze, oracle, poisson-check, simulate, contraction,
trie-stats, verify.  All numerics live in the library modules; this layer
only parses flags, dispatches, and formats output, so tests can bypass it.

Every artifact embeds a run manifest: JSON reports carry it under
"manifest", CSV files as a leading "# manifest:" comment.  The manifest
excludes timestamps (those go on a separate "# generated:" line), so
re-running the same flags reproduces byte-identical CSV bodies.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 numeric error
(horizon too small or large, depth cap hit, degenerate scale).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from importlib import resources

from trielab import __version__
from trielab.clt_harness import (
    BadScale,
    SimulationConfig,
    SingularFit,
    apply_T,
    fit_variance_growth,
    ks_distance,
    simulate_epl,
    standardization_parameters,
    standardize,
    uniform_cloud,
)
from trielab.exact_moments import (
    HorizonTooLarge,
    compute_moment_table,
    error_terms,
    mean_for_initial,
    variance_for_initial,
)
from trielab.markov_source import (
    MarkovChain,
    SymmetricChain,
    entropy_rate,
    generate_strings,
    replicate_seed,
)
from trielab.poisson_analysis import (
    HorizonTooSmall,
    check_mean_decomposition,
    check_variance_decomposition,
)
from trielab.spectral import lambda_derivatives, lambda_of_s, sigma_squared, spectral_constants
from trielab.trie import DepthExceeded, build_trie

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _fmt(x) -> str:
    """17 significant digits: round-trip safe for 64-bit floats."""
    return format(float(x), ".17g")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _chain_of(args) -> MarkovChain:
    return MarkovChain(args.mu0, args.p00, args.p11)


def _write_csv(path: str, manifest: dict, header, rows) -> None:
    """Manifest and timestamp comment lines, then the rows; ints print as is, floats by _fmt."""
    with open(path, "w", newline="") as fh:
        fh.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        fh.write("# generated: " + _now() + "\n")
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        writer.writerows([str(v) if isinstance(v, int) else _fmt(v) for v in row]
                         for row in rows)


def _finish(args, chain: MarkovChain, config: dict, fields: dict, lines: list,
            out: str | None = None, header=None, rows=()) -> int:
    """The one output path of every subcommand.

    `config` and `fields` are the subcommand's own manifest config and report
    fields; the chain fields are added here.  With `out` set, `header` (None
    for none) and `rows` go to that CSV and the text output says so.  Prints
    the JSON report under --json, else the text lines.
    """
    config = {**chain.as_dict(), **config}
    manifest = {
        "subcommand": args.subcommand,
        "version": __version__,
        "seed": config.get("seed"),
        "config": config,
        "outputs": [out] if out else [],
    }
    if out:
        _write_csv(out, manifest, header, rows)
        lines = [*lines, f"wrote {out}"]
    if args.json:
        report = {"manifest": manifest, "generated": _now(), "chain": chain.as_dict(), **fields}
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(*lines, sep="\n")
    return EXIT_OK


def schema_for(subcommand: str) -> dict:
    """Parsed JSON schema shipped with the package for one subcommand's report."""
    name = subcommand.replace("-", "_") + ".schema.json"
    return json.loads(resources.files("trielab.schemas").joinpath(name).read_text())


# ---------------------------------------------------------------- subcommands


def _cmd_analyze(args) -> int:
    chain = _chain_of(args)
    consts = spectral_constants(chain, mode="report")
    fields = {
        "H": consts.H,
        "H0": consts.H0,
        "H1": consts.H1,
        "pi0": consts.pi0,
        "pi1": consts.pi1,
        "lambda_dot": consts.lam_dot_m1,
        "lambda_ddot": consts.lam_ddot_m1,
        "sigma2": consts.sigma2_explicit,
        "xi_s3": consts.xi(3.0),
        "cond39": consts.condition_39,
    }
    lines = [f"{k} = {v}" for k, v in fields.items()]
    return _finish(args, chain, {}, fields, lines)


def _cmd_oracle(args) -> int:
    chain = _chain_of(args)
    table = compute_moment_table(chain, args.n_max)
    f = error_terms(table, entropy_rate(chain)[0])
    columns = {"nu0": table.nu[0], "nu1": table.nu[1], "var0": table.var[0],
               "var1": table.var[1], "f0": f[0], "f1": f[1]}
    # memoryviews read out plain floats, which the CSV writer formats faster
    # than numpy scalars, without holding the table as Python objects at once
    columns = {name: memoryview(col) for name, col in columns.items()}
    head = [{"n": k, **{name: col[k] for name, col in columns.items()}}
            for k in range(min(args.n_max, 8) + 1)]
    lines = [f"moment table up to n = {args.n_max}"]
    lines += [f"  n={r['n']}: nu0={r['nu0']:.6f} nu1={r['nu1']:.6f} "
              f"var0={r['var0']:.6f} var1={r['var1']:.6f}" for r in head[2:6]]
    rows = ([k, *values] for k, values in enumerate(zip(*columns.values())))
    return _finish(args, chain, {"n_max": args.n_max, "seed": None},
                   {"n_max": args.n_max, "out": args.out, "head": head}, lines,
                   args.out, ["n", *columns], rows)


def _cmd_poisson_check(args) -> int:
    chain = _chain_of(args)
    lams = [float(tok) for tok in args.lambdas.split(",") if tok.strip()]
    table = compute_moment_table(chain, args.n_max)
    rows = [{"lambda": lam, "i": i,
             "eq10_residual": check_mean_decomposition(table, i, lam),
             "lemma4_residual": check_variance_decomposition(table, i, lam)}
            for lam in lams for i in (0, 1)]
    worst = max(max(r["eq10_residual"], r["lemma4_residual"]) for r in rows)
    lines = [f"lambda={r['lambda']:g} i={r['i']}: "
             f"mean residual {r['eq10_residual']:.3e}, "
             f"variance residual {r['lemma4_residual']:.3e}" for r in rows]
    lines.append(f"worst residual {worst:.3e}")
    return _finish(
        args, chain, {"lambdas": lams, "n_max": args.n_max, "seed": None},
        {"rows": rows, "worst_residual": worst}, lines,
        args.out, list(rows[0]), (r.values() for r in rows),
    )


def _cmd_simulate(args) -> int:
    chain = _chain_of(args)
    if args.n < 2:
        print("simulate: need n >= 2 for a standardized run", file=sys.stderr)
        return EXIT_USAGE
    cfg = SimulationConfig(
        chain, args.n, args.m, args.seed, initial="mu",
        standardization=args.standardize,
    )
    table = compute_moment_table(chain, max(16, args.n))
    sig2 = sigma_squared(chain)[1] if args.standardize == "asymptotic" else 0.0
    cloud = simulate_epl(cfg, threads=args.threads)
    center, scale = standardization_parameters(cfg, table, sig2)
    std = standardize(cloud, center, scale)
    summary = std.summary()
    config = {
        **chain.as_dict(), "n": args.n, "m": args.m, "seed": args.seed,
        "initial": "mu", "standardize": args.standardize,
    }
    flags = ("mean_ok", "var_ok", "ks_ok")
    fields = {
        "config": config,
        "center": center,
        "scale": scale,
        **{k: summary[k] for k in ("mean", "var", "skew", "kurt", "ks")},
        "flags": {k: summary[k] for k in flags},
    }
    lines = [
        f"m={args.m} tries of n={args.n} strings, seed {args.seed}",
        f"center {center:.6f}  scale {scale:.6f} ({args.standardize})",
        f"mean {summary['mean']:+.5f}  var {summary['var']:.5f}  "
        f"skew {summary['skew']:+.4f}  kurt {summary['kurt']:+.4f}",
        f"ks to standard normal {summary['ks']:.5f}",
        "flags " + " ".join(f"{k}={summary[k]}" for k in flags),
    ]
    return _finish(args, chain, config, fields, lines,
                   args.samples, None, ([v] for v in std.samples))


def _cmd_contraction(args) -> int:
    chain = _chain_of(args)
    cloud0 = cloud1 = uniform_cloud(args.m, args.seed)
    rows = [{"iteration": 0, "ks0": ks_distance(cloud0), "ks1": ks_distance(cloud1)}]
    for it in range(1, args.iters + 1):
        cloud0, cloud1 = apply_T(cloud0, cloud1, chain, replicate_seed(args.seed, it))
        rows.append({"iteration": it, "ks0": ks_distance(cloud0),
                     "ks1": ks_distance(cloud1)})
    lines = [f"iter {r['iteration']:2d}: ks0={r['ks0']:.5f} ks1={r['ks1']:.5f}"
             for r in rows]
    return _finish(
        args, chain, {"iters": args.iters, "m": args.m, "seed": args.seed},
        {"rows": rows, "final_ks": max(rows[-1]["ks0"], rows[-1]["ks1"])}, lines,
        args.out, list(rows[0]), (r.values() for r in rows),
    )


def _cmd_trie_stats(args) -> int:
    chain = _chain_of(args)
    stats = build_trie(generate_strings(chain, args.n, args.seed)).stats()
    hist = [int(c) for c in stats.depth_histogram]
    lines = [
        f"trie over n={args.n} strings, seed {args.seed}",
        f"external path length {stats.epl}",
        f"internal nodes {stats.size}  height {stats.height}",
    ]
    return _finish(
        args, chain, {"n": args.n, "seed": args.seed},
        {"n": args.n, "epl": stats.epl, "size": stats.size, "height": stats.height,
         "depth_histogram": hist}, lines,
        args.histogram, ["depth", "count"], enumerate(hist),
    )


def _cmd_verify(args) -> int:
    chain = _chain_of(args)
    quick = args.budget == "quick"
    seed = args.seed
    items = []

    def record(name: str, status: str, detail: str) -> None:
        items.append({"name": name, "status": status, "detail": detail})

    table = compute_moment_table(chain, 8192)

    # 1. spectral self-consistency
    lam_m1 = lambda_of_s(chain, -1.0)
    H, _, _ = entropy_rate(chain)
    lam_dot, _ = lambda_derivatives(chain)
    sig2 = None
    ok = abs(lam_m1 - 1.0) <= 1e-12 and abs(lam_dot - H) <= 1e-6
    detail = f"|lambda(-1)-1|={abs(lam_m1 - 1.0):.2e}, |lambda_dot-H|={abs(lam_dot - H):.2e}"
    if chain.is_asymmetric:
        eigen, explicit = sigma_squared(chain)
        rel = abs(eigen - explicit) / abs(explicit)
        ok = ok and rel <= 1e-8
        detail += f", sigma2 forms rel diff {rel:.2e}"
        sig2 = explicit
    else:
        detail += ", sigma2 comparison skipped (symmetric chain)"
    record("spectral", "pass" if ok else "fail", detail)

    # 2. oracle mean vs simulation
    grid = [256] if quick else [16, 256, 1024]
    m = 4000 if quick else 20000
    worst_z = 0.0
    for n in grid:
        cloud = simulate_epl(
            SimulationConfig(chain, n, m, replicate_seed(seed, n)),
            threads=args.threads,
        )
        mu = mean_for_initial(chain, table, n)
        se = math.sqrt(variance_for_initial(chain, table, n) / m)
        worst_z = max(worst_z, abs(cloud.mean() - mu) / se)
    record("mean", "pass" if worst_z <= 4.0 else "fail",
           f"worst |z| = {worst_z:.2f} over n in {grid} (limit 4)")

    # 3. Poissonized decompositions
    lams = [10.0, 50.0, 200.0] if quick else [10.0, 50.0, 200.0, 1000.0]
    worst = max(
        max(check_mean_decomposition(table, i, lam),
            check_variance_decomposition(table, i, lam))
        for lam in lams for i in (0, 1)
    )
    record("poisson", "pass" if worst <= 1e-6 else "fail",
           f"worst residual {worst:.2e} (limit 1e-06)")

    # 4. variance growth fit (needs the variance constant)
    if chain.is_asymmetric:
        fit = fit_variance_growth(table, [2**k for k in range(8, 14)])
        rel = abs(fit.a - sig2) / sig2
        record("variance_fit", "pass" if rel <= 0.15 else "fail",
               f"slope {fit.a:.4f} vs sigma2 {sig2:.4f} (rel {rel:.3f}, limit 0.15)")
    else:
        record("variance_fit", "skipped",
               "SymmetricChain: variance constant undefined for symmetric chains")

    # 5. CLT normality, standardized with the exact oracle sd
    if chain.is_asymmetric:
        n, m, limit = (512, 800, 0.06) if quick else (2048, 2000, 0.05)
        cfg = SimulationConfig(chain, n, m, replicate_seed(seed, 5),
                               standardization="oracle")
        cloud = simulate_epl(cfg, threads=args.threads)
        center, scale = standardization_parameters(cfg, table, 0.0)
        ks = ks_distance(standardize(cloud, center, scale))
        record("clt_ks", "pass" if ks <= limit else "fail",
               f"ks {ks:.4f} at n={n}, m={m} (limit {limit})")
    else:
        record("clt_ks", "skipped",
               "SymmetricChain: no n log n normal limit for symmetric chains")

    # 6. contraction iteration of the map on centered laws from standardized
    # uniform clouds; the KS distance to the normal must have contracted
    m, iters, limit = (50000, 6, 0.04) if quick else (100000, 8, 0.05)
    cloud0 = cloud1 = uniform_cloud(m, replicate_seed(seed, 6))
    for it in range(1, iters + 1):
        cloud0, cloud1 = apply_T(cloud0, cloud1, chain,
                                 replicate_seed(seed, 600 + it))
    final = max(ks_distance(cloud0), ks_distance(cloud1))
    record("contraction", "pass" if final <= limit else "fail",
           f"ks {final:.4f} after {iters} iterations of m={m} (limit {limit})")

    passed = all(item["status"] != "fail" for item in items)
    lines = [f"{item['status']:>7}  {item['name']}: {item['detail']}"
             for item in items]
    lines.append("verify: " + ("all items passed" if passed else "FAILED"))
    _finish(args, chain, {"budget": args.budget, "seed": seed},
            {"budget": args.budget, "items": items, "passed": passed}, lines)
    if not passed:
        first = next(item["name"] for item in items if item["status"] == "fail")
        print(f"verify failed at item '{first}'", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ------------------------------------------------------------------- parsing


def _build_parser() -> argparse.ArgumentParser:
    chain_flags = argparse.ArgumentParser(add_help=False)
    chain_flags.add_argument("--mu0", type=float, default=0.5,
                             help="initial-state law: P(first state = 0)")
    chain_flags.add_argument("--p00", type=float, required=True,
                             help="transition probability 0 -> 0")
    chain_flags.add_argument("--p11", type=float, required=True,
                             help="transition probability 1 -> 1")
    chain_flags.add_argument("--json", action="store_true",
                             help="structured report on stdout")

    parser = argparse.ArgumentParser(
        prog="trielab",
        description="external path length of tries over Markov-source strings",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("analyze", parents=[chain_flags],
                       help="spectral constants of the chain")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("oracle", parents=[chain_flags],
                       help="exact first and second moment table")
    p.add_argument("--n-max", type=int, default=1024)
    p.add_argument("--out", help="CSV path (n, nu0, nu1, var0, var1, f0, f1)")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("poisson-check", parents=[chain_flags],
                       help="Poissonized mean and variance decomposition residuals")
    p.add_argument("--lambdas", default="10,50,200,1000",
                   help="comma separated Poisson rates")
    p.add_argument("--n-max", type=int, default=8192)
    p.add_argument("--out", help="CSV path (lambda, i, eq10_residual, lemma4_residual)")
    p.set_defaults(func=_cmd_poisson_check)

    p = sub.add_parser("simulate", parents=[chain_flags],
                       help="Monte Carlo path-length cloud, standardized")
    p.add_argument("--n", type=int, required=True, help="strings per trie")
    p.add_argument("--m", type=int, required=True, help="replicates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--standardize", choices=("oracle", "asymptotic"),
                   default="asymptotic")
    p.add_argument("--samples", help="CSV path, one standardized value per line")
    p.add_argument("--threads", type=int, default=0, help="0 = auto")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("contraction", parents=[chain_flags],
                       help="iterate the distributional map from uniform clouds")
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--m", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV path (iteration, ks0, ks1)")
    p.set_defaults(func=_cmd_contraction)

    p = sub.add_parser("trie-stats", parents=[chain_flags],
                       help="build one trie and report its shape")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--histogram", help="CSV path (depth, count)")
    p.set_defaults(func=_cmd_trie_stats)

    p = sub.add_parser("verify", parents=[chain_flags],
                       help="self-check scorecard at quick or full budget")
    p.add_argument("--budget", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=20240817)
    p.add_argument("--threads", type=int, default=0, help="0 = auto")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (HorizonTooSmall, HorizonTooLarge, BadScale, DepthExceeded,
            FloatingPointError, OverflowError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SymmetricChain, SingularFit, ValueError) as err:
        print(f"invalid request: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
