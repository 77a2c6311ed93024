"""Command line front end.

Subcommands: analyze, oracle, poisson-check, simulate, contraction,
trie-stats, verify.  All numerics live in the library modules; this layer
only parses flags, dispatches, and formats output, so tests can bypass it.
Each subcommand that reads the moment table builds it to the horizon it
reads and keeps nothing between calls: oracle to --n-max, simulate to n,
verify to its largest size, poisson-check to its top window + 1.

Every artifact embeds a run manifest: JSON reports carry it under
"manifest", CSV files as a leading "# manifest:" comment.  The manifest
excludes timestamps (those go on a separate "# generated:" line), so
re-running the same flags reproduces byte-identical CSV bodies.

Exit codes: 0 ok, 1 verification failure, 2 usage error (an output path that
cannot be written included), 3 numeric error (horizon too small or large,
depth cap hit, degenerate scale).
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import math
import sys
from importlib import resources

from trielab import __version__
from trielab.clt_harness import (
    BadScale,
    apply_T,
    check_threads,
    fit_growth_values,
    ks_distance,
    law_ks,
    simulate_epl,
    standardize,
    summary,
)
from trielab.exact_moments import (
    HorizonTooLarge,
    MomentTable,
    check_horizon,
    compute_moment_table,
    error_terms,
    root_split,
)
from trielab.markov_source import (
    MarkovChain,
    entropy_rate,
    generate_strings,
    replicate_seed,
)
from trielab.poisson_analysis import (
    HorizonTooSmall,
    check_mean_decomposition,
    check_rate,
    check_variance_decomposition,
    summation_window,
)
from trielab.spectral import lambda_derivatives, lambda_of_s, sigma_squared, spectral_constants
from trielab.trie import DepthExceeded, build_trie

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _chain_of(args) -> MarkovChain:
    return MarkovChain(args.mu0, args.p00, args.p11)


def _write_csv(path: str, manifest: dict, header, rows) -> None:
    """Manifest and timestamp comment lines, then the rows as CRLF-ended CSV lines.

    Every row is printed by one `%` format, built from the first row's value
    types: `%d` for a value of type int and `%.17g` (round-trip safe for 64-bit
    floats) for any other, so each column must keep one type.  No value needs
    quoting: names are plain identifiers and numbers hold no comma.
    """
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        fh.write("# generated: " + _now() + "\n")
        if header is not None:
            fh.write(",".join(header) + "\r\n")
        first = next(rows, None)
        if first is not None:
            line = ",".join("%d" if type(v) is int else "%.17g" for v in first) + "\r\n"
            fh.writelines(line % tuple(row) for row in itertools.chain([first], rows))


def _finish(args, chain: MarkovChain, config: dict, fields: dict, lines: list,
            out: str | None = None, header=None, rows=()) -> int:
    """The one output path of every subcommand.

    `config` and `fields` are the subcommand's own manifest config and report
    fields; the chain fields are added here.  With `out` set, `header` (None
    for none) and `rows` go to that CSV and the text output says so.  Prints
    the JSON report under --json, else the text lines.  The envelope it adds
    to every report (manifest, generated, chain) has its contract in
    schemas/report.schema.json.
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
    """JSON schema of one subcommand's report: the envelope every report shares
    (report.schema.json) merged with that subcommand's own fields."""
    files = resources.files("trielab.schemas")
    envelope, own = (json.loads(files.joinpath(name).read_text()) for name in
                     ("report.schema.json", subcommand.replace("-", "_") + ".schema.json"))
    return {**envelope, "title": own["title"],
            "required": envelope["required"] + own["required"],
            "properties": {**envelope["properties"], **own["properties"]}}


# ---------------------------------------------------------------- subcommands


def _cmd_analyze(args) -> int:
    chain = _chain_of(args)
    fields = spectral_constants(chain)
    lines = [f"{k} = {v}" for k, v in fields.items()]
    return _finish(args, chain, {}, fields, lines)


def _cmd_oracle(args) -> int:
    chain = _chain_of(args)
    table = compute_moment_table(chain, args.n_max)
    f = error_terms(table)
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


def _residual_rows(table: MomentTable, lams) -> tuple[list, float]:
    """The split-identity residual of the mean and of the variance at each
    (lambda, i), as poisson-check's rows, and the worst of them."""
    rows = [{"lambda": lam, "i": i,
             "eq10_residual": check_mean_decomposition(table, i, lam),
             "lemma4_residual": check_variance_decomposition(table, i, lam)}
            for lam in lams for i in (0, 1)]
    return rows, max(max(r["eq10_residual"], r["lemma4_residual"]) for r in rows)


def _cmd_poisson_check(args) -> int:
    chain = _chain_of(args)
    lams = [float(tok) for tok in args.lambdas.split(",") if tok.strip()]
    if not lams:
        print("poisson-check: --lambdas needs at least one rate", file=sys.stderr)
        return EXIT_USAGE
    for lam in lams:
        check_rate(lam)
    # refuse a window beyond --n-max, then --n-max itself, before building the
    # table (a negative --n-max skips the windows, which would all refuse it)
    tops = [summation_window(lam, args.n_max)[1] for lam in lams if args.n_max >= 0]
    check_horizon(args.n_max)
    # the table ends one slot past the top window, where the slope reads (a
    # split rate lies below its rate, so its window lies inside); each level of
    # the sweep reads only the levels below it, so the rows are those of a
    # table to --n-max
    rows, worst = _residual_rows(compute_moment_table(chain, max(tops) + 1), lams)
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
    if min(args.n, args.m) < 2:
        print("simulate: need n >= 2 and m >= 2 for a standardized run", file=sys.stderr)
        return EXIT_USAGE
    check_threads(args.threads)
    # sigma^2 refuses a symmetric chain, so take it before the table is built
    sig2 = sigma_squared(chain)[1] if args.standardize == "asymptotic" else None
    center, variance = root_split(chain, compute_moment_table(chain, args.n), args.n)
    scale = math.sqrt(variance if sig2 is None else sig2 * args.n * math.log(args.n))
    cloud = simulate_epl(chain, args.n, args.m, args.seed, threads=args.threads)
    std = standardize(cloud, center, scale)
    moments = summary(std)
    config = {**chain.as_dict(), "n": args.n, "m": args.m, "seed": args.seed,
              "standardize": args.standardize}
    flags = ("mean_ok", "var_ok", "ks_ok")
    fields = {
        "config": config,
        "center": center,
        "scale": scale,
        **{k: moments[k] for k in ("mean", "var", "skew", "kurt", "ks")},
        "flags": {k: moments[k] for k in flags},
    }
    lines = [
        f"m={args.m} tries of n={args.n} strings, seed {args.seed}",
        f"center {center:.6f}  scale {scale:.6f} ({args.standardize})",
        f"mean {moments['mean']:+.5f}  var {moments['var']:.5f}  "
        f"skew {moments['skew']:+.4f}  kurt {moments['kurt']:+.4f}",
        f"ks to standard normal {moments['ks']:.5f}",
        "flags " + " ".join(f"{k}={moments[k]}" for k in flags),
    ]
    return _finish(args, chain, config, fields, lines,
                   args.samples, None, ([v] for v in std))


# the most iterations `contraction` runs: a law after k steps has ~k^2 / 2
# classes, and measuring it costs one sinc factor per class and frequency at
# the frequencies where phi's bound is not negligible (all 4,097 for the first
# few steps, 37 from step 8 on on chain (0.6, 0.7)); a run to the cap measures
# 2 x 11,521 classes in all (about 0.15 s in-process on a 2-core Xeon)
MAX_CONTRACTION_ITERS = 40


def _contraction_rows(chain: MarkovChain, iters: int) -> list:
    """(iteration, ks0, ks1) of the exact map's iterates from the standardized
    uniform pair, for iterations 0..iters."""
    law0 = law1 = {(0, 0, 0, 0): 1}
    rows = []
    for it in range(iters + 1):
        if it:
            law0, law1 = apply_T(law0, law1)
        rows.append({"iteration": it, "ks0": law_ks(law0, chain), "ks1": law_ks(law1, chain)})
    return rows


def _cmd_contraction(args) -> int:
    chain = _chain_of(args)
    if args.iters < 0:
        print("contraction: need iters >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.iters > MAX_CONTRACTION_ITERS:
        print(f"contraction: iters {args.iters} is above the cap of "
              f"{MAX_CONTRACTION_ITERS} iterations", file=sys.stderr)
        return EXIT_USAGE
    rows = _contraction_rows(chain, args.iters)
    lines = [f"iter {r['iteration']:2d}: ks0={r['ks0']:.5f} ks1={r['ks1']:.5f}"
             for r in rows]
    return _finish(
        args, chain, {"iters": args.iters, "seed": None},
        {"rows": rows, "final_ks": max(rows[-1]["ks0"], rows[-1]["ks1"])}, lines,
        args.out, list(rows[0]), (r.values() for r in rows),
    )


def _cmd_trie_stats(args) -> int:
    chain = _chain_of(args)
    trie = build_trie(generate_strings(chain, args.n, args.seed))
    hist = [int(c) for c in trie.depth_histogram]
    lines = [
        f"trie over n={args.n} strings, seed {args.seed}",
        f"external path length {trie.epl}",
        f"internal nodes {trie.size}  height {trie.height}",
    ]
    return _finish(
        args, chain, {"n": args.n, "seed": args.seed},
        {"n": args.n, "epl": trie.epl, "size": trie.size, "height": trie.height,
         "depth_histogram": hist}, lines,
        args.histogram, ["depth", "count"], enumerate(hist),
    )


# sizes of verify's variance-growth fit; the top one is the largest size any
# verify item reads, so it is also the horizon of verify's table
_VARIANCE_GRID = tuple(2**k for k in range(8, 14))


def _verify_items(chain: MarkovChain, table: MomentTable, quick: bool, seed: int,
                  threads: int):
    """(name, value, limit, detail) of each scorecard item, in scorecard order.

    An item passes when value <= limit.  An item outside its domain yields
    value None and its reason as the detail.
    """
    # 1. spectral self-consistency, each gap in units of its own limit
    gaps = {"|lambda(-1)-1|": (abs(lambda_of_s(chain, -1.0) - 1.0), 1e-12)}
    H, _, _ = entropy_rate(chain)
    gaps["|lambda_dot-H|"] = (abs(lambda_derivatives(chain)[0] - H), 1e-6)
    sig2 = None
    if chain.is_asymmetric:
        eigen, sig2 = sigma_squared(chain)
        gaps["sigma2 forms rel diff"] = (abs(eigen - sig2) / abs(sig2), 1e-8)
    worst = max(gap / limit for gap, limit in gaps.values())
    detail = ", ".join(f"{name}={gap:.2e} of {limit:g}" for name, (gap, limit) in gaps.items())
    if sig2 is None:
        detail += ", sigma2 comparison skipped (symmetric chain)"
    yield "spectral", worst, 1.0, f"{detail}; worst gap/limit {worst:.2e}"

    # 2. oracle mean vs simulation
    grid = [256] if quick else [16, 256, 1024]
    m = 4000 if quick else 20000
    worst_z = 0.0
    for n in grid:
        cloud = simulate_epl(chain, n, m, replicate_seed(seed, n), threads=threads)
        mu, var = root_split(chain, table, n)
        se = math.sqrt(var / m)
        worst_z = max(worst_z, abs(cloud.mean() - mu) / se)
    yield "mean", worst_z, 4.0, f"worst |z| = {worst_z:.2f} over n in {grid}"

    # 3. Poissonized decompositions
    lams = [10.0, 50.0, 200.0] if quick else [10.0, 50.0, 200.0, 1000.0]
    _, worst = _residual_rows(table, lams)
    yield "poisson", worst, 1e-6, f"worst residual {worst:.2e}"

    # 4. variance growth fit, which needs the variance constant
    rel, detail = None, "SymmetricChain: variance constant undefined for symmetric chains"
    if sig2 is not None:
        a, _ = fit_growth_values(_VARIANCE_GRID,
                                 [root_split(chain, table, n)[1] for n in _VARIANCE_GRID])
        rel = abs(a - sig2) / sig2
        detail = f"slope {a:.4f} vs sigma2 {sig2:.4f}, rel {rel:.3f}"
    yield "variance_fit", rel, 0.15, detail

    # 5. CLT normality, standardized with the exact oracle sd
    n, m, limit = (512, 800, 0.06) if quick else (2048, 2000, 0.05)
    cloud = simulate_epl(chain, n, m, replicate_seed(seed, 5), threads=threads)
    center, variance = root_split(chain, table, n)
    ks = ks_distance(standardize(cloud, center, math.sqrt(variance)))
    yield "clt_ks", ks, limit, f"ks {ks:.4f} at n={n}, m={m}"

    # 6. the exact map iterated from the standardized uniform pair; the KS
    # distance of both laws to the normal must have contracted
    iters, limit = (6, 0.04) if quick else (8, 0.05)
    last = _contraction_rows(chain, iters)[-1]
    final = max(last["ks0"], last["ks1"])
    yield "contraction", final, limit, f"exact ks {final:.4f} after {iters} iterations"


def _cmd_verify(args) -> int:
    chain = _chain_of(args)
    check_threads(args.threads)
    table = compute_moment_table(chain, _VARIANCE_GRID[-1])
    items = []
    for name, value, limit, detail in _verify_items(
            chain, table, args.budget == "quick", args.seed, args.threads):
        item = {"name": name, "status": "skipped", "detail": detail, "margin": None}
        if value is not None:
            item.update(status="pass" if value <= limit else "fail",
                        detail=f"{detail} (limit {limit:g})", margin=value / limit)
        items.append(item)

    passed = all(item["status"] != "fail" for item in items)
    lines = [f"{item['status']:>7}  {item['name']}: {item['detail']}"
             for item in items]
    lines.append("verify: " + ("all items passed" if passed else "FAILED"))
    _finish(args, chain, {"budget": args.budget, "seed": args.seed},
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
                       help="iterate the distributional map on exact laws")
    p.add_argument("--iters", type=int, default=10,
                   help=f"iterations, at most {MAX_CONTRACTION_ITERS}")
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

    # a flag is read whole: a removed or mistyped one exits 2 instead of
    # passing as the prefix of another (contraction's old --m as --mu0)
    for p in sub.choices.values():
        p.allow_abbrev = False
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
    except ValueError as err:
        print(f"invalid request: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
