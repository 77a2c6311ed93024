"""Probes at trielab's module boundaries and the per-layer metrics read from them.

Every probe wraps a name in the module that calls it, so the span measures
one layer as its caller sees it.  Metric names are prefixed by the module
they measure; see README.md for the end-to-end metric each should move.
"""

from __future__ import annotations

import os
from collections import defaultdict

from spans import self_times


def _uniforms(args, kwargs, result):
    return {"elements": int(result.size), "position": int(args[1])}


def _seeds(args, kwargs, result):
    return {"elements": int(getattr(result, "size", 1))}


def _batch(args, kwargs, result):
    from trielab.trie import default_max_depth

    sizes = args[1]
    cap = kwargs.get("max_depth") or default_max_depth(int(sizes.max(initial=0)))
    return {"strings": int(sizes.sum()), "string_levels": int(result.sum()), "cap": cap}


def _table(args, kwargs, result):
    return {"N": int(result.N)}


def _window(args, kwargs, result):
    return {"width": len(result[1])}


def _residual(args, kwargs, result):
    return {"residual": float(result)}


def _csv_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# (module whose name is replaced, name, span name, counter, fork)
PROBES = [
    ("trielab.trie", "uniforms_at", "markov_source.uniforms_at", _uniforms, False),
    ("trielab.trie", "stream_seeds", "markov_source.stream_seeds", _seeds, False),
    ("trielab.clt_harness", "batch_external_path_lengths", "trie.batch", _batch, False),
    ("trielab.cli", "compute_moment_table", "exact_moments.table", _table, False),
    ("trielab.exact_moments", "binomial_window", "exact_moments.binomial_window",
     _window, False),
    ("trielab.cli", "check_mean_decomposition", "poisson_analysis.check", _residual, False),
    ("trielab.cli", "check_variance_decomposition", "poisson_analysis.check",
     _residual, False),
    ("trielab.cli", "lambda_of_s", "spectral", None, False),
    ("trielab.cli", "lambda_derivatives", "spectral", None, False),
    ("trielab.cli", "sigma_squared", "spectral", None, False),
    ("trielab.cli", "spectral_constants", "spectral", None, False),
    ("trielab.cli", "simulate_epl", "clt_harness.simulate_epl", None, True),
    ("trielab.cli", "apply_T", "clt_harness.apply_T", None, False),
    ("trielab.cli", "ks_distance", "clt_harness.ks_distance", None, False),
    ("trielab.clt_harness", "ks_distance", "clt_harness.ks_distance", None, False),
    ("trielab.cli", "_write_csv", "cli.write_csv", _csv_bytes, False),
]

PROBED_NAMES = [(module, attr) for module, attr, *_ in PROBES]

ROOT = "cli.main"

METRICS = {
    "markov_source.uniforms_at.calls": "count",
    "markov_source.uniforms_at.s": "s",
    "markov_source.uniforms_at.elements": "count",
    "markov_source.ns_per_uniform": "ns",
    "markov_source.stream_seeds.s": "s",
    "markov_source.stream_seeds.elements": "count",
    "trie.batch.calls": "count",
    "trie.batch.s": "s",
    "trie.self_s": "s",
    "trie.strings": "count",
    "trie.string_levels": "count",
    "trie.ns_per_string": "ns",
    "trie.ns_per_string_level": "ns",
    "trie.depth_max": "count",
    "trie.depth_cap_ratio": "ratio",
    "exact_moments.table.calls": "count",
    "exact_moments.table.s": "s",
    "exact_moments.levels": "count",
    "exact_moments.us_per_level": "us",
    "exact_moments.binomial_window.calls": "count",
    "exact_moments.binomial_window.s": "s",
    "exact_moments.window_width_mean": "count",
    "exact_moments.self_s": "s",
    "poisson_analysis.checks.calls": "count",
    "poisson_analysis.checks.s": "s",
    "poisson_analysis.worst_residual": "ratio",
    "spectral.calls": "count",
    "spectral.s": "s",
    "clt_harness.simulate_epl.calls": "count",
    "clt_harness.simulate_epl.s": "s",
    "clt_harness.threads": "count",
    "clt_harness.parallel_efficiency": "ratio",
    "clt_harness.apply_T.s": "s",
    "clt_harness.ks_distance.s": "s",
    "cli.self_s": "s",
    "cli.write_csv.s": "s",
    "cli.csv_bytes": "B",
    "trace.overhead_s": "s",
}


def install(tracer) -> None:
    for module, attr, span_name, count, fork in PROBES:
        tracer.install(module, attr, span_name, count, fork)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced timed phase (without `trace.overhead_s`).

    A ratio whose base is zero (a layer the workload never calls) reads 0.
    """
    own = self_times(spans)
    named = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        named[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def total(name, key=None):
        return sum(s.info[key] if key else s.duration for s in named[name])

    uniforms = named["markov_source.uniforms_at"]
    batches = named["trie.batch"]
    tables = named["exact_moments.table"]
    dp_windows = [c for t in tables for c in children[t]
                  if c.name == "exact_moments.binomial_window"]
    sims = named["clt_harness.simulate_epl"]
    sim_batches = [c for s in sims for c in children[s] if c.name == "trie.batch"]
    sim_threads = [len({c.thread for c in children[s] if c.name == "trie.batch"})
                   for s in sims]
    deepest = [max((c.info["position"] for c in children[b]
                    if c.name == "markov_source.uniforms_at"), default=0) / b.info["cap"]
               for b in batches]
    residuals = [s.info["residual"] for s in named["poisson_analysis.check"]]

    elements = total("markov_source.uniforms_at", "elements")
    batch_s = total("trie.batch")
    string_levels = total("trie.batch", "string_levels")
    strings = total("trie.batch", "strings")
    table_s = total("exact_moments.table")
    levels = len(dp_windows) // 2
    return {
        "markov_source.uniforms_at.calls": len(uniforms),
        "markov_source.uniforms_at.s": total("markov_source.uniforms_at"),
        "markov_source.uniforms_at.elements": elements,
        "markov_source.ns_per_uniform": 1e9 * _ratio(total("markov_source.uniforms_at"),
                                                     elements),
        "markov_source.stream_seeds.s": total("markov_source.stream_seeds"),
        "markov_source.stream_seeds.elements": total("markov_source.stream_seeds",
                                                     "elements"),
        "trie.batch.calls": len(batches),
        "trie.batch.s": batch_s,
        "trie.self_s": sum(own[b] for b in batches),
        "trie.strings": strings,
        "trie.string_levels": string_levels,
        "trie.ns_per_string": 1e9 * _ratio(batch_s, strings),
        "trie.ns_per_string_level": 1e9 * _ratio(batch_s, string_levels),
        "trie.depth_max": 1 + max((u.info["position"] for u in uniforms), default=-1),
        "trie.depth_cap_ratio": max(deepest, default=0.0),
        "exact_moments.table.calls": len(tables),
        "exact_moments.table.s": table_s,
        "exact_moments.levels": levels,
        "exact_moments.us_per_level": 1e6 * _ratio(table_s, levels),
        "exact_moments.binomial_window.calls": len(named["exact_moments.binomial_window"]),
        "exact_moments.binomial_window.s": total("exact_moments.binomial_window"),
        "exact_moments.window_width_mean": _ratio(sum(w.info["width"] for w in dp_windows),
                                                  len(dp_windows)),
        "exact_moments.self_s": sum(own[t] for t in tables),
        "poisson_analysis.checks.calls": len(residuals),
        "poisson_analysis.checks.s": total("poisson_analysis.check"),
        "poisson_analysis.worst_residual": max(residuals, default=0.0),
        "spectral.calls": len(named["spectral"]),
        "spectral.s": total("spectral"),
        "clt_harness.simulate_epl.calls": len(sims),
        "clt_harness.simulate_epl.s": total("clt_harness.simulate_epl"),
        "clt_harness.threads": max(sim_threads, default=0),
        "clt_harness.parallel_efficiency": _ratio(
            sum(b.duration for b in sim_batches),
            sum(n * s.duration for n, s in zip(sim_threads, sims))),
        "clt_harness.apply_T.s": total("clt_harness.apply_T"),
        "clt_harness.ks_distance.s": total("clt_harness.ks_distance"),
        "cli.self_s": sum(own[r] for r in named[ROOT]),
        "cli.write_csv.s": total("cli.write_csv"),
        "cli.csv_bytes": total("cli.write_csv", "bytes"),
    }


def invariants(spans, metrics: dict, kernel: bool) -> list[tuple[str, bool, str]]:
    """Cross-checks between independently counted layers of one traced phase."""
    levels_expected = sum(max(s.info["N"] - 1, 0) for s in spans
                          if s.name == "exact_moments.table")
    checks = [(
        "trace: exact_moments.levels == sum(N - 1)",
        metrics["exact_moments.levels"] == levels_expected,
        f"{metrics['exact_moments.levels']} vs {levels_expected}",
    )]
    if kernel:
        levels = metrics["trie.string_levels"]
        elements = metrics["markov_source.uniforms_at.elements"]
        checks.append((
            "trace: trie.string_levels == markov_source.uniforms_at.elements",
            levels == elements and levels > 0,
            f"{levels} vs {elements}",
        ))
    return checks
