"""Metric definitions and the per-layer numbers derived from traced ops.

END_TO_END and PER_LAYER are the metric lists of BENCHMARK.json (a test
keeps the two in step).  Each per-layer entry names the end-to-end metric
it should move, and on which workload, so a change to one layer can be
checked against the prediction.
"""

from tracer import LAYERS

# (name, unit, better, bound as a share of the parent's median).  The time
# bounds are the widest allowed: CPU speed on the 2-core test machine drifts
# by up to 1.7x, for up to minutes, under load from outside the container,
# and scaling by the speed probe (speed.py) cancels most of that, not all.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

SPANNED_LAYERS = tuple(layer for layer in LAYERS if layer != "budgets")

# (name, unit, better, what it should move)
PER_LAYER = (
    ("arith.von_mangoldt_table.busy_s", "s", "lower",
     "wall_s, cpu_s on mc-and-scalar; under 1% of moment-exhaustive"),
    ("arith.von_mangoldt_table.bytes", "bytes", "lower",
     "peak_rss_mb on mc-and-scalar"),
    ("arith.sieve_primes.calls", "count", "lower",
     "wall_s on mc-and-scalar"),
    ("arith.sieve_primes.busy_s", "s", "lower",
     "wall_s on mc-and-scalar"),
    ("arith.sieve_primes.distinct_ratio", "ratio", "higher",
     "wall_s on mc-and-scalar (repeated limits are waste)"),
    ("poly.coefficient_chunks.busy_s", "s", "lower",
     "wall_s on both workloads"),
    ("poly.coefficient_chunks.chunks", "count", "lower",
     "wall_s on both workloads"),
    ("poly.roots_count_mod_prime.calls", "count", "lower",
     "wall_s on mc-and-scalar"),
    ("poly.roots_count_mod_prime.busy_s", "s", "lower",
     "wall_s on mc-and-scalar"),
    ("identities.multiplicative_average.busy_s", "s", "lower",
     "wall_s on mc-and-scalar"),
    ("identities.squared_factor_sum.busy_s", "s", "lower",
     "wall_s on mc-and-scalar"),
    ("identities.residue_root_count.calls", "count", "lower",
     "wall_s on mc-and-scalar"),
    ("identities.tuples", "count", "lower",
     "fixed by the arguments: sum of k^(d+1) over the enumerations"),
    ("identities.tuples_per_s", "1/s", "higher",
     "wall_s on mc-and-scalar"),
    ("sieve.sandwich_check.busy_s", "s", "lower",
     "wall_s on mc-and-scalar"),
    ("sieve.sieve_sum.busy_s", "s", "lower",
     "wall_s on mc-and-scalar"),
    ("eulerprod.truncated_bh_constant.busy_s", "s", "lower",
     "wall_s on mc-and-scalar"),
    ("moments.second_moment.self_s", "s", "lower",
     "wall_s, cpu_s, peak_rss_mb on moment-exhaustive; ~30% of moment-mc"),
    ("moments.evals", "count", "lower",
     "fixed by the arguments: visit count times x"),
    ("moments.evals_per_s", "1/s", "higher",
     "wall_s, cpu_s on moment-exhaustive"),
    ("moments.bv_average.self_s", "s", "lower",
     "wall_s on mc-and-scalar"),
    ("budgets.check.calls", "count", "lower",
     "nothing: budgets does no measurable work"),
) + tuple(
    (f"{layer}.self_s", "s", "lower",
     "parsing and formatting, on every workload" if layer == "cli"
     else f"wall_s on the workloads that use {layer}")
    for layer in SPANNED_LAYERS
) + (
    ("trace.overhead_s", "s", "lower",
     "nothing: traced minus untraced median pass wall time"),
    ("trace.residual_s", "s", "lower",
     "nothing: op wall time not covered by setup_s and cli.main"),
)


def op_profile(record):
    """{"layer.fn": {"calls", "busy_s", "self_s"}} for one traced op.

    A span's self time is its duration minus the durations of its direct
    children; counted functions add calls and no time.
    """
    spans = record["spans"]
    duration = [end - start for _, start, end, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            covered[parent] += duration[i]
    profile = {}
    for i, (name, _, _, _) in enumerate(spans):
        entry = profile.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                          "self_s": 0.0})
        entry["calls"] += 1
        entry["busy_s"] += duration[i]
        entry["self_s"] += duration[i] - covered[i]
    for name, calls in record["counts"].items():
        profile.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                  "self_s": 0.0})["calls"] += calls
    return profile


def merge_profiles(profiles):
    merged = {}
    for profile in profiles:
        for name, entry in profile.items():
            into = merged.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                            "self_s": 0.0})
            for field, value in entry.items():
                into[field] += value
    return merged


def layer_metrics(ops):
    """Per-layer metrics of one traced pass.

    ops is a list of (record, wall_s) for the pass's ops, record being what
    op.py wrote for a traced op.
    """
    profile = merge_profiles(op_profile(record) for record, _ in ops)

    def get(name, field):
        return profile.get(name, {}).get(field, 0)

    def total(value):
        return sum(sum(record["values"].get(value, ())) for record, _ in ops)

    limits = [record["values"].get("limits", []) for record, _ in ops]
    sieve_calls = sum(len(v) for v in limits)
    identity_busy = (get("identities.multiplicative_average", "busy_s")
                     + get("identities.squared_factor_sum", "busy_s"))
    kernel_self = get("moments.second_moment", "self_s")
    m = {
        "arith.von_mangoldt_table.busy_s":
            get("arith.von_mangoldt_table", "busy_s"),
        "arith.von_mangoldt_table.bytes": total("bytes"),
        "arith.sieve_primes.calls": get("arith.sieve_primes", "calls"),
        "arith.sieve_primes.busy_s": get("arith.sieve_primes", "busy_s"),
        "arith.sieve_primes.distinct_ratio":
            (sum(len(set(v)) for v in limits) / sieve_calls
             if sieve_calls else 0),
        "poly.coefficient_chunks.busy_s":
            get("poly.coefficient_chunks", "busy_s"),
        "poly.coefficient_chunks.chunks":
            total("poly.coefficient_chunks.yields"),
        "poly.roots_count_mod_prime.calls":
            get("poly.roots_count_mod_prime", "calls"),
        "poly.roots_count_mod_prime.busy_s":
            get("poly.roots_count_mod_prime", "busy_s"),
        "identities.multiplicative_average.busy_s":
            get("identities.multiplicative_average", "busy_s"),
        "identities.squared_factor_sum.busy_s":
            get("identities.squared_factor_sum", "busy_s"),
        "identities.residue_root_count.calls":
            get("identities.residue_root_count", "calls"),
        "identities.tuples": total("tuples"),
        "identities.tuples_per_s":
            total("tuples") / identity_busy if identity_busy else 0,
        "sieve.sandwich_check.busy_s": get("sieve.sandwich_check", "busy_s"),
        "sieve.sieve_sum.busy_s": get("sieve.sieve_sum", "busy_s"),
        "eulerprod.truncated_bh_constant.busy_s":
            get("eulerprod.truncated_bh_constant", "busy_s"),
        "moments.second_moment.self_s": kernel_self,
        "moments.evals": total("evals"),
        "moments.evals_per_s":
            total("evals") / kernel_self if kernel_self else 0,
        "moments.bv_average.self_s": get("moments.bv_average", "self_s"),
        "budgets.check.calls": get("budgets.check", "calls"),
        "trace.residual_s": sum(wall - record["setup_s"] - record["main_s"]
                                for record, wall in ops),
    }
    for layer in SPANNED_LAYERS:
        m[f"{layer}.self_s"] = sum(entry["self_s"]
                                   for name, entry in profile.items()
                                   if name.startswith(layer + "."))
    return m
