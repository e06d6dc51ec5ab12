"""Spans, aggregates and counters recorded around macckit's public calls.

The tracer patches functions and methods of the installed macckit modules
from outside, for the duration of one traced pass, and restores them
afterwards.  Three kinds of wrapper exist:

* span: one record per call (name, start, end, parent span, job, self time);
* aggregate: hot leaf calls (about 10^4 or more per job) folded into a call
  count plus busy and self time, so memory and overhead stay bounded;
* counter: a call count only, for the hottest calls.

Self time is a call's duration minus the time of the wrapped calls made
directly inside it.  Everything stays in memory until the run ends.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter

SPAN, AGGREGATE, COUNT = "span", "aggregate", "count"

#: Per-layer metrics: name -> unit.  Times are seconds per pass.
LAYER_UNITS = {
    "bounds.best_s": "s",
    "bounds.best_calls": "count",
    "bounds.family_evals_per_point": "evals/call",
    "bounds.sweep_s": "s",
    "bounds.points": "count",
    "bounds.dominance_s": "s",
    "bounds.dominance_points": "count",
    "serialize.write_s": "s",
    "serialize.bytes_out": "bytes",
    "serialize.rows": "count",
    "cli.self_s": "s",
    "cli.jobs": "count",
    "schemes.library_s": "s",
    "schemes.place_s": "s",
    "schemes.deliver_s": "s",
    "schemes.deliver_calls": "count",
    "schemes.decode_s": "s",
    "schemes.decode_calls": "count",
    "schemes.verify_self_s": "s",
    "schemes.xor_calls": "count",
    "schemes.decode_ok_ratio": "ratio",
    "entropy.pmf_s": "s",
    "entropy.pmfs": "count",
    "entropy.marginal_s": "s",
    "entropy.marginal_calls": "count",
    "entropy.marginals_per_pmf": "calls/pmf",
    "entropy.check_self_s": "s",
    "tradeoff.share_s": "s",
    "tradeoff.hulls_per_query": "calls/query",
    "setup.import_s": "s",
    "setup.numpy_loaded": "flag",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Collects the spans, aggregates and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent id, job, name, start, end, self_s)
        self.aggregates: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.job: str | None = None
        self._stack: list[list] = []  # open calls: [span id or None, child_s]
        self._patched: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _timed(self, name, fn, kind, on_result):
        stack = self._stack
        spans = self.spans
        aggregate = self.aggregates.setdefault(name, [0, 0.0, 0.0]) if kind == AGGREGATE else None

        def wrapper(*args, **kwargs):
            if kind == SPAN:
                frame = [len(spans), 0.0]
                parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
                spans.append(None)  # reserve the id so children can point at it
            else:
                frame = [None, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                if kind == SPAN:
                    spans[frame[0]] = (frame[0], parent, self.job, name, start, end,
                                       duration - frame[1])
                else:
                    aggregate[0] += 1
                    aggregate[1] += duration
                    aggregate[2] += duration - frame[1]
            if on_result is not None:
                on_result(self.counters, result, args)
            return result

        return wrapper

    def _counting(self, name, fn, on_result):
        counters = self.counters
        if on_result is not None:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                on_result(counters, result, args)
                return result
        else:
            def wrapper(*args, **kwargs):
                counters[name] += 1
                return fn(*args, **kwargs)
        return wrapper

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span of the given name."""
        return self._timed(name, fn, SPAN, None)(*args)

    # -- patching ------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every call listed by _targets() until uninstall()."""
        for owner, attr, kind, name, on_result in _targets():
            original = owner.__dict__[attr]
            is_classmethod = isinstance(original, classmethod)
            fn = original.__func__ if is_classmethod else original
            if kind == COUNT:
                wrapped = self._counting(name, fn, on_result)
            else:
                wrapped = self._timed(name, fn, kind, on_result)
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
            self._patched.append((owner, attr, original))
            # the package re-exports public functions under the same name
            if getattr(package, attr, None) is original:
                setattr(package, attr, wrapped)
                self._patched.append((package, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reporting -----------------------------------------------------------

    def layer_metrics(self, bytes_out: int) -> dict[str, float]:
        """Per-layer values of this pass (unused layers read 0)."""
        total, own, calls = Counter(), Counter(), Counter()
        names = {}
        for span_id, _parent, _job, name, start, end, self_s in self.spans:
            names[span_id] = name
            total[name] += end - start
            own[name] += self_s
            calls[name] += 1
        best_direct = sum(
            1 for _id, parent, _job, name, *_ in self.spans
            if name == "bounds.best" and (parent is None or names[parent] != "bounds.sweep")
        )
        def agg_of(name, index):
            return self.aggregates.get(name, (0, 0.0, 0.0))[index]

        c = self.counters
        decode_calls = agg_of("schemes.decode", 0)
        pmfs = agg_of("entropy.pmf", 0)
        return {
            "bounds.best_s": total["bounds.best"],
            "bounds.best_calls": calls["bounds.best"],
            "bounds.family_evals_per_point": _ratio(agg_of("bounds.evaluate", 0), calls["bounds.best"]),
            "bounds.sweep_s": own["bounds.sweep"],
            "bounds.points": c["bounds.points"],
            "bounds.dominance_s": total["bounds.dominance"],
            "bounds.dominance_points": c["bounds.dominance_points"],
            "serialize.write_s": total["serialize.write"],
            "serialize.bytes_out": bytes_out,
            "serialize.rows": c["serialize.rows"],
            "cli.self_s": own["cli.main"],
            "cli.jobs": calls["cli.main"],
            "schemes.library_s": total["schemes.library"],
            "schemes.place_s": total["schemes.place"],
            "schemes.deliver_s": agg_of("schemes.deliver", 1),
            "schemes.deliver_calls": agg_of("schemes.deliver", 0),
            "schemes.decode_s": agg_of("schemes.decode", 1),
            "schemes.decode_calls": decode_calls,
            "schemes.verify_self_s": own["schemes.verify"],
            "schemes.xor_calls": c["schemes.xor"],
            "schemes.decode_ok_ratio": _ratio(decode_calls - c["schemes.decode_failures"], decode_calls),
            "entropy.pmf_s": agg_of("entropy.pmf", 1),
            "entropy.pmfs": pmfs,
            "entropy.marginal_s": agg_of("entropy.marginal", 1),
            "entropy.marginal_calls": agg_of("entropy.marginal", 0),
            "entropy.marginals_per_pmf": _ratio(agg_of("entropy.marginal", 0), pmfs),
            "entropy.check_self_s": agg_of("entropy.check", 2),
            "tradeoff.share_s": total["tradeoff.share"],
            "tradeoff.hulls_per_query": _ratio(c["tradeoff.hull"], calls["tradeoff.share"]),
            # exact work counts, compared against the untraced passes
            "work": {
                "bound_points": c["bounds.points"] + best_direct,
                "dominance_points": c["bounds.dominance_points"],
                "demand_vectors": agg_of("schemes.deliver", 0),
                "decode_calls": decode_calls,
                "pmfs": pmfs,
            },
        }

    def dump(self) -> dict:
        return {
            "spans": [list(span) for span in self.spans],
            "aggregates": {name: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                           for name, v in self.aggregates.items()},
            "counters": dict(self.counters),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def median_metrics(per_pass: list[dict]) -> dict[str, float]:
    """Median over traced passes of every per-layer value."""
    return {name: statistics.median(p[name] for p in per_pass)
            for name in per_pass[0] if name != "work"}


# -- what is wrapped -----------------------------------------------------------


def _add(key, amount):
    def hook(counters, result, args):
        counters[key] += amount(result, args)
    return hook


def _targets():
    """(owner, attribute, kind, span name, result hook) for every wrapped call."""
    from macckit import bounds, cli, entropy, schemes, serialize, tradeoff

    yield cli, "main", SPAN, "cli.main", None
    yield bounds, "sweep_curve", SPAN, "bounds.sweep", _add("bounds.points", lambda r, a: len(r.points))
    yield bounds, "best_lower_bound", SPAN, "bounds.best", None
    yield bounds, "evaluate_bound", AGGREGATE, "bounds.evaluate", None
    yield bounds, "verify_dominance", SPAN, "bounds.dominance", _add(
        "bounds.dominance_points", lambda r, a: len(r.entries))

    rows = "serialize.rows"
    yield serialize, "write_curves_csv", SPAN, "serialize.write", None
    yield serialize, "write_curves_json", SPAN, "serialize.write", None
    yield serialize, "write_json_report", SPAN, "serialize.write", None
    yield serialize, "write_achievable_points_csv", SPAN, "serialize.write", _add(rows, lambda r, a: len(a[1]))
    yield serialize, "curve_rows", COUNT, rows, _add(rows, lambda r, a: len(r))
    # report dictionaries are built just before writing; they are serialization work
    yield bounds.DominanceReport, "to_dict", SPAN, "serialize.write", _add(rows, lambda r, a: len(r["points"]))
    yield schemes.VerificationReport, "to_dict", SPAN, "serialize.write", _add(rows, lambda r, a: len(r["per_demand"]))
    yield entropy.BatchReport, "to_dict", SPAN, "serialize.write", _add(rows, lambda r, a: 1)

    yield schemes.FileLibrary, "random", SPAN, "schemes.library", None
    for scheme_class in schemes.Scheme.__subclasses__():
        for method, kind in (("place", SPAN), ("deliver", AGGREGATE), ("decode", AGGREGATE)):
            if method in scheme_class.__dict__:
                yield scheme_class, method, kind, f"schemes.{method}", None
    yield schemes, "verify_scheme", SPAN, "schemes.verify", _add(
        "schemes.decode_failures", lambda r, a: len(r.failures))
    yield schemes, "xor_bits", COUNT, "schemes.xor", None

    yield entropy.JointPmf, "random", AGGREGATE, "entropy.pmf", None
    yield entropy, "marginal_entropy", AGGREGATE, "entropy.marginal", None
    yield entropy, "check_sliding_window", AGGREGATE, "entropy.check", None
    yield entropy, "check_conditional_window", AGGREGATE, "entropy.check", None
    yield entropy, "run_sliding_window_batch", SPAN, "entropy.batch", None
    yield entropy, "run_conditional_window_batch", SPAN, "entropy.batch", None

    yield tradeoff, "memory_share", SPAN, "tradeoff.share", None
    yield tradeoff, "lower_convex_envelope", COUNT, "tradeoff.hull", None
