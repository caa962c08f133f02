"""
Tracing from outside the package: every public function a layer offers
is replaced, in each module that binds it, by a wrapper that times and
counts the call.

Three kinds of wrapper:

* span    - a layer boundary (a verb, a check, an ideal, a split walk, an
            exact filter, a top-level pivot test).  Each call is kept as a
            record (name, start, end, parent, counts) and written out at
            the end.
* frame   - a mid-level call (pattern tests, polynomial arithmetic, CLI
            parsing and output).  Counted and timed, not recorded.
* leaf    - a hot primitive that calls nothing traced (the signed_perm
            functions, patterns.sts).  Counted and timed with the least
            code on the path.

Self time of a key is its elapsed time minus the elapsed time of the
traced calls directly inside it, so the self times of all keys add up to
the traced time.  Counts are attributed to the innermost enclosing span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# Metric names are fixed here rather than read from the package, so that
# every revision reports the same per-layer metrics.
CHECK_IDS = (
    "theorem",
    "sign-structure",
    "coefficient-shift",
    "not-rank-symmetric",
    "unique-reduced-word",
    "factorization",
    "rank-symmetry",
    "product-identity",
    "classifier-equivalence",
    "minimality-equivalence",
    "interval-identity",
)

SIGNED_PERM_LEAVES = (
    "compose", "length", "left_mul_simple", "left_descents", "inverse", "statistic_sets",
)


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        # Open frames: [key, child seconds]; open spans: record dicts.
        self.frames: list[list] = []
        self.open_spans: list[dict] = []
        self.spans: list[dict] = []

    # -- wrappers ---------------------------------------------------------

    def leaf(self, key: str, fn):
        clock, calls, self_s, frames = self.clock, self.calls, self.self_s, self.frames

        def traced(*args):
            t0 = clock()
            out = fn(*args)
            dt = clock() - t0
            calls[key] += 1
            self_s[key] += dt
            if frames:
                frames[-1][1] += dt
            return out

        return traced

    def frame(self, key: str, fn):
        def traced(*args, **kwargs):
            return self._run(key, None, fn, args, kwargs, None)

        return traced

    def span(self, key: str, fn, name: str | None = None, after=None, top_only=False):
        """A span per call; with top_only, nested calls of the same key are frames."""
        span_name = name or fn.__name__

        def traced(*args, **kwargs):
            nested = top_only and any(f[0] == key for f in self.frames)
            return self._run(key, None if nested else span_name, fn, args, kwargs, after)

        return traced

    def _run(self, key, span_name, fn, args, kwargs, after):
        self.calls[key] += 1
        rec = [key, 0.0]
        self.frames.append(rec)
        span = None
        if span_name is not None:
            span = {
                "id": len(self.spans),
                "name": span_name,
                "key": key,
                "parent": self.open_spans[-1]["id"] if self.open_spans else None,
                "counts": dict(self.calls),
            }
            self.spans.append(span)
            self.open_spans.append(span)
        t0 = self.clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = self.clock()
            dt = t1 - t0
            self.frames.pop()
            self.self_s[key] += dt - rec[1]
            self.total_s[key] += dt
            if self.frames:
                self.frames[-1][1] += dt
            if span is not None:
                self.open_spans.pop()
                span["start"] = t0 - self.origin
                span["end"] = t1 - self.origin
                before = span["counts"]
                span["counts"] = {
                    k: v - before.get(k, 0) for k, v in self.calls.items() if v != before.get(k, 0)
                }
        if after is not None:
            after(self, out)
        return out

    def op(self, name: str, fn, *args):
        """A span the benchmark opens around one CLI operation."""
        return self._run("cli.op", name, fn, args, {}, None)

    # -- results ----------------------------------------------------------

    def exclusive_spans(self) -> list[dict]:
        """Spans with counts made exclusive of their child spans."""
        out = [dict(s, counts=dict(s["counts"])) for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                parent = out[s["parent"]]["counts"]
                for k, v in s["counts"].items():
                    parent[k] -= v
        for s in out:
            s["counts"] = {k: v for k, v in s["counts"].items() if v}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.exclusive_spans():
                fh.write(json.dumps(s, sort_keys=True) + "\n")

    def metrics(self) -> dict[str, float]:
        calls, self_s = self.calls, self.self_s

        def layer_self(prefix):
            return sum((v for k, v in self_s.items() if k.startswith(prefix + ".")), 0.0)

        def span_sum(key, field):
            return sum(s["counts"].get(field, 0) for s in self.spans if s["key"] == key)

        check_s = defaultdict(float)
        for s in self.spans:
            if s["key"] == "theorems.check":
                check_s[s["name"]] += s["end"] - s["start"]
        m = {
            "cli.parse_s": self.total_s["cli.parse"],
            "cli.emit_s": self.total_s["cli.emit"],
        }
        for cid in CHECK_IDS:
            m[f"theorems.{cid}_s"] = check_s[cid]
        m["theorems.self_s"] = self_s["theorems.check"]
        m.update({
            "weak_order.ideal.calls": calls["weak_order.ideal"],
            "weak_order.ideal.elements": calls["weak_order.ideal.elements"],
            "weak_order.ideal.self_s": self_s["weak_order.ideal"],
            "weak_order.rank_polynomial.self_s": self_s["weak_order.rank_polynomial"],
            "weak_order.reduced_word_count.calls": calls["weak_order.reduced_word_count"],
            "weak_order.reduced_word_count.self_s": self_s["weak_order.reduced_word_count"],
            "quotients.split.calls": calls["quotients.split"],
            "quotients.split.size_settled": calls["quotients.split.size_settled"],
            "quotients.split.products": span_sum("quotients.split", "signed_perm.compose"),
            "quotients.split.self_s": self_s["quotients.split"],
            "quotients.exact_filter.calls": calls["quotients.exact_filter"],
            "quotients.exact_filter.products": span_sum(
                "quotients.exact_filter", "signed_perm.compose"
            ),
            "quotients.exact_filter.self_s": self_s["quotients.exact_filter"],
            "patterns.sts.calls": calls["patterns.sts"],
            "patterns.is_separable.calls": calls["patterns.is_separable"],
            "patterns.minimality.calls": calls["patterns.minimality"],
            "patterns.self_s": layer_self("patterns"),
            "root_system.pivot.calls": calls["root_system.pivot"],
            "root_system.subsystem.calls": calls["root_system.subsystem"],
            "root_system.self_s": layer_self("root_system"),
        })
        for name in SIGNED_PERM_LEAVES:
            m[f"signed_perm.{name}.calls"] = calls[f"signed_perm.{name}"]
        m["signed_perm.self_s"] = layer_self("signed_perm")
        m["polynomials.mul.calls"] = calls["polynomials.mul"]
        m["polynomials.self_s"] = layer_self("polynomials")
        return m


def _rebind(modules, original, replacement) -> None:
    """Replace every module-level binding of original by replacement."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the package's layer boundaries; call once, before any operation."""
    import bweyl
    from bweyl import (
        cli, patterns, polynomials, quotients, root_system, signed_perm, theorems, weak_order,
    )

    modules = (bweyl, cli, patterns, polynomials, quotients, root_system, signed_perm,
               theorems, weak_order)

    def wrap(original, replacement):
        _rebind(modules, original, replacement)

    for name in SIGNED_PERM_LEAVES:
        fn = getattr(signed_perm, name)
        wrap(fn, tracer.leaf(f"signed_perm.{name}", fn))
    wrap(patterns.sts, tracer.leaf("patterns.sts", patterns.sts))
    wrap(patterns.st, tracer.leaf("patterns.st", patterns.st))

    # patterns: the pattern tests and the parabolic factorization.
    wrap(patterns.is_separable, tracer.frame("patterns.is_separable", patterns.is_separable))
    for fn in (patterns.is_minimal_nonseparable_fast,
               patterns.is_minimal_nonseparable_definitional,
               patterns.inverse_minimality_criterion):
        wrap(fn, tracer.frame("patterns.minimality", fn))
    for fn in (patterns.is_doubly_minimal, patterns.parabolic_factor):
        wrap(fn, tracer.frame(f"patterns.{fn.__name__}", fn))

    # polynomials: arithmetic and predicates on Poly, and the builders.
    poly = polynomials.Poly
    poly.__mul__ = tracer.frame("polynomials.mul", poly.__mul__)
    for attr in ("__eq__", "is_symmetric", "is_unimodal", "coefficient", "to_list", "__str__"):
        setattr(poly, attr, tracer.frame(f"polynomials.{attr.strip('_')}", getattr(poly, attr)))
    for fn in (polynomials.from_counts, polynomials.group_poincare):
        wrap(fn, tracer.frame(f"polynomials.{fn.__name__}", fn))

    # weak_order: ideals are spans; polynomials and word counts are frames.
    def count_elements(tr, ideal):
        tr.calls["weak_order.ideal.elements"] += len(ideal)

    for fn in (weak_order.lower_ideal_left, weak_order.upper_ideal_left,
               weak_order.interval_right):
        wrap(fn, tracer.span("weak_order.ideal", fn, after=count_elements))
    wrap(weak_order.rank_polynomial,
         tracer.frame("weak_order.rank_polynomial", weak_order.rank_polynomial))
    wrap(weak_order.reduced_word_count,
         tracer.frame("weak_order.reduced_word_count", weak_order.reduced_word_count))

    # quotients: the split walk and the exact filter are spans.
    def count_size_settled(tr, report):
        if not report.size_check:
            tr.calls["quotients.split.size_settled"] += 1

    wrap(quotients.splits_with_interval,
         tracer.span("quotients.split", quotients.splits_with_interval, after=count_size_settled))
    wrap(quotients.generalized_quotient,
         tracer.span("quotients.exact_filter", quotients.generalized_quotient))
    for fn in (quotients.quotient_of_interval, quotients.quotient_interval_identity):
        wrap(fn, tracer.frame(f"quotients.{fn.__name__}", fn))

    # root_system: a span per top-level pivot test, recursive calls counted.
    wrap(root_system.is_separable_recursive,
         tracer.span("root_system.pivot", root_system.is_separable_recursive, top_only=True))
    wrap(root_system.subsystem_spanned_by,
         tracer.frame("root_system.subsystem", root_system.subsystem_spanned_by))
    for fn in (root_system.components, root_system.inversion_roots, root_system.full_system,
               root_system.dominance_leq):
        wrap(fn, tracer.frame(f"root_system.{fn.__name__}", fn))

    # theorems: one span per check run through the verification matrix.
    for cid in CHECK_IDS:
        theorems.CHECKS[cid] = tracer.span("theorems.check", theorems.CHECKS[cid], name=cid)

    # cli: argument parsing (parser construction, parse_args, window
    # arguments) and output (listing payloads, the emitter).
    build_parser = cli.build_parser

    def traced_build_parser():
        parser = build_parser()
        parser.parse_args = tracer.frame("cli.parse", parser.parse_args)
        return parser

    cli.build_parser = tracer.frame("cli.parse", traced_build_parser)
    cli._window_arg = tracer.frame("cli.parse", cli._window_arg)
    cli._windows_payload = tracer.frame("cli.emit", cli._windows_payload)
    cli._emit = tracer.frame("cli.emit", cli._emit)
