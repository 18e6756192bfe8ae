"""Spans around the calls into each ospchar module, installed from outside.

``Tracer.install`` replaces each listed public function by a wrapper in
every ospchar module namespace that holds it (``characters``, ``symfun`` and
``identities`` import kernels by name, so patching the defining module alone
would miss their calls), and the Laurent polynomial methods on the class.
``uninstall`` puts the originals back.

A span records its name, start, end and nearest recorded ancestor.  Self
time is a span's duration minus the time its child spans cover.  The hot
kernels (``*``, ``to_text`` and each step of a tableau enumeration) run
millions of times, so their spans only feed the per-name totals and their
parent's child time; every other span is also kept in memory and written
out by ``dump`` when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

ROUTES = (
    "schur_bialternant",
    "hook_schur_jt",
    "hook_schur_det",
    "symplectic_weyl",
    "ortho_jt",
    "ortho_det_rational",
    "ortho_det_laurent",
    "ortho_sp_schur_sum",
    "ortho_single_y",
    "odd_symplectic_det",
)
IDENTITIES = (
    "ortho_methods",
    "hook_methods",
    "symplectic_methods",
    "odd_methods",
    "odd_ortho_specialization",
    "symplectic_denominator",
    "odd_denominator",
    "supersymmetry",
    "power_product",
    "beta_complement",
    "cauchy_binet",
    "specialization_reduction",
    "kernel_det",
    "bkw_general",
    "bkw_original",
    "golden",
)
TABLEAU_FAMILIES = ("ssyt", "super", "symplectic", "odd_symplectic", "orthosymplectic")

# (defining module, function name, span name)
FUNCTIONS = (
    [("algebra", f, f"algebra.{f}") for f in ("exact_div", "det_bareiss", "det_cofactor", "det_rational")]
    + [("cli", "main", "cli.main")]
    + [("symfun", f, f"symfun.{f}") for f in ("complete_table", "jseries_table", "skew_schur_jt", "super_complete")]
    + [("characters", f, f"characters.{f}") for f in ROUTES]
    + [("characters", f, "characters.denominators") for f in ("symplectic_denominator_product", "odd_denominator_product")]
    + [("tableaux", f"{fam}_weight_sum", "tableaux.weight_sum") for fam in TABLEAU_FAMILIES]
    + [("identities", f"verify_{name}", f"identities.{name}") for name in IDENTITIES]
)
GENERATORS = [("tableaux", f"{fam}_tableaux", "tableaux.enumerate") for fam in TABLEAU_FAMILIES]
METHODS = (("__mul__", "algebra.mul"), ("__rmul__", "algebra.mul"), ("to_text", "algebra.to_text"))


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)  # outermost calls only
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self._active: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, child time, id or None, parent id]
        self._next_id = 0
        self._saved: list[tuple] = []
        self.origin = time.perf_counter()

    # -- spans ----------------------------------------------------------

    def _enter(self, name: str, keep: bool) -> None:
        parent = None
        if self._stack:
            top = self._stack[-1]
            parent = top[3] if top[3] is not None else top[4]
        span_id = None
        if keep:
            span_id = self._next_id
            self._next_id += 1
        self._active[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0, span_id, parent])

    def _exit(self) -> None:
        end = time.perf_counter()
        name, start, child, span_id, parent = self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_time[name] += duration - child
        self._active[name] -= 1
        if not self._active[name]:
            self.total[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if span_id is not None:
            self.spans.append((span_id, parent, name, start - self.origin, end - self.origin))

    def wrap(self, fn, name: str, keep: bool = True, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_generator(self, fn, name: str):
        """Time each step of the generator, not the consumer between steps."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stream = fn(*args, **kwargs)
            while True:
                self._enter(name, False)
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    self._exit()
                yield item

        return wrapper

    # -- counters -------------------------------------------------------

    def _count_mul(self, args, result) -> None:
        a, b = args
        self.counts["algebra.mul.term_products"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)

    def _count_div(self, args, result) -> None:
        self.maxima["algebra.exact_div.max_dividend_terms"] = max(
            self.maxima["algebra.exact_div.max_dividend_terms"], len(args[0].terms)
        )

    def _count_tableaux(self, args, result) -> None:
        self.counts["tableaux.weight_sum.tableaux"] += sum(result.terms.values())

    # -- installation ---------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "ospchar" and not modname.startswith("ospchar."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        import ospchar.algebra
        import ospchar.cli  # noqa: F401  (loads every module that holds a target)

        after = {
            "algebra.exact_div": self._count_div,
            "tableaux.weight_sum": self._count_tableaux,
        }
        for module, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"ospchar.{module}"], attr)
            self._replace_everywhere(original, self.wrap(original, name, after=after.get(name)))
        for module, attr, name in GENERATORS:
            original = getattr(sys.modules[f"ospchar.{module}"], attr)
            self._replace_everywhere(original, self.wrap_generator(original, name))
        cls = ospchar.algebra.LaurentPolynomial
        for attr, name in METHODS:
            original = cls.__dict__[attr]
            after_fn = self._count_mul if name == "algebra.mul" else None
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name, keep=False, after=after_fn))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    # -- output ---------------------------------------------------------

    def dump(self, path) -> None:
        """Write the per-name totals and every kept span as JSON."""
        names = sorted(self.calls)
        data = {
            "names": {
                n: {"calls": self.calls[n], "total_s": self.total[n], "self_s": self.self_time[n]} for n in names
            },
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, separators=(",", ":")))
