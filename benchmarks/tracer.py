"""Run one tanpoly CLI invocation with layer spans recorded from outside.

Usage: python benchmarks/tracer.py SPANS_OUT ARG...

Wraps the public functions of the tanpoly modules and a few listed
methods, rebinds every reference captured at import time (names imported
into other modules, registry dicts, `__rmul__ = __mul__`), then calls
`tanpoly.cli.main(ARG...)`. Spans stay in memory and are written to
SPANS_OUT as JSON lines when main returns; stdout is left to the CLI, so
the caller checks the same bytes as in an untraced run. The program
itself is not modified.
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from time import perf_counter_ns

LAYERS = ("cli", "verify", "symbolic", "triangles", "multiangle", "exact")

# (module, class, attribute names sharing one wrapper, span name)
METHODS = (
    ("symbolic", "YPoly", ("__mul__", "__rmul__"), "YPoly.mul"),
    ("symbolic", "YZPoly", ("__mul__", "__rmul__"), "YZPoly.mul"),
    ("exact", "Rational", ("__init__",), "Rational.new"),
    ("exact", "GaussianInt", ("__pow__",), "GaussianInt.pow"),
)

# Symbolic functions whose returned polynomials feed symbolic.max_coef_bits.
COEF_BITS_FROM = frozenset(
    {"hoffman_p", "hoffman_q", "r_poly_closed", "t_poly_closed", "r_poly_dz", "t_poly_dz", "dz_iter", "reduce_z"}
)


class Tracer:
    """Records spans as [layer, name, parent id, start ns, end ns, nested, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = [0]
        self.active: dict[str, int] = {}

    def wrap(self, layer: str, name: str, fn, attr=None):
        spans, stack, active = self.spans, self.stack, self.active
        full = f"{layer}.{name}"

        def traced(*args, **kwargs):
            depth = active.get(full, 0)
            rec = [layer, name, stack[-1], perf_counter_ns(), 0, depth > 0, None]
            spans.append(rec)
            stack.append(len(spans))
            active[full] = depth + 1
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = perf_counter_ns()
                stack.pop()
                active[full] = depth
            if attr is not None:
                rec[6] = attr(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, (layer, name, parent, start, end, nested, attrs) in enumerate(self.spans, start=1):
                line = {"id": sid, "parent": parent, "layer": layer, "name": name,
                        "start_ns": start, "end_ns": end, "nested": nested}
                if attrs:
                    line["attrs"] = attrs
                out.write(json.dumps(line) + "\n")


def _coef_bits(poly) -> int:
    coef = getattr(poly, "_coef", None)
    if coef is None:  # ReducedPair
        return max(_coef_bits(poly.f), _coef_bits(poly.g))
    return max((abs(c).bit_length() for c in coef.values()), default=0)


def _checked(args, report) -> dict:
    return {"suite": args[0], "checked": report.checked}


def instrument(tracer: Tracer) -> None:
    """Wrap every public function and the METHODS, then rebind all references."""
    modules = {name: importlib.import_module(f"tanpoly.{name}") for name in LAYERS}
    wrapped: dict[int, object] = {}  # id(original) -> wrapper
    for layer, module in modules.items():
        for name, value in list(vars(module).items()):
            if (isinstance(value, types.FunctionType) and not name.startswith("_")
                    and value.__module__ == module.__name__):
                attr = None
                if layer == "symbolic" and name in COEF_BITS_FROM:
                    attr = lambda args, result: {"coef_bits": _coef_bits(result)}
                elif layer == "verify" and name == "run_suite":
                    attr = _checked
                wrapped[id(value)] = tracer.wrap(layer, name, value, attr)
    for layer, cls_name, attrs, span in METHODS:
        cls = getattr(modules[layer], cls_name)
        fn = getattr(cls, attrs[0])
        wrapper = tracer.wrap(layer, span, fn)
        for attr in attrs:
            setattr(cls, attr, wrapper)

    def rebound(value):
        if isinstance(value, tuple):
            return tuple(rebound(v) for v in value)
        return wrapped.get(id(value), value)

    for module in [m for n, m in sys.modules.items() if n == "tanpoly" or n.startswith("tanpoly.")]:
        for name, value in list(vars(module).items()):
            if id(value) in wrapped:
                setattr(module, name, wrapped[id(value)])
            elif isinstance(value, dict) and not name.startswith("__"):
                for key, entry in list(value.items()):
                    value[key] = rebound(entry)
    # One span per suite, named after its registry key, around the suite function.
    suites = modules["verify"].SUITES
    for key, fn in list(suites.items()):
        suites[key] = tracer.wrap("verify", key, fn)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS_OUT ARG...", file=sys.stderr)
        return 2
    tracer = Tracer()
    instrument(tracer)
    from tanpoly import cli

    code = cli.main(argv[1:])
    sys.stdout.flush()
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
