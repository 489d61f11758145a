"""Per-layer metrics from cProfile data.

A layer is a module of `bvcalc` (and the stdlib `fractions` module, the
arithmetic kernel under `poly` and `homology`).  A function belongs to
the layer of the module that defines it.  Code with no such module
(builtins, generated dataclass methods, the rest of the stdlib) is
charged to the layer of its direct caller, using cProfile's per-caller
split of its self time; what is left goes to `other`.
"""

from __future__ import annotations

import importlib
import os

LAYERS = ("poly", "fractions", "exterior", "algebra", "bv", "connections", "correspond",
          "homology", "sampling", "algfile", "suites", "cli")
OTHER = "other"

SUITES = ("axioms", "generator", "bijections", "duality", "bracket-expansion",
          "linear-connection", "homology")

# Named public functions, each as "module:qualified name".
FUNCTIONS = {
    "poly.mul": ("bvcalc.poly:PolyElement.__mul__",),
    "poly.add": ("bvcalc.poly:PolyElement.__add__",),
    "poly.diff": ("bvcalc.poly:PolyElement.diff",),
    "poly.new": ("bvcalc.poly:PolyElement.__init__", "bvcalc.poly:PolyElement._make"),
    "fractions.new": ("fractions:Fraction.__new__",),
    "exterior.wedge": ("bvcalc.exterior:Multivector.wedge",),
    "exterior.phi_iso": ("bvcalc.exterior:phi_iso",),
    "algebra.bracket": ("bvcalc.algebra:LieRinehartAlgebra.bracket",),
    "algebra.verify_axioms": ("bvcalc.algebra:LieRinehartAlgebra.verify_axioms",),
    "bv.gerstenhaber_bracket": ("bvcalc.bv:gerstenhaber_bracket",),
    "bv.apply_generator": ("bvcalc.bv:apply_generator",),
    "bv.generator_square": ("bvcalc.bv:generator_square",),
    "connections.covariant_derivative": ("bvcalc.connections:covariant_derivative",),
    "correspond.check_generator_duality": ("bvcalc.correspond:check_generator_duality",),
    "correspond.check_bracket_pairing_identity":
        ("bvcalc.correspond:check_bracket_pairing_identity",),
    "homology.d_squared_is_zero": ("bvcalc.homology:ChainComplex.d_squared_is_zero",),
    "homology.exact_rank": ("bvcalc.homology:exact_rank",),
    "sampling.random_poly": ("bvcalc.sampling:random_poly",),
    "algfile.load": ("bvcalc.algfile:load",),
    **{f"suites.{s}": (f"bvcalc.suites:_SuiteRunner.run_{s.replace('-', '_')}",)
       for s in SUITES},
}

CALLS = ("poly.mul", "poly.add", "poly.diff", "poly.new", "fractions.new", "exterior.wedge",
         "exterior.phi_iso", "algebra.bracket", "bv.gerstenhaber_bracket",
         "bv.apply_generator", "bv.generator_square", "connections.covariant_derivative",
         "homology.d_squared_is_zero", "homology.exact_rank", "sampling.random_poly")
CUMULATIVE = ("bv.gerstenhaber_bracket", "bv.apply_generator",
              "connections.covariant_derivative", "correspond.check_generator_duality",
              "correspond.check_bracket_pairing_identity", "homology.d_squared_is_zero",
              "homology.exact_rank", "algfile.load", "algebra.verify_axioms",
              *(f"suites.{s}" for s in SUITES))

Func = tuple[str, int, str]  # cProfile's key: (file, first line, code name)


def metric_names() -> list[str]:
    """Every per-layer metric, in report order (trace.overhead is added by the runner)."""
    return ([f"{layer}.self_s" for layer in (*LAYERS, OTHER)]
            + [f"{name}.calls" for name in CALLS]
            + [f"{name}.cum_s" for name in CUMULATIVE])


def _code_key(spec: str) -> Func | None:
    module_name, _, qualname = spec.partition(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    code = getattr(getattr(obj, "__func__", obj), "__code__", None)
    if code is None:
        return None
    return code.co_filename, code.co_firstlineno, code.co_name


def describe_program() -> dict:
    """Where the running program's layers and named functions live.

    Runs inside the profiled process, so it sees the code that ran.  A
    function that no longer exists is left out and reads as zero.
    """
    import bvcalc
    import fractions

    functions = {}
    for name, specs in FUNCTIONS.items():
        functions[name] = [key for key in map(_code_key, specs) if key is not None]
    return {"package_dir": os.path.dirname(bvcalc.__file__),
            "fractions_file": fractions.__file__,
            "functions": functions}


def layer_of(filename: str, program: dict) -> str | None:
    if filename == program["fractions_file"]:
        return "fractions"
    directory, base = os.path.split(filename)
    if directory == program["package_dir"] and base.endswith(".py"):
        module = base[:-3]
        return module if module in LAYERS else OTHER
    return None


def attribute(stats: dict, program: dict) -> dict[str, float]:
    """Per-layer metrics from `pstats.Stats(...).stats`.

    `stats` maps each function to (primitive calls, calls, self time,
    cumulative time, callers), and each caller to the same four numbers
    for the calls it made.
    """
    self_s = dict.fromkeys((*LAYERS, OTHER), 0.0)
    for func, (_, _, tottime, _, callers) in stats.items():
        layer = layer_of(func[0], program)
        if layer is not None:
            self_s[layer] += tottime
            continue
        charged = 0.0
        for caller, (_, _, caller_tt, _) in callers.items():
            caller_layer = layer_of(caller[0], program)
            if caller_layer is not None:
                self_s[caller_layer] += caller_tt
                charged += caller_tt
        self_s[OTHER] += max(tottime - charged, 0.0)

    metrics = {f"{layer}.self_s": value for layer, value in self_s.items()}
    for name in CALLS:
        keys = [tuple(key) for key in program["functions"].get(name, [])]
        metrics[f"{name}.calls"] = sum(stats[key][1] for key in keys if key in stats)
    for name in CUMULATIVE:
        keys = [tuple(key) for key in program["functions"].get(name, [])]
        metrics[f"{name}.cum_s"] = sum(stats[key][3] for key in keys if key in stats)
    return metrics
