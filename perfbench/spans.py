"""Per-layer spans around heckelab's public functions, recorded from outside.

`install` wraps every function in `LAYERS` in its defining module and in each
heckelab module that bound it with `from .x import f`, so a call is seen
whichever name it goes through.  A span stack gives self time: the span's
duration minus the durations of the spans it caused.  Work counts come from
the arguments and return values; nothing inside the library changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module.function -> stats reported for it, named <module>.<function>.<stat>
LAYERS = {
    "quadfield.enumerate_ideals": ("calls", "self_s", "ideals", "max_bound", "distinct_ratio"),
    "lseries.theta_coeffs": ("calls", "self_s", "coeffs", "distinct_ratio"),
    "lseries.central_value": ("calls", "self_s", "max_T"),
    "lseries.dirichlet_L1": ("self_s",),
    "rootnumber.root_number": ("calls", "self_s"),
    "rootnumber.root_number_via_fe": ("calls", "self_s"),
    "rootnumber.auxiliary_pair": ("self_s",),
    "characters.unit_group_mod": ("calls", "self_s", "distinct_ratio"),
    "arith.abelian_group_structure": ("calls", "self_s"),
    "characters.twist": ("calls", "self_s", "distinct_ratio"),
    "characters.evaluate_char": ("calls", "self_s"),
    "characters.main_lemma_quantities": ("self_s",),
    "family.enumerate_twists": ("self_s",),
    "family.count_N_total": ("self_s",),
    "family.averaged_L": ("self_s",),
    "family.scan_report": ("self_s", "records_failed"),
}

UNITS = {
    "calls": "count",
    "self_s": "s",
    "ideals": "count",
    "coeffs": "count",
    "records_failed": "count",
    "max_bound": "norm",
    "max_T": "norm",
    "distinct_ratio": "ratio",
}

# stats that are counts of work, as opposed to times; they must repeat exactly
COUNT_STATS = ("calls", "ideals", "coeffs", "records_failed", "max_bound", "max_T", "distinct_ratio")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _char_key(chi) -> str:
    return json.dumps(chi.descriptor(), sort_keys=True)


# module.function -> key(args, kwargs) naming the distinct input of a call
_DISTINCT = {
    "quadfield.enumerate_ideals": lambda a, k: (
        _arg(a, k, 0, "field").D,
        _arg(a, k, 1, "bound"),
    ),
    "lseries.theta_coeffs": lambda a, k: (_char_key(_arg(a, k, 0, "chi")), _arg(a, k, 1, "X")),
    "characters.unit_group_mod": lambda a, k: (
        _arg(a, k, 0, "field").D,
        _arg(a, k, 1, "f").a,
        _arg(a, k, 1, "f").b,
        _arg(a, k, 1, "f").c,
    ),
    "characters.twist": lambda a, k: (
        _char_key(_arg(a, k, 0, "phi")),
        _arg(a, k, 1, "rho").c,
        tuple(_arg(a, k, 1, "rho").exponents),
    ),
}

# module.function -> work(args, kwargs, result): {stat: value}; max_* stats
# keep the largest value, the others add up
_WORK = {
    "quadfield.enumerate_ideals": lambda a, k, r: {
        "ideals": len(r),
        "max_bound": _arg(a, k, 1, "bound"),
    },
    "lseries.theta_coeffs": lambda a, k, r: {"coeffs": len(r)},
    "lseries.central_value": lambda a, k, r: {"max_T": r.T},
    "family.scan_report": lambda a, k, r: {
        "records_failed": sum(rec.error is not None for rec in r)
    },
}


class _Layer:
    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.distinct: set = set()
        self.work: dict = {}


class Tracer:
    """Span stack and per-layer accumulators for one process."""

    def __init__(self):
        self.layers = {name: _Layer() for name in LAYERS}
        self._stack: list[list[float]] = []

    def wrap(self, name: str, fn):
        layer = self.layers[name]
        distinct = _DISTINCT.get(name)
        work = _WORK.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if distinct is not None:
                layer.distinct.add(distinct(args, kwargs))
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                layer.calls += 1
                layer.self_s += dt - children[0]
            if work is not None:
                for stat, value in work(args, kwargs, result).items():
                    old = layer.work.get(stat, 0)
                    layer.work[stat] = max(old, value) if stat.startswith("max_") else old + value
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Every stat in LAYERS, named <module>.<function>.<stat>."""
        out = {}
        for name, stats in LAYERS.items():
            layer = self.layers[name]
            for stat in stats:
                if stat == "calls":
                    value = layer.calls
                elif stat == "self_s":
                    value = layer.self_s
                elif stat == "distinct_ratio":
                    # no calls means no repeated work
                    value = len(layer.distinct) / layer.calls if layer.calls else 1.0
                else:
                    value = layer.work.get(stat, 0)
                out[f"{name}.{stat}"] = value
        return out


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function in all heckelab modules; return those not found."""
    for mod in {name.split(".")[0] for name in LAYERS}:
        importlib.import_module(f"heckelab.{mod}")
    modules = [m for n, m in sys.modules.items() if n == "heckelab" or n.startswith("heckelab.")]
    missing = []
    for name in LAYERS:
        mod, func = name.split(".")
        original = getattr(sys.modules[f"heckelab.{mod}"], func, None)
        if original is None:
            missing.append(name)
            continue
        wrapped = tracer.wrap(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
    return missing
