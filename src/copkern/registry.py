"""Family registry: build copula models from ``name:params`` spec strings."""

import csv
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .archimedean import archimedean_copula, make_clayton, make_frank, make_gumbel
from .core import CopulaModel, MarshallOlkinParams, make_m, make_marshall_olkin, make_pi, make_w
from .extreme_value import (
    ev_copula,
    make_galambos,
    make_gumbel_pickands,
    make_piecewise_linear_pickands,
)


class Family(NamedTuple):
    arity: int
    # (params, knots) -> the family's component: a CopulaModel for kind
    # "closed-form", a Generator for "archimedean", a PickandsFunction for
    # "extreme-value"
    build: Callable
    kind: str


def _of_params(factory: Callable) -> Callable:
    return lambda params, knots: factory(*params)


def _pwl_from_knots(params, knots):
    if knots is None:
        raise ValueError("pickands-pwl requires a knots table (--knots CSV)")
    return make_piecewise_linear_pickands(knots)


FAMILIES = {
    "pi": Family(0, _of_params(make_pi), "closed-form"),
    "m": Family(0, _of_params(make_m), "closed-form"),
    "w": Family(0, _of_params(make_w), "closed-form"),
    "clayton": Family(1, _of_params(make_clayton), "archimedean"),
    "gumbel": Family(1, _of_params(make_gumbel), "archimedean"),
    "frank": Family(1, _of_params(make_frank), "archimedean"),
    "galambos": Family(1, _of_params(make_galambos), "extreme-value"),
    "gumbel-ev": Family(1, _of_params(make_gumbel_pickands), "extreme-value"),
    "marshall-olkin": Family(
        2, lambda params, knots: make_marshall_olkin(MarshallOlkinParams(*params)),
        "closed-form",
    ),
    "pickands-pwl": Family(0, _pwl_from_knots, "extreme-value"),
}

# kind -> copula of a built component.  The lambdas look the model factories
# up at call time, so a wrapper installed on this module's attributes (as
# perfbench's tracer does) sees every model the registry builds.
COPULA_OF_KIND = {
    "closed-form": lambda model: model,
    "archimedean": lambda g: archimedean_copula(g),
    "extreme-value": lambda p: ev_copula(p),
}


def parse_spec(spec: str) -> Tuple[str, List[float]]:
    parts = spec.split(":")
    name = parts[0].strip().lower()
    if name not in FAMILIES:
        raise ValueError(f"unknown copula family '{name}' (known: {', '.join(FAMILIES)})")
    try:
        params = [float(p) for p in parts[1:]]
    except ValueError:
        raise ValueError(f"non-numeric parameter in copula spec '{spec}'")
    return name, params


def read_knots_csv(path: str) -> List[Tuple[float, float]]:
    """Read piecewise-linear Pickands knots from a CSV with header ``x,a``."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["x", "a"]:
            raise ValueError("knots CSV must have header 'x,a'")
        return [(float(row["x"]), float(row["a"])) for row in reader]


def build_component(name: str, params: Sequence[float], knots=None):
    """The component of family `name`, after checking the parameter count."""
    family = FAMILIES[name]
    if len(params) != family.arity:
        raise ValueError(f"{name} takes {family.arity} inline parameter(s), got {len(params)}")
    return family.build(params, knots)


def make_copula(spec: str, knots: Optional[Sequence[Tuple[float, float]]] = None) -> CopulaModel:
    """Build the copula model described by ``spec``, e.g. ``clayton:2``."""
    name, params = parse_spec(spec)
    return COPULA_OF_KIND[FAMILIES[name].kind](build_component(name, params, knots))


def registered_examples() -> List[str]:
    """One representative spec per registered family (used by oracle sweeps)."""
    return ["pi", "m", "w", "clayton:2", "gumbel:3", "frank:5", "galambos:3",
            "gumbel-ev:2.5", "marshall-olkin:0.5:0.7"]
