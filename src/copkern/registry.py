"""Family registry: build copula models from ``name:params`` spec strings."""

import csv
import io
import math
import warnings
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .archimedean import archimedean_copula, make_clayton, make_frank, make_gumbel
from .core import CopulaModel, make_m, make_pi, make_w
from .extreme_value import (
    ev_copula,
    make_galambos,
    make_gumbel_pickands,
    make_marshall_olkin,
    make_piecewise_linear_pickands,
)


class Family(NamedTuple):
    arity: int
    # factory(*params), or factory(knots) for a family that takes knots: the
    # family's component, a CopulaModel for kind "closed-form", a Generator
    # for "archimedean", a PickandsFunction for "extreme-value"
    factory: Callable
    kind: str
    takes_knots: bool = False


FAMILIES = {
    "pi": Family(0, make_pi, "closed-form"),
    "m": Family(0, make_m, "closed-form"),
    "w": Family(0, make_w, "closed-form"),
    "clayton": Family(1, make_clayton, "archimedean"),
    "gumbel": Family(1, make_gumbel, "archimedean"),
    "frank": Family(1, make_frank, "archimedean"),
    "galambos": Family(1, make_galambos, "extreme-value"),
    "gumbel-ev": Family(1, make_gumbel_pickands, "extreme-value"),
    "marshall-olkin": Family(2, make_marshall_olkin, "closed-form"),
    "pickands-pwl": Family(0, make_piecewise_linear_pickands, "extreme-value", takes_knots=True),
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


# the ASCII separators 0x1c-0x1f: numpy's float parser strips them as
# whitespace, float() does not
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def read_float_csv(path: str, header: Sequence[str], what: str) -> np.ndarray:
    """The (rows, k) float64 array of a CSV of floats under the k-column `header`.

    Blank lines and a leading UTF-8 byte order mark are skipped.  The body is
    parsed by numpy's C text reader, which converts each field with the
    routine behind ``float()``.  Only where it rejects the body (a quoted
    field, a digit separator, a field it cannot convert, a column count other
    than k, no rows) or could read a field unlike ``float()`` (one holding a
    `_NUMPY_ONLY_SPACE` separator) is the body scanned again with ``csv``,
    which gives the array or names the physical line of the first malformed
    row.  Accepted inputs, arrays and error messages are those of the ``csv``
    scan alone, save one: a field longer than ``csv.field_size_limit()``,
    which the scan refuses with ``csv.Error``, is read.
    """
    k = len(header)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        if [f.strip() for f in next(reader, [])] != list(header):
            raise ValueError(f"{what} CSV must have header '{','.join(header)}'")
        try:
            body = fh.read()
            if not any(c in body for c in _NUMPY_ONLY_SPACE):
                with warnings.catch_warnings():
                    # numpy warns "input contained no data" for a header-only file
                    warnings.simplefilter("error")
                    rows = np.loadtxt(io.StringIO(body, newline=None), delimiter=",",
                                      dtype=float, comments=None, ndmin=2)
                if rows.shape[1] == k:
                    return rows
        except (ValueError, Warning):
            pass  # a rejected or undecodable body: the scan gives its array or error
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        values = []
        for row in filter(None, reader):
            try:
                if len(row) != k:
                    raise ValueError
                values.extend(map(float, row))
            except ValueError:
                raise ValueError(
                    f"{what} CSV line {reader.line_num}: expected {k} numbers, "
                    f"got '{','.join(row)}'"
                ) from None
        return np.array(values, float).reshape(-1, k)


def read_knots_csv(path: str) -> np.ndarray:
    """The (knots, 2) array of piecewise-linear Pickands knots in a CSV with header ``x,a``."""
    return read_float_csv(path, ("x", "a"), "knots")


def build_component(name: str, params: Sequence[float], knots=None):
    """The component of family `name`, after checking its parameters and knots."""
    family = FAMILIES[name]
    if len(params) != family.arity:
        raise ValueError(f"{name} takes {family.arity} inline parameter(s), got {len(params)}")
    if not all(math.isfinite(p) for p in params):
        raise ValueError(f"{name} parameters must be finite, got {list(params)}")
    if (knots is not None) != family.takes_knots:
        need = "requires a" if family.takes_knots else "takes no"
        raise ValueError(f"{name} {need} knots table (--knots CSV)")
    return family.factory(knots) if family.takes_knots else family.factory(*params)


def make_copula(spec: str, knots: Optional[Sequence[Tuple[float, float]]] = None) -> CopulaModel:
    """Build the copula model described by ``spec``, e.g. ``clayton:2``."""
    name, params = parse_spec(spec)
    return COPULA_OF_KIND[FAMILIES[name].kind](build_component(name, params, knots))


def registered_examples() -> List[str]:
    """One representative spec per registered family (used by oracle sweeps)."""
    return ["pi", "m", "w", "clayton:2", "gumbel:3", "frank:5", "galambos:3",
            "gumbel-ev:2.5", "marshall-olkin:0.5:0.7"]
