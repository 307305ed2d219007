"""Exception types shared across the package, and the config checks.

The CLI maps ConfigError to exit code 1 and every other ByzfedError
(and unexpected exceptions) to exit code 2.
"""

import dataclasses
import math
import numbers


class ByzfedError(Exception):
    """Base class for package errors."""


class ConfigError(ByzfedError, ValueError):
    """Invalid configuration or invalid argument combination."""


class DataError(ByzfedError, RuntimeError):
    """Input data cannot be processed (ingestion, empty pools, etc.)."""


class ClusteringError(DataError):
    """Clustering produced no usable clusters."""


class NumericError(ByzfedError, ArithmeticError):
    """Numerical failure such as divergence of an iterative solver."""


def require_int(name, value, low) -> None:
    """Raise ConfigError unless value is an integer >= low (not a bool or float)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")


def require_real(name, value, *, positive=False, finite=True, optional=False) -> None:
    """Raise ConfigError unless value is a real number (not a bool, not NaN)
    >= 0, or > 0 if positive; infinity passes only if finite is False, and
    None only if optional."""
    if optional and value is None:
        return
    if not (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
        and (value > 0 if positive else value >= 0)  # False for NaN
        and (finite is False or math.isfinite(value))
    ):
        bound = "> 0" if positive else ">= 0"
        raise ConfigError(f"{name} must be {'finite and ' if finite else ''}{bound}, got {value!r}")


def real_field(spec, name, **checks) -> None:
    """require_real on field name of the frozen dataclass spec, which then
    holds float(value) or None: 2 and 2.0 give one spec and one run id."""
    value = getattr(spec, name)
    require_real(name, value, **checks)
    object.__setattr__(spec, name, None if value is None else float(value))


def require_read(spec, kind: str, what: str, readers: dict) -> None:
    """Raise ConfigError if a field of the dataclass spec is not at its
    default while kind is not among readers[field], the kinds that read it,
    as in "cluster method 'lloyd' takes no C; only 'trimmed_kmeans' does"."""
    defaults = {f.name: f.default for f in dataclasses.fields(spec)}
    for name, kinds in readers.items():
        value, default = getattr(spec, name), defaults[name]
        if kind not in kinds and value is not default and (default is None or value != default):
            *rest, last = map(repr, kinds)
            listed = f"{', '.join(rest)} and {last}" if rest else last
            raise ConfigError(f"{what} {kind!r} takes no {name}; only {listed} "
                              f"{'do' if rest else 'does'}")
