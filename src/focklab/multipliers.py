"""Registry of bounded functions on R^n used as multiplication symbols.

Each entry wraps a vectorized evaluator defined on all of R^n.  CLI
identifiers look like ``constant:1``, ``modulation:0.7``, ``signum``,
``chirp43``, ``bump``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "MultiplierSpec",
    "constant",
    "modulation",
    "signum",
    "chirp43",
    "bump",
    "parse_multiplier",
    "REGISTRY",
]


@dataclass(frozen=True)
class MultiplierSpec:
    """A bounded function m on R^n, evaluable at arbitrary real points."""

    label: str
    evaluator: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(x, dtype=float)), dtype=complex)


def _radial(x: np.ndarray) -> np.ndarray:
    # 1D points pass through; (m, n) points collapse to |x| for radial kinds
    return x if x.ndim == 1 else np.sqrt(np.sum(x * x, axis=1))


def constant(c: complex = 1.0) -> MultiplierSpec:
    c = complex(c)
    return MultiplierSpec(f"constant:{c.real:g}" if c.imag == 0 else f"constant:{c}",
                          lambda x: np.full(x.shape[0] if x.ndim > 1 else x.shape, c))


def modulation(c) -> MultiplierSpec:
    """m(x) = exp(-2i c . x); its symbol is the exponential e^{c z - |c|^2/2}."""
    cv = np.atleast_1d(np.asarray(c, dtype=float))

    def ev(x: np.ndarray) -> np.ndarray:
        dim = 1 if x.ndim == 1 else x.shape[1]
        if dim != cv.size:
            raise ValueError(f"a {cv.size}-component modulation cannot act on points "
                             f"of dimension {dim}")
        dot = cv[0] * x if x.ndim == 1 else x @ cv
        return np.exp(-2j * dot)

    lbl = f"modulation:{cv[0]:g}" if cv.size == 1 else "modulation:" + ",".join(f"{c:g}" for c in cv)
    return MultiplierSpec(lbl, ev)


def signum() -> MultiplierSpec:
    """sign(x) on the line: bounded, but not a first-order multiplier."""

    def ev(x: np.ndarray) -> np.ndarray:
        if x.ndim > 1:
            raise ValueError("signum is one-dimensional")
        return np.sign(x)

    return MultiplierSpec("signum", ev)


def chirp43() -> MultiplierSpec:
    """exp(i |x|^{4/3}): unimodular chirp whose local frequency grows like |x|^{1/3}."""

    def ev(x: np.ndarray) -> np.ndarray:
        if x.ndim > 1:
            raise ValueError("chirp43 is one-dimensional")
        return np.exp(1j * np.abs(x) ** (4.0 / 3.0))

    return MultiplierSpec("chirp43", ev)


def bump(width: float = 1.0) -> MultiplierSpec:
    """Gaussian bump exp(-|x|^2/width^2): smooth, localized, analytic (so all
    quadratures against it converge superexponentially)."""
    if not width > 0:
        raise ValueError(f"bump width must be positive; got {width}")
    w2 = float(width) ** 2

    def ev(x: np.ndarray) -> np.ndarray:
        r = _radial(x)
        return np.exp(-r * r / w2)

    return MultiplierSpec("bump" if width == 1.0 else f"bump:{width:g}", ev)


# name -> (constructor, fewest, most parameters an identifier may give it);
# every identifier consumer is one-dimensional, so a modulation has one
# component
REGISTRY: dict[str, tuple[Callable[..., MultiplierSpec], int, int]] = {
    "constant": (constant, 0, 1),
    "modulation": (modulation, 1, 1),
    "signum": (signum, 0, 0),
    "chirp43": (chirp43, 0, 0),
    "bump": (bump, 0, 1),
}


def parse_multiplier(ident: str) -> MultiplierSpec:
    """Build a registry multiplier from an identifier like ``modulation:0.7``.

    Raises KeyError for an unknown name and ValueError for a parameter list
    of the wrong length or with non-finite entries.
    """
    name, _, arg = ident.partition(":")
    if name not in REGISTRY:
        raise KeyError(f"unknown multiplier {name!r}; known: {sorted(REGISTRY)}")
    vals = [float(p) for p in arg.split(",")] if arg else []
    if not np.isfinite(vals).all():
        raise ValueError(f"multiplier parameters must be finite; got {arg!r}")
    make, lo, hi = REGISTRY[name]
    if not lo <= len(vals) <= hi:
        want = ("no parameters" if hi == 0 else "exactly one parameter" if lo == 1
                else "at most one parameter")
        raise ValueError(f"multiplier {name!r} takes {want}; got {len(vals)} in {ident!r}")
    return make(*vals)
