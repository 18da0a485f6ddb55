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
        dot = cv[0] * x if x.ndim == 1 else x @ cv
        return np.exp(-2j * dot)

    lbl = f"modulation:{cv[0]:g}" if cv.size == 1 else "modulation:" + ",".join(f"{c:g}" for c in cv)
    return MultiplierSpec(lbl, ev)


def signum() -> MultiplierSpec:
    """sign(x) on the line: bounded, but not a first-order multiplier."""
    return MultiplierSpec("signum", lambda x: np.sign(_radial_sign(x)))


def _radial_sign(x: np.ndarray) -> np.ndarray:
    if x.ndim > 1:
        raise ValueError("signum is one-dimensional")
    return x


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


REGISTRY: dict[str, Callable[..., MultiplierSpec]] = {
    "constant": constant,
    "modulation": modulation,
    "signum": signum,
    "chirp43": chirp43,
    "bump": bump,
}


def parse_multiplier(ident: str) -> MultiplierSpec:
    """Build a registry multiplier from an identifier like ``modulation:0.7``."""
    name, _, arg = ident.partition(":")
    if name not in REGISTRY:
        raise KeyError(f"unknown multiplier {name!r}; known: {sorted(REGISTRY)}")
    factory = REGISTRY[name]
    if not arg:
        return factory()
    vals = [float(p) for p in arg.split(",")]
    if not np.isfinite(vals).all():
        raise ValueError(f"multiplier parameters must be finite; got {arg!r}")
    return factory(vals[0] if len(vals) == 1 else vals)
