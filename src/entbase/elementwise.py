"""Arithmetic that serves a float and an (n,) array of floats alike.

A resource is built from floats in `run`'s per-baseline loop and from
(n,) arrays in `sweep`, through the same closed forms and checks. These
helpers take plain Python for a float, where one numpy call would cost
several times the arithmetic, and numpy for an array. Each gives the same
bits either way: sqrt is correctly rounded in math and numpy alike, and
exp is libm's for both, element by element, because numpy's vectorised
exp differs from libm in the last bit on some inputs, and by CPU.
"""

from __future__ import annotations

import math

import numpy as np


def sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def exp(x):
    """libm's exp of x, element by element for an (n,) array."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(math.exp, x.tolist()), float, x.size)
    return math.exp(x)


def where(cond, a, b):
    """a where cond holds, else b: np.where for a bool array, a conditional for a bool."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def any_set(flags):
    """Whether flags, a bool or a bool array, is set anywhere (truthy or not)."""
    return flags.any() if isinstance(flags, np.ndarray) else flags


def first_set(values, flags):
    """The entry of values at the first set flag of flags, as a Python number for an
    array (a message then formats it as it formats a float); values itself for a
    bool flag."""
    return values.item(flags.argmax()) if isinstance(flags, np.ndarray) else values
