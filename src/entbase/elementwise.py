"""Arithmetic that serves a float and an (n,) array of floats alike.

A resource is built from floats and from (n,) arrays of baselines or of
swept values, through the same closed forms and checks, and the
fringe inversion runs on one baseline's floats in `run` and on (n,) arrays
of replicates. These helpers take the cheaper backend for a float, where
one numpy call costs several times the arithmetic, only where it gives the
same bits as the array path; a float result is a Python float either way.

- sqrt: math.sqrt for a float. It is correctly rounded in math and numpy
  alike.
- exp: libm's for a float and, element by element, for an array. numpy's
  vectorised exp differs from libm in the last bit on some inputs, and by
  CPU (4.6% of 200 000 random inputs in [-2 pi, 2 pi]).
- overflow_to_inf: a Python float operator for a float; for an array, the
  operator under np.errstate(over="ignore"), ~2 us that a float would pay
  per call. Both give the same +-inf; numpy alone warns of it.
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


def overflow_to_inf(op, a, b):
    """op(a, b), for op an operator-module function (add, mul, truediv): an array result
    overflows to +-inf as a float's does, without numpy's RuntimeWarning."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        with np.errstate(over="ignore"):
            return op(a, b)
    return op(a, b)


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


def item(values, i: int):
    """Entry i of an (n,) array as a Python number; a float is each of its entries."""
    return values.item(i) if isinstance(values, np.ndarray) else values
