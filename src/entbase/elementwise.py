"""Arithmetic that serves a float and an (n,) array of floats alike.

A resource is built from floats in `run`'s per-baseline loop and from
(n,) arrays in `sweep`, through the same closed forms and checks, and the
fringe inversion runs on one baseline's floats in `run` and on (n,) arrays
of replicates. These helpers take the cheaper backend for a float, where
one numpy call costs several times the arithmetic, only where it gives the
same bits as the array path; a float result is a Python float either way.

- sqrt: math.sqrt for a float. It is correctly rounded in math and numpy
  alike.
- exp: libm's for a float and, element by element, for an array. numpy's
  vectorised exp differs from libm in the last bit on some inputs, and by
  CPU (4.6% of 200 000 random inputs in [-2 pi, 2 pi]).
- atan2, hypot, sin: numpy's ufunc for a float too, converted with float().
  libm's atan2 differs from np.arctan2 on 7.9% of 200 000 random inputs in
  [-1, 1]^2, and libm's hypot from np.hypot on 0.6%. libm's sin matched
  np.sin on all of them, but which sin loop numpy takes depends on its build
  and the CPU; only the ufunc itself is sure to give the array's bits.
  (Rates measured with numpy 2.4.6 on an AVX-512 Xeon.) A scalar ufunc call
  costs ~0.25 us for sin and ~1.4 us for the two-argument ones.
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


def _float_or_array(out):
    """A ufunc's result: the array it returns for arrays, a Python float for floats."""
    return out if isinstance(out, np.ndarray) else float(out)


def atan2(y, x):
    return _float_or_array(np.arctan2(y, x))


def hypot(x, y):
    return _float_or_array(np.hypot(x, y))


def sin(x):
    return _float_or_array(np.sin(x))


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
