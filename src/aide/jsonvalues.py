"""JSON values read at their JSON type and never coerced, the one rule for a
remote perception reply, a space or corpus file, a config document and a
world document: a bool is neither an integer nor a number, and a float is no
integer. The list forms check a whole array in one pass, for files that hold
many of them."""

from __future__ import annotations

import numpy as np

_INTEGER = frozenset((int,))
_NUMBER = frozenset((int, float))


def integer(value: object) -> int:
    """A coordinate, size, rank or index: an int (a bool is not one)."""
    if type(value) not in _INTEGER:
        raise ValueError(f"{value!r} is not an integer")
    return value


def number(value: object) -> float:
    """A number: an int or a float (a bool is not one), as a float."""
    if type(value) not in _NUMBER:
        raise ValueError(f"{value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{value!r} is too large for a float") from None


def integers(values: object) -> list[int]:
    """A list of integers, each as ``integer`` reads one."""
    if type(values) is not list or not _INTEGER.issuperset(map(type, values)):
        raise ValueError(f"{values!r} is not a list of integers")
    return values


def numbers(values: object) -> np.ndarray:
    """A list of numbers, each as ``number`` reads one, as a float array."""
    if type(values) is not list or not _NUMBER.issuperset(map(type, values)):
        raise ValueError(f"{values!r} is not a list of numbers")
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{values!r} holds an integer too large for a float") from None
