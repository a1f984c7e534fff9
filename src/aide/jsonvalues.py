"""JSON values read at their JSON type and never coerced, the one rule for a
remote perception reply, a space or corpus file, a config document and a
world document: a bool is neither an integer nor a number, a float is no
integer, and a text is a non-empty string. The list forms check a whole array
in one pass, for files that hold many of them. Each reader raises
``ValueError``, which a format turns into its own error class once."""

from __future__ import annotations

import math
from typing import Callable, Collection, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

_INTEGER = frozenset((int,))
_NUMBER = frozenset((int, float))
_COUNTS = ("no", "one", "two", "three", "four")


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


def finite_numbers(n: int) -> Callable[[object], tuple[float, ...]]:
    """A reader of a pose or a box: ``n`` finite numbers, as a tuple of floats."""

    def read(value: object) -> tuple[float, ...]:
        if type(value) is not list or len(value) != n:
            raise ValueError(f"{value!r} is not {_COUNTS[n]} numbers")
        values = tuple(map(number, value))
        if not all(map(math.isfinite, values)):
            raise ValueError(f"{value!r} is not {_COUNTS[n]} finite numbers")
        return values

    return read


def text(value: object) -> str:
    """A label, id, name or image reference: a non-empty string."""
    if type(value) is not str or not value:
        raise ValueError(f"{value!r} is not a non-empty string")
    return value


def texts(values: object) -> tuple[str, ...]:
    """A list of texts, each as ``text`` reads one, as a tuple."""
    if type(values) is not list or not all(type(value) is str and value for value in values):
        raise ValueError(f"{values!r} is not a list of non-empty strings")
    return tuple(values)


def array(value: object) -> list:
    """A list, whose items the caller reads."""
    if type(value) is not list:
        raise ValueError(f"{value!r} is not a list")
    return value


def one_of(choices: Sequence[str]) -> Callable[[object], str]:
    """A reader of one of the strings ``choices``, named in order on a rejection."""

    def read(value: object) -> str:
        if value not in choices:
            raise ValueError(f"{value!r} is not one of {', '.join(choices)}")
        return value

    return read


def nullable(read: Callable[[object], T]) -> Callable[[object], T | None]:
    """A reader of null, as None, or of a value that ``read`` takes."""
    return lambda value: None if value is None else read(value)


def member(doc: object, key: str, read: Callable[[object], T], default: object = None) -> T:
    """``doc[key]`` of the mapping ``doc``, or ``default`` when the key is
    absent, through ``read``. A rejection's message starts with ``key: ``, so
    one inside nested members reads as their path (``a: b: ...``)."""
    if type(doc) is not dict:
        raise ValueError(f"{doc!r} is not a mapping")
    try:
        return read(doc.get(key, default))
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def known(doc: dict, keys: Collection[str]) -> None:
    """Reject a mapping that holds a key not among ``keys``, naming the first."""
    unknown = [key for key in doc if key not in keys]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}, not one of {', '.join(keys)}")
