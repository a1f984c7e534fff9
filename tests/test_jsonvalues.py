"""The readers of ``aide.jsonvalues``: each takes a value at its JSON type or
raises ``ValueError``, and ``member`` names the key of a rejected value."""

from __future__ import annotations

import math
import re

import pytest

from aide.jsonvalues import array, finite_numbers, member, nullable, one_of, text, texts


@pytest.mark.parametrize(
    "read, value, expected",
    [
        (text, "cup", "cup"),
        (texts, ["cold", "round"], ("cold", "round")),
        (texts, [], ()),
        (array, [1, "a", None], [1, "a", None]),
        (array, [], []),
        (finite_numbers(3), [20, 32.5, 0], (20.0, 32.5, 0.0)),
        (finite_numbers(4), [0.0, 1.0, 2.0, 3.0], (0.0, 1.0, 2.0, 3.0)),
        (one_of(("clear", "absent")), "absent", "absent"),
        (nullable(text), None, None),
        (nullable(text), "fridge", "fridge"),
    ],
)
def test_a_reader_returns_the_value_it_takes(read, value, expected):
    got = read(value)
    assert got == expected and type(got) is type(expected)
    if type(expected) is tuple:
        assert all(type(item) is type(want) for item, want in zip(got, expected))


@pytest.mark.parametrize(
    "read, value, message",
    [
        (text, "", "'' is not a non-empty string"),
        (text, 5, "5 is not a non-empty string"),
        (text, None, "None is not a non-empty string"),
        (text, ["cup"], "['cup'] is not a non-empty string"),
        (texts, "cold", "'cold' is not a list of non-empty strings"),
        (texts, ["cold", ""], "['cold', ''] is not a list of non-empty strings"),
        (texts, ["cold", 3], "['cold', 3] is not a list of non-empty strings"),
        (array, "ab", "'ab' is not a list"),
        (array, {"a": 1}, "{'a': 1} is not a list"),
        (array, (1, 2), "(1, 2) is not a list"),
        (finite_numbers(3), "abc", "'abc' is not three numbers"),
        (finite_numbers(3), [1.0, 2.0], "[1.0, 2.0] is not three numbers"),
        (finite_numbers(4), [1.0, 2.0, 3.0], "[1.0, 2.0, 3.0] is not four numbers"),
        (finite_numbers(4), [True, 1.0, 2.0, 3.0], "True is not a number"),
        (finite_numbers(4), [0.0, 1.0, math.nan, 3.0], "[0.0, 1.0, nan, 3.0] is not four finite numbers"),
        (finite_numbers(3), [0.0, math.inf, 0.0], "[0.0, inf, 0.0] is not three finite numbers"),
        (one_of(("clear", "absent")), "easy", "'easy' is not one of clear, absent"),
        (one_of(("clear", "absent")), 5, "5 is not one of clear, absent"),
        (one_of(("visible", "blurred")), ["visible"], "['visible'] is not one of visible, blurred"),
        (nullable(text), 5, "5 is not a non-empty string"),
    ],
)
def test_a_reader_rejects_a_value_of_another_shape(read, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read(value)


def test_member_reads_a_key_or_its_default_through_the_reader():
    doc = {"label": "cup", "rank": 2}
    assert member(doc, "label", text) == "cup"
    assert member(doc, "attributes", texts, []) == ()
    assert member(doc, "unseen", nullable(text)) is None
    # The default is read too: a missing key without one is null.
    with pytest.raises(ValueError, match=r"^image: None is not a non-empty string$"):
        member(doc, "image", text)


def test_member_names_the_path_of_a_nested_rejection():
    doc = {"a": {"b": 5}}
    with pytest.raises(ValueError, match=r"^a: b: 5 is not a non-empty string$"):
        member(doc, "a", lambda inner: member(inner, "b", text))


@pytest.mark.parametrize("doc", [["label"], "label", None, 5])
def test_member_reads_only_a_mapping(doc):
    with pytest.raises(ValueError, match=f"^{re.escape(repr(doc))} is not a mapping$"):
        member(doc, "label", text)
