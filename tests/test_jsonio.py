"""The private codec against the stdlib ``json``, its oracle.

``ramseybench._jsonio`` reads and writes every JSON text the package
handles through the C module ``_json``.  Its outputs must equal json's:
``dumps`` is ``json.dumps``, ``dumps_indented`` is ``json.dumps(obj,
indent=2)`` and ``loads`` is ``json.loads``, errors included, on seeded
documents (``json_cases``), Hypothesis documents and malformed texts.
``_json`` is private API, so the seeded comparison also runs under the
other interpreters the package supports.
"""

import enum
import json
import subprocess
import sys

import pytest
from helpers import OTHER_PYTHONS, REPO, child_env, other_python
from hypothesis import given, settings
from hypothesis import strategies as st
from json_cases import MALFORMED, compare, document_mismatches, text_mismatch

from ramseybench import _jsonio

TEXTS = st.one_of(st.text(), st.sampled_from(["\ud800", "a\udfffb", "\U0001f600", "\xe9"]))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(min_value=10**300, max_value=10**1000),
                    st.floats(allow_nan=True, allow_infinity=True), TEXTS)
KEYS = st.one_of(TEXTS, st.integers(), st.floats(allow_nan=True, allow_infinity=True),
                 st.booleans(), st.none())
DOCS = st.recursive(SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=5), st.lists(kids, max_size=5).map(tuple),
    st.dictionaries(KEYS, kids, max_size=5)), max_leaves=25)


def test_seeded_documents_and_malformed_texts_match_json():
    assert compare(seed=2015, count=3000) == []


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_hypothesis_documents_match_json(doc):
    assert document_mismatches(doc) == []


class Text(str):
    pass


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


# Lists of exact strs or ints are written in one join; the rest, subclasses
# and bools among them, take the recursion.
FLAT_LISTS = st.one_of(
    st.lists(st.integers(), min_size=1), st.lists(TEXTS, min_size=1),
    st.lists(st.integers(), min_size=1).map(tuple),
    st.lists(st.one_of(st.integers(), st.booleans()), min_size=1),
    st.lists(TEXTS.map(Text), min_size=1),
    st.lists(st.one_of(TEXTS, TEXTS.map(Text)), min_size=1),
    st.lists(st.sampled_from(Level), min_size=1),
    st.lists(st.one_of(st.sampled_from(Level), st.integers()), min_size=1))


@settings(max_examples=200, deadline=None)
@given(st.one_of(FLAT_LISTS, st.dictionaries(TEXTS, FLAT_LISTS, max_size=3),
                 st.lists(FLAT_LISTS, max_size=3)))
def test_flat_lists_are_written_as_json_writes_them(doc):
    assert _jsonio.dumps_indented(doc) == json.dumps(doc, indent=2)


@settings(max_examples=100, deadline=None)
@given(st.recursive(st.one_of(SCALARS, st.frozensets(st.integers(), max_size=3),
                              st.complex_numbers(allow_nan=False)),
                    lambda kids: st.lists(kids, max_size=4), max_leaves=10))
def test_default_repr_matches_json(doc):
    assert _jsonio.dumps(doc, default=repr) == json.dumps(doc, default=repr)


@pytest.mark.parametrize("doc", [{1, 2}, [b"x"], {"a": object()}, {(1, 2): 3}],
                         ids=["set", "bytes-item", "object-value", "tuple-key"])
def test_unserializable_values_are_refused_as_json_refuses_them(doc):
    with pytest.raises(TypeError) as want:
        json.dumps(doc)
    for write in (_jsonio.dumps, _jsonio.dumps_indented):
        with pytest.raises(TypeError) as got:
            write(doc)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_texts_fail_as_json_fails(text):
    assert text_mismatch(text) is None


def test_decode_errors_are_jsons_class():
    with pytest.raises(_jsonio.JSONDecodeError) as got:
        _jsonio.loads("[1 2]", "rows.json")
    assert _jsonio.JSONDecodeError is json.JSONDecodeError
    assert str(got.value) == "rows.json: Expecting ',' delimiter: line 1 column 4 (char 3)"


def test_an_int_past_the_digit_limit_passes_through_unchanged():
    text = "[" + "7" * (sys.get_int_max_str_digits() + 1) + "]"
    with pytest.raises(ValueError) as want:
        json.loads(text)
    for where in ("", "big.json"):
        with pytest.raises(ValueError) as got:
            _jsonio.loads(text, where)
        assert type(got.value) is ValueError
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("opener", ["[", '{"a":'])
def test_a_deep_document_is_a_value_error(opener):
    text = opener * 100_000
    with pytest.raises(RecursionError):
        json.loads(text)
    with pytest.raises(ValueError) as got:
        _jsonio.loads(text)
    assert type(got.value) is ValueError
    assert str(got.value) == "JSON document nested too deeply to read"
    with pytest.raises(ValueError, match=r"^deep\.json: JSON document nested too deeply to read$"):
        _jsonio.loads(text, "deep.json")


@pytest.mark.parametrize("python", OTHER_PYTHONS)
def test_codec_matches_json_on_other_interpreters(python):
    exe = other_python(python)
    proc = subprocess.run([exe, str(REPO / "tests" / "json_cases.py"), "2015", "2000"],
                          capture_output=True, text=True, env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["version"].startswith(python.removeprefix("python"))
    assert (report["documents"], report["bad"]) == (2000, [])
