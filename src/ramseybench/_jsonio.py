"""JSON in and out through the C module ``_json``, without the ``json`` package.

Importing ``json`` loads ``json.decoder``, ``json.scanner`` and
``json.encoder`` and compiles their regular expressions, about 1.0 ms of a
cold start against 0.1 ms for ``_json``, which does the work either way.
So every call reads and writes here:

- ``loads(text, where)`` is ``json.loads(text)`` on ``_json.make_scanner``,
  with the same ``JSONDecodeError`` messages and positions;
- ``dumps(obj, default)`` is ``json.dumps(obj, default=default)`` on
  ``_json.make_encoder``;
- ``dumps_indented(obj)`` is ``json.dumps(obj, indent=2)``, written as a
  recursion over the scalar texts, with a flat list of exact strs or ints
  in one join.

``json`` is imported only when a read fails, for ``JSONDecodeError``,
the class of json's decode errors, which lives in ``json.decoder``.
"""

from __future__ import annotations

import _json

_WHITESPACE = " \t\n\r"
_encode_str = _json.encode_basestring_ascii
_NAN, _INF = float("nan"), float("inf")


class _Decoder:
    """The attributes ``_json.make_scanner`` reads, as ``json.JSONDecoder()``
    sets them."""

    strict = True
    object_hook = object_pairs_hook = None
    parse_float = float
    parse_int = int
    parse_constant = {"-Infinity": -_INF, "Infinity": _INF, "NaN": _NAN}.__getitem__


_scan = _json.make_scanner(_Decoder)


def __getattr__(name):
    # ``except _jsonio.JSONDecodeError`` evaluates this only when an
    # exception reaches the clause, so no success path imports json
    if name == "JSONDecodeError":
        from json.decoder import JSONDecodeError
        return JSONDecodeError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _skip(text: str, i: int) -> int:
    """The index of the first character at or after ``i`` that is not JSON
    whitespace; no copy is made when ``i`` is 0 and none is skipped."""
    return len(text) - len(text[i:].lstrip(_WHITESPACE))


def _decode_error(msg: str, text: str, pos: int, where: str):
    from json.decoder import JSONDecodeError
    return JSONDecodeError(f"{where}: {msg}" if where else msg, text, pos)


def loads(text: str, where: str = ""):
    """``json.loads(text)``.  A decode error's message starts with
    ``where`` when it is given; a document nested too deeply for the
    scanner's recursion raises ValueError instead of RecursionError."""
    if text.startswith("\ufeff"):
        raise _decode_error("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0, where)
    start = _skip(text, 0)
    try:
        doc, end = _scan(text, start)
    except StopIteration as exc:
        raise _decode_error("Expecting value", text, exc.value, where) from None
    except RecursionError:
        # the scanner recurses once per nesting level
        raise ValueError(f"{where}: JSON document nested too deeply to read" if where
                         else "JSON document nested too deeply to read") from None
    except (SystemError, ValueError):
        # The scanner raises its own syntax errors as json.decoder's
        # JSONDecodeError; on Python 3.10 and 3.11 it finds that class only
        # once json.decoder is loaded, and fails with SystemError before.
        # Load it and scan again: the error repeats, now with its class.  A
        # ValueError of another kind (an int past the digit limit) repeats
        # as itself and passes through.
        from json.decoder import JSONDecodeError
        try:
            _scan(text, start)
        except JSONDecodeError as exc:
            raise _decode_error(exc.msg, text, exc.pos, where) from None
        raise
    end = _skip(text, end)
    if end != len(text):
        raise _decode_error("Extra data", text, end, where)
    return doc


def _unserializable(obj):
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def dumps(obj, default=_unserializable) -> str:
    """``json.dumps(obj, default=default)``: one line, ASCII, ``", "`` and
    ``": "`` separators; ``default`` turns what JSON cannot hold into what
    it can."""
    # markers (for json's circular-reference check), default, the string
    # encoder, indent, key and item separators, sort_keys, skipkeys, allow_nan
    encode = _json.make_encoder({}, default, _encode_str, None,
                                ": ", ", ", False, False, True)
    return "".join(encode(obj, 0))


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _scalar_text(obj) -> str:
    """A scalar's text, subclasses included, in ``json``'s order of checks."""
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    _unserializable(obj)


# The texts of the scalar types a flat list is written with in one join.
_FLAT_TEXTS = {str: _encode_str, int: int.__repr__}


def _indented(obj, head: str, newline: str, out: list) -> None:
    """Append ``head`` and then the text of ``obj`` at the depth that
    ``newline`` (a line break and that depth's indent) marks."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            out.append(head + "[]")
            return
        inner = newline + "  "
        kinds = set(map(type, obj))
        # a list of exact strs, or of exact ints, is one join; subclasses,
        # bools and mixed lists take the recursion, which keeps their texts
        if len(kinds) == 1 and (text := _FLAT_TEXTS.get(kinds.pop())):
            out.append(head + "[" + inner + ("," + inner).join(map(text, obj)) + newline + "]")
            return
        sep = head + "[" + inner
        for item in obj:
            _indented(item, sep, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append(head + "{}")
            return
        inner = newline + "  "
        sep = head + "{" + inner
        for key, item in obj.items():
            try:
                name = _encode_str(key if isinstance(key, str) else _scalar_text(key))
            except TypeError:
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {key.__class__.__name__}") from None
            _indented(item, sep + name + ": ", inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(head + _scalar_text(obj))


def dumps_indented(obj) -> str:
    """``json.dumps(obj, indent=2)``: ASCII, two-space indent, ``","`` and
    ``": "`` separators.  What JSON cannot hold raises TypeError."""
    out = []
    _indented(obj, "", "\n", out)
    return "".join(out)
