"""Seeded JSON documents and malformed texts, and the comparison of
``ramseybench._jsonio`` with the stdlib ``json`` on them.

Stdlib only, so that other interpreters, where pytest may be absent, run
the same comparison::

    python tests/json_cases.py SEED COUNT

prints ``{"version": ..., "documents": COUNT, "bad": [...]}``, where
``bad`` names every seeded document and malformed text on which the two
differ.
"""

import json
import random
import sys

from ramseybench import _jsonio

NAN, INF = float("nan"), float("inf")
# Characters that stress the string writer and reader: quotes, escapes,
# controls, non-ASCII, astral characters and lone surrogates.
CHARS = ('ab"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\xff\u0100\u2028\u2603\ufeff'
         '\ud800\udbff\udc00\udfff\U0001f600')
FLOATS = (NAN, INF, -INF, 0.0, -0.0, 0.1, 1e16, 1e308, 5e-324, -2.5)
OPAQUE = (frozenset({1, 2}), 1 + 2j, b"raw", range(3))

# Texts json refuses, each with a different message or position; the
# BOM, "Extra data" and "Expecting value" errors are raised by the reader
# itself, the rest by the scanner.
MALFORMED = (
    "", " ", "\n\t ", "{not json", "[1,", "[1 2]", '{"a" 1}', '{"a": 1,}', "[1,]",
    '{"a": [1, 2}', "{1: 2}", '"ab', '"\\x"', '"\\u12"', '"\\ud800\\u"', '"a\x01b"',
    "\ufeff[]", "\ufeff", "[] x", "1 2", "{} {}", "nul", "tru", "fals", "01", "-",
    "1e", "1.", "-Infinity x", "NaN1", "[-]", "\n\n  [1,\n 2 3]", '{"a":\n\n}',
    "[" * 50, "]", "}", '{"a" : 1 "b": 2}', "\x00", "[\xa0]",
)


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(CHARS) for _ in range(rng.randrange(6)))


def random_scalar(rng: random.Random, opaque: bool = False):
    kind = rng.randrange(8 if opaque else 7)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.randint(-10**6, 10**6)
    if kind == 2:
        return rng.choice((1, -1)) * rng.randrange(10**rng.randrange(20, 400))
    if kind == 3:
        return rng.choice(FLOATS)
    if kind == 4:
        return rng.uniform(-1e6, 1e6) * 10.0**rng.randint(-30, 30)
    if kind == 5:
        return rng.choice((True, False))
    if kind == 6:
        return None
    return rng.choice(OPAQUE)


def random_key(rng: random.Random):
    kind = rng.randrange(5)
    if kind == 0:
        return random_text(rng)
    if kind == 1:
        return rng.randint(-10**20, 10**20)
    if kind == 2:
        return rng.choice(FLOATS + (rng.uniform(-1e3, 1e3),))
    if kind == 3:
        return rng.choice((True, False))
    return None


def random_doc(rng: random.Random, opaque: bool = False, depth: int = 0):
    """A nested list, tuple or dict of scalars, or a scalar; with ``opaque``
    some leaves are values JSON cannot hold."""
    if depth >= 4 or rng.random() < 0.3:
        return random_scalar(rng, opaque)
    size = rng.randrange(5)
    kind = rng.randrange(3)
    if kind == 2:
        return {random_key(rng): random_doc(rng, opaque, depth + 1) for _ in range(size)}
    items = [random_doc(rng, opaque, depth + 1) for _ in range(size)]
    return tuple(items) if kind else items


def decode_outcome(read, text: str):
    """What reading ``text`` gives: the document's repr (NaN-safe), or the
    error's type, text, message and position."""
    try:
        return ("ok", repr(read(text)))
    except ValueError as exc:
        # by name: a JSONDecodeError raised after json was unloaded is of a
        # fresh copy of the class
        return (type(exc).__name__, str(exc),
                *(getattr(exc, name, None) for name in ("msg", "pos", "lineno", "colno")))


def _json_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "json" or n.startswith("json.")}


def unloaded(read):
    """``read`` run as in a call that has not imported json, where on
    Python 3.10 and 3.11 the scanner cannot raise its own errors.  The
    json modules loaded before are put back after."""
    def run(text):
        saved = _json_modules()
        for name in saved:
            del sys.modules[name]
        try:
            return read(text)
        finally:
            for name in _json_modules():
                del sys.modules[name]
            sys.modules.update(saved)
    return run


def document_mismatches(doc) -> list:
    """The codec's outputs that differ from json's on ``doc``."""
    bad = []
    if _jsonio.dumps(doc, default=repr) != json.dumps(doc, default=repr):
        bad.append("dumps")
    try:
        compact, indented = json.dumps(doc), json.dumps(doc, indent=2)
    except TypeError as exc:
        for name, write in (("dumps", _jsonio.dumps), ("dumps_indented", _jsonio.dumps_indented)):
            try:
                write(doc)
                bad.append(f"{name} accepts what json refuses")
            except TypeError as mine:
                if str(mine) != str(exc):
                    bad.append(f"{name} refuses with {mine}")
        return bad
    if _jsonio.dumps(doc) != compact:
        bad.append("dumps")
    if _jsonio.dumps_indented(doc) != indented:
        bad.append("dumps_indented")
    for text in (compact, indented, f" \n{compact}\t\r\n"):
        if decode_outcome(_jsonio.loads, text) != decode_outcome(json.loads, text):
            bad.append(f"loads {text[:40]!r}")
    return bad


def text_mismatch(text: str):
    """None when the codec reads ``text`` as json does, with and without a
    ``where`` prefix; else both outcomes."""
    want = decode_outcome(json.loads, text)
    got = decode_outcome(unloaded(_jsonio.loads), text)
    if got != want:
        return [text, got, want]
    got = decode_outcome(unloaded(lambda t: _jsonio.loads(t, "in.json")), text)
    if want[0] == "JSONDecodeError":
        want = (want[0], f"in.json: {want[1]}", f"in.json: {want[2]}", *want[3:])
    return None if got == want else [text, got, want]


def compare(seed: int, count: int) -> list:
    """Every seeded document, and every malformed text, on which the codec
    and json differ."""
    rng = random.Random(seed)
    bad = []
    for i in range(count):
        doc = random_doc(rng, opaque=i % 4 == 0)
        problems = document_mismatches(doc)
        if problems:
            bad.append([i, repr(doc)[:200], problems])
    for text in MALFORMED:
        problem = text_mismatch(text)
        if problem is not None:
            bad.append([repr(x) for x in problem])
    return bad


if __name__ == "__main__":
    seed, count = map(int, sys.argv[1:3])
    print(json.dumps({"version": sys.version.split()[0], "documents": count,
                      "bad": compare(seed, count)}))
