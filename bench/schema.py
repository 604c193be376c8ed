"""A small JSON Schema validator for ``schemas/cli_payloads.json``.

It covers exactly the keywords that file uses and refuses any other, so
a schema change the validator does not understand fails loudly instead
of passing silently.
"""

from __future__ import annotations

import json
import re

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}
_ANNOTATIONS = {"title", "description", "$schema", "$id", "version", "$defs"}


class PayloadSchemas:
    def __init__(self, path: str):
        with open(path) as fh:
            self.doc = json.load(fh)
        self.defs = self.doc["$defs"]

    def errors(self, action: str, value) -> list[str]:
        """Every way value breaks the ``$defs`` entry named action."""
        out: list[str] = []
        self._check(self.defs[action], value, action, out)
        return out

    def _check(self, schema: dict, value, path: str, out: list[str]):
        for key, rule in schema.items():
            if key in _ANNOTATIONS:
                continue
            if key == "$ref":
                name = rule.removeprefix("#/$defs/")
                self._check(self.defs[name], value, path, out)
            elif key == "type":
                if not _TYPES[rule](value):
                    out.append(f"{path}: expected {rule}")
                    return
            elif key == "enum":
                if value not in rule:
                    out.append(f"{path}: {value!r} not in {rule}")
            elif key == "minimum":
                if _TYPES["number"](value) and value < rule:
                    out.append(f"{path}: {value} < {rule}")
            elif key == "pattern":
                if isinstance(value, str) and not re.search(rule, value):
                    out.append(f"{path}: {value!r} does not match {rule}")
            elif key in ("minItems", "maxItems"):
                if isinstance(value, list):
                    bad = len(value) < rule if key == "minItems" else len(value) > rule
                    if bad:
                        out.append(f"{path}: {key} {rule}, got {len(value)}")
            elif key == "items":
                if isinstance(value, list):
                    for i, item in enumerate(value):
                        self._check(rule, item, f"{path}[{i}]", out)
            elif key == "properties":
                if isinstance(value, dict):
                    for name, sub in rule.items():
                        if name in value:
                            self._check(sub, value[name], f"{path}.{name}", out)
            elif key == "required":
                if isinstance(value, dict):
                    out.extend(f"{path}: missing {name}" for name in rule
                               if name not in value)
            elif key == "additionalProperties":
                if isinstance(value, dict) and rule is False:
                    known = schema.get("properties", {})
                    out.extend(f"{path}: unexpected {name}" for name in value
                               if name not in known)
            elif key == "oneOf":
                passing = 0
                for option in rule:
                    sub: list[str] = []
                    self._check(option, value, path, sub)
                    passing += not sub
                if passing != 1:
                    out.append(f"{path}: matches {passing} of oneOf")
            else:
                raise ValueError(f"schema keyword {key!r} is not supported")
