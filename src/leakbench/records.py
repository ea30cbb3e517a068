"""The JSON shape of leakbench's records: configs in, reports out.

A `Record` is a dataclass whose JSON form is one key per field, in field
order. Nested records become objects and tuples become arrays. Reading a
record back takes each field's type from its annotation, so a default is
stated once, on the field, and a wrongly typed value is rejected instead of
coerced: a `bool` field takes only `true`/`false`, an `int` field only an
integer, and a `float` field an integer or a float (stored as a float).
"""

from __future__ import annotations

import dataclasses
import types
import typing
from functools import cache

from .errors import LeakbenchError

_SCALARS = {
    bool: ((bool,), "true or false"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
    dict: ((dict,), "an object"),
}


class Record:
    """Mixin giving a dataclass its JSON form (`to_dict`) and its reader
    (`from_dict`). Unknown keys are ignored; a missing key takes the field's
    default, and a missing required field is an error."""

    def to_dict(self) -> dict:
        return {name: _encode(getattr(self, name)) for name, _, _ in _field_types(type(self))}

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise LeakbenchError(f"{cls.__name__}: expected an object, got {d!r}")
        kwargs = {}
        for name, tp, required in _field_types(cls):
            if name in d:
                kwargs[name] = _decode(tp, d[name], name)
            elif required:
                raise LeakbenchError(f"missing required key '{name}'")
        return cls(**kwargs)


def _encode(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


@cache
def _field_types(cls: type) -> tuple[tuple[str, object, bool], ...]:
    """(name, annotated type, required) for each field of `cls`."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (
            f.name,
            hints[f.name],
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f in dataclasses.fields(cls)
    )


def _decode(tp, value, key: str):
    """`value` read from JSON as type `tp`; errors name the field `key`."""
    if tp in _SCALARS:
        accepted, expected = _SCALARS[tp]
        if not isinstance(value, accepted) or (tp is not bool and isinstance(value, bool)):
            raise LeakbenchError(f"key '{key}': expected {expected}, got {value!r}")
        return float(value) if tp is float else value
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (inner,) = [a for a in args if a is not type(None)]
        return _decode(inner, value, key)
    if origin is tuple:
        if not isinstance(value, list):
            raise LeakbenchError(f"key '{key}': expected an array, got {value!r}")
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(_decode(args[0], v, key) for v in value)
        if len(value) != len(args):
            raise LeakbenchError(
                f"key '{key}': expected {len(args)} values, got {len(value)}"
            )
        return tuple(_decode(a, v, key) for a, v in zip(args, value))
    return tp.from_dict(value)
