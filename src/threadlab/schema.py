"""The JSON form of threadlab's records, and the one reader of every file threadlab reads.

Run logs, completion caches and eval reports write each record as its fields,
by name and in declaration order, and read it back by the same names, so the
field list is the one place the on-disk format is declared. A fault in any
file read is a FileError whose message starts with the path and the line.
"""

from __future__ import annotations

import json
import types
from dataclasses import fields
from functools import cache
from itertools import product
from json.scanner import make_scanner
from pathlib import Path
from typing import Callable, Iterator, Mapping, TypeVar, Union, get_args, get_origin, get_type_hints

T = TypeVar("T")


class FileError(ValueError):
    """A file that cannot be read or does not hold what it should; ``path`` leads the message."""

    path: Path | None = None

    def __str__(self) -> str:
        text = super().__str__()
        return f"{self.path}: {text}" if self.path else text


class MalformedRecord(FileError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def read(path: str | Path, parse: Callable[..., T], **kw) -> T:
    """``parse`` of the file's bytes; an unreadable file, or a ValueError from
    ``parse``, raises FileError naming the file."""
    path = Path(path)
    try:
        return parse(path.read_bytes(), **kw)
    except FileError as exc:
        error = exc
    except (OSError, ValueError) as exc:
        error = FileError(getattr(exc, "strerror", None) or str(exc))
    error.path = path
    raise error from None


def decoded(source: str | bytes) -> str:
    """``source`` as text; bytes that are not UTF-8 raise MalformedRecord naming their line."""
    if isinstance(source, str):
        return source
    try:
        return source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(source.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None


def json_value(source: str | bytes):
    """The one JSON value of a whole file."""
    try:
        return json.loads(decoded(source))
    except json.JSONDecodeError as exc:
        raise MalformedRecord(exc.lineno, f"invalid JSON: {exc.msg}") from None


# json.loads's own scanner, called without its per-call wrappers.
_scan = make_scanner(json.JSONDecoder())


def objects(source: str | bytes) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of JSONL text; only ``"\\n"``
    ends a line, as ``ensure_ascii=False`` leaves U+0085, U+2028 and U+2029 unescaped."""
    for line_no, line in enumerate(decoded(source).split("\n"), start=1):
        # An object that starts at the line's first character and ends at its
        # last is what json.loads would return for the line. Any other line,
        # blank, padded, not JSON or not an object, takes json.loads for its
        # verdict and its error message.
        try:
            rec, end = _scan(line, 0)
        except (StopIteration, ValueError):
            rec, end = None, -1
        if end != len(line) or type(rec) is not dict:
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedRecord(line_no, f"invalid JSON: {exc.msg}") from None
            if not isinstance(rec, dict):
                raise MalformedRecord(line_no, "record is not an object")
        yield line_no, rec


def build_typed(cls: type[T], line_no: int, d: Mapping) -> T:
    """``cls(**d)``, the record on line ``line_no``; a missing or unknown key, or a
    value whose JSON type is not its field's, raises."""
    if tuple(d) == _names(cls) and tuple(map(type, d.values())) in _type_rows(cls):
        # The keys are the fields in order, as every writer leaves them, and each
        # value's type is one of its field's: build positionally. Any fault takes
        # the route below, for its message.
        return cls(*d.values())
    types = _types(cls)
    try:
        record = cls(**d)
    except TypeError as exc:  # "... got an unexpected keyword argument 'x'", or "missing ..."
        raise MalformedRecord(line_no, str(exc)) from None
    for name, value in d.items():
        if type(value) not in types[name]:
            expected = " or ".join(t.__name__ for t in types[name])
            raise MalformedRecord(line_no, f"{name} is {value!r}, expected {expected}")
    return record


@cache
def _names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


# The types a JSON scalar reads back as; build_typed checks only fields of these.
_SCALARS = (str, int, float, bool, type(None))


@cache
def _types(cls: type) -> dict[str, tuple[type, ...]]:
    """Each field's types, in field order: its annotation, or the members of a
    union such as ``str | None``.

    Any other annotation, a list or tuple among them, raises TypeError: a JSON
    array needs more than a type check, so such a field must fail loudly here
    rather than reject every record that holds it.
    """
    out = {}
    hints = get_type_hints(cls)
    for name in _names(cls):
        t = hints[name]
        members = get_args(t) if get_origin(t) in (Union, types.UnionType) else (t,)
        if not all(m in _SCALARS for m in members):
            raise TypeError(
                f"build_typed checks only JSON scalar fields, not {cls.__name__}.{name}: {t}"
            )
        out[name] = members
    return out


@cache
def _type_rows(cls: type) -> frozenset[tuple[type, ...]]:
    """Every tuple of value types, in field order, that build_typed accepts for ``cls``."""
    return frozenset(product(*_types(cls).values()))


def as_fields(record) -> dict:
    """The fields of a dataclass instance, in declaration order, values as they are.

    Shallow and cheap, as every cache and log line builds one; pass this as
    ``json.dumps(..., default=as_fields)`` to encode nested records by the same rule.
    """
    return {name: getattr(record, name) for name in _names(type(record))}


def from_fields(cls: type[T], d: Mapping, **given) -> T:
    """``cls(**d, **given)`` with the JSON lists in ``d`` turned back into tuples.

    A key of ``d`` that names no field of ``cls`` raises ValueError, so a typo
    is not silently dropped; ``given`` is passed on unchanged.
    """
    unknown = d.keys() - set(_names(cls))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(sorted(unknown))}")
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in d.items()}, **given)
