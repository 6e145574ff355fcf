"""The JSON form of threadlab's records, and the one reader of every file threadlab reads.

Run logs, completion caches and eval reports write each record as its fields,
by name and in declaration order, and one reader, ``typed``, reads every one
back by the same fields, so the field list is the one place the on-disk format
is declared, for reading as well as writing. Cache lines and run-log record
lines are written by one writer, ``json_line``, and read by one reader per
class, ``record_reader``. A fault in any file read is a FileError whose
message starts with the path and the line.
"""

from __future__ import annotations

import json
import re
import types
from collections.abc import Callable, Iterator, Mapping
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from itertools import product
from json.encoder import encode_basestring
from json.scanner import make_scanner
from pathlib import Path
from typing import TypeVar, Union, get_args, get_origin, get_type_hints

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
# Half a surrogate pair, which no file or prompt can encode, and the one escape that gives it.
_HALF, _HALF_ESCAPE = re.compile("[\ud800-\udfff]"), re.compile(r"\\u[dD]")


def objects(source: str | bytes) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of JSONL text; only ``"\\n"``
    ends a line, as ``ensure_ascii=False`` leaves U+0085, U+2028 and U+2029 unescaped.
    A string holding half a surrogate pair raises MalformedRecord on its line."""
    text = decoded(source)
    # Only a \ud escape gives half a pair, and most files hold no backslash at all.
    halves = "\\" in text and _HALF_ESCAPE.search(text) is not None
    lines = text.split("\n")
    del text  # the lines hold the file's one copy of its text
    for line_no, line in enumerate(lines, start=1):
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
        if halves and _HALF_ESCAPE.search(line) and (where := _unencodable(rec)):
            raise MalformedRecord(line_no, f"{where} is not valid Unicode text")
        yield line_no, rec


def _unencodable(value, path: str = "") -> str | None:
    """The dotted path of the first string in a record that holds half a surrogate pair."""
    if type(value) is str:
        return path if _HALF.search(value) else None
    keyed = (value.items() if type(value) is dict
             else enumerate(value) if type(value) is list else ())
    return next(filter(None, (
        _unencodable(item, _at(path, key) if type(key) is str else f"{path}[{key}]")
        for key, item in keyed
    )), None)


def typed(hint, value, path: str = "", /, **given):
    """``value``, as json.loads returns it, read as ``hint``.

    A dataclass reads from an object of its fields (bar ``given``, passed as
    they are), ``tuple[X, ...]`` from a list, ``Mapping[str, X]`` from an
    object, a union as its first member that fits (else with its first
    member's fault), and a scalar, or ``dict`` from any object, as itself. The
    one conversion: a float field takes an int and an int field an integral
    float, so neither ``1`` nor ``"false"`` is a bool. Any other value raises
    ValueError naming its dotted ``path``: ``missing key 'x'``,
    ``unknown key 'x'`` or ``x.y is 'false', expected bool``.
    """
    if type(value) not in _reads(hint)[0] or (hint is int and value % 1):  # 1.5 for an int
        raise ValueError(f"{path or 'value'} is {value!r}, expected {_reads(hint)[1]}")
    if type(value) is hint:
        return value
    origin, args = get_origin(hint), get_args(hint)
    if origin in _UNIONS:
        errors = []
        for member in args:
            try:
                return typed(member, value, path)
            except ValueError as exc:
                errors.append(exc)
        raise errors[0]
    if is_dataclass(hint):
        hints = _hints(hint)
        unknown = next((k for k in value if k not in _names(hint) or k in given), None)
        if unknown is not None:
            raise ValueError(f"unknown key {_at(path, unknown)!r}")
        missing = next((k for k in _required(hint) if k not in value and k not in given), None)
        if missing is not None:
            raise ValueError(f"missing key {_at(path, missing)!r}")
        return hint(**{k: typed(hints[k], v, _at(path, k)) for k, v in value.items()}, **given)
    if origin is tuple:
        return tuple(typed(args[0], v, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is Mapping:
        return {k: typed(args[1], v, _at(path, k)) for k, v in value.items()}
    return hint(value)  # float(1) or int(2.0)


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


_UNIONS = (Union, types.UnionType)
# The types a JSON value reads back as itself, and their names in a message.
_SCALARS = {str: "str", int: "int", float: "float", bool: "bool", type(None): "None",
            dict: "object"}
_hints = cache(get_type_hints)  # get_type_hints compiles each annotation on every call


@cache
def _reads(hint) -> tuple[tuple[type, ...], str]:
    """The types of the JSON values ``hint`` reads from, and its name in a message."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in _UNIONS:
        members = [_reads(m) for m in args]
        return sum((t for t, _ in members), ()), " or ".join(name for _, name in members)
    if is_dataclass(hint) or origin is Mapping:
        return (dict,), "object"
    if origin is tuple and args[1:] == (...,):
        return (list,), "list"
    if hint in _SCALARS:
        return (int, float) if hint in (int, float) else (hint,), _SCALARS[hint]
    raise TypeError(f"no JSON reading of {hint}")


@cache
def record_reader(cls: type[T]) -> Callable[[int, Mapping], T]:
    """The reader of ``cls``'s record lines: ``build(line_no, d)`` is :func:`typed`
    of ``cls`` from ``d``, its ValueError raised as MalformedRecord. The class's
    field names and type rows are bound once: fetch it once per file, call it per line."""
    names, rows = _names(cls), _type_rows(cls)

    def build(line_no: int, d: Mapping) -> T:
        if tuple(d) == names and tuple(map(type, d.values())) in rows:
            # The keys are the fields in order, as every writer leaves them, and
            # each value's type is one of its field's: build positionally. Any
            # other line takes the reader, for its conversions and its message.
            return cls(*d.values())
        try:
            return typed(cls, d)
        except ValueError as exc:
            raise MalformedRecord(line_no, str(exc)) from None

    return build


@cache
def _names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


@cache
def _required(cls: type) -> tuple[str, ...]:
    """The fields without a default, in declaration order."""
    return tuple(f.name for f in fields(cls)
                 if f.default is MISSING and f.default_factory is MISSING)


@cache
def _type_rows(cls: type) -> frozenset[tuple[type, ...]]:
    """Every tuple of value types, in field order, that typed reads as they are:
    a field's scalar types, or none for a field that is not a scalar."""
    def exact(hint) -> tuple[type, ...]:
        members = get_args(hint) if get_origin(hint) in _UNIONS else (hint,)
        return members if all(m in _SCALARS for m in members) else ()
    hints = _hints(cls)
    return frozenset(product(*(exact(hints[name]) for name in _names(cls))))


def as_fields(record) -> dict:
    """The fields of a dataclass instance, in declaration order, values as they are.

    Shallow and cheap, as every cache and log line builds one; pass this as
    ``json.dumps(..., default=as_fields)`` to encode nested records by the same rule.
    """
    return {name: getattr(record, name) for name in _names(type(record))}


def json_line(record, head: str = "{") -> str:
    """``json.dumps(as_fields(record), ensure_ascii=False)``, with ``head`` in place of its
    opening ``{``: ``head='{"kind": "record", '`` puts a key before the fields."""
    return _line_writer(type(record))(record, head)


def _other(value) -> str:
    """The JSON text of a value its field's type does not predict."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    return json.dumps(value, ensure_ascii=False)


@cache
def _line_writer(cls: type) -> Callable[[object, str], str]:
    """One f-string function per record class, compiled once, as dataclasses compiles
    ``__init__``. The key texts are escaped here. A ``str`` in a str field takes
    json's own ``encode_basestring``, an ``int`` in an int field formats as
    ``int.__repr__`` does, and any other value takes ``_other``."""
    def literal(text: str) -> str:  # an f-string piece that reads as ``text``
        return "f" + repr(text.replace("{", "{{").replace("}", "}}"))

    hints = _hints(cls)
    lines, parts = ["def line(r, head):"], ["f'{head}'"]
    for k, name in enumerate(_names(cls)):
        hint, v = hints[name], f"v{k}"
        members = get_args(hint) if get_origin(hint) in _UNIONS else (hint,)
        if str in members:
            text = f"_enc({v}) if _type({v}) is _str else _other({v})"
        elif int in members:
            text = f"{v} if _type({v}) is _int else _other({v})"
        else:
            text = f"_other({v})"
        lines.append(f"    {v} = r.{name}")
        parts += [literal(", " * bool(k) + json.dumps(name, ensure_ascii=False) + ": "),
                  f"f'{{{text}}}'"]
    parts.append(literal("}"))
    lines.append("    return " + " ".join(parts))
    scope = {"_enc": encode_basestring, "_other": _other, "_type": type, "_str": str, "_int": int}
    exec("\n".join(lines), scope)
    return scope["line"]
