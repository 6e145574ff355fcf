"""The JSON form of threadlab's records: a dataclass's fields are its schema.

Run logs, completion caches and eval reports write each record as its fields,
by name and in declaration order, and read it back by the same names, so the
field list is the one place the on-disk format is declared.
"""

from __future__ import annotations

from dataclasses import fields
from functools import cache
from typing import Mapping, TypeVar

T = TypeVar("T")


@cache
def _names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


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
