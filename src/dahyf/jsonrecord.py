"""The one dataclass <-> JSON dict codec, JSON file read/write pair, decoder
of JSON number arrays, and clip parse that names the first bad record."""

from __future__ import annotations

import dataclasses
import functools
import json
import types
import typing
from pathlib import Path
from typing import Callable, Sequence

import numpy as np


def read_json(path: str | Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_json(doc, path: str | Path) -> None:
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


class JsonRecord:
    """Base of a dataclass with a JSON form, so each default is stated once.

    `to_dict` writes `format_version` first when the class sets one, then the
    fields in declaration order, records as dicts and tuples as lists.
    `from_dict` converts each key by its field's annotation (`float`, `int`,
    `bool`, `str`, `X | None`, fixed-length tuples, records).  A missing key
    takes the field's default or raises a KeyError; an unknown key or a value
    of the wrong kind raises a ValueError.  Each names the key by its dotted
    path, such as `weak.tx` inside a nested record.

    A subclass that `columns` reads states its range checks in `check`, once:
    the record runs it when built, and `columns` on each doc's values.
    """

    format_version: int | None = None  # set, unannotated, by a versioned subclass

    def __post_init__(self):
        self.check(*(getattr(self, name) for name in _table(type(self))[1]))

    @staticmethod
    def check(*values) -> None:
        """Raise a ValueError for field values, in declaration order, that
        the record refuses."""

    def to_dict(self) -> dict:
        head, fields, _ = _table(type(self))
        doc = head.copy()
        for name in fields:
            value = getattr(self, name)
            if isinstance(value, JsonRecord):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            doc[name] = value
        return doc

    @classmethod
    def from_dict(cls, doc: dict):
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object for {cls.__name__}, got {doc!r}")
        _, fields, known = _table(cls)
        if not doc.keys() <= known:
            raise ValueError(f"unknown key {min(doc.keys() - known)!r} for {cls.__name__}")
        kwargs = {}
        for name, (decode, _, f) in fields.items():
            if name in doc:
                kwargs[name] = _convert(name, decode, doc[name])
            elif _required(f):
                raise KeyError(name)
        return cls(**kwargs)

    @classmethod
    def columns(cls, docs: Sequence, strict: bool = True) -> list[list]:
        """Per field, in declaration order, the list of its values in `docs`,
        converted and checked as `from_dict` would but without building a
        record: a nested record's column holds a tuple of its field values
        per doc.  With `strict=False` unknown keys are ignored.  A record
        that fails does so as it would in `from_dict`."""
        _, fields, known = _table(cls)
        for doc in docs:
            if not isinstance(doc, dict):
                raise ValueError(f"expected a JSON object for {cls.__name__}, got {doc!r}")
            if strict and not doc.keys() <= known:
                raise ValueError(f"unknown key {min(doc.keys() - known)!r} for {cls.__name__}")
        columns = []
        for name, (_, decode_column, f) in fields.items():
            column = _convert(name, decode_column, [doc[name] for doc in docs if name in doc])
            if len(column) < len(docs):
                if _required(f):
                    raise KeyError(name)
                default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
                present = iter(column)
                column = [next(present) if name in doc else default for doc in docs]
            columns.append(column)
        for values in zip(*columns):
            cls.check(*values)
        return columns

    @classmethod
    def dicts(cls, rows) -> list[dict]:
        """`to_dict` of each record in `rows`, a record given as the tuple of
        its field values in declaration order, each already in JSON form."""
        head, fields, _ = _table(cls)
        keys, first = (*head, *fields), tuple(head.values())
        return [dict(zip(keys, first + tuple(row))) for row in rows]


def _required(f: dataclasses.Field) -> bool:
    return f.default is f.default_factory is dataclasses.MISSING


class FieldError(ValueError):
    """A value that failed to convert, named by its field's dotted path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path, self.message = path, message


@functools.cache
def _table(cls: type) -> tuple[dict, dict, frozenset]:
    """The class's `format_version` head, {field: (decode, decode_column,
    dataclass field)} and known keys, built once: resolving annotations
    costs more than a `to_dict`."""
    hints = typing.get_type_hints(cls)
    head = {} if cls.format_version is None else {"format_version": cls.format_version}
    fields = {f.name: (_decoder(hints[f.name]), _column_decoder(hints[f.name]), f) for f in dataclasses.fields(cls)}
    return head, fields, frozenset(fields) | {"format_version"}


def _column_decoder(tp):
    """The function giving a field's values from a list of JSON forms: a
    record's as tuples through its `columns`, any other by `_decoder`."""
    if isinstance(tp, type) and issubclass(tp, JsonRecord):
        return lambda values: list(zip(*tp.columns(values)))
    decode = _decoder(tp)
    return lambda values: [decode(v) for v in values]


def _check(ok: bool, what: str, value):
    if not ok:
        raise ValueError(f"expected {what}, got {value!r}")
    return value


def _int(v) -> int:
    if type(v) is not int:
        v = int(_check((isinstance(v, int) and not isinstance(v, bool)) or (isinstance(v, float) and v.is_integer()),
                       "an integer", v))
    return _check(-2**63 <= v < 2**63, "an integer within int64", v)


_SCALARS = {  # JSON booleans are not numbers, and an integer field takes no fraction and fits in int64
    float: lambda v: v if type(v) is float else float(
        _check(isinstance(v, (int, float)) and not isinstance(v, bool), "a number", v)),
    int: _int,
    bool: lambda v: v if type(v) is bool else _check(isinstance(v, bool), "true or false", v),
    str: lambda v: v if type(v) is str else _check(isinstance(v, str), "a string", v),
}


@functools.cache
def _decoder(tp):
    """The function giving a field's value from its JSON form."""
    args = typing.get_args(tp)
    if typing.get_origin(tp) in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        decode = _decoder(args[0] if args[1] is type(None) else args[1])
        return lambda v: None if v is None else decode(v)
    if typing.get_origin(tp) is tuple:
        items = tuple(_decoder(a) for a in args)
        what = f"a list of {len(items)} values"
        return lambda v: tuple([decode(x) for decode, x in zip(
            items, _check(isinstance(v, (list, tuple)) and len(v) == len(items), what, v))])
    if isinstance(tp, type) and issubclass(tp, JsonRecord):
        return tp.from_dict
    if tp not in _SCALARS:
        raise TypeError(f"no JSON form for a field of type {tp!r}")
    return _SCALARS[tp]


def field(doc: dict, name: str, tp: type):
    """`doc[name]` converted by the `JsonRecord` rule for a field of type `tp`."""
    return _convert(name, _decoder(tp), doc[name])


def _convert(name: str, decode, value):
    """`decode(value)`, a failure named by the field's dotted path."""
    try:
        return decode(value)
    except KeyError as exc:  # a missing key inside a nested record
        raise KeyError(f"{name}.{exc.args[0]}") from exc
    except FieldError as exc:
        raise FieldError(f"{name}.{exc.path}", exc.message) from exc
    except ValueError as exc:
        raise FieldError(name, str(exc)) from exc


def numbers(values: list, shape: tuple[int | None, ...], name: str) -> np.ndarray:
    """The (len(values), *shape) float64 array of `values`, nested lists of
    finite JSON numbers (a None in `shape` takes any length); unlike
    `np.array`, it refuses strings and booleans."""
    cells = np.array(values, dtype=object)  # ragged lists stop the shape early, at lists
    got = cells.shape[1:]
    if len(got) != len(shape) or any(n not in (None, g) for n, g in zip(shape, got)):
        raise ValueError(f"{name} must have shape {shape}, got {got}")
    flat = cells.ravel().tolist()
    if not set(map(type, flat)) <= {float, int}:
        raise ValueError(f"{name}: expected a number, got {next(v for v in flat if type(v) not in (float, int))!r}")
    out = cells.astype(np.float64)
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite values")
    return out


def parse_rows(parse: Callable[[Sequence[dict]], object], docs: Sequence, unit: str = "frame"):
    """`parse(docs)` of JSON records.  Every check is per record, so when it
    fails, parsing the records one by one finds the first bad one, which
    fails as `frame N: <field.path>: …`, N its `frame_index` or row; with
    another `unit`, as `<unit> N: …`, N its 1-based row."""
    if len(docs) == 0:
        raise ValueError(f"sequence must contain at least one {unit}")
    try:
        return parse(docs)
    except (ValueError, KeyError, OverflowError, TypeError):  # TypeError: a record that is no object
        for t, doc in enumerate(docs):
            try:
                if not isinstance(doc, dict):
                    raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
                parse([doc])
            except (ValueError, KeyError, OverflowError) as exc:
                label = t + 1 if unit != "frame" else (doc.get("frame_index", t) if isinstance(doc, dict) else t)
                detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{unit} {label}: {detail}") from exc
        raise
