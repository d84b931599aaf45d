"""Spec sections whose dataclass fields are their document schema.

A :class:`Section` dataclass gets ``from_dict``, ``to_dict`` and
``is_default`` from one walker over its fields' annotations, defaults and
metadata; the rules are set out once, in :mod:`repro.scenario.spec`.  A
``Union`` of sections is told apart by their ``type`` field.  Stdlib only.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from pathlib import Path
from typing import ClassVar, Dict, Mapping, Optional, Tuple, Union

#: Field metadata: left out of ``to_dict`` while equal to its default.
OMIT_DEFAULT = {"omit_default": True}
#: Field metadata: a bare string document sets this field.
SHORTHAND = {"shorthand": True}
# ``{"absent": value}`` metadata: what a document leaving out a required
# field reads as.

_KINDS = {bool: "true or false", int: "an integer", float: "a number",
          str: "a string"}


class Section:
    """``section`` (a class keyword) names a bare document of the class in
    errors; a ``document`` is a root whose nested keys are named from it."""

    _section: ClassVar[str] = ""
    _path: ClassVar[str] = ""

    def __init_subclass__(cls, section: str = "", document: bool = False,
                          **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._section = section
        cls._path = "" if document else section

    @classmethod
    def from_dict(cls, data: object, section: Optional[str] = None):
        """Read ``data``; ``section`` names it in errors (``workloads[1]``)."""
        spec = parse(cls, data, cls._path if section is None else section)
        spec.validate()
        return spec

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: Union[str, Path]):
        return cls.from_json(Path(path).read_text())

    def validate(self) -> None:
        """Checks beyond what the field types say (none by default)."""

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {}
        for f, hint in _schema(type(self)):
            value = getattr(self, f.name)
            if not ("omit_default" in f.metadata and value == _default(f)):
                doc[f.name] = emit(hint, value)
        return doc

    def is_default(self) -> bool:
        return self == type(self)()


@functools.lru_cache(maxsize=None)
def _schema(cls: type) -> Tuple[Tuple[dataclasses.Field, object], ...]:
    """``(field, annotation)`` pairs, the ``OMIT_DEFAULT`` fields last."""
    hints = typing.get_type_hints(cls)
    return tuple(sorted(((f, hints[f.name]) for f in dataclasses.fields(cls)),
                        key=lambda entry: "omit_default" in entry[0].metadata))


def _default(f: dataclasses.Field) -> object:
    if f.default_factory is not dataclasses.MISSING:
        return f.default_factory()
    return f.default


def parse(hint: object, value: object, path: str,
          label: Optional[str] = None) -> object:
    """``value`` read as ``hint``.  ``path`` is its dotted key and the base
    of its children's; ``label`` (default ``path``) names it in errors."""
    if hint is object:
        return value
    label = label or path
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if isinstance(hint, type) and issubclass(hint, Section):
        return _parse_section(hint, value, path, label)
    if origin is Union:
        if type(None) in args:
            if value is None:
                return None
            (hint,) = [arg for arg in args if arg is not type(None)]
            return parse(hint, value, path, label)
        return _parse_tagged(args, value, path, label)
    if origin is list:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{label} must be a list, got {value!r}")
        return [parse(args[0], item, f"{path}[{index}]")
                for index, item in enumerate(value)]
    if origin is dict:
        if not isinstance(value, Mapping):
            raise ValueError(f"{label} must be an object, got {value!r}")
        return {_key(args[0], key, f"{path}.{key}"):
                parse(args[1], item, f"{path}.{key}")
                for key, item in value.items()}
    if hint is float and type(value) is int:
        return float(value)
    if isinstance(value, hint) and (hint is bool
                                    or not isinstance(value, bool)):
        return value
    raise ValueError(f"{label} must be {_KINDS[hint]}, got {value!r}")


def _key(hint: object, key: object, path: str) -> object:
    if hint is int and isinstance(key, str) and key.lstrip("-").isdigit():
        key = int(key)  # JSON object keys are strings
    return parse(hint, key, path)


def _parse_section(cls: type, value: object, path: str, label: str):
    schema = _schema(cls)
    if value is None:
        value = {}
    shorthand = [f.name for f, _ in schema if "shorthand" in f.metadata]
    if isinstance(value, str) and shorthand:
        value = {shorthand[0]: value}
    if not isinstance(value, Mapping):
        raise ValueError(f"{label} must be an object, got {value!r}")
    where = path or cls._section
    names = [f.name for f, _ in schema]
    unknown = sorted(str(key) for key in value if key not in names)
    if unknown:
        raise ValueError(
            f"{', '.join(f'{where}.{key}' for key in unknown)}: unknown "
            f"key(s); {where} takes {', '.join(names)}")
    kwargs: Dict[str, object] = {}
    for f, hint in schema:
        if not f.init:
            continue
        if f.name in value:
            kwargs[f.name] = parse(hint, value[f.name],
                                   f"{path}.{f.name}" if path else f.name,
                                   f"{where}.{f.name}")
        elif "absent" in f.metadata:
            kwargs[f.name] = f.metadata["absent"]
        elif _default(f) is dataclasses.MISSING:
            raise ValueError(f"{where}.{f.name} is required")
    return cls(**kwargs)


def _parse_tagged(members: Tuple[type, ...], value: object, path: str,
                  label: str):
    tags = {_default(f): cls for cls in members
            for f, _ in _schema(cls) if f.name == "type"}
    if not isinstance(value, Mapping):
        raise ValueError(f"{label} must be an object, got {value!r}")
    tag = value.get("type", next(iter(tags)))
    if not isinstance(tag, str) or tag not in tags:
        raise ValueError(
            f"{path}.type: unknown {members[0]._section} type {tag!r} "
            f"(expected {' or '.join(repr(t) for t in tags)})")
    return _parse_section(tags[tag], value, path, label)


def emit(hint: object, value: object) -> object:
    """``value`` as a JSON-ready document of ``hint``: sections by their
    ``to_dict``, scalars converted to their annotation."""
    if value is None or hint is object:
        return value
    if isinstance(value, Section):
        return value.to_dict()
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:  # Optional[X]
        (hint,) = [arg for arg in args if arg is not type(None)]
        return emit(hint, value)
    if origin is list:
        return [emit(args[0], item) for item in value]
    if origin is dict:
        return {str(key): emit(args[1], item) for key, item in value.items()}
    return hint(value)

