"""The one typed boundary between a grid point's params and its runner.

Scenario params stay a flat ``Mapping[str, object]`` (scenario ids, seeds and
journals are plain data); each runner parses them with :func:`from_mapping`
into one frozen dataclass.  A field is one key: its annotation is the type
the value is coerced to, its default is the key's default, and its
``metadata`` may name ``choices`` (an enum class, a name-keyed mapping or a
tuple, taken from the module that owns them) and an integer ``min``.  A field
annotated with a dataclass is a *section* whose keys sit in the same flat
mapping, so each layer owns its keys while grids stay flat.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import numbers
import typing
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Type, TypeVar

__all__ = ["ScenarioParamError", "choices_of", "from_mapping"]

P = TypeVar("P")
_NONE = type(None)
_SCALARS = (bool, int, float, str)


class ScenarioParamError(ValueError):
    """An unknown or missing key, or a rejected value, in a grid point's params.

    ``value`` is the value as given (``None`` for a missing key) and
    ``allowed`` what ``key`` accepts (for an unknown key: every valid key).
    """

    def __init__(
        self, key: str, value: object, allowed: Sequence[object], message: str = ""
    ) -> None:
        self.key, self.value, self.allowed = key, value, tuple(allowed)
        choices = ", ".join(map(str, self.allowed))
        super().__init__(message or f"invalid {key} value {value!r}; choose from: {choices}")


def _scalar(member: type, value: object) -> object:
    """``value`` as ``member``; only a real ``bool`` is a ``bool``, and never a number."""
    if member is str:
        return str(value)
    if isinstance(value, bool) != (member is bool):
        raise TypeError(value)
    if member is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    if not isinstance(value, (numbers.Real, str)):
        raise TypeError(value)
    return member(value)


def _choice_values(choices: object) -> Tuple[object, ...]:
    if isinstance(choices, type) and issubclass(choices, enum.Enum):
        return tuple(member.value for member in choices)
    return tuple(choices)  # type: ignore[call-overload]


@functools.lru_cache(maxsize=None)
def _fields(cls: type) -> Tuple[Tuple[dataclasses.Field, Any], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in dataclasses.fields(cls))


@functools.lru_cache(maxsize=None)
def _keys(cls: type) -> Dict[str, Tuple[dataclasses.Field, Any]]:
    """Every flat key of ``cls`` (sections flattened in) -> (field, annotation)."""
    table: Dict[str, Tuple[dataclasses.Field, Any]] = {}
    for f, hint in _fields(cls):
        entries = _keys(hint) if dataclasses.is_dataclass(hint) else {f.name: (f, hint)}
        twice = sorted(table.keys() & entries.keys())
        if twice:
            raise TypeError(f"{cls.__name__} defines params keys {twice} twice")
        table.update(entries)
    return table


def _members(hint: Any) -> Tuple[Any, ...]:
    return typing.get_args(hint) if typing.get_origin(hint) is typing.Union else (hint,)


def _allowed(f: dataclasses.Field, hint: Any) -> List[object]:
    """What one field accepts: its choices (and integer floor), else its types."""
    if "choices" not in f.metadata:
        return [member.__name__ for member in _members(hint) if member is not _NONE]
    allowed = list(_choice_values(f.metadata["choices"]))
    if "min" in f.metadata:
        allowed.append(f"an integer >= {f.metadata['min']}")
    return allowed


def _coerce(f: dataclasses.Field, hint: Any, value: object) -> object:
    members = _members(hint)
    if value is None and _NONE in members:
        return None
    # A config object stands in for its name (a ``PlatformConfig`` for a preset).
    if any(m not in _SCALARS and m is not _NONE and isinstance(value, m) for m in members):
        return value
    for member in (m for m in members if m in _SCALARS):
        try:
            coerced = _scalar(member, value)
        except (TypeError, ValueError):
            continue
        if isinstance(coerced, str) and "choices" in f.metadata:
            accepted = coerced in _choice_values(f.metadata["choices"])
        else:
            accepted = member is not int or coerced >= f.metadata.get("min", coerced)
        if accepted:
            return coerced
        break  # the value has this member's type but is out of range
    raise ScenarioParamError(f.name, value, _allowed(f, hint))


def _build(cls: Type[P], params: Mapping[str, object]) -> P:
    values: Dict[str, object] = {}
    for f, hint in _fields(cls):
        if dataclasses.is_dataclass(hint):
            values[f.name] = _build(hint, params)
        elif f.name in params:
            values[f.name] = _coerce(f, hint, params[f.name])
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            message = f"missing required param {f.name!r}"
            raise ScenarioParamError(f.name, None, _allowed(f, hint), message)
    return cls(**values)  # type: ignore[call-arg]


def from_mapping(cls: Type[P], params: Mapping[str, object]) -> P:
    """Parse one grid point's params into its runner's params type ``cls``.

    Raises :class:`ScenarioParamError` for the first unknown key (naming the
    closest valid one), missing required key or rejected value.
    """
    keys = _keys(cls)
    for key, value in params.items():
        if key not in keys:
            import difflib

            close = difflib.get_close_matches(key, keys, n=1)
            tip = f"did you mean {close[0]!r}?" if close else f"valid: {', '.join(sorted(keys))}"
            raise ScenarioParamError(key, value, sorted(keys), f"unknown param {key!r}; {tip}")
    return _build(cls, params)


def choices_of(cls: type, key: str) -> Tuple[object, ...]:
    """The allowed values of one key of ``cls`` (for CLI ``choices=``)."""
    return _choice_values(_keys(cls)[key][0].metadata["choices"])
