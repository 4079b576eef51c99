"""The per-occurrence records keep the plain frozen-dataclass contract.

Every bus event (the :class:`~repro.sim.events.SimEvent` family) and the
platform's outcome records (:class:`~repro.platform.metrics.RequestOutcome`,
:class:`~repro.platform.metrics.FailedRequest`) are built through
:func:`~repro.sim.events.slot_init`'s generated ``__init__``.  Each one is
checked here against a plain ``@dataclass(frozen=True)`` twin with the same
fields: immutability, signature, positional/keyword construction, missing
arguments, eq, hash, repr, ``dataclasses.replace``, ``copy.copy`` and a
pickle round trip.  The helper must also refuse, at class creation, what
its generated ``__init__`` could not reproduce.
"""

import copy
import dataclasses
import inspect
import pickle
import sys
from dataclasses import FrozenInstanceError, InitVar, dataclass, field

import pytest

from repro.platform.metrics import FailedRequest, RequestOutcome
from repro.sim import events
from repro.sim.events import SimEvent, slot_init

_RECORDS = [
    getattr(events, name)
    for name in events.__all__
    if isinstance(getattr(events, name), type) and issubclass(getattr(events, name), SimEvent)
] + [RequestOutcome, FailedRequest]

_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


def _twin(cls):
    """A plain frozen dataclass with ``cls``'s fields, defaults and annotations."""
    spec = [
        (f.name, f.type) if f.default is dataclasses.MISSING
        else (f.name, f.type, field(default=f.default))
        for f in dataclasses.fields(cls)
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _value(annotation, index):
    """A field value unlike every default, chosen by the field's annotation."""
    return {
        "float": 1.25 + index,
        "int": 7 + index,
        "bool": True,
        "str": f"v{index}",
    }.get(annotation, ("payload", index))


def _arguments(cls):
    return [_value(f.type, i) for i, f in enumerate(dataclasses.fields(cls))]


@pytest.fixture(params=_RECORDS, ids=lambda cls: cls.__name__)
def record_class(request):
    return request.param


def test_every_record_class_is_covered():
    assert len(_RECORDS) == 16
    assert len({cls.__name__ for cls in _RECORDS}) == len(_RECORDS)


def test_slot_init_compiled_the_init(record_class):
    if "__slots__" not in record_class.__dict__:
        pytest.skip("Python < 3.10: no slots, so the dataclass's own __init__ stays")
    names = [f.name for f in dataclasses.fields(record_class)]
    code = record_class.__init__.__code__
    assert set(code.co_freevars) == {f"__set{i}__" for i in range(len(names))}
    assert code.co_varnames[: len(names) + 1] == ("self", *names)


def test_assignment_raises(record_class):
    record = record_class(*_arguments(record_class))
    # A name that is not a field is refused the same way, not with the
    # TypeError a slotted frozen dataclass's own __setattr__ raises for it.
    for name in [f.name for f in dataclasses.fields(record_class)] + ["bogus"]:
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, getattr(record, name, 2))
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)


def test_signature_matches_the_twin(record_class):
    twin = _twin(record_class)
    assert inspect.signature(record_class) == inspect.signature(twin)
    assert inspect.signature(record_class.__init__) == inspect.signature(twin.__init__)


def test_positional_and_keyword_construction_agree(record_class):
    values = _arguments(record_class)
    names = [f.name for f in dataclasses.fields(record_class)]
    positional = record_class(*values)
    keyword = record_class(**dict(zip(names, values)))
    assert positional == keyword
    assert [getattr(positional, name) for name in names] == values
    # Only the required fields: every default is the twin's default too.
    required = [f for f in dataclasses.fields(record_class) if f.default is dataclasses.MISSING]
    minimal = record_class(*values[: len(required)])
    twin_minimal = _twin(record_class)(*values[: len(required)])
    assert dataclasses.astuple(minimal) == dataclasses.astuple(twin_minimal)


def test_missing_or_extra_arguments_raise(record_class):
    twin = _twin(record_class)
    values = _arguments(record_class)
    required = sum(
        1 for f in dataclasses.fields(record_class) if f.default is dataclasses.MISSING
    )
    for cls in (record_class, twin):
        with pytest.raises(TypeError):
            cls(*values[: required - 1])
        with pytest.raises(TypeError):
            cls(*values, "one too many")
        with pytest.raises(TypeError):
            cls(*values, nonsense=1)
        with pytest.raises(TypeError):
            cls(*values[:1], **{dataclasses.fields(cls)[0].name: values[0]})


def test_dataclass_protocol_matches_the_twin(record_class):
    twin = _twin(record_class)
    values = _arguments(record_class)
    record, plain = record_class(*values), twin(*values)
    assert repr(record) == repr(plain)
    assert hash(record) == hash(plain)
    assert record == record_class(*values) and plain == twin(*values)
    assert record != plain  # dataclass eq requires the same class, for both
    last = dataclasses.fields(record_class)[-1]
    changes = {last.name: _value(last.type, 99)}
    replaced = dataclasses.replace(record, **changes)
    assert type(replaced) is record_class
    assert repr(replaced) == repr(dataclasses.replace(plain, **changes))
    assert replaced != record
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is record_class
        assert clone == record and hash(clone) == hash(record) and repr(clone) == repr(record)
    assert dataclasses.astuple(record) == dataclasses.astuple(plain)


# ----------------------------------------------------------------------
# What the helper refuses
# ----------------------------------------------------------------------


def test_refuses_post_init():
    with pytest.raises(TypeError, match="__post_init__"):

        @slot_init
        @dataclass(frozen=True, **_SLOTS)
        class WithPostInit:
            x: int

            def __post_init__(self):
                pass


def test_refuses_default_factory():
    with pytest.raises(TypeError, match="default_factory"):

        @slot_init
        @dataclass(frozen=True, **_SLOTS)
        class WithFactory:
            x: list = field(default_factory=list)


def test_refuses_init_false():
    with pytest.raises(TypeError, match="init=False"):

        @slot_init
        @dataclass(frozen=True, **_SLOTS)
        class WithHiddenField:
            x: int
            y: int = field(default=0, init=False)


def test_refuses_init_var():
    with pytest.raises(TypeError, match="InitVar"):

        @slot_init
        @dataclass(frozen=True, **_SLOTS)
        class WithInitVar:
            x: int
            scale: InitVar[int] = 1


@pytest.mark.skipif(sys.version_info < (3, 10), reason="kw_only needs Python 3.10")
def test_refuses_keyword_only():
    with pytest.raises(TypeError, match="keyword-only"):

        @slot_init
        @dataclass(frozen=True, slots=True, kw_only=True)
        class KeywordOnly:
            x: int


def test_refuses_a_mutable_dataclass():
    with pytest.raises(TypeError, match="frozen"):

        @slot_init
        @dataclass(**_SLOTS)
        class Mutable:
            x: int
