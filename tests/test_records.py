"""The six record classes are immutable named tuples; three of them validate.

A validated record must refuse a bad field on every construction path: the
constructor, ``_make``, ``_replace``, and the ``__new__`` call by which
pickle and copy rebuild an instance.
"""

import copy
import pickle

import pytest

from fermiosc.grassmann import GeneratorRegistry, add, monomial, one
from fermiosc.path_integral import DiscretizedChain, contract_chain
from fermiosc.selftest import INVARIANTS, CheckResult

_LABELS = GeneratorRegistry(["c", "c*"])
_CHAIN = DiscretizedChain(4, 1.0, 1.0)
_KERNEL = contract_chain(_CHAIN)
_FIVE = _KERNEL.element.registry  # c(0), c(b), c*(b), c(t), c*(t)
_RECORDS = [_LABELS, one(_LABELS), _CHAIN, _KERNEL, CheckResult("x", True, "", 0.0),
            INVARIANTS[0]]

# (a valid record, the field to break, a bad value for it, the refusal's message)
_REFUSALS = [
    (_LABELS, "labels", (), "at least one generator label"),
    (_LABELS, "labels", ("c", "c"), "duplicate generator label"),
    (_CHAIN, "n_steps", 0, "n_steps must be at least 1"),
    (_CHAIN, "n_steps", 4.0, "n_steps must be an integer"),
    (_CHAIN, "beta", float("nan"), "beta must be finite"),
    (_CHAIN, "beta", -1.0, "beta must be finite and nonnegative"),
    (_CHAIN, "omega", 0.0, "omega must be finite and positive"),
    # a string, not a member: the chain would read it as two different schemes
    (_CHAIN, "scheme", "exact", "scheme must be a SliceScheme"),
    (_KERNEL, "element", one(_LABELS), "another generator registry"),
    (_KERNEL, "element", monomial(_FIVE, [0]), "unexpected monomials"),
    # 1 + c*(beta) c(t): the propagating term on the spare time point, not on c(0)
    (_KERNEL, "element", add(one(_FIVE), monomial(_FIVE, [2, 3])),
     "unexpected monomials in boundary kernel"),
]


def _paths(record, field, value):
    """Each way to build ``record`` with ``field`` set to ``value``."""
    cls = type(record)
    fields = tuple(value if name == field else old for name, old in zip(cls._fields, record))
    forged = tuple.__new__(cls, fields)  # what a corrupt pickle would carry: never checked
    return {
        "constructor": lambda: cls(*fields),
        "keywords": lambda: cls(**dict(zip(cls._fields, fields))),
        "_make": lambda: cls._make(fields),
        "_replace": lambda: record._replace(**{field: value}),
        "pickle": lambda: pickle.loads(pickle.dumps(forged)),
        "copy": lambda: copy.copy(forged),
        "deepcopy": lambda: copy.deepcopy(forged),
    }


@pytest.mark.parametrize("path", list(_paths(_LABELS, "labels", ())))
@pytest.mark.parametrize("record, field, value, message", _REFUSALS,
                         ids=[message for *_, message in _REFUSALS])
def test_validated_record_refuses_bad_input_on_every_path(record, field, value, message, path):
    with pytest.raises(ValueError, match=message):
        _paths(record, field, value)[path]()


@pytest.mark.parametrize("record", _RECORDS, ids=lambda r: type(r).__name__)
def test_record_round_trips_and_its_fields_are_read_only(record):
    for rebuilt in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record),
                    type(record)._make(record), record._replace()):
        assert type(rebuilt) is type(record) and rebuilt == record
    for name in record._fields + ("epsilon", "extra"):  # no setter, and no instance dict
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_a_record_holding_terms_is_unhashable():
    assert hash(_LABELS) == hash(GeneratorRegistry(["c", "c*"]))
    assert hash(_CHAIN) == hash(DiscretizedChain(4, 1.0, 1.0))
    for record in (one(_LABELS), _KERNEL):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)

