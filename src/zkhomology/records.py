"""Immutable value records on namedtuple, so that the production path does
not import `dataclasses` and `inspect`.  A record equals only a record of
the same class with equal fields, never a plain tuple; it still iterates,
unpacks and orders like a tuple."""

from collections import namedtuple


def record(name, fields):
    """Base class for record `name`; subclasses set `__slots__ = ()`."""

    class Record(namedtuple(name, fields)):
        __slots__ = ()

        def __eq__(self, other):
            return type(other) is type(self) and tuple.__eq__(self, other)

        def __ne__(self, other):
            return not self == other

        __hash__ = tuple.__hash__

    return Record
