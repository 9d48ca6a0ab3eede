"""Frozen records: what the package used of ``@dataclass(frozen=True)``.

A subclass declares its fields as class annotations, as for a dataclass,
and may define ``__post_init__``; ``_fields`` lists them in order.
Instances keep a ``__dict__``, where ``expr`` caches derived data, and
compare, hash and print by their fields as a frozen dataclass does.
Defining one imports nothing, where ``dataclasses`` pulls in ``inspect``
and costs ~1 ms a class.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls.__match_args__ = tuple(cls.__annotations__)  # own ones only, from 3.10

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = _bind(type(self), args, kwargs)
        # item by item: in a fresh process this runs ~15% faster than
        # dict.update(zip(...)), and parsing builds one record per node
        d = self.__dict__
        for i, name in enumerate(fields):
            d[name] = args[i]
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))


def _bind(cls: type, args: tuple, kwargs: dict) -> list:
    # the keyword path of __init__: each field once, by position or by name;
    # kwargs is this call's own dict, so taking names out of it is safe
    fields = cls._fields
    try:
        values = [*args, *map(kwargs.pop, fields[len(args) :])]
    except KeyError:
        values = None
    if values is None or kwargs or len(values) != len(fields):
        names = ", ".join(fields)
        raise TypeError(f"{cls.__qualname__}() takes each of {names} once, by position or by name")
    return values
