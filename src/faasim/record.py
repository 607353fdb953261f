"""Immutable records: one shared base, no generated code, for every faasim value type.

A subclass declares its fields as annotations, defaults as class attributes, as for a
dataclass; `Record` gives construction by position or keyword, `__post_init__` validation,
a repr, and equality and hashing over the fields in order. Setting or deleting raises
AttributeError. A subclass with its own constructor lists its fields in `_FIELDS` and
sets them through `object.__setattr__`.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()
    _DEFAULTS: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__annotations__)  # the class's own annotations (Python 3.10+)
        cls._FIELDS += names
        cls._DEFAULTS = cls._DEFAULTS | {name: vars(cls)[name] for name in names if name in vars(cls)}

    def __init__(self, *args, **kwargs) -> None:
        names = self._FIELDS
        if kwargs or len(args) != len(names):
            values = self._DEFAULTS | dict(zip(names, args)) | kwargs
            if len(args) > len(names) or not kwargs.keys() <= set(names[len(args):]) or len(values) != len(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {names}; got {len(args)} by position "
                                f"and {sorted(kwargs)} by keyword")
            args = map(values.__getitem__, names)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._FIELDS))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._FIELDS, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set or delete {name!r}")

    __delattr__ = __setattr__
