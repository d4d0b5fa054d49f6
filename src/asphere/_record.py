"""`Record`, the immutable value base of every class with fields.

A subclass names its fields in `__match_args__` and writes an `__init__`
that checks the arguments and stores the fields in `self.__dict__`, where
`functools.cached_property` also keeps its values.  The base forbids
assignment and deletion, compares the class and the field tuple, hashes
the field tuple and writes `Name(field=value, ...)`; it generates no code.
"""

from operator import attrgetter


class Record:
    __match_args__: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        get = attrgetter(*cls.__match_args__)
        cls._fields = staticmethod(get if len(cls.__match_args__) > 1 else lambda r: (get(r),))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields(self) == self._fields(other)

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({args})"
