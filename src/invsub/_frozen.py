"""The package's immutable value types share one freezing rule.

A `Frozen` instance raises on every attribute assignment or deletion;
its constructor fills its fields once through `_set`.  `Keyed` adds value
equality and hashing from the tuple `_key()` returns.  Neither class
generates code.
"""


class Frozen:
    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Keyed(Frozen):
    """Equal when of one type with equal `_key()`, and hashed by it."""

    __slots__ = ()

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())
