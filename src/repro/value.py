"""The one idiom of the request path's immutable value types (DESIGN.md §17):
a ``NamedTuple`` of fields under :class:`Value`, built, hashed and compared
in C.  Mutable state stays a dataclass."""

__all__ = ["Value"]

_tuple_eq, _tuple_ne = tuple.__eq__, tuple.__ne__  # one global read per compare


class Value(tuple):
    """Equal only to a value of its own exact type: never to a bare tuple,
    nor to another type with the same fields."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and _tuple_eq(self, other)

    def __ne__(self, other: object) -> bool:
        return type(other) is not type(self) or _tuple_ne(self, other)
