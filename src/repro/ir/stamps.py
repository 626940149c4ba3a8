"""Stamps: per-value static type/range facts, in the style of Graal.

A *stamp* describes everything the compiler statically knows about the
value an instruction produces.  Stamps drive canonicalization (a compare
whose operand ranges do not overlap folds to a constant) and conditional
elimination (a dominating ``x > 0`` narrows the stamp of ``x`` inside the
true branch).

Stamps form a lattice per kind; :func:`meet` is the merge (union of
possibilities, used at CFG merges) and :meth:`join` the intersection
(used when a dominating condition adds information).  An empty stamp
means the code is unreachable under the current assumptions.

Stamps are value objects, never mutated once built: two stamps are
equal, and hash alike, when their classes and fields are.
"""

from __future__ import annotations

from .types import BOOL, INT, ArrayType, NullType, ObjectType, Type, VoidType

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1


class Stamp:
    """Base class for all stamps.

    A stamp without fields (:class:`VoidStamp`) equals every instance of
    its own class; the others compare their fields too.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return _NO_FIELDS_HASH

    def is_empty(self) -> bool:
        """True when no runtime value satisfies this stamp (dead code)."""
        return False

    def as_constant(self):
        """Return ``(value,)`` when the stamp pins a single value, else None.

        Wrapped in a 1-tuple so a constant ``None``/``False`` is
        distinguishable from "not constant".
        """
        return None


#: the hash of an empty field tuple
_NO_FIELDS_HASH = hash(())


class IntStamp(Stamp):
    """A signed 64-bit integer in the inclusive range [lo, hi]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int = INT_MIN, hi: int = INT_MAX) -> None:
        self.lo = lo
        self.hi = hi

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lo, self.hi) == (other.lo, other.hi)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def is_empty(self) -> bool:
        return self.lo > self.hi

    def as_constant(self):
        if self.lo == self.hi:
            return (self.lo,)
        return None

    def contains(self, value: int) -> bool:
        return self.lo <= value <= self.hi

    def join(self, other: "IntStamp") -> "IntStamp":
        """Intersection: both facts hold."""
        return IntStamp(max(self.lo, other.lo), min(self.hi, other.hi))

    def meet(self, other: "IntStamp") -> "IntStamp":
        """Union: either fact may hold (CFG merge)."""
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return IntStamp(min(self.lo, other.lo), max(self.hi, other.hi))

    def __repr__(self) -> str:
        if self.is_empty():
            return "i64<empty>"
        if self.lo == INT_MIN and self.hi == INT_MAX:
            return "i64"
        if self.lo == self.hi:
            return f"i64[{self.lo}]"
        lo = "min" if self.lo == INT_MIN else str(self.lo)
        hi = "max" if self.hi == INT_MAX else str(self.hi)
        return f"i64[{lo}..{hi}]"


class BoolStamp(Stamp):
    """A boolean which may be true, false, or either."""

    __slots__ = ("can_be_true", "can_be_false")

    def __init__(self, can_be_true: bool = True, can_be_false: bool = True) -> None:
        self.can_be_true = can_be_true
        self.can_be_false = can_be_false

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.can_be_true, self.can_be_false) == (
                other.can_be_true, other.can_be_false,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.can_be_true, self.can_be_false))

    def is_empty(self) -> bool:
        return not (self.can_be_true or self.can_be_false)

    def as_constant(self):
        if self.can_be_true and not self.can_be_false:
            return (True,)
        if self.can_be_false and not self.can_be_true:
            return (False,)
        return None

    def join(self, other: "BoolStamp") -> "BoolStamp":
        return BoolStamp(
            self.can_be_true and other.can_be_true,
            self.can_be_false and other.can_be_false,
        )

    def meet(self, other: "BoolStamp") -> "BoolStamp":
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return BoolStamp(
            self.can_be_true or other.can_be_true,
            self.can_be_false or other.can_be_false,
        )

    def __repr__(self) -> str:
        if self.is_empty():
            return "bool<empty>"
        c = self.as_constant()
        if c is not None:
            return f"bool[{c[0]}]"
        return "bool"


class ObjectStamp(Stamp):
    """A reference value: its static type plus nullness information."""

    __slots__ = ("type", "non_null", "always_null")

    def __init__(
        self, type: Type, non_null: bool = False, always_null: bool = False
    ) -> None:
        self.type = type
        self.non_null = non_null
        self.always_null = always_null

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.type, self.non_null, self.always_null) == (
                other.type, other.non_null, other.always_null,
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.type, self.non_null, self.always_null))

    def is_empty(self) -> bool:
        return self.non_null and self.always_null

    def as_constant(self):
        if self.always_null and not self.non_null:
            return (None,)
        return None

    def join(self, other: "ObjectStamp") -> "ObjectStamp":
        return ObjectStamp(
            self.type if not isinstance(self.type, NullType) else other.type,
            self.non_null or other.non_null,
            self.always_null or other.always_null,
        )

    def meet(self, other: "ObjectStamp") -> "ObjectStamp":
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        ty = self.type
        if isinstance(ty, NullType) or ty != other.type:
            ty = other.type if not isinstance(other.type, NullType) else ty
        return ObjectStamp(
            ty,
            self.non_null and other.non_null,
            self.always_null and other.always_null,
        )

    def __repr__(self) -> str:
        suffix = ""
        if self.always_null:
            suffix = "[null]"
        elif self.non_null:
            suffix = "!"
        return f"ref({self.type!r}){suffix}"


class VoidStamp(Stamp):
    """Stamp of instructions that produce no value (stores, returns)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "void"


VOID_STAMP = VoidStamp()
TRUE_STAMP = BoolStamp(can_be_true=True, can_be_false=False)
FALSE_STAMP = BoolStamp(can_be_true=False, can_be_false=True)
ANY_BOOL = BoolStamp()
ANY_INT = IntStamp()


def stamp_for_type(ty: Type) -> Stamp:
    """The least informative stamp for a value of static type ``ty``."""
    if ty == INT:
        return ANY_INT
    if ty == BOOL:
        return ANY_BOOL
    if isinstance(ty, (ObjectType, ArrayType)):
        return ObjectStamp(ty)
    if isinstance(ty, NullType):
        return ObjectStamp(ty, always_null=True)
    if isinstance(ty, VoidType):
        return VOID_STAMP
    raise TypeError(f"no stamp for type {ty!r}")


def stamp_for_constant(value, ty: Type) -> Stamp:
    """The exact stamp of a literal constant."""
    if ty == INT:
        return IntStamp(value, value)
    if ty == BOOL:
        return TRUE_STAMP if value else FALSE_STAMP
    if value is None:
        return ObjectStamp(ty, always_null=True)
    raise TypeError(f"unsupported constant {value!r}: {ty!r}")


def meet(a: Stamp, b: Stamp) -> Stamp:
    """Merge stamps of the same kind flowing together at a phi."""
    if isinstance(a, IntStamp) and isinstance(b, IntStamp):
        return a.meet(b)
    if isinstance(a, BoolStamp) and isinstance(b, BoolStamp):
        return a.meet(b)
    if isinstance(a, ObjectStamp) and isinstance(b, ObjectStamp):
        return a.meet(b)
    if isinstance(a, VoidStamp) and isinstance(b, VoidStamp):
        return VOID_STAMP
    raise TypeError(f"cannot meet stamps {a!r} and {b!r}")


def join(a: Stamp, b: Stamp) -> Stamp:
    """Intersect stamps: the value satisfies both facts."""
    if isinstance(a, IntStamp) and isinstance(b, IntStamp):
        return a.join(b)
    if isinstance(a, BoolStamp) and isinstance(b, BoolStamp):
        return a.join(b)
    if isinstance(a, ObjectStamp) and isinstance(b, ObjectStamp):
        return a.join(b)
    if isinstance(a, VoidStamp) and isinstance(b, VoidStamp):
        return VOID_STAMP
    raise TypeError(f"cannot join stamps {a!r} and {b!r}")
