"""Type system for the MiniLang IR.

The language is deliberately small but covers everything the DBDS paper's
opportunity catalog (Section 2) needs: machine integers, booleans,
reference types with named fields (for partial escape analysis and read
elimination), and arrays (for the array-heavy Octane-style workloads).

Types are value objects, never mutated once built: two types are equal,
and hash alike, when their classes and fields are.  Object types are
interned by name in a :class:`ClassTable` owned by the program.
"""

from __future__ import annotations

from typing import Optional


class Type:
    """Base class for all MiniLang types.

    A type without fields (``int``, ``bool``, ``void``, ``null``) equals
    every instance of its own class; :class:`ObjectType` and
    :class:`ArrayType` compare their fields too.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return True
        return NotImplemented

    def __hash__(self) -> int:
        return _NO_FIELDS_HASH

    def is_primitive(self) -> bool:
        return False

    def is_reference(self) -> bool:
        return False

    def default_value(self):
        """The value a field/array slot of this type is initialized to."""
        raise NotImplementedError


#: the hash of an empty field tuple, shared by every field-less type
_NO_FIELDS_HASH = hash(())


class IntType(Type):
    """64-bit signed integer (Python ints wrapped to 64 bits on overflow)."""

    __slots__ = ()

    def is_primitive(self) -> bool:
        return True

    def default_value(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "int"


class BoolType(Type):
    __slots__ = ()

    def is_primitive(self) -> bool:
        return True

    def default_value(self) -> bool:
        return False

    def __repr__(self) -> str:
        return "bool"


class VoidType(Type):
    __slots__ = ()

    def default_value(self):
        return None

    def __repr__(self) -> str:
        return "void"


class NullType(Type):
    """The type of the ``null`` literal; assignable to any reference type."""

    __slots__ = ()

    def is_reference(self) -> bool:
        return True

    def default_value(self):
        return None

    def __repr__(self) -> str:
        return "null"


class ObjectType(Type):
    """A reference to an instance of a declared class."""

    __slots__ = ("class_name",)

    def __init__(self, class_name: str) -> None:
        self.class_name = class_name

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.class_name == other.class_name
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.class_name,))

    def is_reference(self) -> bool:
        return True

    def default_value(self):
        return None

    def __repr__(self) -> str:
        return self.class_name


class ArrayType(Type):
    """A reference to an array with a fixed element type."""

    __slots__ = ("element",)

    def __init__(self, element: Type) -> None:
        self.element = element

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.element == other.element
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.element,))

    def is_reference(self) -> bool:
        return True

    def default_value(self):
        return None

    def __repr__(self) -> str:
        return f"{self.element!r}[]"


INT = IntType()
BOOL = BoolType()
VOID = VoidType()
NULL = NullType()


def assignable(target: Type, source: Type) -> bool:
    """Whether a value of ``source`` type may flow into a ``target`` slot.

    MiniLang has no subclassing; the only non-trivial rule is that the
    ``null`` literal is assignable to every reference type.
    """
    if target == source:
        return True
    if target.is_reference() and isinstance(source, NullType):
        return True
    return False


def join(a: Type, b: Type) -> Type:
    """Least common type of two branch values meeting at a merge."""
    if a == b:
        return a
    if isinstance(a, NullType) and b.is_reference():
        return b
    if isinstance(b, NullType) and a.is_reference():
        return a
    raise TypeError(f"incompatible types at merge: {a!r} vs {b!r}")


class FieldDecl:
    """A single field of a class declaration."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: Type) -> None:
        self.name = name
        self.type = type


class ClassDecl:
    """A class declaration: a name and an ordered list of typed fields."""

    __slots__ = ("name", "fields")

    def __init__(self, name: str, fields: Optional[list[FieldDecl]] = None) -> None:
        self.name = name
        self.fields = fields if fields is not None else []

    def field_type(self, name: str) -> Type:
        for f in self.fields:
            if f.name == name:
                return f.type
        raise KeyError(f"class {self.name} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)


class ClassTable:
    """All class declarations of a program, keyed by name."""

    def __init__(self) -> None:
        self._classes: dict[str, ClassDecl] = {}

    def declare(self, decl: ClassDecl) -> ObjectType:
        if decl.name in self._classes:
            raise ValueError(f"duplicate class {decl.name!r}")
        self._classes[decl.name] = decl
        return ObjectType(decl.name)

    def lookup(self, name: str) -> ClassDecl:
        return self._classes[name]

    def __contains__(self, name: str) -> bool:
        return name in self._classes

    def names(self) -> list[str]:
        return list(self._classes)
