"""Abstract syntax tree for MiniLang.

Plain slotted classes; every node records its source line for
diagnostics, and every constructor takes the line first.
"""

from __future__ import annotations

from typing import Optional

from ..ir.types import Type


class Node:
    __slots__ = ("line",)

    def __init__(self, line: int) -> None:
        self.line = line


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
class Expr(Node):
    __slots__ = ()


class IntLiteral(Expr):
    __slots__ = ("value",)

    def __init__(self, line: int, value: int) -> None:
        self.line = line
        self.value = value


class BoolLiteral(Expr):
    __slots__ = ("value",)

    def __init__(self, line: int, value: bool) -> None:
        self.line = line
        self.value = value


class NullLiteral(Expr):
    __slots__ = ()


class VarRef(Expr):
    __slots__ = ("name",)

    def __init__(self, line: int, name: str) -> None:
        self.line = line
        self.name = name


class Unary(Expr):
    __slots__ = ("op", "operand")

    def __init__(self, line: int, op: str, operand: Expr) -> None:
        self.line = line
        self.op = op  # "-" or "!"
        self.operand = operand


class Binary(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, line: int, op: str, left: Expr, right: Expr) -> None:
        self.line = line
        self.op = op  # arithmetic / comparison / logical operator text
        self.left = left
        self.right = right


class FieldAccess(Expr):
    __slots__ = ("obj", "field")

    def __init__(self, line: int, obj: Expr, field: str) -> None:
        self.line = line
        self.obj = obj
        self.field = field


class Index(Expr):
    __slots__ = ("array", "index")

    def __init__(self, line: int, array: Expr, index: Expr) -> None:
        self.line = line
        self.array = array
        self.index = index


class CallExpr(Expr):
    __slots__ = ("callee", "args")

    def __init__(self, line: int, callee: str, args: list[Expr]) -> None:
        self.line = line
        self.callee = callee
        self.args = args


class NewObject(Expr):
    __slots__ = ("class_name", "initializers")

    def __init__(
        self,
        line: int,
        class_name: str,
        initializers: Optional[list[tuple[str, Expr]]] = None,
    ) -> None:
        self.line = line
        self.class_name = class_name
        #: (field-name, initializer) pairs, e.g. ``new A { x = 0 }``.
        self.initializers = initializers if initializers is not None else []


class NewArrayExpr(Expr):
    __slots__ = ("element_type", "length")

    def __init__(self, line: int, element_type: Type, length: Expr) -> None:
        self.line = line
        self.element_type = element_type
        self.length = length


class LenExpr(Expr):
    __slots__ = ("array",)

    def __init__(self, line: int, array: Expr) -> None:
        self.line = line
        self.array = array


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
class Stmt(Node):
    __slots__ = ()


class VarDecl(Stmt):
    __slots__ = ("name", "declared_type", "init")

    def __init__(
        self, line: int, name: str, declared_type: Type, init: Optional[Expr]
    ) -> None:
        self.line = line
        self.name = name
        self.declared_type = declared_type
        self.init = init


class Assign(Stmt):
    __slots__ = ("target", "value")

    def __init__(self, line: int, target: Expr, value: Expr) -> None:
        self.line = line
        self.target = target  # VarRef, FieldAccess or Index
        self.value = value


class IfStmt(Stmt):
    __slots__ = ("condition", "then_body", "else_body")

    def __init__(
        self,
        line: int,
        condition: Expr,
        then_body: list[Stmt],
        else_body: list[Stmt],
    ) -> None:
        self.line = line
        self.condition = condition
        self.then_body = then_body
        self.else_body = else_body


class WhileStmt(Stmt):
    __slots__ = ("condition", "body")

    def __init__(self, line: int, condition: Expr, body: list[Stmt]) -> None:
        self.line = line
        self.condition = condition
        self.body = body


class ForStmt(Stmt):
    """``for (init; cond; step) body`` — sugar for init + while."""

    __slots__ = ("init", "condition", "step", "body")

    def __init__(
        self,
        line: int,
        init: Stmt,
        condition: Expr,
        step: Assign,
        body: list[Stmt],
    ) -> None:
        self.line = line
        self.init = init  # VarDecl or Assign
        self.condition = condition
        self.step = step
        self.body = body


class ReturnStmt(Stmt):
    __slots__ = ("value",)

    def __init__(self, line: int, value: Optional[Expr]) -> None:
        self.line = line
        self.value = value


class ExprStmt(Stmt):
    __slots__ = ("expr",)

    def __init__(self, line: int, expr: Expr) -> None:
        self.line = line
        self.expr = expr


# ----------------------------------------------------------------------
# Declarations
# ----------------------------------------------------------------------
class ClassDef(Node):
    __slots__ = ("name", "fields")

    def __init__(self, line: int, name: str, fields: list[tuple[str, Type]]) -> None:
        self.line = line
        self.name = name
        self.fields = fields


class GlobalDef(Node):
    __slots__ = ("name", "declared_type")

    def __init__(self, line: int, name: str, declared_type: Type) -> None:
        self.line = line
        self.name = name
        self.declared_type = declared_type


class FunctionDef(Node):
    __slots__ = ("name", "params", "return_type", "body")

    def __init__(
        self,
        line: int,
        name: str,
        params: list[tuple[str, Type]],
        return_type: Type,
        body: list[Stmt],
    ) -> None:
        self.line = line
        self.name = name
        self.params = params
        self.return_type = return_type
        self.body = body


class Module(Node):
    __slots__ = ("classes", "globals", "functions")

    def __init__(
        self,
        line: int,
        classes: list[ClassDef],
        globals: list[GlobalDef],
        functions: list[FunctionDef],
    ) -> None:
        self.line = line
        self.classes = classes
        self.globals = globals
        self.functions = functions
