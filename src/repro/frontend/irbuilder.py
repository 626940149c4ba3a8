"""AST → SSA IR construction with integrated type checking.

SSA is built directly using the structured control flow of the source
language: branch environments are merged with phis, loop headers get
pessimistic phis for every live variable (degenerate ones are cleaned up
by canonicalization later).  The builder establishes the IR's structural
invariants by construction — every ``If`` targets fresh single-
predecessor blocks, so merge predecessors always end in ``Goto``.
"""

from __future__ import annotations

from typing import Optional

from ..ir.block import Block
from ..ir.graph import Graph, Program
from ..ir.nodes import (
    ArithOp,
    ArrayLength,
    ArrayLoad,
    ArrayStore,
    Call,
    Compare,
    Goto,
    If,
    LoadField,
    LoadGlobal,
    Neg,
    New,
    NewArray,
    Not,
    Phi,
    Return,
    StoreField,
    StoreGlobal,
    Value,
)
from ..ir.ops import BinOp, CmpOp, wrap64
from ..ir.types import (
    BOOL,
    INT,
    VOID,
    ArrayType,
    ClassDecl,
    FieldDecl,
    NullType,
    ObjectType,
    Type,
    assignable,
)
from ..ir.verifier import verify_graph
from . import ast
from .lexer import CompileError

_ARITH_OPS = {
    "+": BinOp.ADD, "-": BinOp.SUB, "*": BinOp.MUL, "/": BinOp.DIV,
    "%": BinOp.MOD, "&": BinOp.AND, "|": BinOp.OR, "^": BinOp.XOR,
    "<<": BinOp.SHL, ">>": BinOp.SHR, ">>>": BinOp.USHR,
}
_CMP_OPS = {
    "==": CmpOp.EQ, "!=": CmpOp.NE, "<": CmpOp.LT, "<=": CmpOp.LE,
    ">": CmpOp.GT, ">=": CmpOp.GE,
}


def build_program(module: ast.Module) -> Program:
    """Type-check and lower a parsed module into an IR program."""
    program = Program()
    for cls in module.classes:
        if cls.name in program.class_table:
            raise CompileError(f"duplicate class {cls.name!r}", cls.line)
        program.class_table.declare(
            ClassDecl(cls.name, [FieldDecl(n, t) for n, t in cls.fields])
        )
    for gdef in module.globals:
        _check_type_exists(program, gdef.declared_type, gdef.line)
        if gdef.name in program.globals:
            raise CompileError(f"duplicate global {gdef.name!r}", gdef.line)
        program.declare_global(gdef.name, gdef.declared_type)
    signatures: dict[str, ast.FunctionDef] = {}
    for fdef in module.functions:
        if fdef.name in signatures:
            raise CompileError(f"duplicate function {fdef.name!r}", fdef.line)
        for _, ty in fdef.params:
            _check_type_exists(program, ty, fdef.line)
        _check_type_exists(program, fdef.return_type, fdef.line)
        signatures[fdef.name] = fdef
    for fdef in module.functions:
        builder = _FunctionBuilder(program, signatures, fdef)
        program.add_function(builder.build())
    return program


def _check_type_exists(program: Program, ty: Type, line: int) -> None:
    if isinstance(ty, ObjectType) and ty.class_name not in program.class_table:
        raise CompileError(f"unknown class {ty.class_name!r}", line)
    if isinstance(ty, ArrayType):
        _check_type_exists(program, ty.element, line)


class _FunctionBuilder:
    def __init__(
        self,
        program: Program,
        signatures: dict[str, ast.FunctionDef],
        fdef: ast.FunctionDef,
    ) -> None:
        self.program = program
        self.signatures = signatures
        self.fdef = fdef
        self.graph = Graph(fdef.name, fdef.params, fdef.return_type)
        self.block: Optional[Block] = self.graph.entry
        #: variable name -> (declared type, current SSA value)
        self.env: dict[str, tuple[Type, Value]] = {}
        for param in self.graph.parameters:
            if param.param_name in self.env:
                raise CompileError(f"duplicate parameter {param.param_name!r}", fdef.line)
            self.env[param.param_name] = (param.type, param)

    # ------------------------------------------------------------------
    def build(self) -> Graph:
        self._build_statements(self.fdef.body)
        if self.block is not None:
            if self.fdef.return_type != VOID:
                raise CompileError(
                    f"function {self.fdef.name!r} may finish without returning a value",
                    self.fdef.line,
                )
            self.block.set_terminator(Return(None))
        verify_graph(self.graph)
        return self.graph

    def _emit(self, instruction):
        assert self.block is not None
        return self.block.append(instruction)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _build_statements(self, statements: list[ast.Stmt]) -> None:
        for stmt in statements:
            if self.block is None:
                # Code after a return/unconditional exit: statically
                # unreachable; reject to keep programs honest.
                raise CompileError("unreachable statement", stmt.line)
            self._build_statement(stmt)

    def _build_statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            self._build_var_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._build_assign(stmt)
        elif isinstance(stmt, ast.IfStmt):
            self._build_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._build_while(stmt)
        elif isinstance(stmt, ast.ForStmt):
            self._build_for(stmt)
        elif isinstance(stmt, ast.ReturnStmt):
            self._build_return(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._build_expr(stmt.expr, allow_void=True)
        else:  # pragma: no cover - parser produces no other kinds
            raise AssertionError(f"unknown statement {stmt!r}")

    def _build_var_decl(self, stmt: ast.VarDecl) -> None:
        if stmt.name in self.env:
            raise CompileError(f"variable {stmt.name!r} already defined", stmt.line)
        _check_type_exists(self.program, stmt.declared_type, stmt.line)
        if stmt.init is not None:
            value, vtype = self._build_expr(stmt.init)
            self._check_assignable(stmt.declared_type, vtype, stmt.line)
        else:
            value = self._default_value(stmt.declared_type)
        self.env[stmt.name] = (stmt.declared_type, value)

    def _default_value(self, ty: Type) -> Value:
        if ty == INT:
            return self.graph.const_int(0)
        if ty == BOOL:
            return self.graph.const_bool(False)
        if ty.is_reference():
            return self.graph.const_null(ty)
        raise CompileError(f"cannot default-initialize {ty!r}")

    def _build_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.VarRef):
            if target.name in self.env:
                declared, _ = self.env[target.name]
                value, vtype = self._build_expr(stmt.value)
                self._check_assignable(declared, vtype, stmt.line)
                self.env[target.name] = (declared, value)
                return
            if target.name in self.program.globals:
                declared = self.program.globals[target.name]
                value, vtype = self._build_expr(stmt.value)
                self._check_assignable(declared, vtype, stmt.line)
                self._emit(StoreGlobal(target.name, value))
                return
            raise CompileError(f"undefined variable {target.name!r}", stmt.line)
        if isinstance(target, ast.FieldAccess):
            obj, obj_type = self._build_expr(target.obj)
            field_type = self._field_type(obj_type, target.field, stmt.line)
            value, vtype = self._build_expr(stmt.value)
            self._check_assignable(field_type, vtype, stmt.line)
            self._emit(StoreField(obj, target.field, value))
            return
        if isinstance(target, ast.Index):
            array, arr_type = self._build_expr(target.array)
            if not isinstance(arr_type, ArrayType):
                raise CompileError(f"indexing non-array {arr_type!r}", stmt.line)
            index, index_type = self._build_expr(target.index)
            if index_type != INT:
                raise CompileError("array index must be int", stmt.line)
            value, vtype = self._build_expr(stmt.value)
            self._check_assignable(arr_type.element, vtype, stmt.line)
            self._emit(ArrayStore(array, index, value))
            return
        raise AssertionError(f"invalid assign target {target!r}")

    def _build_return(self, stmt: ast.ReturnStmt) -> None:
        want = self.fdef.return_type
        if stmt.value is None:
            if want != VOID:
                raise CompileError("missing return value", stmt.line)
            self.block.set_terminator(Return(None))
        else:
            if want == VOID:
                raise CompileError("void function returns a value", stmt.line)
            value, vtype = self._build_expr(stmt.value)
            self._check_assignable(want, vtype, stmt.line)
            self.block.set_terminator(Return(value))
        self.block = None

    def _build_if(self, stmt: ast.IfStmt) -> None:
        condition, cond_type = self._build_expr(stmt.condition)
        if cond_type != BOOL:
            raise CompileError("if condition must be bool", stmt.line)
        then_block = self.graph.new_block()
        else_block = self.graph.new_block()
        self.block.set_terminator(If(condition, then_block, else_block))

        outer_env = dict(self.env)
        outer_vars = set(outer_env)

        self.block = then_block
        self._build_statements(stmt.then_body)
        then_exit, then_env = self.block, self.env

        self.env = dict(outer_env)
        self.block = else_block
        self._build_statements(stmt.else_body)
        else_exit, else_env = self.block, self.env

        if then_exit is None and else_exit is None:
            self.block = None
            return
        if else_exit is None:
            self.block = then_exit
            self.env = {k: v for k, v in then_env.items() if k in outer_vars}
            return
        if then_exit is None:
            self.block = else_exit
            self.env = {k: v for k, v in else_env.items() if k in outer_vars}
            return

        merge = self.graph.new_block()
        then_exit.set_terminator(Goto(merge))
        else_exit.set_terminator(Goto(merge))
        merged_env: dict[str, tuple[Type, Value]] = {}
        # Iterate the env dict, not outer_vars: a set of names iterates
        # in hash order, which would make phi creation order (and with
        # it value numbering, register layout and bytecode digests)
        # vary from process to process under hash randomization.
        for name in outer_env:
            declared = outer_env[name][0]
            tval = then_env[name][1]
            eval_ = else_env[name][1]
            if tval is eval_:
                merged_env[name] = (declared, tval)
            else:
                phi = Phi(merge, declared, [tval, eval_])
                merge.add_phi(phi)
                merged_env[name] = (declared, phi)
        self.env = merged_env
        self.block = merge

    def _build_for(self, stmt: ast.ForStmt) -> None:
        """Desugar ``for (init; cond; step)`` to init + while, with the
        step executed after the body (skipped on early return) and the
        init variable scoped to the loop."""
        outer_vars = set(self.env)
        self._build_statement(stmt.init)
        self._build_while(
            ast.WhileStmt(stmt.line, stmt.condition, stmt.body), step=stmt.step
        )
        if self.block is not None:
            self.env = {
                name: value
                for name, value in self.env.items()
                if name in outer_vars
            }

    def _build_while(self, stmt: ast.WhileStmt, step: Optional[ast.Assign] = None) -> None:
        outer_vars = set(self.env)
        header = self.graph.new_block()
        self.block.set_terminator(Goto(header))

        # Pessimistic loop phis for every visible variable; canonicalize
        # collapses the ones that turn out loop-invariant.
        loop_phis: dict[str, Phi] = {}
        header_env: dict[str, tuple[Type, Value]] = {}
        for name, (declared, value) in self.env.items():
            phi = Phi(header, declared, [value])
            header.add_phi(phi)
            loop_phis[name] = phi
            header_env[name] = (declared, phi)
        self.env = header_env
        self.block = header

        condition, cond_type = self._build_expr(stmt.condition)
        if cond_type != BOOL:
            raise CompileError("while condition must be bool", stmt.line)
        body_block = self.graph.new_block()
        exit_block = self.graph.new_block()
        self.block.set_terminator(If(condition, body_block, exit_block))
        env_at_test = dict(self.env)

        self.block = body_block
        self._build_statements(stmt.body)
        if self.block is not None and step is not None:
            self._build_statement(step)
        if self.block is not None:
            # Back edge: register the predecessor, then append the
            # positional phi inputs for it.
            self.block.set_terminator(Goto(header))
            for name, phi in loop_phis.items():
                phi._append_input(self.env[name][1])
        else:
            # No back edge: the header is not a merge; its phis are
            # degenerate and collapse to their (pre-loop) single input.
            replacement = {phi: phi.input(0) for phi in loop_phis.values()}
            for phi in loop_phis.values():
                phi.replace_all_uses(replacement[phi])
                header.remove_instruction(phi)
            env_at_test = {
                name: (declared, replacement.get(value, value))
                for name, (declared, value) in env_at_test.items()
            }

        self.block = exit_block
        self.env = {k: v for k, v in env_at_test.items() if k in outer_vars}

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _build_expr(self, expr: ast.Expr, allow_void: bool = False) -> tuple[Value, Type]:
        value, ty = self._build_expr_inner(expr)
        if ty == VOID and not allow_void:
            raise CompileError("void value used in expression", expr.line)
        return value, ty

    def _build_expr_inner(self, expr: ast.Expr) -> tuple[Value, Type]:
        if isinstance(expr, ast.IntLiteral):
            return self._int_literal(expr.value, expr.line), INT
        if isinstance(expr, ast.BoolLiteral):
            return self.graph.const_bool(expr.value), BOOL
        if isinstance(expr, ast.NullLiteral):
            return self.graph.const_null(NullType()), NullType()
        if isinstance(expr, ast.VarRef):
            if expr.name in self.env:
                declared, value = self.env[expr.name]
                return value, declared
            if expr.name in self.program.globals:
                ty = self.program.globals[expr.name]
                return self._emit(LoadGlobal(expr.name, ty)), ty
            raise CompileError(f"undefined variable {expr.name!r}", expr.line)
        if isinstance(expr, ast.Unary):
            return self._build_unary(expr)
        if isinstance(expr, ast.Binary):
            return self._build_binary(expr)
        if isinstance(expr, ast.FieldAccess):
            obj, obj_type = self._build_expr(expr.obj)
            field_type = self._field_type(obj_type, expr.field, expr.line)
            return self._emit(LoadField(obj, expr.field, field_type)), field_type
        if isinstance(expr, ast.Index):
            array, arr_type = self._build_expr(expr.array)
            if not isinstance(arr_type, ArrayType):
                raise CompileError(f"indexing non-array {arr_type!r}", expr.line)
            index, index_type = self._build_expr(expr.index)
            if index_type != INT:
                raise CompileError("array index must be int", expr.line)
            return self._emit(ArrayLoad(array, index, arr_type.element)), arr_type.element
        if isinstance(expr, ast.LenExpr):
            array, arr_type = self._build_expr(expr.array)
            if not isinstance(arr_type, ArrayType):
                raise CompileError("len() of non-array", expr.line)
            return self._emit(ArrayLength(array)), INT
        if isinstance(expr, ast.CallExpr):
            return self._build_call(expr)
        if isinstance(expr, ast.NewObject):
            return self._build_new_object(expr)
        if isinstance(expr, ast.NewArrayExpr):
            _check_type_exists(self.program, expr.element_type, expr.line)
            length, lt = self._build_expr(expr.length)
            if lt != INT:
                raise CompileError("array length must be int", expr.line)
            value = self._emit(NewArray(expr.element_type, length))
            return value, ArrayType(expr.element_type)
        raise AssertionError(f"unknown expression {expr!r}")

    def _int_literal(self, value: int, line: int) -> Value:
        """The constant of an integer literal, which must be a signed
        64-bit int, as every value a program computes is (the minimum
        only as ``-9223372036854775808``)."""
        if wrap64(value) != value:
            raise CompileError(
                f"integer literal {value} is outside the signed 64-bit range",
                line,
            )
        return self.graph.const_int(value)

    def _build_unary(self, expr: ast.Unary) -> tuple[Value, Type]:
        if expr.op == "-" and isinstance(expr.operand, ast.IntLiteral):
            return self._int_literal(-expr.operand.value, expr.line), INT
        value, ty = self._build_expr(expr.operand)
        if expr.op == "-":
            if ty != INT:
                raise CompileError("unary '-' needs int", expr.line)
            return self._emit(Neg(value)), INT
        if ty != BOOL:
            raise CompileError("'!' needs bool", expr.line)
        return self._emit(Not(value)), BOOL

    def _build_binary(self, expr: ast.Binary) -> tuple[Value, Type]:
        if expr.op in ("&&", "||"):
            return self._build_short_circuit(expr)
        if expr.op in _CMP_OPS:
            left, lt = self._build_expr(expr.left)
            right, rt = self._build_expr(expr.right)
            op = _CMP_OPS[expr.op]
            if op in (CmpOp.EQ, CmpOp.NE):
                if not (assignable(lt, rt) or assignable(rt, lt)):
                    raise CompileError(
                        f"cannot compare {lt!r} with {rt!r}", expr.line
                    )
            else:
                if lt != INT or rt != INT:
                    raise CompileError(f"{expr.op!r} needs int operands", expr.line)
            return self._emit(Compare(op, left, right)), BOOL
        if expr.op in _ARITH_OPS:
            # `&`, `|`, `^` double as boolean (non-short-circuit) ops.
            left, lt = self._build_expr(expr.left)
            right, rt = self._build_expr(expr.right)
            if expr.op in ("&", "|", "^") and lt == BOOL and rt == BOOL:
                return self._build_bool_bitop(expr.op, left, right), BOOL
            if lt != INT or rt != INT:
                raise CompileError(f"{expr.op!r} needs int operands", expr.line)
            return self._emit(ArithOp(_ARITH_OPS[expr.op], left, right)), INT
        raise AssertionError(f"unknown binary operator {expr.op!r}")

    def _build_bool_bitop(self, op: str, left: Value, right: Value) -> Value:
        """Lower the non-short-circuit boolean operators.

        ``a ^ b`` is exactly ``a != b`` on booleans.  ``&`` and ``|``
        become a select diamond (both operands are already evaluated, so
        the eager semantics is preserved).
        """
        if op == "^":
            return self._emit(Compare(CmpOp.NE, left, right))
        if op == "&":
            return self._emit_select(left, right, self.graph.const_bool(False))
        return self._emit_select(left, self.graph.const_bool(True), right)

    def _emit_select(self, condition: Value, if_true: Value, if_false: Value) -> Value:
        """``condition ? if_true : if_false`` as a CFG diamond + phi."""
        then_block = self.graph.new_block()
        else_block = self.graph.new_block()
        self.block.set_terminator(If(condition, then_block, else_block))
        merge = self.graph.new_block()
        then_block.set_terminator(Goto(merge))
        else_block.set_terminator(Goto(merge))
        phi = Phi(merge, BOOL, [if_true, if_false])
        merge.add_phi(phi)
        self.block = merge
        return phi

    def _build_short_circuit(self, expr: ast.Binary) -> tuple[Value, Type]:
        left, lt = self._build_expr(expr.left)
        if lt != BOOL:
            raise CompileError(f"{expr.op!r} needs bool operands", expr.line)
        rhs_block = self.graph.new_block()
        skip_block = self.graph.new_block()
        if expr.op == "&&":
            self.block.set_terminator(If(left, rhs_block, skip_block))
            skip_value = self.graph.const_bool(False)
        else:
            self.block.set_terminator(If(left, skip_block, rhs_block))
            skip_value = self.graph.const_bool(True)

        self.block = rhs_block
        right, rt = self._build_expr(expr.right)
        if rt != BOOL:
            raise CompileError(f"{expr.op!r} needs bool operands", expr.line)
        rhs_exit = self.block

        merge = self.graph.new_block()
        rhs_exit.set_terminator(Goto(merge))
        skip_block.set_terminator(Goto(merge))
        phi = Phi(merge, BOOL, [right, skip_value])
        merge.add_phi(phi)
        self.block = merge
        return phi, BOOL

    def _build_call(self, expr: ast.CallExpr) -> tuple[Value, Type]:
        if expr.callee not in self.signatures:
            raise CompileError(f"undefined function {expr.callee!r}", expr.line)
        sig = self.signatures[expr.callee]
        if len(expr.args) != len(sig.params):
            raise CompileError(
                f"{expr.callee!r} expects {len(sig.params)} arguments, "
                f"got {len(expr.args)}",
                expr.line,
            )
        args: list[Value] = []
        for arg_expr, (_, want) in zip(expr.args, sig.params):
            value, have = self._build_expr(arg_expr)
            self._check_assignable(want, have, expr.line)
            args.append(value)
        call = self._emit(Call(expr.callee, args, sig.return_type))
        return call, sig.return_type

    def _build_new_object(self, expr: ast.NewObject) -> tuple[Value, Type]:
        if expr.class_name not in self.program.class_table:
            raise CompileError(f"unknown class {expr.class_name!r}", expr.line)
        decl = self.program.class_table.lookup(expr.class_name)
        obj_type = ObjectType(expr.class_name)
        obj = self._emit(New(obj_type))
        seen: set[str] = set()
        for fname, init in expr.initializers:
            if not decl.has_field(fname):
                raise CompileError(
                    f"class {expr.class_name} has no field {fname!r}", expr.line
                )
            if fname in seen:
                raise CompileError(f"field {fname!r} initialized twice", expr.line)
            seen.add(fname)
            value, vtype = self._build_expr(init)
            self._check_assignable(decl.field_type(fname), vtype, expr.line)
            self._emit(StoreField(obj, fname, value))
        return obj, obj_type

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _field_type(self, obj_type: Type, field: str, line: int) -> Type:
        if not isinstance(obj_type, ObjectType):
            raise CompileError(f"field access on non-object {obj_type!r}", line)
        decl = self.program.class_table.lookup(obj_type.class_name)
        if not decl.has_field(field):
            raise CompileError(
                f"class {obj_type.class_name} has no field {field!r}", line
            )
        return decl.field_type(field)

    def _check_assignable(self, target: Type, source: Type, line: int) -> None:
        if not assignable(target, source):
            raise CompileError(f"cannot assign {source!r} to {target!r}", line)


def compile_source(source: str) -> Program:
    """Parse + type check + lower MiniLang source text to an IR program."""
    from .parser import parse_module

    return build_program(parse_module(source))
