"""Tests for AST → SSA lowering and type checking."""

import pytest

from repro.frontend.irbuilder import compile_source
from repro.frontend.lexer import CompileError
from repro.ir import (
    Goto,
    If,
    LoadGlobal,
    New,
    Phi,
    Return,
    StoreField,
    StoreGlobal,
    verify_graph,
    verify_program,
)


class TestBasicLowering:
    def test_every_function_verifies(self):
        program = compile_source(
            """
class A { x: int; }
global g: int;
fn f1(a: A, i: int) -> int { if (i > 0) { return a.x; } return i; }
fn f2(n: int) -> int { var s: int = 0; var i: int = 0;
  while (i < n) { s = s + i; i = i + 1; } return s; }
fn f3() { g = 1; }
"""
        )
        verify_program(program)

    def test_if_merge_creates_phi(self):
        program = compile_source(
            "fn f(x: int) -> int { var p: int; if (x > 0) { p = x; } else { p = 0; } return p; }"
        )
        graph = program.function("f")
        phis = [phi for b in graph.blocks for phi in b.phis]
        assert len(phis) == 1
        assert len(phis[0].inputs) == 2

    def test_unchanged_variable_needs_no_phi(self):
        program = compile_source(
            "fn f(x: int) -> int { var k: int = 7; if (x > 0) { x = 1; } else { x = 2; } return k + x; }"
        )
        graph = program.function("f")
        phis = [phi for b in graph.blocks for phi in b.phis]
        assert len(phis) == 1  # only x, not k

    def test_branch_with_return_no_merge_phi(self):
        program = compile_source(
            "fn f(x: int) -> int { if (x > 0) { return 1; } x = x + 1; return x; }"
        )
        graph = program.function("f")
        assert all(not b.phis for b in graph.blocks)

    def test_loop_header_phis(self):
        program = compile_source(
            "fn f(n: int) -> int { var i: int = 0; while (i < n) { i = i + 1; } return i; }"
        )
        graph = program.function("f")
        headers = [b for b in graph.blocks if b.phis]
        assert len(headers) == 1
        assert len(headers[0].predecessors) == 2

    def test_short_circuit_and(self):
        program = compile_source(
            "fn f(a: bool, b: bool) -> bool { return a && b; }"
        )
        graph = program.function("f")
        branches = [b for b in graph.blocks if isinstance(b.terminator, If)]
        assert len(branches) == 1

    def test_critical_edges_split_by_construction(self):
        program = compile_source(
            """
fn f(x: int) -> int {
  var p: int = 0;
  if (x > 0) { if (x > 10) { p = 1; } } else { p = 2; }
  return p;
}
"""
        )
        verify_graph(program.function("f"))  # includes critical-edge check

    def test_globals_load_store(self):
        program = compile_source(
            "global g: int;\nfn f(x: int) -> int { g = x; return g; }"
        )
        graph = program.function("f")
        instrs = [i for b in graph.blocks for i in b.instructions]
        assert any(isinstance(i, StoreGlobal) for i in instrs)
        assert any(isinstance(i, LoadGlobal) for i in instrs)

    def test_new_with_initializers_lowers_to_stores(self):
        program = compile_source(
            "class P { a: int; b: int; }\nfn f() -> int { var p: P = new P { a = 1, b = 2 }; return p.a; }"
        )
        graph = program.function("f")
        instrs = [i for b in graph.blocks for i in b.instructions]
        assert sum(isinstance(i, New) for i in instrs) == 1
        assert sum(isinstance(i, StoreField) for i in instrs) == 2

    def test_void_function_gets_implicit_return(self):
        program = compile_source("global g: int;\nfn f() { g = 1; }")
        graph = program.function("f")
        returns = [b for b in graph.blocks if isinstance(b.terminator, Return)]
        assert len(returns) == 1

    def test_negative_literal_folds_to_constant(self):
        program = compile_source("fn f() -> int { return -5; }")
        graph = program.function("f")
        assert graph.entry.instructions == []  # no Neg emitted


class TestWhileEdgeCases:
    def test_body_always_returns(self):
        program = compile_source(
            """
fn f(n: int) -> int {
  while (n > 0) { return n; }
  return 0;
}
"""
        )
        verify_graph(program.function("f"))

    def test_nested_loops_verify(self):
        program = compile_source(
            """
fn f(n: int) -> int {
  var t: int = 0; var i: int = 0;
  while (i < n) {
    var j: int = 0;
    while (j < i) { t = t + 1; j = j + 1; }
    i = i + 1;
  }
  return t;
}
"""
        )
        verify_graph(program.function("f"))

    def test_loop_var_scoping(self):
        with pytest.raises(CompileError, match="undefined variable"):
            compile_source(
                "fn f(n: int) -> int { while (n > 0) { var t: int = 1; n = n - 1; } return t; }"
            )


class TestTypeErrors:
    @pytest.mark.parametrize(
        "source,message",
        [
            ("fn f() -> int { return true; }", "cannot assign"),
            ("fn f() -> int { var x: bool = 1; return 0; }", "cannot assign"),
            ("fn f() { if (1) { } }", "must be bool"),
            ("fn f() { while (1) { } }", "must be bool"),
            ("fn f() -> int { return 1 + true; }", "needs int"),
            ("fn f() -> bool { return !1; }", "needs bool"),
            ("fn f() -> int { return -true; }", "needs int"),
            ("fn f() -> bool { return 1 && true; }", "needs bool"),
            ("fn f() -> bool { return true < false; }", "needs int"),
            ("fn f(x: int) -> int { return x.f; }", "non-object"),
            ("class A { x: int; }\nfn f(a: A) -> int { return a.y; }", "no field"),
            ("fn f() -> int { return g(); }", "undefined function"),
            ("fn g() {}\nfn f() { g(1); }", "expects 0 arguments"),
            ("fn f() -> int { return y; }", "undefined variable"),
            ("fn f() { y = 1; }", "undefined variable"),
            ("fn f() -> int { var x: int = 1; var x: int = 2; return x; }", "already defined"),
            ("fn f(x: int, x: int) -> int { return x; }", "duplicate parameter"),
            ("fn f() -> int { }", "without returning"),
            ("fn f() -> int { return 1; return 2; }", "unreachable"),
            ("fn f() { return 1; }", "void function returns"),
            ("fn f() -> int { return; }", "missing return value"),
            ("fn f(a: B) {}", "unknown class"),
            ("fn f() -> int { return new B; }", "unknown class"),
            ("class A { x: int; }\nfn f() -> A { return new A { y = 1 }; }", "no field"),
            ("class A { x: int; }\nfn f() -> A { return new A { x = 1, x = 2 }; }", "twice"),
            ("fn f(x: int) -> int { return x[0]; }", "non-array"),
            ("fn f(xs: int[]) -> int { return xs[true]; }", "must be int"),
            ("fn f() -> int { return len(3); }", "non-array"),
            ("fn f() -> int { return new int[true]; }", "must be int"),
            ("fn g() {}\nfn f() -> int { return g() + 1; }", "void value"),
            ("class A { x: int; }\nfn f(a: A) -> bool { return a == 1; }", "cannot compare"),
            ("fn f() {}\nfn f() {}", "duplicate function"),
            ("global g: int;\nglobal g: int;", "duplicate global"),
            (
                "fn f() -> int { return 9223372036854775808; }",
                "literal 9223372036854775808 is outside the signed 64-bit",
            ),
            (
                "fn f() -> int { return -9223372036854775809; }",
                "literal -9223372036854775809 is outside",
            ),
        ],
    )
    def test_rejected(self, source, message):
        with pytest.raises(CompileError, match=message):
            compile_source(source)

    def test_null_comparison_allowed(self):
        program = compile_source(
            "class A { x: int; }\nfn f(a: A) -> bool { return a == null; }"
        )
        verify_program(program)

    def test_null_assignment_allowed(self):
        program = compile_source(
            "class A { x: int; }\nfn f() -> A { var a: A = null; return a; }"
        )
        verify_program(program)
