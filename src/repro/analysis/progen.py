"""Random MiniLang program generator and source mutator for
differential testing.

Two complementary strategies:

* :class:`ProgramGenerator` grows syntactically valid,
  always-terminating programs from scratch (ints, bools, objects,
  arrays, globals, calls, branches, bounded loops).  Programs may trap
  (division by zero, null dereference, out-of-bounds) — traps are part
  of the observable outcome the configurations must agree on.
* :class:`SourceMutator` perturbs *real* programs
  (template-extraction-style, after Zang et al.'s JAttack/template
  JIT testing): swap integer constants, flip comparison operators
  inside ``if`` conditions, and wrap loop bodies in a redundant
  always-true branch.  Mutating hand-written sources reaches idiom
  combinations the generator's grammar never emits, while keeping the
  program shape realistic; :func:`repro.analysis.validate.fuzz`
  drives the mutants through the differential oracle.

Mutation operators deliberately avoid ``while`` headers: loop bounds
and conditions stay as authored so mutants terminate like their
originals (a flipped ``if`` can still change how much work runs —
:func:`~repro.analysis.validate.fuzz` screens mutants with a small
interpreter step budget before differential runs).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional


class ProgramGenerator:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.fresh = 0

    def name(self, prefix: str) -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def int_expr(self, vars_: list[str], depth: int) -> str:
        rng = self.rng
        if depth <= 0 or rng.random() < 0.3:
            if vars_ and rng.random() < 0.7:
                return rng.choice(vars_)
            return str(rng.randint(-20, 100))
        kind = rng.random()
        if kind < 0.75:
            op = rng.choice(["+", "-", "*", "&", "|", "^"])
            return (
                f"({self.int_expr(vars_, depth - 1)} {op} "
                f"{self.int_expr(vars_, depth - 1)})"
            )
        if kind < 0.85:
            # Division/modulo: may trap, which is intentional.
            op = rng.choice(["/", "%"])
            return (
                f"({self.int_expr(vars_, depth - 1)} {op} "
                f"{self.int_expr(vars_, depth - 1)})"
            )
        op = rng.choice(["<<", ">>"])
        return f"({self.int_expr(vars_, depth - 1)} {op} {self.rng.randint(0, 5)})"

    def bool_expr(self, vars_: list[str], depth: int) -> str:
        rng = self.rng
        op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
        left = self.int_expr(vars_, depth - 1)
        right = self.int_expr(vars_, depth - 1)
        base = f"({left} {op} {right})"
        if depth > 1 and rng.random() < 0.3:
            joiner = rng.choice(["&&", "||"])
            other = self.bool_expr(vars_, depth - 1)
            return f"({base} {joiner} {other})"
        if rng.random() < 0.15:
            return f"(!{base})"
        return base

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def statements(self, vars_: list[str], depth: int, budget: int) -> list[str]:
        rng = self.rng
        out: list[str] = []
        count = rng.randint(1, max(1, budget))
        for _ in range(count):
            kind = rng.random()
            if kind < 0.3 or not vars_:
                var = self.name("v")
                out.append(f"var {var}: int = {self.int_expr(vars_, 2)};")
                vars_.append(var)
            elif kind < 0.55:
                # Induction variables (i-prefixed) are reserved: loops
                # must terminate.
                writable = [v for v in vars_ if not v.startswith("i")]
                if not writable:
                    continue
                target = rng.choice(writable)
                out.append(f"{target} = {self.int_expr(vars_, 2)};")
            elif kind < 0.8 and depth > 0:
                cond = self.bool_expr(vars_, 2)
                then_body = self.indent(
                    self.statements(list(vars_), depth - 1, budget - 1)
                )
                if rng.random() < 0.6:
                    else_body = self.indent(
                        self.statements(list(vars_), depth - 1, budget - 1)
                    )
                    out.append(
                        f"if ({cond}) {{\n{then_body}\n}} else {{\n{else_body}\n}}"
                    )
                else:
                    out.append(f"if ({cond}) {{\n{then_body}\n}}")
            elif kind < 0.9 and depth > 0:
                # Canonical bounded loop; the induction variable is
                # reserved (never reassigned by the body).
                i = self.name("i")
                bound = rng.randint(1, 6)
                body_vars = list(vars_) + [i]
                body = self.indent(self.statements(body_vars, depth - 1, budget - 1))
                out.append(
                    f"var {i}: int = 0;\n"
                    f"while ({i} < {bound}) {{\n{body}\n  {i} = {i} + 1;\n}}"
                )
            else:
                out.append(f"g = g + {rng.choice(vars_)};")
        return out

    @staticmethod
    def indent(statements: list[str]) -> str:
        lines = []
        for stmt in statements:
            for line in stmt.split("\n"):
                lines.append("  " + line)
        return "\n".join(lines) if lines else "  g = g + 0;"

    # ------------------------------------------------------------------
    def helper(self, index: int) -> str:
        vars_ = ["x", "y"]
        # Object/array flavour in some helpers (chosen before the body
        # is generated so declared variables match the emitted code).
        flavour = self.rng.random()
        prologue = ""
        if flavour < 0.35:
            prologue = (
                f"  var box: D = new D {{ a = x, b = {self.rng.randint(0, 9)} }};\n"
                f"  var bv: int = box.a + box.b;\n"
            )
            vars_.append("bv")
            body = self.statements(vars_, depth=1, budget=3)
        elif flavour < 0.55:
            size = self.rng.randint(1, 5)
            prologue = (
                f"  var arr: int[] = new int[{size}];\n"
                f"  arr[{self.rng.randint(0, size - 1)}] = x;\n"
                f"  var av: int = arr[{self.rng.randint(0, size)}];\n"
            )
            vars_.append("av")
            body = self.statements(vars_, depth=1, budget=3)
        else:
            body = self.statements(vars_, depth=2, budget=4)
        stmts = "\n".join("  " + line for s in body for line in s.split("\n"))
        ret = self.int_expr(vars_, 2)
        return (
            f"fn h{index}(x: int, y: int) -> int {{\n"
            f"{prologue}{stmts}\n  return {ret};\n}}\n"
        )

    def generate(self) -> str:
        helper_count = self.rng.randint(1, 3)
        helpers = "".join(self.helper(i) for i in range(helper_count))
        calls = " + ".join(
            f"h{i}(k, acc)" for i in range(helper_count)
        )
        return (
            "class D { a: int; b: int; }\n"
            "global g: int;\n"
            f"{helpers}"
            "fn main(n: int) -> int {\n"
            "  var acc: int = 0;\n"
            "  var k: int = 0;\n"
            "  while (k < n) {\n"
            f"    acc = acc + {calls};\n"
            "    k = k + 1;\n"
            "  }\n"
            "  return acc + g;\n"
            "}\n"
        )


def random_program(seed: int) -> str:
    """A deterministic random program for the given seed."""
    return ProgramGenerator(seed).generate()


# ----------------------------------------------------------------------
# Template-extraction-style source mutation
# ----------------------------------------------------------------------
#: the three mutation operators, in canonical order
MUTATION_KINDS = ("swap-constant", "flip-comparison", "wrap-loop-body")

#: comparison operators and their flips (``==``/``!=`` negate; ordered
#: comparisons move the boundary value across the branch)
_FLIP = {"==": "!=", "!=": "==", "<": "<=", "<=": "<", ">": ">=", ">=": ">"}

#: a comparison operator that is neither part of a shift (``<<``,
#: ``>>``, ``>>>``), an arrow (``->``), an assignment (``=``), nor a
#: logical/bitwise compound (``&&``, ``||``, ``^``, ``!``)
_CMP_RE = re.compile(r"(?<![<>=!&|^\-])(==|!=|<=|>=|<|>)(?![<>=])")

_INT_RE = re.compile(r"(?<![\w.])\d+\b")


@dataclass(frozen=True)
class MutatedProgram:
    """One mutant: the new source plus what was done to produce it."""

    source: str
    base: str
    applied: tuple[str, ...]

    @property
    def changed(self) -> bool:
        return bool(self.applied)


def _comment_spans(source: str) -> list[tuple[int, int]]:
    """``//`` comment regions (mutations must not touch them)."""
    spans = []
    offset = 0
    for line in source.splitlines(keepends=True):
        at = line.find("//")
        if at >= 0:
            spans.append((offset + at, offset + len(line)))
        offset += len(line)
    return spans


def _matching_paren(source: str, open_at: int) -> Optional[int]:
    """Index of the ``)`` closing the ``(`` at ``open_at``."""
    depth = 0
    for index in range(open_at, len(source)):
        if source[index] == "(":
            depth += 1
        elif source[index] == ")":
            depth -= 1
            if depth == 0:
                return index
    return None


def _matching_brace(source: str, open_at: int) -> Optional[int]:
    """Index of the ``}`` closing the ``{`` at ``open_at``."""
    depth = 0
    for index in range(open_at, len(source)):
        if source[index] == "{":
            depth += 1
        elif source[index] == "}":
            depth -= 1
            if depth == 0:
                return index
    return None


def _keyword_spans(source: str, keyword: str) -> list[tuple[int, int]]:
    """Paren-delimited header spans of ``while``/``if`` keywords."""
    spans = []
    for match in re.finditer(rf"\b{keyword}\b", source):
        open_at = source.find("(", match.end())
        if open_at < 0:
            continue
        close_at = _matching_paren(source, open_at)
        if close_at is not None:
            spans.append((open_at, close_at + 1))
    return spans


def _inside(position: int, spans: list[tuple[int, int]]) -> bool:
    return any(start <= position < end for start, end in spans)


class SourceMutator:
    """Deterministic, seed-driven mutations of real MiniLang sources.

    Every operator preserves syntactic validity; semantic changes are
    the point — the mutant and its original are *different* programs,
    each of which must still agree with itself across compiler
    configurations (that is what the differential oracle checks).
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    # -- operators ------------------------------------------------------
    def swap_constant(self, source: str) -> Optional[str]:
        """Replace one integer literal with a small different one.

        ``while`` headers are off-limits (termination), comments are
        skipped (no-op mutations).
        """
        forbidden = _comment_spans(source) + _keyword_spans(source, "while")
        sites = [
            m for m in _INT_RE.finditer(source)
            if not _inside(m.start(), forbidden)
        ]
        if not sites:
            return None
        site = self.rng.choice(sites)
        old = int(site.group())
        new = self.rng.randint(0, 9)
        if new == old:
            new = (new + 1) % 10
        return source[: site.start()] + str(new) + source[site.end():]

    def flip_comparison(self, source: str) -> Optional[str]:
        """Flip one comparison operator inside an ``if`` condition."""
        comments = _comment_spans(source)
        headers = [
            span
            for span in _keyword_spans(source, "if")
            if not _inside(span[0], comments)
        ]
        sites = []
        for start, end in headers:
            sites.extend(
                m for m in _CMP_RE.finditer(source, start, end)
                if not _inside(m.start(), comments)
            )
        if not sites:
            return None
        site = self.rng.choice(sites)
        flipped = _FLIP[site.group()]
        return source[: site.start()] + flipped + source[site.end():]

    def wrap_loop_body(self, source: str) -> Optional[str]:
        """Wrap one ``while`` body in an always-true ``if``.

        Semantically neutral, structurally loud: the extra branch adds
        a merge point inside the loop, exactly the shape DBDS
        simulates, and cleanup phases must fold it away again.
        """
        comments = _comment_spans(source)
        sites = []
        for match in re.finditer(r"\bwhile\b", source):
            if _inside(match.start(), comments):
                continue
            open_paren = source.find("(", match.end())
            if open_paren < 0:
                continue
            close_paren = _matching_paren(source, open_paren)
            if close_paren is None:
                continue
            open_brace = source.find("{", close_paren)
            if open_brace < 0:
                continue
            close_brace = _matching_brace(source, open_brace)
            if close_brace is not None and close_brace > open_brace + 1:
                sites.append((open_brace, close_brace))
        if not sites:
            return None
        open_brace, close_brace = self.rng.choice(sites)
        body = source[open_brace + 1 : close_brace]
        return (
            source[: open_brace + 1]
            + " if (0 == 0) {"
            + body
            + "} "
            + source[close_brace:]
        )

    # -- driver ---------------------------------------------------------
    def mutate(self, source: str, mutations: int = 2, base: str = "<source>") -> MutatedProgram:
        """Apply up to ``mutations`` random operators to ``source``.

        Operators that find no applicable site are skipped; the result
        records which ones actually fired (possibly none).
        """
        applied = []
        current = source
        for _ in range(mutations):
            kind = self.rng.choice(MUTATION_KINDS)
            mutated = {
                "swap-constant": self.swap_constant,
                "flip-comparison": self.flip_comparison,
                "wrap-loop-body": self.wrap_loop_body,
            }[kind](current)
            if mutated is not None:
                current = mutated
                applied.append(kind)
        return MutatedProgram(source=current, base=base, applied=tuple(applied))


def mutated_program(
    seed: int, corpus: Optional[list[str]] = None, mutations: int = 2
) -> MutatedProgram:
    """A deterministic mutant for the given seed.

    With a ``corpus`` of real sources, one is chosen and mutated
    (template-extraction style); without, a generated program is
    mutated instead so the API works in any environment.
    """
    mutator = SourceMutator(seed)
    if corpus:
        index = mutator.rng.randrange(len(corpus))
        return mutator.mutate(
            corpus[index], mutations=mutations, base=f"corpus[{index}]"
        )
    return mutator.mutate(
        random_program(seed), mutations=mutations, base=f"generated[{seed}]"
    )


__all__ = [
    "MUTATION_KINDS",
    "MutatedProgram",
    "ProgramGenerator",
    "SourceMutator",
    "mutated_program",
    "random_program",
]
