"""Kernel templates: MiniLang snippets embodying the paper's
optimization-opportunity classes (Section 2).

Each builder returns ``(declarations, function_source, call_expr)``
where ``call_expr`` is how ``main`` invokes the kernel with the loop
counter ``i`` in scope.  A seeded :class:`random.Random` parameterizes
constants, thresholds and shapes so every generated benchmark is unique
but reproducible.
"""

from __future__ import annotations

import random


class Kernel:
    """One generated kernel: optional class decls + the function text;
    ``kind`` names the opportunity class it exercises (for reporting).
    Kernels are equal when all their fields are (generation is
    deterministic per seed)."""

    __slots__ = ("name", "declarations", "function", "call", "kind")

    def __init__(
        self, name: str, declarations: str, function: str, call: str, kind: str
    ) -> None:
        self.name = name
        self.declarations = declarations
        self.function = function
        self.call = call
        self.kind = kind

    def _fields(self) -> tuple:
        return (self.name, self.declarations, self.function, self.call, self.kind)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())


def _payload(rng: random.Random, var: str, lines: int) -> str:
    """Non-foldable arithmetic that shares the merge block with the
    opportunity.  Duplication must copy it into the predecessors, which
    is exactly where the paper's code-size cost comes from: real merge
    blocks are rarely *only* the optimizable instruction."""
    statements = []
    for _ in range(lines):
        op = rng.choice(["+", "^", "-", "|"])
        shift = rng.randint(1, 7)
        statements.append(
            f"  {var} = ({var} {op} ({var} >> {shift})) + {rng.randint(1, 63)};"
        )
    return "\n".join(statements)


def cf_kernel(name: str, rng: random.Random) -> Kernel:
    """Constant folding after duplication (Figure 1)."""
    threshold = rng.randint(0, 40)
    const = rng.randint(0, 9)
    add = rng.randint(1, 99)
    mul = rng.choice([2, 3, 5, 7])
    payload = _payload(rng, "w", rng.randint(2, 5))
    fn = f"""
fn {name}(x: int, y: int) -> int {{
  var p: int;
  var w: int = y;
  if (x > {threshold}) {{ p = x; }} else {{ p = {const}; }}
{payload}
  return {add} + p * {mul} + w;
}}
"""
    return Kernel(name, "", fn, f"{name}(i, i + {rng.randint(1, 30)})", "constant-folding")


def ce_kernel(name: str, rng: random.Random) -> Kernel:
    """Conditional elimination after duplication (Listing 1)."""
    threshold = rng.randint(5, 30)
    const = threshold + rng.randint(1, 10)
    payload = _payload(rng, "w", rng.randint(2, 4))
    fn = f"""
fn {name}(i: int) -> int {{
  var p: int;
  var w: int = i;
  if (i > 0) {{ p = i; }} else {{ p = {const}; }}
{payload}
  if (p > {threshold}) {{ return {threshold} + w; }}
  return i + w;
}}
"""
    return Kernel(name, "", fn, f"{name}(i)", "conditional-elimination")


def cold_path_kernel(name: str, rng: random.Random) -> Kernel:
    """An opportunity on a *rarely taken* path behind a bulky merge.

    The trade-off tier should reject it (probability-scaled benefit
    below the copy cost) while dupalot duplicates anyway — this kernel
    class drives the code-size/compile-time gap between the two
    configurations in Figures 5–8.
    """
    modulus = rng.choice([61, 83, 97])
    mul = rng.choice([3, 5, 7])
    payload = _payload(rng, "w", rng.randint(5, 9))
    fn = f"""
fn {name}(x: int) -> int {{
  var p: int;
  var w: int = x;
  if (x % {modulus} == 0) {{ p = 0; }} else {{ p = x; }}
{payload}
  return p * {mul} + w;
}}
"""
    return Kernel(name, "", fn, f"{name}(i)", "cold-path")


def pea_kernel(name: str, rng: random.Random, class_id: int) -> Kernel:
    """Partial escape analysis / boxing elimination (Listing 3).

    Both phi inputs are allocations — the auto-boxing pattern the paper
    calls out as frequent in Java and Scala.
    """
    cls = f"Box{class_id}"
    threshold = rng.randint(0, 20)
    const = rng.randint(0, 99)
    decl = f"class {cls} {{ val: int; }}\n"
    payload = _payload(rng, "w", rng.randint(3, 6))
    fn = f"""
fn {name}(x: int, y: int) -> int {{
  var b: {cls};
  var w: int = y;
  if (x > {threshold}) {{ b = new {cls} {{ val = x }}; }}
  else {{ b = new {cls} {{ val = {const} }}; }}
{payload}
  return b.val + {rng.randint(1, 50)} + w;
}}
"""
    return Kernel(
        name, decl, fn, f"{name}(i, i * {rng.randint(2, 5)})", "partial-escape-analysis"
    )


def readelim_kernel(name: str, rng: random.Random, class_id: int) -> Kernel:
    """Partially redundant read promoted by duplication (Listing 5)."""
    cls = f"Rec{class_id}"
    glob = f"g_{name}"
    decl = f"class {cls} {{ x: int; }}\nglobal {glob}: int;\n"
    threshold = rng.randint(0, 15)
    fn = f"""
fn {name}(a: {cls}, i: int) -> int {{
  if (i > {threshold}) {{ {glob} = a.x; }} else {{ {glob} = 0; }}
  return a.x;
}}
fn {name}_drive(i: int) -> int {{
  var r: {cls} = new {cls} {{ x = i * {rng.randint(2, 9)} }};
  return {name}(r, i);
}}
"""
    return Kernel(name, decl, fn, f"{name}_drive(i)", "read-elimination")


def strength_kernel(name: str, rng: random.Random) -> Kernel:
    """Division by a phi that is a power of two on one path (Figure 3)."""
    power = rng.choice([2, 4, 8, 16])
    threshold = rng.randint(0, 25)
    fn = f"""
fn {name}(x: int, a: int) -> int {{
  var d: int;
  if (a > {threshold}) {{ d = a; }} else {{ d = {power}; }}
  if (x >= 0) {{ return x / d; }}
  return 0 - x;
}}
"""
    return Kernel(name, "", fn, f"{name}(i, i - {rng.randint(1, 20)})", "strength-reduction")


def typecheck_kernel(name: str, rng: random.Random, class_id: int) -> Kernel:
    """Repeated null checks collapsed by duplication + CE — the Scala
    type/class-hierarchy pattern of Stadler et al. that the paper cites."""
    cls = f"Node{class_id}"
    decl = f"class {cls} {{ x: int; }}\n"
    const = rng.randint(1, 60)
    modulus = rng.randint(2, 5)
    payload = _payload(rng, "w", rng.randint(2, 5))
    fn = f"""
fn {name}(a: {cls}, y: int) -> int {{
  var r: int;
  var w: int = y;
  if (a != null) {{ r = a.x; }} else {{ r = {const}; }}
{payload}
  if (a != null) {{ return r + a.x + w; }}
  return r + w;
}}
fn {name}_drive(i: int) -> int {{
  var n: {cls} = null;
  if (i % {modulus} > 0) {{ n = new {cls} {{ x = i }}; }}
  return {name}(n, i);
}}
"""
    return Kernel(name, decl, fn, f"{name}_drive(i)", "type-check")


def array_kernel(name: str, rng: random.Random) -> Kernel:
    """Array traversal with a duplicable merge inside the hot loop —
    the Octane-style numeric workload shape."""
    length = rng.randint(8, 24)
    threshold = rng.randint(0, length)
    const = rng.randint(0, 9)
    mul = rng.choice([2, 3, 4])
    fn = f"""
fn {name}(n: int) -> int {{
  var buf: int[] = new int[{length}];
  var i: int = 0;
  while (i < len(buf)) {{ buf[i] = i + n; i = i + 1; }}
  var acc: int = 0;
  var j: int = 0;
  while (j < len(buf)) {{
    var v: int;
    var w: int = acc;
    if (buf[j] > {threshold}) {{ v = buf[j]; }} else {{ v = {const}; }}
{_payload(rng, "w", rng.randint(1, 2))}
    acc = acc + v * {mul} + (w & 255);
    j = j + 1;
  }}
  return acc;
}}
"""
    return Kernel(name, "", fn, f"{name}(i)", "array-loop")


def array_box_kernel(name: str, rng: random.Random, class_id: int) -> Kernel:
    """Objects allocated per iteration of a hot array loop — the
    JavaScript-engine pattern (everything is an object) that makes
    Octane the paper's most duplication-friendly suite: the phi of two
    allocations un-escapes once the merge is duplicated."""
    cls = f"Cell{class_id}"
    decl = f"class {cls} {{ val: int; }}\n"
    length = rng.randint(8, 20)
    threshold = rng.randint(0, length)
    const = rng.randint(0, 9)
    mul = rng.choice([2, 3, 5])
    fn = f"""
fn {name}(n: int) -> int {{
  var buf: int[] = new int[{length}];
  var i: int = 0;
  while (i < len(buf)) {{ buf[i] = i + n; i = i + 1; }}
  var acc: int = 0;
  var j: int = 0;
  while (j < len(buf)) {{
    var b: {cls};
    if (buf[j] > {threshold}) {{ b = new {cls} {{ val = buf[j] }}; }}
    else {{ b = new {cls} {{ val = {const} }}; }}
    acc = acc + b.val * {mul};
    j = j + 1;
  }}
  return acc;
}}
"""
    return Kernel(name, decl, fn, f"{name}(i)", "array-box")


def neutral_kernel(name: str, rng: random.Random) -> Kernel:
    """Plain computation with no duplication opportunity: keeps the
    suites honest (duplication must not help everywhere)."""
    iterations = rng.randint(4, 16)
    mul = rng.choice([31, 33, 37])
    fn = f"""
fn {name}(x: int) -> int {{
  var acc: int = x;
  var i: int = 0;
  while (i < {iterations}) {{
    acc = acc * {mul} + i;
    i = i + 1;
  }}
  return acc;
}}
"""
    return Kernel(name, "", fn, f"{name}(i)", "neutral")


def recursion_kernel(name: str, rng: random.Random) -> Kernel:
    """Self-recursive descent — the call-heavy shape that stresses the
    per-call overhead of every engine.  The megaunit compiler lowers the
    recursive call to a direct Python call, so this kernel (and the
    RECURSION suite built on it) is the floor guard against the
    whole-program compiler regressing call-dominated programs.

    Depth stays small (< 48): the reference interpreter burns several
    Python frames per MiniLang call, and suites must run on the default
    recursion limit with headroom to spare.
    """
    depth = rng.randint(24, 40)
    add = rng.randint(1, 9)
    mul = rng.choice([3, 5, 7])
    fn = f"""
fn {name}(n: int, acc: int) -> int {{
  if (n <= 0) {{ return acc; }}
  return {name}(n - 1, acc * {mul} % 65521 + n + {add});
}}
"""
    return Kernel(
        name, "", fn, f"{name}(i % {depth} + 8, i)", "recursion"
    )


def call_tree_kernel(name: str, rng: random.Random) -> Kernel:
    """Binary call tree — two recursive calls per activation, so the
    call count grows exponentially in a depth that stays tiny.  Mixes
    call overhead with a duplicable merge in the combiner, exercising
    both the direct-call lowering and the usual merge machinery."""
    depth = rng.randint(5, 7)
    threshold = rng.randint(2, 12)
    add = rng.randint(1, 30)
    fn = f"""
fn {name}(d: int, x: int) -> int {{
  if (d <= 0) {{ return x + {add}; }}
  var l: int = {name}(d - 1, x + 1);
  var r: int = {name}(d - 1, x + 2);
  var p: int;
  if (l > {threshold}) {{ p = l; }} else {{ p = r; }}
  return p + (l ^ r);
}}
"""
    return Kernel(name, "", fn, f"{name}({depth}, i)", "call-tree")


def chain_kernel(name: str, rng: random.Random, class_id: int) -> Kernel:
    """Field-chain reads with merges between them: mixes read
    elimination and conditional elimination opportunities."""
    cls = f"Pair{class_id}"
    decl = f"class {cls} {{ a: int; b: int; }}\n"
    threshold = rng.randint(0, 30)
    payload = _payload(rng, "w", rng.randint(2, 4))
    fn = f"""
fn {name}(p: {cls}, i: int) -> int {{
  var t: int;
  var w: int = i;
  if (i > {threshold}) {{ t = p.a; }} else {{ t = p.b; }}
{payload}
  return t + p.a + p.b + w;
}}
fn {name}_drive(i: int) -> int {{
  var p: {cls} = new {cls} {{ a = i, b = i * 3 }};
  return {name}(p, i);
}}
"""
    return Kernel(name, decl, fn, f"{name}_drive(i)", "field-chain")


#: Builders keyed by kind; suite profiles draw from these.
KERNEL_BUILDERS = {
    "constant-folding": cf_kernel,
    "conditional-elimination": ce_kernel,
    "cold-path": cold_path_kernel,
    "partial-escape-analysis": pea_kernel,
    "read-elimination": readelim_kernel,
    "strength-reduction": strength_kernel,
    "type-check": typecheck_kernel,
    "array-loop": array_kernel,
    "array-box": array_box_kernel,
    "neutral": neutral_kernel,
    "field-chain": chain_kernel,
    "recursion": recursion_kernel,
    "call-tree": call_tree_kernel,
}

#: Builders that need a unique class id as third argument.
NEEDS_CLASS_ID = {
    "partial-escape-analysis",
    "read-elimination",
    "type-check",
    "field-chain",
    "array-box",
}


def build_kernel(kind: str, name: str, rng: random.Random, class_id: int) -> Kernel:
    builder = KERNEL_BUILDERS[kind]
    if kind in NEEDS_CLASS_ID:
        return builder(name, rng, class_id)
    return builder(name, rng)
