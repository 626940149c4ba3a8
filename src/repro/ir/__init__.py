"""Block-structured SSA intermediate representation.

The substrate the DBDS reproduction is built on: values, instructions,
basic blocks, function graphs, dominator/loop/frequency analyses, SSA
repair, verification and cloning.  See DESIGN.md for the mapping onto
the paper's Graal IR.
"""

from .._lazy import lazy_exports

# Names resolve on first use: loading one IR module (a cached program's
# classes, say) does not load the analyses, the verifier or the rest.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".block": ("Block",),
    ".dominators": ("DominatorTree",),
    ".frequency": ("BlockFrequencies",),
    ".graph": ("Graph", "Program"),
    ".loops": ("Loop", "LoopForest"),
    ".nodes": (
        "ArithOp",
        "ArrayLength",
        "ArrayLoad",
        "ArrayStore",
        "Call",
        "Compare",
        "Constant",
        "Goto",
        "If",
        "Instruction",
        "LoadField",
        "LoadGlobal",
        "Neg",
        "New",
        "NewArray",
        "Not",
        "Parameter",
        "Phi",
        "Return",
        "StoreField",
        "StoreGlobal",
        "Terminator",
        "User",
        "Value",
    ),
    ".ops": ("BinOp", "CmpOp", "EvaluationTrap", "eval_binop", "eval_cmp", "wrap64"),
    ".types": (
        "BOOL",
        "INT",
        "NULL",
        "VOID",
        "ArrayType",
        "ClassDecl",
        "ClassTable",
        "FieldDecl",
        "IntType",
        "NullType",
        "ObjectType",
        "Type",
        "VoidType",
    ),
    ".verifier": ("VerificationError", "verify_graph", "verify_program"),
})

__all__ = [
    "ArithOp", "ArrayLength", "ArrayLoad", "ArrayStore", "ArrayType",
    "BinOp", "Block", "BlockFrequencies", "BOOL", "Call", "ClassDecl",
    "ClassTable", "CmpOp", "Compare", "Constant", "DominatorTree",
    "EvaluationTrap", "eval_binop", "eval_cmp", "FieldDecl", "Goto",
    "Graph", "If", "Instruction", "INT", "IntType", "LoadField",
    "LoadGlobal", "Loop", "LoopForest", "Neg", "New", "NewArray", "Not",
    "NULL", "NullType", "ObjectType", "Parameter", "Phi", "Program",
    "Return", "StoreField", "StoreGlobal", "Terminator", "Type", "User",
    "Value", "VerificationError", "verify_graph", "verify_program",
    "VOID", "VoidType", "wrap64",
]
