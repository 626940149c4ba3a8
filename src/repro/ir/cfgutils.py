"""CFG traversals and structural surgery.

Includes the maintenance passes that keep the two structural invariants
of the IR alive across transformations: critical edges stay split, and
``If`` terminators keep distinct targets.
"""

from __future__ import annotations

from .block import Block
from .graph import Graph
from .nodes import Goto, If, Phi


def reverse_post_order(graph: Graph) -> list[Block]:
    """Reachable blocks in reverse post order (defs before uses for
    acyclic paths; loop headers before their bodies)."""
    visited: set[int] = set()
    order: list[Block] = []

    def visit(block: Block) -> None:
        stack = [(block, iter(block.successors))]
        visited.add(block.id)
        while stack:
            blk, it = stack[-1]
            advanced = False
            for succ in it:
                if succ.id not in visited:
                    visited.add(succ.id)
                    stack.append((succ, iter(succ.successors)))
                    advanced = True
                    break
            if not advanced:
                order.append(blk)
                stack.pop()

    visit(graph.entry)
    order.reverse()
    return order


def reachable_blocks(graph: Graph) -> set[Block]:
    return set(reverse_post_order(graph))


def remove_unreachable_blocks(graph: Graph) -> int:
    """Delete blocks not reachable from entry. Returns how many died."""
    reachable = reachable_blocks(graph)
    dead = [b for b in graph.blocks if b not in reachable]
    # First sever all edges leaving dead blocks so reachable phi inputs
    # for those edges disappear.
    for b in dead:
        b.clear_terminator()
    for b in dead:
        graph.remove_block(b)
    return len(dead)


def insert_block_on_edge(graph: Graph, pred: Block, succ: Block) -> Block:
    """Split the edge ``pred -> succ`` with a fresh empty Goto block.

    Phi inputs of ``succ`` are preserved positionally: the new block
    replaces ``pred`` at the same predecessor index.
    """
    edge_block = graph.new_block()
    term = pred.terminator
    slot = list(term.targets).index(succ)
    # Low-level retarget: edge identity (position in succ.predecessors
    # and phi input order) must be preserved, so bypass set_target.
    term._targets[slot] = edge_block
    edge_block.add_predecessor(pred)
    index = succ.predecessor_index(pred)
    succ.predecessors[index] = edge_block
    goto = Goto(succ)
    goto.block = edge_block
    edge_block.terminator = goto
    graph.invalidate_analyses()  # low-level edits above bypass the hooks
    return edge_block


def split_critical_edges(graph: Graph) -> int:
    """Split every edge from a multi-successor block to a multi-
    predecessor block. Returns the number of edges split."""
    count = 0
    for block in list(graph.blocks):
        if len(block.successors) < 2:
            continue
        for succ in list(block.successors):
            if len(succ.predecessors) >= 2:
                insert_block_on_edge(graph, block, succ)
                count += 1
    return count


def fold_redundant_ifs(graph: Graph) -> int:
    """Replace ``If c ? t : t`` with ``Goto t`` (keeps targets distinct)."""
    count = 0
    for block in list(graph.blocks):
        term = block.terminator
        if isinstance(term, If) and term.true_target is term.false_target:
            target = term.true_target
            # The second incoming edge disappears; drop its phi input.
            block.set_terminator(Goto(target))
            count += 1
    return count


def simplify_degenerate_phis(graph: Graph) -> int:
    """Replace phis of single-predecessor blocks (and phis whose inputs
    are all identical) by their unique input."""
    count = 0
    changed = True
    while changed:
        changed = False
        for block in graph.blocks:
            for phi in list(block.phis):
                distinct = {v for v in phi.inputs if v is not phi}
                if len(distinct) == 1:
                    (replacement,) = distinct
                    phi.replace_all_uses(replacement)
                    block.remove_instruction(phi)
                    count += 1
                    changed = True
    return count


def merge_straightline_blocks(graph: Graph) -> int:
    """Fuse ``b -> Goto -> s`` pairs where ``s`` has no other
    predecessors and no phis. Returns number of fusions."""
    count = 0
    changed = True
    while changed:
        changed = False
        for block in list(graph.blocks):
            term = block.terminator
            if not isinstance(term, Goto):
                continue
            succ = term.target
            if succ is block or len(succ.predecessors) != 1 or succ.phis:
                continue
            if succ is graph.entry:
                continue
            # Move instructions and adopt the successor's terminator.
            for ins in list(succ.instructions):
                succ.instructions.remove(ins)
                ins.block = block
                block.instructions.append(ins)
            succ_term = succ.terminator
            # Detach succ_term from succ without dropping its edges,
            # then rebind those edges to `block`.
            succ.terminator = None
            block.terminator.drop_inputs()
            block.terminator = succ_term
            succ_term.block = block
            for t in succ_term.targets:
                i = t.predecessor_index(succ)
                t.predecessors[i] = block
            graph.blocks.remove(succ)
            graph.invalidate_analyses()  # direct edge rewrite above
            count += 1
            changed = True
    return count


def canonical_cfg_cleanup(graph: Graph) -> int:
    """Run the structural cleanups in a safe order, restoring all
    invariants: distinct If targets, no unreachable code, no degenerate
    phis, split critical edges.  Returns the number of changes made
    (the sum of the helpers' counts; 0 means the CFG was already
    clean)."""
    return (
        fold_redundant_ifs(graph)
        + remove_unreachable_blocks(graph)
        + simplify_degenerate_phis(graph)
        + merge_straightline_blocks(graph)
        + split_critical_edges(graph)
    )


def predecessor_pairs(graph: Graph) -> list[tuple[Block, Block]]:
    """All (predecessor, merge) pairs of the CFG — the candidate space of
    the DBDS simulation tier (Algorithm 2)."""
    pairs = []
    for merge in graph.merge_blocks():
        for pred in merge.predecessors:
            pairs.append((pred, merge))
    return pairs


def block_of_use(user, slot: int) -> Block:
    """The block in which operand ``slot`` of ``user`` is *consumed*.

    For a phi this is the predecessor matching the input position — the
    classic SSA rule — otherwise the user's own block.
    """
    if isinstance(user, Phi):
        return user.block.predecessors[slot]
    return user.block
