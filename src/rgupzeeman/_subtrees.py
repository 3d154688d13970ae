"""The subexpressions of a plan part, each bound at the outermost level whose
names it reads (see spectrum._Plan).

spectrum imports this module when it compiles a part's warm version, at the
part's third call, so a cold start loads neither it nor _ast.
"""

import _ast  # built in: the parser's own syntax tree, without the ast module

from .units import ConstantsTable

#: the levels a subtree of a part is evaluated at: once, when the part
#: compiles for its one constants table; once per call; once per grid value
PER_TABLE, PER_CALL, PER_ROW = range(3)
#: what a subtree evaluated at the table level may read
_CONSTANTS = frozenset((*ConstantsTable._fields, "math"))
#: the tree of each one-line assignment's value and of each form parsed so
#: far, by source; None for any other statement, which moves only whole
_TREES = {}


def _annotate(tree) -> frozenset:
    """Sets reads, the names read under it, on an expression and on every
    expression in it."""
    names = frozenset((tree.id,)) if type(tree) is _ast.Name else frozenset()
    for field in tree._fields:
        value = getattr(tree, field)
        for child in value if type(value) is list else (value,):
            if isinstance(child, _ast.expr):
                names |= _annotate(child)
    tree.reads = names
    return names


class Subtrees:
    """Renders the statements and forms of one part, binding each subtree to
    a name at the outermost level whose names it reads.

    Only whole subtrees of a form move, so nothing is regrouped and every
    value keeps its bits; an operator's operands are subtrees, while a
    conditional or a comparison moves only whole.  A subtree that reads
    only the constants and math goes to the table level, gated or not; one
    in a loop body that reads no marked name goes before the loop, a gated
    one under the gate there, so only while "deformed" is not marked.  Any
    other stays where it is; a subtree repeated at its own level is
    evaluated at each place (binding it with := measured no faster).  A
    source not given renders as it is.  outer holds the (name, text, gated)
    bound at the table level and before the loop, one per distinct subtree,
    in the order they are bound.
    """

    def __init__(self, sources, marked):
        missing = [source for source in dict.fromkeys(sources) if source not in _TREES]
        if missing:
            body = compile("\n".join(missing), "<forms>", "exec", _ast.PyCF_ONLY_AST).body
            for source, statement in zip(missing, body):
                one_line = "\n" not in source and type(statement) in (_ast.Assign, _ast.Expr)
                _TREES[source] = statement.value if one_line else None
                if one_line:
                    _annotate(statement.value)
        self.trees = {source: _TREES[source] for source in sources}
        self.marked = marked
        self.bound = {}   # key -> [(name, level, gated)]
        self.outer = {PER_TABLE: [], PER_CALL: []}

    def rendered(self, source: str, gated: bool = False, *, level: int) -> str:
        """A form, or an assignment with its value, rendered at the level;
        any other statement whole."""
        tree = self.trees.get(source)
        if tree is None:
            return source
        return (source[:tree.col_offset] + self._render(tree, source, level, gated)
                + source[tree.end_col_offset:])

    def _render(self, node, source: str, level: int, gated: bool) -> str:
        text = source[node.col_offset:node.end_col_offset]
        if not node.reads or type(node) is _ast.Name:
            return text  # a literal, which the compiler folds, or a name
        key = "".join(text.split())
        for name, where, only_gated in self.bound.get(key, ()):
            if where <= level and (gated or not only_gated):
                return name
        if node.reads <= _CONSTANTS:
            home = PER_TABLE
        elif (level == PER_ROW and not node.reads & self.marked
              and not (gated and "deformed" in self.marked)):
            home = PER_CALL
        else:
            home = level
        text = "".join(self._operands(node, source, home, gated))
        if home == level:
            return text
        gated = gated and home == PER_CALL
        name = f"{'kh'[home]}{len(self.outer[home])}"
        self.outer[home].append((name, text, gated))
        self.bound.setdefault(key, []).append((name, home, gated))
        return name

    def _operands(self, node, source: str, level: int, gated: bool):
        """The text of a node with each operand rendered at the level, without
        the parentheses of an operand that became a name."""
        if type(node) is _ast.BinOp:
            operands = node.left, node.right
        else:
            operands = (node.operand,) if type(node) is _ast.UnaryOp else ()
        at = node.col_offset
        for operand in operands:
            start, end = operand.col_offset, operand.end_col_offset
            text = self._render(operand, source, level, gated)
            # an operand starts and ends balanced, so a ( just before it and
            # a ) just after it are its own
            if text.isidentifier() and source[start - 1:start] == "(" \
                    and source[end:end + 1] == ")":
                start, end = start - 1, end + 1
            yield source[at:start]
            yield text
            at = end
        yield source[at:node.end_col_offset]
