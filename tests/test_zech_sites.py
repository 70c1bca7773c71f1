"""Where the library reads the Zech logarithm table.

A sum of field elements is formed by the scalar step FiniteField.add or
by cinf's two merge helpers, _merge_codes and _merge_logs.  Two inner
loops index the table inline: dot's pair loop, the product kernel, and
_pole_sum's running sum, a recurrence rather than a merge.  The scan
below reads the package source and fails when the table is read, or
indexed, anywhere else, so that a hand-written merge loop cannot come
back unnoticed.
"""

import ast
from pathlib import Path

import drinfeldlab

PKG = Path(drinfeldlab.__file__).parent

# (module, function) -> how many subscripts of the table it holds
ALLOWED = {
    ("fields", "FiniteField._build_tables"): 0,
    ("fields", "FiniteField.add"): 1,
    ("cinf", "_merge_codes"): 1,
    ("cinf", "_merge_logs"): 1,
    ("cinf", "dot"): 1,
    ("agf", "_pole_sum"): 1,
}


def _is_table(node):
    return isinstance(node, ast.Attribute) and node.attr == "_zech"


class _Scan(ast.NodeVisitor):
    """Per function: the number of subscripts of the table, read through
    the attribute or through a local name bound to it."""

    def __init__(self, module):
        self.module = module
        self.stack = []
        self.found = {}

    def _function(self, node):
        self.stack.append(node.name)
        key = (self.module, ".".join(self.stack))
        aliases = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign):
                for target in sub.targets:
                    pairs = [(target, sub.value)]
                    if isinstance(target, ast.Tuple) and isinstance(
                            sub.value, ast.Tuple):
                        pairs = zip(target.elts, sub.value.elts)
                    for name, value in pairs:
                        if isinstance(name, ast.Name) and _is_table(value):
                            aliases.add(name.id)
        reads = [sub for sub in ast.walk(node) if _is_table(sub)]
        indexed = sum(1 for sub in ast.walk(node)
                      if isinstance(sub, ast.Subscript)
                      and (_is_table(sub.value)
                           or isinstance(sub.value, ast.Name)
                           and sub.value.id in aliases))
        if reads or indexed:
            self.found[key] = indexed
        self.generic_visit(node)
        self.stack.pop()

    visit_FunctionDef = _function

    def visit_ClassDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()


def _zech_sites():
    found = {}
    for path in sorted(PKG.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scan = _Scan(path.stem)
        scan.visit(tree)
        found.update(scan.found)
        # nothing outside a function may reach the table either
        top = [node for node in tree.body
               if not isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        assert not any(_is_table(sub) for node in top
                       for sub in ast.walk(node)), path.name
    return found


def test_zech_table_is_read_only_at_the_kept_sites():
    assert _zech_sites() == ALLOWED


def test_scan_sees_an_inlined_merge():
    # the scan itself: an alias bound in a tuple assignment and indexed
    src = ("def merge(F, out, c):\n"
           "    log, zech = F._log, F._zech\n"
           "    return zech[log[c]]\n")
    scan = _Scan("m")
    scan.visit(ast.parse(src))
    assert scan.found == {("m", "merge"): 1}
