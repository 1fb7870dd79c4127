"""``__ray_entry__.py`` imports at module level only, and joins a small
table to a Dataset through ``state.broadcast.broadcast_lookup``: a
``ray.put`` there is a hand-rolled broadcast, and an import inside a
function is a second place to look for what the module depends on."""

import ast
import pathlib

ENTRY = pathlib.Path(__file__).resolve().parent.parent / "__ray_entry__.py"


def _sites():
    tree = ast.parse(ENTRY.read_text(), filename=str(ENTRY))
    top = {id(n) for n in tree.body}
    puts, imports = [], []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top:
            imports.append((node.lineno, ast.unparse(node)[:60]))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "put"
              and ast.unparse(node.func.value) == "ray"):
            puts.append(node.lineno)
    return sorted(puts), sorted(imports)


def test_no_ray_put_in_entry():
    puts, _ = _sites()
    assert not puts, f"ray.put in __ray_entry__.py at lines {puts}"


def test_entry_imports_at_module_level():
    _, imports = _sites()
    assert not imports, ("imports below module level in __ray_entry__.py: "
                         + "; ".join(f"{n} {stmt}" for n, stmt in imports))
