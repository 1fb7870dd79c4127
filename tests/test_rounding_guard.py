"""Values are rounded in one place: ``functions/rounding.py::sql_round``,
which rounds as the DuckDB oracles' ``round()`` does. Every other spelling
(``np.round`` / ``pc.round`` / builtin ``round`` / a ``.round()`` method /
``floor(y + 0.5)``) disagrees with it on some inputs, so none may appear
in the package or in ``__ray_entry__.py``."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "nlp_graphrag_with_qdrant_and_neo4j_ray"
RULE = "functions/rounding.py"
# JPEG pixel and coefficient conversion follows the codec's own
# arithmetic (ITU T.81 / libjpeg), not SQL rounding.
ALLOWED = {"functions/jpeg.py"}


def _is_half(node) -> bool:
    return isinstance(node, ast.Constant) and node.value == 0.5


def _roundings(path: pathlib.Path):
    """(line, spelling) of every rounding call in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in ("round", "around"):
            found.append((node.lineno, f"{ast.unparse(f)}("))
        elif isinstance(f, ast.Name) and f.id == "round":
            found.append((node.lineno, "round("))
        elif ((isinstance(f, ast.Attribute) and f.attr == "floor")
              or (isinstance(f, ast.Name) and f.id == "floor")):
            arg = node.args[0] if node.args else None
            if (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add)
                    and (_is_half(arg.left) or _is_half(arg.right))):
                found.append((node.lineno, "floor(... + 0.5)"))
    return found


def test_no_rounding_outside_sql_round():
    files = sorted(PACKAGE.rglob("*.py")) + [ROOT / "__ray_entry__.py"]
    bad = []
    for path in files:
        rel = (path.relative_to(PACKAGE).as_posix()
               if PACKAGE in path.parents else path.name)
        if rel == RULE or rel in ALLOWED:
            continue
        bad += [f"{rel}:{line} {what}" for line, what in _roundings(path)]
    assert not bad, "rounding outside sql_round: " + ", ".join(bad)

