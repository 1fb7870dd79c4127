"""Settings live in ``config.py`` as a frozen ``PipelineConfig`` or as
named module constants, never as environment variables read at the call
site elsewhere."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "nlp_graphrag_with_qdrant_and_neo4j_ray"
ALLOWED: set[tuple[str, str]] = set()


def _env_reads(path: pathlib.Path):
    """(enclosing function, line) of every ``os.environ`` / ``getenv``
    reference in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if ((isinstance(node, ast.Attribute)
             and node.attr in ("environ", "getenv", "environb"))
                or (isinstance(node, ast.Name)
                    and node.id in ("environ", "getenv"))
                or (isinstance(node, ast.alias)
                    and node.name in ("environ", "getenv"))):
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_no_env_reads_outside_allowed_sites():
    files = sorted(PACKAGE.rglob("*.py")) + [ROOT / "__ray_entry__.py"]
    bad = []
    for path in files:
        rel = (path.relative_to(PACKAGE).as_posix()
               if PACKAGE in path.parents else path.name)
        for func, line in _env_reads(path):
            if rel != "config.py" and (rel, func) not in ALLOWED:
                bad.append(f"{rel}:{line} ({func})")
    assert not bad, "environment read outside config.py: " + ", ".join(bad)
