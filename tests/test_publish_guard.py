"""Directories are published in one place: ``state/checkpoint.py::
publish_dir`` builds into a temp dir, writes its ``_SUCCESS`` marker and
renames it into place, and keeps a dir whose marker matches. A module
that writes a marker (``_SUCCESS``, ``_FINGERPRINT`` or a ``.ok`` file)
or renames a temp dir (``__tmp__`` or ``mkdtemp``) into place itself
repeats that rule, and a copy of it drifts: exports that were written
straight into their output dir and read back partial files, or a marker
written before the files it vouches for. None may appear in the package
or in ``__ray_entry__.py``."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "nlp_graphrag_with_qdrant_and_neo4j_ray"
RULE = "state/checkpoint.py"
MARKERS = ("_SUCCESS", "_FINGERPRINT", ".ok")
TEMP_DIRS = ("__tmp__", "mkdtemp")


def _mentions(node, assigned: dict, words, depth: int = 0) -> bool:
    """True when ``node``, with the local names it reads replaced by
    what they were assigned in the function, holds a string constant,
    a name or an attribute that contains one of ``words``."""
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, str):
            if any(w in n.value for w in words):
                return True
        elif isinstance(n, ast.Attribute) and any(w in n.attr for w in words):
            return True
        elif isinstance(n, ast.Name):
            if words is MARKERS and n.id == "SUCCESS":
                return True
            if depth < 4 and any(_mentions(v, assigned, words, depth + 1)
                                 for v in assigned.get(n.id, ())):
                return True
    return False


def _write_mode(call: ast.Call) -> bool:
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    return (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
            and any(c in mode.value for c in "wax"))


def _publishes(fn) -> list[str]:
    """What ``fn`` does of the publish rule by hand (its nested functions
    are judged on their own)."""
    body = list(_own_nodes(fn))
    assigned: dict = {}
    for n in body:
        if isinstance(n, ast.Assign):
            for t in n.targets:
                if isinstance(t, ast.Name):
                    assigned.setdefault(t.id, []).append(n.value)
    found = []
    for n in body:
        if not isinstance(n, ast.Call) or not n.args:
            continue
        f = n.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
        if name == "open" and _write_mode(n) and _mentions(n.args[0], assigned, MARKERS):
            found.append("writes a marker")
        elif (name in ("write_text", "write_bytes", "touch")
              and isinstance(f, ast.Attribute)
              and _mentions(f.value, assigned, MARKERS)):
            found.append("writes a marker")
        elif (name in ("rename", "replace", "move", "renames")
              and _mentions(n.args[0], assigned, TEMP_DIRS)):
            found.append("renames a temp dir into place")
    return found


def _own_nodes(node):
    """The nodes under ``node`` outside the functions nested in it."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield child
            yield from _own_nodes(child)


def publish_sites(path: pathlib.Path) -> list[str]:
    """``function:line what`` of every hand-written publish in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    sites = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sites += [f"{fn.name}:{fn.lineno} {what}"
                      for what in dict.fromkeys(_publishes(fn))]
    return sites


def test_publish_only_in_checkpoint():
    files = sorted(PACKAGE.rglob("*.py")) + [ROOT / "__ray_entry__.py"]
    bad = []
    for path in files:
        rel = (path.relative_to(PACKAGE).as_posix()
               if PACKAGE in path.parents else path.name)
        if rel == RULE:
            continue
        bad += [f"{rel}::{site}" for site in publish_sites(path)]
    assert not bad, "publish outside state/checkpoint.py: " + ", ".join(bad)


def test_guard_sees_the_rule_itself():
    """The rule's own module is what the guard looks for, so the guard
    cannot pass by missing every spelling."""
    sites = publish_sites(PACKAGE / RULE)
    assert any("publish_dir" in s and "marker" in s for s in sites)
    assert any("publish_dir" in s and "renames" in s for s in sites)
