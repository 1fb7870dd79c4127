"""Every exchange is sized from its input (``stages/shuffle.py``): no
public function of the package or of ``__ray_entry__.py`` takes a
``num_partitions`` knob — ``grouped_apply``, the exchange primitive,
is the one function that does — and no partition count is an int
literal other than ``1`` (a global fold). A count the code's own
structure sets is a named constant or an expression.
``spill_partitions`` — the spilled-alias file contract — is a
different knob and is not checked. The linking and KG-merge modules
fold in Arrow only: no ``batch_format="pandas"`` there."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "nlp_graphrag_with_qdrant_and_neo4j_ray"
SOURCES = sorted(PACKAGE.rglob("*.py")) + [ROOT / "__ray_entry__.py"]
PRIMITIVE = (PACKAGE / "stages" / "shuffle.py", "grouped_apply")
ARROW_ONLY = ("stages/link.py", "pipelines/kg.py")


def _fixed_literal(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, int)
            and not isinstance(node.value, bool) and node.value != 1)


def _params(fn) -> list:
    """``(arg, default or None)`` for every parameter of ``fn``."""
    a = fn.args
    pos = a.posonlyargs + a.args
    defaults = [None] * (len(pos) - len(a.defaults)) + list(a.defaults)
    return list(zip(pos, defaults)) + list(zip(a.kwonlyargs, a.kw_defaults))


def _fixed_counts(path: pathlib.Path) -> list[int]:
    """Lines where a partition count is an int literal other than 1: a
    ``num_partitions=`` keyword, a ``num_partitions`` parameter default,
    or ``grouped_apply``'s positional count."""
    bad = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            bad += [kw.value.lineno for kw in node.keywords
                    if kw.arg == "num_partitions" and _fixed_literal(kw.value)]
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if (name == "grouped_apply" and len(node.args) > 3
                    and _fixed_literal(node.args[3])):
                bad.append(node.args[3].lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            bad += [d.lineno for arg, d in _params(node)
                    if arg.arg == "num_partitions" and _fixed_literal(d)]
    return bad


def _knobs(path: pathlib.Path) -> list[str]:
    """Public functions of ``path`` that take ``num_partitions``."""
    return [f"{node.name}:{node.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")
            and (path, node.name) != PRIMITIVE
            and any(arg.arg == "num_partitions" for arg, _ in _params(node))]


def test_no_fixed_partition_count():
    bad = [f"{p.relative_to(ROOT)}:{line}" for p in SOURCES
           for line in _fixed_counts(p)]
    assert not bad, "fixed partition count: " + ", ".join(bad)


def test_no_public_partition_knob():
    bad = [f"{p.relative_to(ROOT)}:{fn}" for p in SOURCES for fn in _knobs(p)]
    assert not bad, "num_partitions parameter: " + ", ".join(bad)


def test_guard_sees_each_form(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("def f(ds, num_partitions=16):\n"
                 "    grouped_apply(ds, ['k'], g, 8)\n"
                 "    grouped_apply(ds, ['k'], g, num_partitions=256)\n"
                 "    grouped_apply(ds, ['k'], g, num_partitions=n)\n"
                 "    _spill_alias(ds, d, spill_partitions=64)\n"
                 "    grouped_apply(ds, ['k'], g, num_partitions=1)\n"
                 "def g(ds, *, num_partitions=None):\n"
                 "    pass\n"
                 "def _h(ds, num_partitions):\n"
                 "    pass\n")
    assert sorted(_fixed_counts(p)) == [1, 2, 3]
    assert _knobs(p) == ["f:1", "g:7"]


def _pandas_formats(path: pathlib.Path) -> list[int]:
    """Lines of a ``batch_format="pandas"`` keyword in any call."""
    return [kw.value.lineno
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call)
            for kw in node.keywords
            if kw.arg == "batch_format" and isinstance(kw.value, ast.Constant)
            and kw.value.value == "pandas"]


def test_link_and_merge_fold_in_arrow_only():
    bad = [f"{rel}:{line}" for rel in ARROW_ONLY
           for line in _pandas_formats(PACKAGE / rel)]
    assert not bad, "pandas partition function on the KG spine: " + ", ".join(bad)


def test_pandas_guard_sees_each_call(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("grouped_apply(ds, ['k'], g, n, batch_format='pandas')\n"
                 "ds.map_batches(f, batch_format=\"pandas\")\n"
                 "ds.map_batches(f, batch_format='pyarrow')\n")
    assert _pandas_formats(p) == [1, 2]
