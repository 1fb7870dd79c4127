"""The KG spine sizes its exchanges from the input
(``stages/shuffle.partitions_for``); a fixed ``num_partitions=<int>``
must not come back in its modules. ``spill_partitions`` — the
spilled-alias file contract — is a different knob and is not checked.
The linking and KG-merge modules fold in Arrow only: no
``batch_format="pandas"`` there."""

import ast
import pathlib

PACKAGE = (pathlib.Path(__file__).resolve().parent.parent
           / "nlp_graphrag_with_qdrant_and_neo4j_ray")
SPINE = ("stages/link.py", "stages/ngram.py", "pipelines/kg.py")
ARROW_ONLY = ("stages/link.py", "pipelines/kg.py")


def _int_literal(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, int)
            and not isinstance(node.value, bool))


def _fixed_counts(path: pathlib.Path) -> list[int]:
    """Lines where a partition count is an int literal: a
    ``num_partitions=`` keyword, a ``num_partitions`` parameter default,
    or ``grouped_apply``'s positional count."""
    bad = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            bad += [kw.value.lineno for kw in node.keywords
                    if kw.arg == "num_partitions" and _int_literal(kw.value)]
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if (name == "grouped_apply" and len(node.args) > 3
                    and _int_literal(node.args[3])):
                bad.append(node.args[3].lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            pos = a.posonlyargs + a.args
            pairs = list(zip(pos[len(pos) - len(a.defaults):], a.defaults))
            pairs += [(k, d) for k, d in zip(a.kwonlyargs, a.kw_defaults)
                      if d is not None]
            bad += [d.lineno for arg, d in pairs
                    if arg.arg == "num_partitions" and _int_literal(d)]
    return bad


def test_spine_has_no_fixed_partition_count():
    bad = [f"{rel}:{line}" for rel in SPINE
           for line in _fixed_counts(PACKAGE / rel)]
    assert not bad, "fixed partition count on the KG spine: " + ", ".join(bad)


def test_guard_sees_each_form():
    src = ("def f(ds, num_partitions=16):\n"
           "    grouped_apply(ds, ['k'], g, 8)\n"
           "    grouped_apply(ds, ['k'], g, num_partitions=256)\n"
           "    grouped_apply(ds, ['k'], g, num_partitions=n)\n"
           "    _spill_alias(ds, d, spill_partitions=64)\n")
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        p = pathlib.Path(d) / "m.py"
        p.write_text(src)
        assert sorted(_fixed_counts(p)) == [1, 2, 3]


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
