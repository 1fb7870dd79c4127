"""Every exchange is sized from its input by ``stages/shuffle.py``
alone: no public function of the package or of ``__ray_entry__.py``
takes a ``num_partitions`` knob — ``grouped_apply``, the exchange
primitive, is the one function that does — no partition count is an
int literal (a global fold is ``grouped_apply(ds, [], fold)``; a count
the code's own structure sets is a named constant or an expression),
and no module but ``stages/shuffle.py`` calls ``partitions_for``.

Per-batch combiners are found by name, a heuristic: a function named
``*partial*`` or ``*combine*`` folds its batch to at most its rows. One
whose result may reach an exchange (``grouped_apply``, ``_copartition``
or a function that passes its first argument to one) goes through
``shuffle.combine``, so the exchange counts its source rows per map
batch, not per row; a ``combine`` whose result reaches no exchange is a
plain ``map_batches``. A per-batch count that may emit more rows than
it reads (tokens, n-grams, window copies) is a plain ``map_batches``
under another name, and a shrinking map with another name escapes the
check. The data flow is followed within one function (assignments,
arguments, and the return value of a helper whose call reaches an
exchange).

``spill_partitions`` — the spilled-alias file contract — is a
different knob and is not checked. The linking and KG-merge modules
fold in Arrow only: no ``batch_format="pandas"`` there."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "nlp_graphrag_with_qdrant_and_neo4j_ray"
SOURCES = sorted(PACKAGE.rglob("*.py")) + [ROOT / "__ray_entry__.py"]
SIZER = PACKAGE / "stages" / "shuffle.py"
PRIMITIVE = (SIZER, "grouped_apply")
COMBINER = re.compile("partial|combine", re.IGNORECASE)
ARROW_ONLY = ("stages/link.py", "pipelines/kg.py")


def _fixed_literal(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, int)
            and not isinstance(node.value, bool))


def _params(fn) -> list:
    """``(arg, default or None)`` for every parameter of ``fn``."""
    a = fn.args
    pos = a.posonlyargs + a.args
    defaults = [None] * (len(pos) - len(a.defaults)) + list(a.defaults)
    return list(zip(pos, defaults)) + list(zip(a.kwonlyargs, a.kw_defaults))


def _fixed_counts(path: pathlib.Path) -> list[int]:
    """Lines where a partition count is an int literal: a
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
    assert sorted(_fixed_counts(p)) == [1, 2, 3, 6]
    assert _knobs(p) == ["f:1", "g:7"]


def _call_name(node) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


def _sizers(path: pathlib.Path) -> list[int]:
    """Lines of a ``partitions_for`` call."""
    return [node.lineno
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call)
            and _call_name(node.func) == "partitions_for"]


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _own_nodes(fn):
    """The nodes of ``fn``'s body, not of the functions defined in it."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            todo.extend(ast.iter_child_nodes(node))


def _functions(tree) -> list:
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _exchange_inputs(fn, exchanges: set[str], returned: bool = False):
    """Expressions of ``fn`` whose value may reach an exchange: every
    argument of a call to one of ``exchanges`` (and, with ``returned``,
    every returned value), and the value of every assignment to a name
    such an expression reads, to a fixpoint. A heuristic: a name passed
    to any call in an exchange's argument counts."""
    own = list(_own_nodes(fn))
    exprs = [a for node in own if isinstance(node, ast.Call)
             and _call_name(node.func) in exchanges
             for a in node.args + [kw.value for kw in node.keywords]]
    if returned:
        exprs += [node.value for node in own
                  if isinstance(node, ast.Return) and node.value is not None]
    assigns = [(t.id, node.value) for node in own
               if isinstance(node, ast.Assign) for t in node.targets
               if isinstance(t, ast.Name)]
    tainted = set().union(*map(_names, exprs)) if exprs else set()
    grown = True
    while grown:
        grown = False
        for name, value in assigns:
            if name in tainted and value not in exprs:
                exprs.append(value)
                tainted |= _names(value)
                grown = True
    return exprs


def _exchange_fns(trees) -> set[str]:
    """``grouped_apply``, ``_copartition`` and, to a fixpoint, every
    function whose first parameter may reach one of them."""
    fns = [fn for tree in trees for fn in _functions(tree) if fn.args.args]
    exchanges = {"grouped_apply", "_copartition"}
    grown = True
    while grown:
        grown = False
        for fn in fns:
            if fn.name in exchanges:
                continue
            reached = set().union(
                *map(_names, _exchange_inputs(fn, exchanges)))
            if fn.args.args[0].arg in reached:
                exchanges.add(fn.name)
                grown = True
    return exchanges


def _feeding(tree, exchanges: set[str], is_map) -> list:
    """Calls matched by ``is_map`` whose result may reach an exchange,
    directly or as the return value of a function of the same module
    whose result may."""
    fns = _functions(tree)
    inputs = {fn: _exchange_inputs(fn, exchanges) for fn in fns}
    called = {_call_name(node.func) for exprs in inputs.values()
              for expr in exprs for node in ast.walk(expr)
              if isinstance(node, ast.Call)}
    for fn in fns:
        if fn.name in called:
            inputs[fn] = _exchange_inputs(fn, exchanges, returned=True)
    hits = {node for exprs in inputs.values() for expr in exprs
            for node in ast.walk(expr)
            if isinstance(node, ast.Call) and is_map(node)}
    return sorted(hits, key=lambda node: node.lineno)


def _is_plain_combiner(node) -> bool:
    return (_call_name(node.func) == "map_batches" and bool(node.args)
            and bool(COMBINER.search(_call_name(node.args[0]) or "")))


def _plain_combiners(path: pathlib.Path, exchanges: set[str]) -> list[str]:
    """``line:name`` of every ``map_batches`` whose function is named
    like a per-batch combiner and whose result may reach an exchange."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{node.lineno}:{_call_name(node.args[0])}"
            for node in _feeding(tree, exchanges, _is_plain_combiner)]


def test_only_shuffle_sizes_exchanges():
    bad = [f"{p.relative_to(ROOT)}:{line}" for p in SOURCES if p != SIZER
           for line in _sizers(p)]
    assert not bad, "partitions_for outside stages/shuffle.py: " + ", ".join(bad)


def _trees():
    return [ast.parse(p.read_text(), filename=str(p)) for p in SOURCES]


def test_combiners_go_through_combine():
    exchanges = _exchange_fns(_trees())
    bad = [f"{p.relative_to(ROOT)}:{site}" for p in SOURCES
           for site in _plain_combiners(p, exchanges)]
    assert not bad, "combiner run as a plain map_batches: " + ", ".join(bad)


def test_combine_feeds_an_exchange():
    # a combine whose output reaches no exchange sizes nothing: it is a
    # plain map_batches
    trees = _trees()
    exchanges = _exchange_fns(trees)
    bad = []
    for p, tree in zip(SOURCES, trees):
        everywhere = [node for node in ast.walk(tree)
                      if isinstance(node, ast.Call)
                      and _call_name(node.func) == "combine"]
        feeding = set(_feeding(tree, exchanges,
                               lambda n: _call_name(n.func) == "combine"))
        bad += [f"{p.relative_to(ROOT)}:{node.lineno}"
                for node in everywhere
                if node not in feeding and p != SIZER]
    assert not bad, "combine feeding no exchange: " + ", ".join(bad)


def test_sizing_guards_see_each_form(tmp_path):
    p = tmp_path / "m.py"
    p.write_text("n = partitions_for(ds)\n"
                 "n = shuffle.partitions_for(ds, per_row=2)\n"
                 "def f(ds):\n"
                 "    a = ds.map_batches(partial, batch_format='pyarrow')\n"
                 "    b = ds.map_batches(li_combine)\n"
                 "    u = a.union(b)\n"
                 "    grouped_apply(u, ['k'], g)\n"
                 "    fold_on(ds.map_batches(self.tok_partials))\n"
                 "    d = ds.map_batches(select)\n"
                 "    grouped_apply(d, ['k'], g)\n"
                 "    e = combine(ds, partial)\n"
                 "    grouped_apply(e.map_batches(lambda b: b), ['k'], g)\n"
                 "    grouped_apply(canon(ds), ['k'], g)\n"
                 "    return ds.map_batches(grad_partial).sum('g')\n"
                 "def fold_on(ds):\n"
                 "    return grouped_apply(ds, [], g)\n"
                 "def canon(ds):\n"
                 "    return ds.map_batches(canon_partial)\n")
    assert _sizers(p) == [1, 2]
    tree = ast.parse(p.read_text())
    exchanges = _exchange_fns([tree])
    assert exchanges == {"grouped_apply", "_copartition", "f", "fold_on"}
    assert _plain_combiners(p, exchanges) == ["4:partial", "5:li_combine",
                                              "8:tok_partials",
                                              "18:canon_partial"]


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
