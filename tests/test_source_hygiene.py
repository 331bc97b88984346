"""Source rules for the engine.

- No ``assert`` statements: an ``assert`` vanishes under ``python -O``, so
  invariants are raised errors.
- No unused imports.  ``__init__.py`` is exempt: its imports are the
  package's public names.
- No imports inside function bodies, so a module's dependencies are read at
  its top.  The one exception is ``ProcessPoolExecutor`` in ``run_check``:
  ``concurrent.futures`` costs several milliseconds to import, and only
  ``--jobs`` above 1 needs it.
- No ``.key()`` or ``functor_key(...)`` call as an operand of a comparison.
  Both mint the id of a functor category's object; functors are compared by
  their maps.
- ``validate_marking`` is called only in ``core.py``: the ``MarkedFinCat``
  constructor checks every marking once, so no other module checks one.
- ``check_axioms`` is called only in ``core.fincat``: one place checks a
  category's table, and io_formats is the one reader of category data.
- In ``io_formats.py``, ``isinstance`` is called only in the shape checker
  (``_check_shape`` and its walk ``_misfit``), and each public reader
  (``*_from_data``) calls ``_check_shape`` once: a file's types are checked
  in one place, against the declared shape of its kind, and the readers
  only build from data whose shape is known.
- ``composable_pairs()`` is called only inside ``validate_marking`` and
  ``saturate_marking``.  A functor or a diagram is checked on the pairs
  whose left factor is a generator (``FinCat.generator_pairs``), not on
  every composable pair, and ``check_axioms`` counts the composable pairs
  and reads the table as rows.
- ``fincat`` is called only in ``build_category``, ``subcategory`` and
  ``opposite_cat``, in the named small categories of ``core.py``, in
  ``io_formats.py``, and in the literal tables ``generator._monoid3``,
  ``checks._nonposet5`` and ``checks._cospan_cat``.  Every derived category
  (a product, a quotient, a functor category) is assembled by
  ``build_category``, so no other code fills a composition table by hand.
- No handler catches ``LaxcatError`` (or ``Exception``, ``BaseException``, or
  everything with a bare ``except``) unless an earlier handler of the same
  ``try`` catches ``InvariantViolation``.  ``InvariantViolation`` is a
  ``LaxcatError`` but marks a program bug, so it must surface as an error and
  never be swallowed as a verdict, a skip or a failed step.  A module-level
  tuple of exception classes counts as the classes it names, and so does one
  imported from ``errors.py`` (``errors.BOUND_ERRORS``).
- ``fiberwise_op`` is called only in ``limits.oplax_limit``,
  ``grothendieck.grothendieck_cart`` and ``localization._mapping_out``, so
  each oplax construction reduces to its lax twin in one place.
- ``_by_construction`` is called only in ``skeleton`` and ``is_equivalent``,
  whose docstrings prove that the functors they mark preserve composites;
  every other functor is checked on generator pairs.
  (``limits.whisker_functor`` and ``localization._comparison`` were
  deleted; the tests keep reference copies of both.)
- ``localization.py`` imports none of ``is_equivalent``, ``is_isomorphic``
  and ``skeleton``: the probe check decides the comparison functor the paper
  names, and the skeleton-isomorphism search stays off its path.  Nor does
  it import ``functor_category``, ``whisker_functor``, ``is_fully_faithful``
  or ``is_essentially_surjective``: the localization's universal property
  is decided by extending each marked functor along the quotient, and no
  functor category out of the localization is built or searched.  Nor does
  it import ``marked_functor_category``, ``unfaithful_pair`` or
  ``unreached_object``: the comparison is decided from the end's homs one
  at a time, and neither of its sides is built as a category.
- No class defines ``__missing__``: no table is filled lazily.  A
  composition table is a plain ``dict`` built whole (``build_category``),
  and a functor category's composites come from ``FunHoms.compose``.
- ``_forward_schedule`` is called only by ``FunctorPlan``, so each category
  has one schedule, compiled once (``functor_plan``), and every search out
  of it runs that plan.  ``generator.py`` calls no ``compose_functors``: the
  transition search composes transitions as tuples of image places.
- ``localization._Window`` holds no per-word list of words: its
  ``__slots__`` has no ``nodes``, and nothing in ``src/laxcat`` reads a
  ``.nodes`` attribute.  The window keeps integer arrays, and a word's
  ``(source, letters)`` is built only when asked for (``word``, ``words``).

One rule covers the tests themselves:

- No ``assert`` under ``tests/`` whose test is a bare container display or
  comprehension (a dict, list, set or tuple display, a comprehension or a
  generator expression).  Such a value is true whenever it is non-empty, or
  always, so nothing inside it is checked; ``all(...)`` was meant.
"""

import ast
import pathlib

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "laxcat"
MODULES = sorted(SRC.glob("*.py"))


def _imported_names(tree: ast.AST) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _calls(path: pathlib.Path, name: str) -> set[tuple[str, str, int]]:
    """(module, innermost enclosing function or "module level", line) of
    each call of a function or method called name in the module at path."""
    found = set()

    def visit(node, scope):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == name):
            found.add((path.name, scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(ast.parse(path.read_text(), str(path)), "module level")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


LAZY_IMPORTS = {("checks.py", "run_check", "concurrent.futures")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    tree = ast.parse(path.read_text(), str(path))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = ["." * node.level + (node.module or "")]
            else:
                continue
            found += [(fn.name, m, node.lineno) for m in modules
                      if (path.name, fn.name, m) not in LAZY_IMPORTS]
    assert not found, f"{path.name}: imports inside functions {found}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_key_comparisons(path):
    tree = ast.parse(path.read_text(), str(path))

    def is_key_call(node):
        return isinstance(node, ast.Call) and (
            not node.args and isinstance(node.func, ast.Attribute)
            and node.func.attr == "key"
            or isinstance(node.func, ast.Name) and node.func.id == "functor_key")

    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Compare)
             and any(is_key_call(x) for x in [node.left, *node.comparators])]
    assert not lines, f"{path.name}: key() compared at lines {lines}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"],
                         ids=lambda p: p.name)
def test_validate_marking_called_only_in_core(path):
    tree = ast.parse(path.read_text(), str(path))

    def callee(node):
        f = node.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and callee(node) == "validate_marking"]
    assert not lines, f"{path.name}: validate_marking called at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_check_axioms_called_only_in_fincat(path):
    found = sorted((scope, line) for module, scope, line in _calls(path, "check_axioms")
                   if (module, scope) != ("core.py", "fincat"))
    assert not found, f"{path.name}: check_axioms() called in {found}"


SHAPE_CHECKER = {"_check_shape", "_misfit"}


def test_io_formats_checks_types_only_in_the_shape_checker():
    found = sorted((scope, line)
                   for _, scope, line in _calls(SRC / "io_formats.py", "isinstance")
                   if scope not in SHAPE_CHECKER)
    assert not found, f"io_formats.py: isinstance() called in {found}"


def test_each_reader_checks_its_shape_once():
    tree = ast.parse((SRC / "io_formats.py").read_text())
    readers = sorted(node.name for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     and node.name.endswith("_from_data"))
    callers = sorted(scope for _, scope, _ in
                     _calls(SRC / "io_formats.py", "_check_shape"))
    assert readers and callers == readers


CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.Tuple, ast.DictComp, ast.ListComp,
              ast.SetComp, ast.GeneratorExp)


@pytest.mark.parametrize("path", sorted(TESTS.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_of_a_container(path):
    tree = ast.parse(path.read_text(), str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert) and isinstance(node.test, CONTAINERS)]
    assert not lines, f"{path.name}: assert of a container at lines {lines}"


COMPOSABLE_PAIRS_CALLERS = {"validate_marking", "saturate_marking"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_composable_pairs_called_only_by_the_axiom_and_marking_checks(path):
    found = sorted((scope, line) for _, scope, line in _calls(path, "composable_pairs")
                   if scope not in COMPOSABLE_PAIRS_CALLERS)
    assert not found, f"{path.name}: composable_pairs() called in {found}"


FINCAT_CALLERS = {
    ("core.py", f) for f in ("build_category", "subcategory", "opposite_cat",
                             "terminal_cat", "discrete_cat", "chain_cat",
                             "walking_iso", "parallel_pair")
} | {("generator.py", "_monoid3"), ("checks.py", "_nonposet5"),
     ("checks.py", "_cospan_cat")}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "io_formats.py"],
                         ids=lambda p: p.name)
def test_fincat_called_only_where_a_table_is_given(path):
    found = sorted((scope, line) for module, scope, line in _calls(path, "fincat")
                   if (module, scope) not in FINCAT_CALLERS)
    assert not found, f"{path.name}: fincat() called in {found}"


FIBERWISE_OP_CALLERS = {("limits.py", "oplax_limit"),
                        ("grothendieck.py", "grothendieck_cart"),
                        ("localization.py", "_mapping_out")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_fiberwise_op_is_called_only_by_the_three_oplax_reductions(path):
    found = sorted((scope, line) for module, scope, line in _calls(path, "fiberwise_op")
                   if (module, scope) not in FIBERWISE_OP_CALLERS)
    assert not found, f"{path.name}: fiberwise_op() called in {found}"


CATCH_ALL = {"LaxcatError", "Exception", "BaseException"}


def _module_tuples(tree: ast.AST) -> dict[str, list[ast.expr]]:
    return {node.targets[0].id: node.value.elts for node in tree.body
            if isinstance(node, ast.Assign) and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Tuple)}


ERROR_TUPLES = _module_tuples(ast.parse((SRC / "errors.py").read_text()))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_invariant_violation_is_never_caught_as_a_laxcat_error(path):
    tree = ast.parse(path.read_text(), str(path))
    tuples = _module_tuples(tree)
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "errors":
            tuples.update({alias.asname or alias.name: ERROR_TUPLES[alias.name]
                           for alias in node.names if alias.name in ERROR_TUPLES})

    def caught(expr) -> set[str]:
        if expr is None:  # a bare except
            return {"BaseException"}
        if isinstance(expr, ast.Tuple):
            return set().union(*map(caught, expr.elts))
        if isinstance(expr, ast.Name) and expr.id in tuples:
            return set().union(*map(caught, tuples[expr.id]))
        if isinstance(expr, ast.Name):
            return {expr.id}
        if isinstance(expr, ast.Attribute):
            return {expr.attr}
        return set()

    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        guarded = False
        for handler in node.handlers:
            names = caught(handler.type)
            if names & CATCH_ALL and not guarded:
                found.append(handler.lineno)
            guarded = guarded or "InvariantViolation" in names
    assert not found, (f"{path.name}: LaxcatError caught without an earlier "
                       f"InvariantViolation handler at lines {found}")


BY_CONSTRUCTION_CALLERS = {("equiv.py", "skeleton"), ("equiv.py", "is_equivalent")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_by_construction_is_called_only_by_the_proved_makers(path):
    found = {(module, scope) for module, scope, _ in _calls(path, "_by_construction")}
    assert found == {c for c in BY_CONSTRUCTION_CALLERS if c[0] == path.name}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_class_defines_missing(path):
    tree = ast.parse(path.read_text(), str(path))
    lines = [node.lineno for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in cls.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name == "__missing__"]
    assert not lines, f"{path.name}: __missing__ defined at lines {lines}"


def test_the_probe_check_imports_no_isomorphism_search():
    tree = ast.parse((SRC / "localization.py").read_text())
    found = set(_imported_names(tree)) & {
        "is_equivalent", "is_isomorphic", "skeleton",
        "functor_category", "whisker_functor", "is_fully_faithful",
        "is_essentially_surjective", "marked_functor_category",
        "unfaithful_pair", "unreached_object"}
    assert not found, f"localization.py imports {sorted(found)}"


def _slots(path: pathlib.Path, class_name: str) -> set[str]:
    tree = ast.parse(path.read_text(), str(path))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == class_name)
    value = next(stmt.value for stmt in cls.body if isinstance(stmt, ast.Assign)
                 and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets))
    return {elt.value for elt in value.elts}


def test_the_word_window_keeps_no_list_of_words():
    slots = _slots(SRC / "localization.py", "_Window")
    assert {"tgts", "pre", "lens", "heads", "first_child", "level"} <= slots
    assert "nodes" not in slots


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_reads_a_nodes_attribute(path):
    tree = ast.parse(path.read_text(), str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "nodes"]
    assert not lines, f"{path.name}: .nodes read at lines {lines}"


def test_forward_schedule_is_called_only_by_the_functor_plan():
    found = {c[:2] for path in MODULES for c in _calls(path, "_forward_schedule")}
    assert found == {("constructions.py", "__init__")}
    path = SRC / "constructions.py"
    plan = next(node for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.ClassDef) and node.name == "FunctorPlan")
    lines = [line for _, _, line in _calls(path, "_forward_schedule")]
    assert all(plan.lineno <= line <= plan.end_lineno for line in lines), lines


def test_the_generator_composes_no_functors():
    found = sorted(_calls(SRC / "generator.py", "compose_functors"))
    assert not found, f"generator.py: compose_functors() called in {found}"
