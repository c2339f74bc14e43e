"""Static checks on the package source."""

import ast
from pathlib import Path

import projrep

PACKAGE = Path(projrep.__file__).resolve().parent


def test_no_assert_statements():
    # invariants raise typed errors from errors.py; python -O strips asserts
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_group_names_set_only_at_construction():
    # derived groups are shared per Cayley table, so renaming one renames it
    # for every caller; a group is named when it is built
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inits = [f for c in ast.walk(tree)
                 if isinstance(c, ast.ClassDef) and c.name == "FiniteGroup"
                 for f in c.body
                 if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
        allowed = {id(node) for f in inits for node in ast.walk(f)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "name"
                  and isinstance(node.ctx, ast.Store)
                  and id(node) not in allowed]
    assert found == []


def test_multiplier_cached_only_by_its_solver():
    # one multiplier path: only schur_multiplier stores a group's "schur"
    # entry, so no other construction can stand in for the solved one
    def stores_schur(node):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            key = node.slice
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "setdefault" and node.args):
            key = node.args[0]
        else:
            return False
        return isinstance(key, ast.Constant) and key.value == "schur"

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        solver = {id(node) for f in ast.walk(tree)
                  if isinstance(f, ast.FunctionDef)
                  and f.name == "schur_multiplier"
                  for node in ast.walk(f)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if stores_schur(node) and id(node) not in solver]
    assert found == []


def test_thresholds_only_in_the_tolerance_block():
    # every numerical threshold is a TOL_ constant of tolerances.py, so the
    # reported tolerance table is the one the checks use; rounding to a
    # number of decimals is a threshold too
    def in_block(path, node):
        return (path.name == "tolerances.py" and isinstance(node, ast.Assign)
                and all(isinstance(t, ast.Name) and t.id.startswith("TOL_")
                        for t in node.targets))

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        block = {id(node) for stmt in tree.body if in_block(path, stmt)
                 for node in ast.walk(stmt)}
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant)
                  and isinstance(node.value, float)
                  and 0 < abs(node.value) < 1e-3
                  and id(node) not in block]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "round"
                  and (len(node.args) > 1
                       or any(k.arg == "ndigits" for k in node.keywords))]
    assert found == []


def test_one_elimination_over_prime_powers():
    # smith_mod_prime_power is the one elimination over Z/p^k; _rref_mod_p
    # only makes kernel generators canonical, inside _kernel_from_chain, the
    # one function of cohomology.py that recurses
    path = PACKAGE / "cohomology.py"
    tree = ast.parse(path.read_text(), filename=str(path))

    def calls(f, name):
        return [node.lineno for node in ast.walk(f)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name) and node.func.id == name]

    functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
    rref = [f"{f.name}:{line}" for f in functions
            if f.name != "_kernel_from_chain"
            for line in calls(f, "_rref_mod_p")]
    recursive = [f.name for f in functions if calls(f, f.name)]
    assert rref == []
    assert recursive == ["_kernel_from_chain"]


def test_exact_class_decisions_stand_apart_from_the_algebra():
    # class triviality and order are integer decisions in cohomology.py: it
    # imports nothing from twisted.py, and the numeric test, its order loop
    # and its memo are gone
    path = PACKAGE / "cohomology.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    def modules(node):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            return [base] + [f"{base}.{a.name}" for a in node.names]
        if isinstance(node, ast.Import):
            return [a.name for a in node.names]
        return []

    imported = [node.lineno for node in ast.walk(tree)
                if any(m.split(".")[-1] == "twisted" for m in modules(node))]
    assert imported == []
    deleted = ("is_trivial_coclass_numeric", "numeric_coclass_order",
               "trivial_numeric")
    found = [f"{path.name}:{name}" for path in sorted(PACKAGE.glob("*.py"))
             for name in deleted if name in path.read_text()]
    assert found == []


def test_one_class_test_in_cohomology():
    # the edge annihilator of _coboundary_tests is the one class test: the
    # multiplier's relations and resolve read it too, and no second
    # construction (character carries over the abelianization, coboundary
    # columns filled with np.add.at) stands beside it
    path = PACKAGE / "cohomology.py"
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))

    def calls(f):
        return {node.func.id for node in ast.walk(f)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)}

    functions = {f.name: f for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef)}
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "np.add.at" not in source
    assert "commutator_subgroup" not in imported
    for name in ("resolve", "schur_multiplier"):
        assert "_coboundary_tests" in calls(functions[name]), name


def test_one_twist_and_both_regular_actions_in_twisted():
    # twisted.py forms every conjugation twist, with numpy's array rounding,
    # and lays out both regular actions; reps.py keeps no copy of either
    reps_tree = ast.parse((PACKAGE / "reps.py").read_text())
    twisted_tree = ast.parse((PACKAGE / "twisted.py").read_text())
    functions = {f.name: f for tree in (reps_tree, twisted_tree)
                 for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)}
    in_reps = {f.name for f in ast.walk(reps_tree)
               if isinstance(f, ast.FunctionDef)}
    assert not in_reps & {"_scalar_product", "_right_action_matrix"}
    algebra = next(c for c in ast.walk(twisted_tree)
                   if isinstance(c, ast.ClassDef) and c.name == "TwistedAlgebra")
    methods = {f.name for f in algebra.body if isinstance(f, ast.FunctionDef)}
    assert not methods & {"left_regular", "right_regular"}
    assert "right_action_matrix" in methods
    for name in ("conjugate_rep", "inertia_group", "c_regular_classes"):
        called = {node.func.id for node in ast.walk(functions[name])
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)}
        assert "alpha_tilde" in called, name


def test_hom_counts_come_from_characters():
    # a caller that reads only dim Hom takes it from hom_dim's character
    # inner product; intertwiner_space's SVD serves the callers that use
    # the basis
    def solves(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "intertwiner_space"
            or getattr(node.func, "attr", None) == "intertwiner_space")

    def count_only(node):
        if isinstance(node, ast.Subscript):
            return (solves(node.value) and isinstance(node.slice, ast.Constant)
                    and node.slice.value == 0)
        if isinstance(node, ast.Assign) and solves(node.value):
            return any(isinstance(t, ast.Tuple) and len(t.elts) == 2
                       and isinstance(t.elts[1], ast.Name)
                       and t.elts[1].id == "_" for t in node.targets)
        return False

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if count_only(node)]
    assert found == []


COMPUTE_LAYERS = ("cohomology", "groups", "reps", "twisted", "verify")


def _import_time_modules(path):
    """Modules that importing path imports, read from its import statements
    outside functions and outside ``if TYPE_CHECKING:``; a package module
    is named projrep.<name>."""
    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        if isinstance(node, ast.If) and ast.unparse(node.test) == \
                "TYPE_CHECKING":
            yield from (m for child in node.orelse for m in visit(child))
            return
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                yield node.module
            elif node.module:
                yield f"projrep.{node.module}"
            else:
                yield from (f"projrep.{a.name}" for a in node.names)
        for child in ast.iter_child_nodes(node):
            yield from visit(child)

    return set(visit(ast.parse(path.read_text(), filename=str(path))))


def _import_closure(name):
    """Every module importing projrep.<name> imports, following the
    package's own modules through their import-time imports."""
    seen, todo = set(), [f"projrep.{name}"]
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            path = PACKAGE / f"{module.removeprefix('projrep.')}.py"
            if module.startswith("projrep.") and path.exists():
                todo += _import_time_modules(path)
    return seen


def test_front_modules_import_no_compute_layer():
    # the package, the command line and the catalog listing start without
    # numpy (about 0.15 s of a cold start); commands import their layers
    # when they run
    heavy = {f"projrep.{m}" for m in COMPUTE_LAYERS + ("workbench",)}
    found = {}
    for name in ("__init__", "cli", "catalog"):
        loaded = {m for m in _import_closure(name)
                  if m in heavy or m.split(".")[0] == "numpy"}
        if loaded:
            found[name] = sorted(loaded)
    assert found == {}


def test_workbench_imports_every_layer():
    # a sweep or a computing command loads every layer through workbench,
    # and the benchmark's tracer patches them after importing it
    layers = {f"projrep.{m}" for m in COMPUTE_LAYERS + ("catalog",)}
    assert layers <= _import_closure("workbench")


def test_tolerance_names_imported_only_from_tolerances():
    # every threshold, default and name list is read from the module that
    # defines it, never through a layer that happens to import it
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    defined = {t.id for stmt in tree.body if isinstance(stmt, ast.Assign)
               for t in stmt.targets if isinstance(t, ast.Name)}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}:{a.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and node.module != "tolerances"
                  for a in node.names if a.name in defined]
    assert found == []


def test_one_cocycle_identity_test():
    # one exact congruence on generator triples checks the cocycle identity,
    # for Cocycle.is_cocycle and for Cocycle.from_units, the one rounding of
    # a complex table; the algebra's complex check and its tolerance are
    # gone, and c-regularity reads no TOL_CHECK
    path = PACKAGE / "cohomology.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {f.name: f for f in ast.walk(tree)
                 if isinstance(f, ast.FunctionDef)}
    callers = sorted(name for name, f in functions.items()
                     for node in ast.walk(f)
                     if isinstance(node, ast.Call)
                     and getattr(node.func, "id", None)
                     == "_satisfies_cocycle_identity")
    assert callers == ["from_units", "is_cocycle"]
    assert "is_cocycle" not in {f.name for f in tree.body
                                if isinstance(f, ast.FunctionDef)}
    twisted = (PACKAGE / "twisted.py").read_text()
    algebra = next(c for c in ast.walk(ast.parse(twisted))
                   if isinstance(c, ast.ClassDef)
                   and c.name == "TwistedAlgebra")
    methods = {f.name: f for f in algebra.body
               if isinstance(f, ast.FunctionDef)}
    assert "_validate" not in methods
    assert [a.arg for a in methods["__init__"].args.args] == \
        ["self", "group", "table"]
    assert "TOL_CHECK" not in twisted
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if "TOL_COCYCLE" in path.read_text()] == []


def test_one_exact_cocycle():
    # a class decision reads one exact Cocycle, and a complex table is
    # rounded in one place, Cocycle.from_units: the two-mode rounding and
    # the algebra's loose exponent table are gone, TOL_UNIT is read there
    # and in the class-sum cross-check only, and the class tests, the
    # order and resolve take the cocycle alone
    import inspect

    from projrep.cohomology import (
        SchurMultiplier,
        class_order,
        is_trivial_coclass,
    )

    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        assert "mu_n_exponents" not in source, path.name
        assert ".exponents" not in source, path.name
        if path.name == "tolerances.py":
            continue

        def visit(node, where):
            if isinstance(node, ast.FunctionDef):
                where = node.name
            if isinstance(node, ast.Name) and node.id == "TOL_UNIT":
                readers.add(f"{path.stem}.{where}")
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(source, filename=str(path)), "<module>")
    assert readers == {"cohomology.from_units", "twisted.c_regular_classes"}
    for f in (is_trivial_coclass, class_order, SchurMultiplier.resolve):
        params = [p for p in inspect.signature(f).parameters if p != "self"]
        assert params == ["c"], f.__name__


def test_no_numpy_random_and_no_module_level_hashlib():
    # seeded draws come from twisted.gaussians on the standard library's
    # random.Random, Cocycle.hash_hex digests with the builtin SHA-256 and
    # the command line is argparse; numpy.random, hashlib's OpenSSL and
    # click would be mapped for nothing, so no module imports them at any
    # level
    def imports_unused(node):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            return False
        return any(n.split(".")[0] in ("hashlib", "click") for n in names)

    def names_numpy_random(node):
        if isinstance(node, ast.Attribute):
            return ast.unparse(node) in ("np.random", "numpy.random")
        if isinstance(node, ast.Import):
            return any(a.name.startswith("numpy.random") for a in node.names)
        if isinstance(node, ast.ImportFrom):
            return (node.module or "").startswith("numpy.random") or (
                node.module == "numpy"
                and any(a.name == "random" for a in node.names))
        return False

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if names_numpy_random(node) or imports_unused(node)]
    assert found == []


def test_size_bounds_are_read_where_input_enters():
    # no order is compared with a cap but groups.ORDER_CAP, read by
    # build_group: every group that loads gets its whole multiplier, and
    # the solvers below solve what they are given
    import inspect

    from projrep import catalog, cohomology, groups, verify

    def names_cap(node):
        name = getattr(node, "attr", None) or getattr(node, "id", "")
        return "cap" in name.lower() and name != "ORDER_CAP"

    def reads_order(node):
        return isinstance(node, ast.Attribute) and node.attr == "order"

    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for f in ast.walk(tree):
            if not isinstance(f, ast.FunctionDef):
                continue
            for node in ast.walk(f):
                if isinstance(node, ast.Compare):
                    sides = [node.left, *node.comparators]
                    if any(map(names_cap, sides)) and \
                            any(map(reads_order, sides)):
                        found.append(f"{path.stem}.{f.name}")
    assert found == []
    for fn in (cohomology.schur_multiplier, cohomology.multiplier_report,
               cohomology.restrict_coclass, catalog.group_contexts,
               verify.verify_basic, groups.build_group,
               groups.parse_group_json, groups.load_group,
               catalog.resolve_group):
        params = inspect.signature(fn).parameters
        assert not [p for p in params if "cap" in p], fn.__name__
