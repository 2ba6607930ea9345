"""Layout rules for src/bhlab, checked on the syntax tree of every module.

Each shared concept has one implementation: modules reach each other only
through public names, primes below a cutoff come from arith alone, and the
root counts w_P(l) and the traversal's chunks from poly alone.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bhlab"
TREES = {path.stem: ast.parse(path.read_text(), filename=str(path))
         for path in sorted(SRC.glob("*.py"))}


def test_sources_found():
    assert {"arith", "poly", "moments", "sieve"} <= TREES.keys()


def test_no_private_name_imported_from_another_module():
    offenders = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            package = (node.module or "").split(".")[0]
            if node.level == 0 and package != "bhlab":
                continue
            offenders += [f"{module}:{node.lineno} imports {alias.name}"
                          for alias in node.names
                          if alias.name.startswith("_")]
    assert offenders == []


def test_no_private_attribute_of_another_module():
    offenders = []
    for module, tree in TREES.items():
        # names bound to bhlab modules by `from . import x [as y]`
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom)
                   and (node.module or "bhlab") == "bhlab"
                   for alias in node.names if alias.name in TREES}
        offenders += [f"{module}:{node.lineno} {node.value.id}.{node.attr}"
                      for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in modules
                      and node.attr.startswith("_")
                      and not node.attr.startswith("__")]
    assert offenders == []


def test_sieve_primes_called_only_in_arith():
    callers = set()
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if name == "sieve_primes":
                    callers.add(module)
    assert callers == {"arith"}


def test_chunk_geometry_only_in_poly():
    # the traversal's chunks are cut by poly alone (chunk_ranges): no other
    # module names the chunk size, so the moment kernel's index ranges and
    # coefficient_chunks' rows share one geometry
    geometry = {"CHUNK_SIZE", "chunk_size"}
    namers = {module for module, tree in TREES.items()
              for node in ast.walk(tree)
              if geometry & {getattr(node, field, None)
                             for field in ("id", "attr", "arg", "name")}}
    assert namers == {"poly"}


def test_one_squarefree_support_builder():
    # the sieve imports no itertools, and only _squarefree_products grows
    # arrays by np.concatenate
    tree = TREES["sieve"]
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert "itertools" not in imported
    growers = {getattr(top, "name", "<module>") for top in tree.body
               for node in ast.walk(top) if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "concatenate"}
    assert growers == {"_squarefree_products"}


def test_support_sorted_only_where_it_is_searched():
    # a support keeps its growth order; only sandwich_check, which
    # searches its kernels, sorts them, and nothing in the sieve argsorts
    tree = TREES["sieve"]
    calls = [(getattr(top, "name", "<module>"), node.func.attr)
             for top in tree.body for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)]
    assert [name for name, attr in calls if attr == "argsort"] == []
    assert {name for name, attr in calls if attr == "sort"} == {
        "sandwich_check"}


def test_roots_count_mod_prime_called_only_in_poly():
    # products and sums over the primes below z take local_root_counts
    callers = {module for module, tree in TREES.items()
               for node in ast.walk(tree) if isinstance(node, ast.Call)
               and "roots_count_mod_prime" in (
                   getattr(node.func, "id", None),
                   getattr(node.func, "attr", None))}
    assert callers == {"poly"}


def test_moment_kernel_gathers_without_masks():
    # the kernel clamps values into the Lambda table, whose entry 0 is 0,
    # instead of masking the gathered terms afterwards
    kernel = next(node for node in ast.walk(TREES["moments"])
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_chunk_stats")
    wheres = [node.lineno for node in ast.walk(kernel)
              if isinstance(node, ast.Attribute) and node.attr == "where"]
    assert wheres == []


def test_longdouble_accumulator_only_in_euler_product():
    # every product over primes accumulates through eulerprod.euler_product
    def is_one(node):
        return (isinstance(node, ast.Call)
                and ast.unparse(node) == "np.longdouble(1.0)")

    total = sum(is_one(node) for tree in TREES.values()
                for node in ast.walk(tree))
    sites = [(module, func.name) for module, tree in TREES.items()
             for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func) if is_one(node)]
    assert total == 1
    assert sites == [("eulerprod", "euler_product")]


def test_fixed_table_limit_assigned_only_in_budgets():
    assigners = {module for module, tree in TREES.items()
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Assign, ast.AnnAssign,
                                      ast.AugAssign))
                 for target in (node.targets if isinstance(node, ast.Assign)
                                else [node.target])
                 for name in ast.walk(target)
                 if "MAX_TABLE" in (getattr(name, "id", None)
                                    or getattr(name, "attr", None) or "")}
    assert assigners == {"budgets"}


def _called_name(call):
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_moment_lambda_source_is_one_choice():
    # second_moment builds the extended table or the compact layer, by its
    # reads against the value bound and a table cap, and no dense
    # von_mangoldt_table; no fixed bound cut is left in sources or tests
    moment = next(node for node in ast.walk(TREES["moments"])
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "second_moment")
    sources = [_called_name(node) for node in ast.walk(moment)
               if isinstance(node, ast.Call) and _called_name(node) in (
                   "_extended_table", "CompactLambda", "von_mangoldt_table")]
    assert sources == ["_extended_table", "CompactLambda"]
    root, cut = SRC.parents[1], "_DENSE" + "_CUT"
    mentions = [str(path.relative_to(root)) for folder in ("src", "tests")
                for path in sorted((root / folder).rglob("*.py"))
                if cut in path.read_text()]
    assert mentions == []


def test_environment_read_only_in_budgets():
    # budgets alone touches the environment: budgets.check applies
    # BHLAB_BUDGET, and the module's import pins OPENBLAS_NUM_THREADS
    env = ("environ", "getenv")
    readers = {module for module, tree in TREES.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in env
               or isinstance(node, ast.alias) and node.name in env}
    assert readers == {"budgets"}


def test_refusal_exceptions_constructed_only_in_budgets():
    makers = {module for module, tree in TREES.items()
              for node in ast.walk(tree) if isinstance(node, ast.Call)
              and _called_name(node) in ("BudgetError", "LimitError")}
    assert makers == {"budgets"}


def _calls_a_budget_getter(call):
    """A call of a bare name or of a bhlab module's attribute ending in
    _budget; methods such as FamilySpec.check_budget do not count."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id.endswith("_budget")
    return (isinstance(func, ast.Attribute) and func.attr.endswith("_budget")
            and isinstance(func.value, ast.Name) and func.value.id in TREES)


def test_no_budget_getters():
    # callers pass budgets.check a DEFAULT_* budget; no getter repeats the
    # BHLAB_BUDGET rule in front of it
    defined = [f"{module}.{node.name}" for module, tree in TREES.items()
               for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name.endswith("_budget")]
    called = [f"{module}:{node.lineno}" for module, tree in TREES.items()
              for node in ast.walk(tree)
              if isinstance(node, ast.Call) and _calls_a_budget_getter(node)]
    assert defined == []
    assert called == []


def test_series_key_reduces_contiguous_columns_by_floor_division():
    # numpy's int64 floor division by a scalar takes libdivide on a
    # contiguous column, its % never does and a strided column never does:
    # residue_key reduces without %, and the Monte Carlo rows it reduces
    # by column are allocated column-major
    def function(name):
        return next(node for node in ast.walk(TREES["poly"])
                    if isinstance(node, ast.FunctionDef) and node.name == name)

    mods = [node.lineno for node in ast.walk(function("residue_key"))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)]
    assert mods == []
    orders = [ast.unparse(keyword.value)
              for node in ast.walk(function("_draw_montecarlo"))
              if isinstance(node, ast.Call)
              and ast.unparse(node.func) == "np.empty"
              for keyword in node.keywords if keyword.arg == "order"]
    assert orders == ["'F'"]


# numpy's BLAS entry points, as attributes (np.dot, a.dot, np.linalg...) or
# imported names
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum",
              "linalg"}


def test_no_blas_call():
    # a BLAS result's bits can depend on its thread count; with no BLAS
    # call, budgets' one-thread pin changes no result
    offenders = [f"{module}:{node.lineno}" for module, tree in TREES.items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES
                 or isinstance(node, ast.alias)
                 and node.name.split(".")[-1] in BLAS_NAMES
                 or isinstance(node, (ast.BinOp, ast.AugAssign))
                 and isinstance(node.op, ast.MatMult)]
    assert offenders == []


def test_blas_pin_runs_before_numpy_loads():
    # the package's first import is budgets, whose import pins OpenBLAS to
    # one thread, and budgets imports only standard modules, so numpy loads
    # after the pin whichever bhlab module is imported first
    first = next(node for node in TREES["__init__"].body
                 if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert (type(first), first.level, first.module) == (
        ast.ImportFrom, 1, "budgets")
    imported = [alias.name for node in ast.walk(TREES["budgets"])
                if isinstance(node, ast.Import) for alias in node.names]
    imported += ["." * node.level + (node.module or "")
                 for node in ast.walk(TREES["budgets"])
                 if isinstance(node, ast.ImportFrom)]
    assert imported
    assert [name for name in imported
            if name.split(".")[0] not in sys.stdlib_module_names] == []


def _leading_text(message):
    """The literal text a message expression starts with, or None."""
    if isinstance(message, ast.JoinedStr) and message.values:
        message = message.values[0]
    if isinstance(message, ast.Constant) and isinstance(message.value, str):
        return message.value
    return None


def test_each_refusal_text_raised_from_one_module():
    # a refusal rule has one home: a ValueError message that starts with
    # literal text is raised from one module, and the others call it
    homes = {}
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and _called_name(node.exc) == "ValueError"
                    and node.exc.args):
                text = _leading_text(node.exc.args[0])
                if text:
                    homes.setdefault(text, set()).add(module)
    assert {text: sorted(modules) for text, modules in homes.items()
            if len(modules) > 1} == {}
