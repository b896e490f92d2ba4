"""Rules over the program's own source files."""

import ast
import dataclasses
import importlib.util
import os
import re
import sys

from streamreid.runlog import RunConfig

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src", "streamreid")
BENCH = os.path.join(ROOT, "bench")
TESTS = os.path.dirname(os.path.abspath(__file__))
README = os.path.join(ROOT, "README.md")

# the modules that own an on-disk format: text artifacts, feature files,
# checkpoints
FILE_WRITERS = {"runlog.py", "data.py", "mlp.py"}


def package_trees(directory=SRC):
    """(file name, AST) of every module of the package, or of another
    directory's Python files."""
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), filename=path)


def opens_for_writing(call: ast.Call) -> bool:
    """A call of open() whose mode writes, or whose mode is not a literal."""
    if not (isinstance(call.func, ast.Name) and call.func.id == "open"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(c in mode.value for c in "wax+")
    return True


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check written as one vanishes
    found = []
    for name, tree in package_trees():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert os.path.isfile(os.path.join(SRC, "trainer.py"))
    assert found == [], f"assert statements in streamreid: {found}"


def test_only_format_owning_modules_open_files_for_writing():
    # one module per on-disk format keeps each format decided in one place
    found, writers = [], set()
    for name, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and opens_for_writing(node):
                writers.add(name)
                if name not in FILE_WRITERS:
                    found.append(f"{name}:{node.lineno}")
    assert writers == FILE_WRITERS, f"modules that write files: {sorted(writers)}"
    assert found == [], f"open() for writing outside {sorted(FILE_WRITERS)}: {found}"


def is_row_norm(call: ast.Call) -> bool:
    """A call of *.linalg.norm(..., axis=1) or axis=-1: the norms of rows."""
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "norm"
            and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg"):
        return False
    axis = next((k.value for k in call.keywords if k.arg == "axis"), None)
    return isinstance(axis, ast.Constant) and axis.value in (1, -1)


def test_only_pseudo_normalises_rows():
    # one row normaliser (pseudo.unit_rows) keeps the zero-norm check and
    # its message in one place
    found = [f"{name}:{node.lineno}" for name, tree in package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and is_row_norm(node) and name != "pseudo.py"]
    assert found == [], f"row norms taken outside pseudo.py: {found}"


def test_no_numpy_percentile_or_quantile_in_the_package():
    # pseudo._percentile_of_lowest pins NumPy's linear interpolation by
    # hand over dbscan's candidate pairs; a second, library percentile
    # would be a second definition
    found = [f"{name}:{node.lineno}" for name, tree in package_trees()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("percentile", "quantile", "nanpercentile", "nanquantile")
             and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert found == [], f"np.percentile or np.quantile in streamreid: {found}"


def node_name(node):
    """The name a Name, an Attribute or an import alias binds or reads."""
    return getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)


def keeps_float_spellings(call: ast.Call) -> bool:
    """A call that passes comments=None and delimiter=",", both literal."""
    kw = {k.arg: k.value for k in call.keywords}
    return all(isinstance(kw.get(arg), ast.Constant) and kw[arg].value == value
               for arg, value in (("comments", None), ("delimiter", ",")))


def test_text_readers_take_only_what_float_takes():
    # NumPy's default comments="#" would load a value 1#2 as 1.0, which
    # float() rejects; genfromtxt and fromstring read by other rules
    trees = list(package_trees())
    calls = [node for _, tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Call) and node_name(node.func) == "loadtxt"]
    checked = {id(call.func) for call in calls if keeps_float_spellings(call)}
    found = [f"{name}:{node.lineno} {node_name(node)}"
             for name, tree in trees for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
             and (node_name(node) in ("genfromtxt", "fromstring")
                  or node_name(node) == "loadtxt" and id(node) not in checked)]
    assert calls and found == [], f"text readers that may leave float()'s spellings: {found}"


def scoped_nodes(node, scope=""):
    """(dotted name of the enclosing classes and functions, node) for every
    node below node; module-level nodes have scope ''."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            yield from scoped_nodes(child, f"{scope}.{child.name}".lstrip("."))
        else:
            yield from scoped_nodes(child, scope)


def test_trainer_picks_the_reid_method_in_one_place():
    # adapt_task picks SpCL or the classifier once; a second branch on
    # ReidMode would interleave the two methods in the training loop again
    tree = dict(package_trees())["trainer.py"]
    found = [(scope, node.lineno) for scope, node in scoped_nodes(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "ReidMode"]
    assert [scope for scope, _ in found] == ["adapt_task"], found


def test_one_model_class_has_a_backward():
    # every model, the extractor and each classifier head, is an MLP; a
    # second class with its own backward would be a second gradient kernel
    # to keep in step with the first
    found = [(name, node.name) for name, tree in package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             and any(isinstance(m, ast.FunctionDef) and m.name == "backward"
                     for m in node.body)]
    assert found == [("mlp.py", "MLP")], found


def package_imports():
    """Each package module's name and the set of package modules it imports
    with 'from .x import' or 'from . import x'."""
    graph = {}
    for name, tree in package_trees():
        graph[name[:-3]] = deps = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps.update([node.module] if node.module else
                            (alias.name for alias in node.names))
    return graph


def test_package_imports_form_no_cycle():
    # the run record and its config format sit below the trainer and the
    # command line, so a reader of run directories needs neither
    graph = package_imports()
    assert not graph["runlog"] & {"trainer", "cli"}, graph["runlog"]
    done, path = set(), []

    def visit(module):
        if module in path:
            raise AssertionError(f"import cycle: {' -> '.join(path + [module])}")
        if module not in done:
            path.append(module)
            for dep in sorted(graph[module]):
                visit(dep)
            path.pop()
            done.add(module)

    for module in sorted(graph):
        visit(module)
    assert done == set(graph) and "runlog" in done


def constant_default(node) -> bool:
    """A default that is a literal other than None (a negated number
    included), an attribute such as an Enum member, or field(default=...)
    of one of those."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "field":
        return any(k.arg == "default" and constant_default(k.value) for k in node.keywords)
    if isinstance(node, ast.Attribute):
        return True
    try:
        return ast.literal_eval(node) is not None
    except ValueError:
        return False


def test_kernels_take_every_hyper_parameter_from_the_run():
    # RunConfig gives each hyper-parameter its default and range check; a
    # kernel default would be a second home that tests could drift onto.
    # None stays allowed: mmd_loss's sigma=None is the gradient-check hook
    trees = dict(package_trees())
    found = []
    for name in ("pseudo.py", "distill.py"):
        for node in ast.walk(trees[name]):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                defaults = node.args.defaults + [d for d in node.args.kw_defaults if d]
                found += [f"{name}:{d.lineno}" for d in defaults if constant_default(d)]
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                found += [f"{name}:{s.lineno}" for s in node.body
                          if isinstance(s, ast.AnnAssign) and s.value is not None
                          and constant_default(s.value)]
    assert found == [], f"constant or Enum-member defaults in kernels: {found}"


def test_every_imported_name_is_used():
    found = []
    for name, tree in package_trees():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{name}:{line} {bound}" for bound, line in imported.items()
                  if bound not in used]
    assert found == [], f"imported names never used: {found}"


def defined_names(tree):
    """(name, line) of every module-level function and class, and of every
    method other than a dunder one."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m.lineno) for m in node.body
                        if isinstance(m, ast.FunctionDef)
                        and not (m.name.startswith("__") and m.name.endswith("__")))


def test_every_package_name_is_used_by_the_package_or_the_benchmark():
    # an API that only tests call is code kept alive by its own tests
    trees = [tree for d in (SRC, BENCH) for _, tree in package_trees(d)]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    found = [f"{name}:{line} {defined}" for name, tree in package_trees()
             for defined, line in defined_names(tree) if defined not in used]
    assert trees and found == [], f"names only tests use: {found}"


def test_floating_point_policy_lives_in_trainer_run():
    # one errstate for the whole run; a second one, or np.seterr, would run
    # some kernel under another policy than the rest of the run
    names = {"errstate", "seterr"}
    found = [(name, scope) for name, tree in package_trees()
             for scope, node in scoped_nodes(tree)
             if (isinstance(node, ast.Attribute) and node.attr in names)
             or (isinstance(node, ast.Name) and node.id in names)
             or (isinstance(node, ast.alias) and node.name in names)]
    assert found == [("trainer.py", "run")], found


def method_map_rows():
    """The cells of each body row of README's Method map table."""
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## Method map\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip().strip("|").split("|") for line in section.splitlines()
            if line.startswith("|")]
    return [[cell.strip() for cell in row] for row in rows[2:]]


def test_readme_names_resolve():
    # the Method map cannot rot: every code name imports, every test and
    # acceptance criterion exists, every key is a config key; so does every
    # test the README names elsewhere
    trees = dict(package_trees(TESTS))
    tests = {node.name for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    criteria = {int(m) for node in ast.walk(trees["test_acceptance.py"])
                if isinstance(node, ast.FunctionDef)
                for m in re.findall(r"^test_criterion_(\d+)_", node.name)}
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    rows = method_map_rows()
    assert len(rows) >= 10 and all(len(row) == 5 for row in rows), rows
    unresolved = []
    for component, _, code, checks, key in rows:
        code_names = re.findall(r"`([^`]+)`", code)
        for dotted in code_names:
            module, *attrs = dotted.split(".")
            obj = importlib.import_module(f"streamreid.{module}")
            for attr in attrs:
                obj = getattr(obj, attr, None)
            if obj is None or not attrs:
                unresolved.append(f"{component}: code {dotted}")
        numbers = [int(n) for group in re.findall(r"criteri(?:on|a) ((?:\d+, )*\d+)", checks)
                   for n in group.split(", ")]
        test_names = re.findall(r"`([^`]+)`", checks)
        unresolved += [f"{component}: criterion {n}" for n in numbers if n not in criteria]
        unresolved += [f"{component}: test {t}" for t in test_names if t not in tests]
        key_names = re.findall(r"`([^`]+)`", key)
        unresolved += [f"{component}: key {k}" for k in key_names if k not in keys]
        if not code_names or not numbers + test_names or (not key_names and key != "—"):
            unresolved.append(f"{component}: an empty cell")
    with open(README, encoding="utf-8") as fh:
        named = set(re.findall(r"`(test_\w+)`", fh.read()))
    unresolved += [f"README names {t}" for t in sorted(named - tests)]
    assert unresolved == [], unresolved


def test_benchmark_rounds_pin_blas_to_one_thread(monkeypatch):
    # the benchmark's matrices are small: a second BLAS thread costs CPU
    # time and buys no wall time, whatever the caller's environment says
    monkeypatch.setattr(sys, "path", list(sys.path))    # bench/run.py extends it
    spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    env = bench_run.child_env()
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"
