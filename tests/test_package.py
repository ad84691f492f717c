"""The package root, the README's library example, unused imports and
parameters, the one surface of the engines and of the measures, one
execution path that reads no environment variable, and one reader of a
scenario's sim block."""

import ast
import pathlib
import re

import kolmolab

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

SUBMODULES = (
    "catalog", "engines", "functions", "ineq", "measures", "model", "ou",
    "runner", "scenario", "sde",
)


def test_root_exposes_the_submodules_and_version():
    for name in SUBMODULES:
        assert getattr(kolmolab, name).__name__ == f"kolmolab.{name}"
    assert isinstance(kolmolab.__version__, str) and kolmolab.__version__
    assert kolmolab.simulate is kolmolab.sde.simulate


def test_readme_library_example_runs_as_written(capsys):
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def unused_imports(path):
    """'file:line name' of each name the module imports at its top level
    that no expression reads and ``__all__`` does not list.  Imports on a
    line marked ``# noqa: F401`` are exempt."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(
        f"{path.name}:{line} {name}"
        for name, line in imported.items()
        if name not in used
    )


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports its submodules to re-export them
    src = pathlib.Path(kolmolab.__file__).resolve().parent
    paths = sorted(p for p in src.glob("*.py") if p.name != "__init__.py")
    assert [u for p in paths for u in unused_imports(p)] == []


# Callables whose signature is an interface, as (module, callable, parameter):
# a catalog coefficient b(t, x), jac_b(t, x) or Q(t) of an autonomous model
# ignores its clock, ``memo.fresh`` takes the memo's kind, and every
# experiment runner takes (ctx, exp).
INTERFACE_PARAMETERS = {
    ("catalog.py", "b", "t"),
    ("catalog.py", "jac_b", "t"),
    ("catalog.py", "<lambda>", "t"),
    ("engines.py", "cloud", "stream"),
    ("memo.py", "fresh", "kind"),
    ("runner.py", "_run_audit", "exp"),
}


def unread_parameters(path):
    """(module, callable, parameter) of each parameter, other than ``self``
    and ``cls``, that its function or lambda never reads."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [
            p for p in (a.vararg, a.kwarg) if p is not None
        ]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        name = getattr(node, "name", "<lambda>")
        out += [
            (path.name, name, p.arg)
            for p in params
            if p.arg not in ("self", "cls") and p.arg not in read
        ]
    return out


def test_every_parameter_is_read():
    src = pathlib.Path(kolmolab.__file__).resolve().parent
    found = {u for p in sorted(src.glob("*.py")) for u in unread_parameters(p)}
    assert found - INTERFACE_PARAMETERS == set()


# The kind of engine or measure is asked only inside the engines and the
# measures.  Outside them, as (module, function, expression), only the
# export pair checks its library input, and the runner's one export
# dispatch picks between the two.
TYPE_BRANCHES_ALLOWED = {
    ("measures.py", "export_measure_csv", "isinstance(mu, EmpiricalMeasure)"),
    ("measures.py", "export_measure_json", "isinstance(mu, GaussianMeasure)"),
    ("runner.py", "_run_measure", "hasattr(mu, 'samples')"),
}
MEASURE_TYPES = {"GaussianMeasure", "EmpiricalMeasure"}


def is_type_branch(node):
    """Whether ``node`` reads ``.kind`` of an engine, tests isinstance
    against a measure class, or asks hasattr of a measure."""
    if isinstance(node, ast.Attribute):
        return node.attr == "kind" and "engine" in ast.unparse(node.value)
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        return False
    if node.func.id == "isinstance" and len(node.args) == 2:
        names = {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
        return bool(names & MEASURE_TYPES)
    return node.func.id == "hasattr" and ast.unparse(node.args[0]).startswith("mu")


def type_branches(path, with_methods):
    """(module, function, expression) of each type branch in the module's
    top-level functions, and in its classes' methods when ``with_methods``."""
    tree = ast.parse(path.read_text())
    fns = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if with_methods:
        fns += [
            m for c in tree.body if isinstance(c, ast.ClassDef)
            for m in c.body if isinstance(m, ast.FunctionDef)
        ]
    return {
        (path.name, fn.name, ast.unparse(node))
        for fn in fns for node in ast.walk(fn) if is_type_branch(node)
    }


def test_no_engine_or_measure_type_branch_outside_them():
    src = pathlib.Path(kolmolab.__file__).resolve().parent
    found = type_branches(src / "measures.py", False) | type_branches(
        src / "runner.py", True
    )
    assert found - TYPE_BRANCHES_ALLOWED == set()


def public_methods(cls):
    return {n for n in dir(cls) if not n.startswith("_") and callable(getattr(cls, n))}


# The Gaussian's closed-form helpers, which a cloud has no counterpart of:
# its density, its sampler and the JSON export's payload.
GAUSSIAN_ONLY = {"pdf", "sample", "as_dict"}


def test_engines_and_measures_each_share_one_surface():
    from kolmolab.engines import AnalyticOUEngine, MonteCarloEngine
    from kolmolab.measures import EmpiricalMeasure
    from kolmolab.ou import GaussianMeasure

    assert public_methods(AnalyticOUEngine) == public_methods(MonteCarloEngine)
    assert public_methods(GaussianMeasure) - GAUSSIAN_ONLY == public_methods(
        EmpiricalMeasure
    )


# A run has one execution path, on the calling thread, and reads no
# environment variable: no module may start threads or consult os.environ.
THREAD_MODULES = {"threading", "concurrent"}
ENVIRONMENT_READS = {"environ", "getenv"}


def threads_and_environment(path):
    """'file:line what' of each thread-module import and environment read."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
            if node.module == "os":
                names = [f"os.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute):
            names = [ast.unparse(node)] if isinstance(node.value, ast.Name) else []
        else:
            continue
        out += [
            f"{path.name}:{node.lineno} {name}"
            for name in names
            if name.split(".")[0] in THREAD_MODULES
            or (name.startswith("os.") and name[3:] in ENVIRONMENT_READS)
        ]
    return out


def test_no_module_starts_threads_or_reads_the_environment():
    src = pathlib.Path(kolmolab.__file__).resolve().parent
    found = [u for p in sorted(src.glob("*.py")) for u in threads_and_environment(p)]
    assert found == []


# A scenario's sim block becomes the run's SimConfig in one place:
# validate_scenario builds it, and every other module takes that config.
def sim_reads(path):
    """'file:line expression' of each read of a ``.sim`` attribute."""
    return [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "sim"
    ]


def test_only_the_scenario_module_reads_the_sim_block():
    src = pathlib.Path(kolmolab.__file__).resolve().parent
    paths = sorted(p for p in src.glob("*.py") if p.name != "scenario.py")
    assert [u for p in paths for u in sim_reads(p)] == []


# An experiment's keys get their defaults, shapes and rules in one place:
# validate_scenario fills in and checks every key, and the runners index
# the checked values.
def param_gets(path):
    """'file:line expression' of each ``.params.get(...)`` call."""
    return [
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "params"
    ]


def test_only_the_scenario_module_defaults_experiment_keys():
    src = pathlib.Path(kolmolab.__file__).resolve().parent
    paths = sorted(p for p in src.glob("*.py") if p.name != "scenario.py")
    assert [u for p in paths for u in param_gets(p)] == []
