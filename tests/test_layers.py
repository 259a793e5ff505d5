"""The package's import layers.

``LAYERS`` pins, for every module of ``src/coulombgas``, the package modules
it imports at module level (read with ``ast``; imports inside a function run
on call and are not counted).  The time functions and the time grid sit at
the bottom, beside the series arithmetic; the Langevin engine (``dyson``)
stands on the kernel and the time functions only, and the operator algebra
(``boson``, ``svconstraints``) beside it.  ``cli`` imports nothing of the
package at start-up, so validating a config loads no engine.

The runtime tests run suites end to end in a fresh process: the Langevin
and Metropolis suites leave the operator algebra unloaded, and the
operator-algebra suites leave the engine unloaded.  The last tests read
every module-level name of the package and require that something reads
it, so no dead function, class or constant stays behind.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from coulombgas import cli

PACKAGE = Path(cli.__file__).parent

LAYERS = {
    "__init__": set(),
    "fseries": set(),
    "timefunc": set(),
    "kernel": {"fseries"},
    "nptransform": {"timefunc"},
    "boson": {"fseries", "kernel", "timefunc"},
    "svconstraints": {"boson", "fseries", "kernel", "timefunc"},
    "dyson": {"kernel", "timefunc"},
    "cli": set(),
}


def _package_imports(path: Path) -> set:
    """The coulombgas modules that the module at path imports when it is loaded."""
    found = set()
    todo = list(ast.parse(path.read_text()).body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["coulombgas" if node.level else None, node.module]))
            names = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("coulombgas."))
    return found


def test_module_level_imports_follow_the_layers():
    """Every module has a layer, and imports at load time exactly its layer's modules."""
    got = {p.stem: _package_imports(p) for p in PACKAGE.glob("*.py")}
    assert got == LAYERS


def test_package_imports_reader(tmp_path):
    """The reader sees relative and absolute imports, counts class bodies and
    skips function bodies."""
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .kernel import Potential\n"
        "from . import fseries\n"
        "import coulombgas.timefunc\n"
        "from coulombgas.boson import commutator\n"
        "import numpy as np\n"
        "class A:\n"
        "    from .dyson import simulate_dbm\n"
        "def f():\n"
        "    from .svconstraints import EQ_GRID\n"
    )
    assert _package_imports(probe) == {"kernel", "fseries", "timefunc", "boson", "dyson"}


def _run_fresh(tmp_path, sizes: dict) -> dict:
    """Run each suite with its default scenario updated by sizes[suite]
    through ``cli.main``, all in one fresh process; return the exit codes,
    the names of engine-error rows and the coulombgas modules loaded."""
    code = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "from coulombgas import cli\n"
        "out, sizes, codes, errors = Path(sys.argv[1]), json.loads(sys.argv[2]), {}, []\n"
        "for suite, size in sizes.items():\n"
        "    cfg = out / f'{suite}.json'\n"
        "    cfg.write_text(json.dumps(cli.default_scenario(suite) | size))\n"
        "    codes[suite] = cli.main(['run', str(cfg), '--out', str(out / suite)])\n"
        "    report = json.loads((out / suite / f'{suite}.json').read_text())\n"
        "    errors += [c['name'] for c in report['checks'] if c['name'].endswith('/engine')]\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('coulombgas.'))\n"
        "print(json.dumps({'codes': codes, 'errors': errors, 'loaded': loaded}))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path), json.dumps(sizes)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(got["codes"].values()) <= {0, 1} and not got["errors"], got
    return got


def test_langevin_and_gibbs_suites_leave_the_operator_algebra_unloaded(tmp_path):
    """dbm-moments, npoint, girsanov and equilibrium-loop, run through
    ``cli.main`` in one fresh process, load the engine but neither ``boson``
    nor ``svconstraints``."""
    tiny = {"replicas": 20, "grid": {"dt": 1e-3, "steps": 40}}
    sizes = {
        "dbm-moments": dict(tiny, pi1_times=[0.02, 0.04], pi2_window=[0.03, 0.04]),
        "npoint": tiny,
        "girsanov": tiny,
        "equilibrium-loop": {"sweeps": 2000},
    }
    got = _run_fresh(tmp_path, sizes)
    assert "coulombgas.dyson" in got["loaded"], got
    assert not {"coulombgas.boson", "coulombgas.svconstraints"} & set(got["loaded"]), got["loaded"]


def test_operator_algebra_suites_leave_the_engine_unloaded(tmp_path):
    """The five suites of the operator algebra, sv-algebra without its
    constraint Monte Carlo, run through ``cli.main`` in one fresh process,
    load the operator algebra but not the engine (``dyson``)."""
    sizes = {
        "kernel-identities": {},
        "boson-commutators": {},
        "sv-algebra": {"constraint_mc": None},
        "np-brackets": {},
        "hermite-example": {},
    }
    got = _run_fresh(tmp_path, sizes)
    assert {"coulombgas.boson", "coulombgas.svconstraints", "coulombgas.nptransform"} <= set(got["loaded"]), got
    assert "coulombgas.dyson" not in got["loaded"], got["loaded"]


def _module_level_names(tree) -> dict:
    """The functions, classes and constants that a module defines at its
    top level, each with the index of its statement; runners that
    ``@_suite`` registers and dunder names are left out."""
    names = {}
    for index, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            registered = any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_suite" for d in node.decorator_list)
            if not registered:
                names[node.name] = index
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    names[target.id] = index
    return {name: index for name, index in names.items() if not name.startswith("__")}


def _names_read(node) -> set:
    """Every name that node loads, as a bare name or as an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def _unread_names(modules, readers) -> list:
    """``module.name`` for each module-level name of the files ``modules``
    that no top-level statement of the files ``readers`` reads, besides the
    statement that defines it."""
    trees = {p: ast.parse(p.read_text()) for p in {*modules, *readers}}
    reads = {(p, index): _names_read(node) for p in readers for index, node in enumerate(trees[p].body)}
    unread = []
    for path in modules:
        for name, index in _module_level_names(trees[path]).items():
            if not any(name in names for key, names in reads.items() if key != (path, index)):
                unread.append(f"{path.stem}.{name}")
    return unread


def test_every_module_level_name_is_read():
    """Every module-level function, class and constant of the package is read
    somewhere in the source, the tests or the benchmark, besides its own
    definition (and ``__all__``, which names it only as a string)."""
    root = PACKAGE.parent.parent
    readers = [p for d in ("src", "tests", "perfbench") for p in sorted((root / d).rglob("*.py"))]
    assert not _unread_names(sorted(PACKAGE.glob("*.py")), readers)


def test_unread_names_reader(tmp_path):
    """The reader flags a constant named only in ``__all__`` and a function
    that only calls itself; it counts reads in another statement or file, as
    attributes, and runners that ``@_suite`` registers."""
    mod, user = tmp_path / "mod.py", tmp_path / "user.py"
    mod.write_text(
        '__all__ = ["A", "B"]\n'
        "A = 1\n"
        "B = 2\n"
        "C = B + 1\n"
        "def f():\n"
        "    return f()\n"
        "class K:\n"
        "    pass\n"
        '@_suite("x")\n'
        "def run():\n"
        "    pass\n"
    )
    user.write_text("import mod\nprint(mod.C, mod.K)\n")
    assert _unread_names([mod], [mod, user]) == ["mod.A", "mod.f"]
