"""Static checks on the package source, read with `ast`."""

import ast
import dataclasses
import pathlib

import fermient
from fermient.config import Capacities, Tolerances

SRC = pathlib.Path(fermient.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def test_modules_use_every_name_they_import():
    unused = []
    for name, tree in _trees().items():
        if name == "__init__.py":       # re-exports the public names
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {ident}" for ident, line in imported.items()
                   if ident not in used]
    assert unused == []


def test_philox_is_constructed_at_one_site():
    sites = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (getattr(node.func, "attr", None) == "Philox"
                  or getattr(node.func, "id", None) == "Philox")]
    assert len(sites) == 1, sites


def test_square_roots_outside_hermlin_are_checked():
    # sqrt_from_spectrum skips the square check; elsewhere roots come from psd_root
    sites = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and "sqrt_from_spectrum" in (getattr(node.func, "attr", None),
                                          getattr(node.func, "id", None))]
    assert sites and all(site.startswith("hermlin.py:") for site in sites), sites


def test_files_are_opened_only_in_report():
    # report.read_text and report.write_text are the one reader and writer
    sites = [f"{name}:{node.lineno}" for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and "open" in (getattr(node.func, "attr", None),
                            getattr(node.func, "id", None))]
    assert sites and all(site.startswith("report.py:") for site in sites), sites


def test_tolerances_are_resolved_once_in_main():
    calls = [fn.name for fn in ast.walk(_trees()["cli.py"]) if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_resolve_tol"]
    assert calls == ["main"]


def test_every_tolerance_and_capacity_is_read():
    # a threshold printed in every header must be enforced somewhere;
    # jacobi_max_sweeps stays only because --tol accepts it (see config.py)
    read = {node.attr for tree in _trees().values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = {f.name for record in (Tolerances, Capacities)
              for f in dataclasses.fields(record)}
    assert sorted(fields - read) == ["jacobi_max_sweeps"]
