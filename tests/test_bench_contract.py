"""What the benchmark in benchmarks/ relies on from the package.

The layer trace wraps package functions by name, the runner and its child
import a few names, and the benchmark counts one ``converged=`` line per
Stokes solve on standard error.  The wrapped names are also the only public
names the package may define without using them.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

from stentflow.cli import main

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
SRC = BENCH.parent / "src" / "stentflow"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("layers")
    finally:
        sys.path.remove(str(BENCH))


def test_every_wrapped_name_resolves(layers):
    for mod_name, attr, _, _ in layers.WRAPPED:
        obj = importlib.import_module(mod_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{mod_name}.{attr}"


# what benchmarks/child.py runs a command with, and what benchmarks/run.py
# checks the study's slopes against
IMPORTED = [("stentflow.cli", "main"), ("stentflow.config", "load_config"),
            ("stentflow.analysis", "SLOPE_BANDS")]


def test_every_imported_name_resolves():
    for mod_name, attr in IMPORTED:
        assert hasattr(importlib.import_module(mod_name), attr), f"{mod_name}.{attr}"


def test_slope_bands_cover_the_error_columns(tmp_path, monkeypatch):
    # run.py reads each band's slope from slopes.txt and the errors behind
    # it from errors.csv: the bands are the four error columns, each a
    # (lo, hi) pair of floats or None
    import stentflow.analysis as analysis

    report = analysis.ErrorReport(eps=0.25)
    monkeypatch.setattr(analysis, "convergence_study",
                        lambda cfg, progress: ([report], {}, None, None))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"output.dir = {tmp_path / 'out'}\n")
    main(["converge", "--config", str(cfg)])
    header = (tmp_path / "out" / "errors.csv").read_text().splitlines()[1].split(",")
    errors = [c for c in header if c.startswith(("l2_", "hm1_"))]
    assert list(analysis.SLOPE_BANDS) == errors and len(errors) == 4
    for band in analysis.SLOPE_BANDS.values():
        assert isinstance(band, tuple) and len(band) == 2, band
        assert all(b is None or isinstance(b, float) for b in band), band


def test_cell_prints_one_converged_line_per_corrector(tmp_path, capfd):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"strip.h = {1 / 16}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["cell", "--config", str(cfg)]) == 0
    err = capfd.readouterr().err
    assert err.count("converged=True") == 4
    assert err.count("converged=") == 4


def test_every_public_name_is_used_in_the_package(layers):
    # a module-level public name is referenced somewhere in src/ outside its
    # own definition, or the layer trace wraps it; a re-export from the
    # package's __init__ is not a use
    wrapped = {(mod, attr.split(".")[0]) for mod, attr, _, _ in layers.WRAPPED}
    defined, used = [], []
    for path in sorted(SRC.glob("*.py")):
        module = "stentflow" if path.stem == "__init__" else f"stentflow.{path.stem}"
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name, node) for name in names if not name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.append((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                used.append((module, node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom) and module != "stentflow":
                used += [(module, alias.name, node.lineno) for alias in node.names]
    unused = [f"{module}.{name}" for module, name, node in defined
              if (module, name) not in wrapped
              and not any(n == name and not (m == module and node.lineno <= line <= node.end_lineno)
                          for m, n, line in used)]
    assert not unused, unused
