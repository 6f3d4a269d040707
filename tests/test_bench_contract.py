"""What the benchmark in benchmarks/ relies on from the package.

The layer trace wraps package functions by name, and the benchmark counts
one ``converged=`` line per Stokes solve on standard error.
"""

import importlib
import sys
from pathlib import Path

import pytest

from stentflow.cli import main

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


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


def test_cell_prints_one_converged_line_per_corrector(tmp_path, capfd):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"strip.h = {1 / 16}\noutput.dir = {tmp_path / 'out'}\n")
    assert main(["cell", "--config", str(cfg)]) == 0
    err = capfd.readouterr().err
    assert err.count("converged=True") == 4
    assert err.count("converged=") == 4
