"""What importing the package and running a CLI command executes.

The layer modules are registered lazily: each is in ``sys.modules`` at once
and runs on first attribute access.  Each probe runs in a fresh interpreter,
because this process has executed every module already.  A module's state is
read from its type, never through ``vars()``, which would execute it.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chowtool

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")

# the public names of the package and the modules that define them
PUBLIC = {
    "geometry": (
        "Polytope", "Facet", "facets", "lattice_points", "interior_lattice_points",
        "boundary_lattice_points", "volume", "boundary_volume", "centroid",
        "is_reflexive", "product", "dual", "double_cone", "lattice_shells",
    ),
    "ehrhart": ("count", "ehrhart_polynomial", "moment_sum", "EhrhartPolynomial"),
    "symmetry": (
        "AffineFunctional", "automorphisms", "is_symmetric", "fo_invariant",
        "is_weakly_symmetric",
    ),
    "triangulation": (
        "LatticeSimplex", "Triangulation", "standard_simplex_triangulation",
        "boundary_triangulation", "cone_over_boundary", "full_triangulation",
        "verify_regular_boundary", "incidence",
    ),
    "stability": (
        "PLFunction", "StabilityVerdict", "chow_gap", "double_cone_instability",
        "vertex_cap_instability", "check_special", "check_sufficient", "falsify",
        "classify", "POLYSTABLE", "NOT_SEMISTABLE", "INCONCLUSIVE",
    ),
    "toricgen": ("relation_basis", "binomial_equations", "BinomialEquation"),
}


def fresh(code, *options):
    """Run code in a new interpreter with src on the path; return the process."""
    return subprocess.run(
        [sys.executable, *options, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True,
    )


def test_import_registers_every_traced_module():
    # perfbench/tracer.py looks each one up in sys.modules right after
    # `from chowtool import cli`
    probe = (
        f"import sys\nsys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "import json, chowtool.cli, tracer\n"
        "traced = {entry[0] for entry in tracer.FUNCTIONS + tracer.METHODS}\n"
        "missing = [m for m in traced if 'chowtool.' + m not in sys.modules]\n"
        "print(json.dumps([sorted(traced), missing]))\n"
    )
    traced, missing = json.loads(fresh(probe).stdout)
    assert "toricgen" in traced and missing == []


def test_importtime_logs_catalog_and_cli():
    # perfbench/run.py reads both lines; a module loaded lazily or through
    # importlib.import_module gets none
    log = fresh("import chowtool.cli", "-X", "importtime").stderr
    logged = {line.split("|")[-1].strip() for line in log.splitlines()}
    assert {"chowtool.catalog", "chowtool.cli"} <= logged


BASE = ["catalog", "cli", "errors", "geometry", "linalg"]
ALL_BUT_TORICGEN = sorted(
    BASE + ["ehrhart", "jsonio", "lp", "stability", "symmetry", "triangulation"]
)


COMMANDS = [
    (["catalog", "list"], BASE),
    (["ehrhart", "X3"], sorted(BASE + ["ehrhart"])),
    (["symmetry", "D3"], sorted(BASE + ["ehrhart", "symmetry"])),
    (["equations", "X6"], sorted(BASE + ["toricgen"])),
    (["triangulate", "D3", "--boundary"], sorted(BASE + ["jsonio", "triangulation"])),
    # no verdict step reads the binomial equations
    (["analyze", "X6", "--json"], ALL_BUT_TORICGEN),
]


@pytest.mark.parametrize("argv, executed", COMMANDS, ids=["-".join(a) for a, _ in COMMANDS])
def test_command_executes_only_the_modules_it_calls(argv, executed):
    probe = (
        "import contextlib, io, json, sys, types\n"
        "from chowtool import catalog, cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    cli.main({argv!r})\n"
        "ran = [n[9:] for n, m in sys.modules.items()\n"
        "       if n.startswith('chowtool.') and type(m) is types.ModuleType]\n"
        "print(json.dumps([sorted(ran), len(catalog._ENTRIES)]))\n"
    )
    ran, built = json.loads(fresh(probe).stdout)
    assert ran == executed
    assert built == (0 if argv[0] == "catalog" else 1)


def test_public_names_are_the_defining_modules_objects():
    assert sorted(chowtool.__all__) == sorted([*sum(PUBLIC.values(), ()), "catalog"])
    assert chowtool.catalog is importlib.import_module("chowtool.catalog")
    assert set(chowtool.__all__) <= set(dir(chowtool))
    star = {}
    exec("from chowtool import *", star)
    for module, names in PUBLIC.items():
        defining = importlib.import_module(f"chowtool.{module}")
        for name in names:
            assert getattr(chowtool, name) is getattr(defining, name), name
            assert star[name] is getattr(defining, name), name
    with pytest.raises(AttributeError):
        chowtool.no_such_name
