"""What importing rmarith loads: lazy package exports and per-command modules.

The footprint is checked by counting modules in fresh interpreters rather
than by timing them.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmarith

SRC = str(Path(__file__).resolve().parent.parent / "src")

# every name the package exported when it imported all its modules eagerly
EXPORTS = {
    "cmrm": ["RMTriple", "rm_conductor", "rm_triple"],
    "contfrac": [
        "BratteliBlockSequence", "ContinuedFraction", "FundamentalUnit", "QuadraticIrrational",
        "bratteli_blocks", "cf_expand", "convergents", "evaluate", "fundamental_unit", "is_rm",
        "tail_equivalent", "unit_norm",
    ],
    "errors": [
        "BoundTooSmall", "CountExceedsFiniteExpansion", "DiscriminantMismatch",
        "InvalidDiscriminant", "NonCyclicTwoPart", "NonPrimitiveForm", "NotEventuallyPeriodic",
        "NotPrimitive", "OutOfDomain", "ReducibleCharPoly", "RmarithError",
        "SearchLimitExceeded", "SquareDiscriminant",
    ],
    "heights": [
        "GrowthRegime", "ProjectivePoint", "VarietyProfile", "classical_count",
        "finiteness_check", "growth_regime", "inverse_minkowski_q", "minkowski_q",
        "projective_height", "quantum_count", "quantum_height",
    ],
    "latimer": [
        "IntegerMatrix", "ShaReport", "SimilarityClassification", "char_poly", "classify",
        "ideal_classes_for_matrix", "perron_eigenvalue", "sha_for_curve_matrix", "sha_group",
        "similarity_class_count_bruteforce",
    ],
    "quadforms": [
        "BinaryQuadraticForm", "ClassGroupStructure", "QuadraticOrder",
        "canonical_representative", "class_group_structure", "class_number",
        "class_representatives", "compose", "enumerate_reduced_forms",
        "fundamental_discriminant", "reduce_form", "split_discriminant",
        "two_part_decomposition",
    ],
}
NAMES = {name for names in EXPORTS.values() for name in names}
SUBMODULES = {*EXPORTS, "intmath"}

ARITHMETIC = {"contfrac", "intmath"}
# argv -> the rmarith modules (beside the package, cli and errors) it loads
FOOTPRINT = {
    ("classgroup", "-D", "-23", "--json"): {"quadforms", *ARITHMETIC},
    ("rm-conductor", "-d", "5", "--json"): {"cmrm", "quadforms", *ARITHMETIC},
    ("cf", "--sqrt", "7", "--json"): ARITHMETIC,
    ("sha", "--matrix", "2,1,1,1", "--json"): {"latimer", "quadforms", *ARITHMETIC},
    ("height", "--theta", "1/3", "--json"): {"heights", *ARITHMETIC},
    ("count", "--json"): {"heights", *ARITHMETIC},
    ("count", "--csv"): {"heights", *ARITHMETIC},
    ("--version",): set(),
}

# the last stderr line names every loaded module
REPORT = '\nsys.stderr.write("\\n" + " ".join(sorted(sys.modules)))'
COMMAND = "import sys\nfrom rmarith import cli\ncli.main(sys.argv[1:])" + REPORT
BARE_IMPORT = "import sys, rmarith" + REPORT


def _loaded_modules(programs):
    """sys.modules after each (code, argv) in a fresh interpreter, run side by side."""
    env = dict(os.environ, PYTHONPATH=SRC)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code, *argv],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for code, argv in programs
    ]
    out = []
    for proc in procs:
        _, err = proc.communicate()
        assert proc.returncode == 0, err
        out.append(set(err.rsplit("\n", 1)[-1].split()))
    return out


@pytest.fixture(scope="module")
def footprints():
    programs = [(COMMAND, argv) for argv in FOOTPRINT]
    programs.append((BARE_IMPORT, ()))
    *commands, bare = _loaded_modules(programs)
    return dict(zip(FOOTPRINT, commands)), bare


@pytest.mark.parametrize("argv", list(FOOTPRINT), ids="_".join)
def test_command_loads_only_what_it_computes_with(argv, footprints):
    loaded = footprints[0][argv]
    assert {m for m in loaded if m.startswith("rmarith.")} == {
        "rmarith.cli", "rmarith.errors", *(f"rmarith.{m}" for m in FOOTPRINT[argv])
    }
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert ("csv" in loaded) == ("--csv" in argv)


def test_bare_import_loads_no_submodule(footprints):
    loaded = footprints[1]
    assert "rmarith" in loaded
    assert not {m for m in loaded if m.startswith("rmarith.")}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_export_is_the_defining_modules_object(module):
    defining = importlib.import_module(f"rmarith.{module}")
    for name in EXPORTS[module]:
        assert getattr(rmarith, name) is getattr(defining, name), name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from rmarith import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == NAMES
    assert sorted(rmarith.__all__) == sorted(NAMES)


def test_dir_lists_exports_and_submodules():
    assert NAMES | SUBMODULES | {"__version__"} <= set(dir(rmarith))


def test_submodules_resolve_as_attributes():
    for module in SUBMODULES:
        assert getattr(rmarith, module) is importlib.import_module(f"rmarith.{module}")
    assert isinstance(rmarith.__version__, str)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rmarith.no_such_name
    assert not hasattr(rmarith, "cli_quadforms")
    with pytest.raises(ImportError):
        exec("from rmarith import no_such_name", {})
