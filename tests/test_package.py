"""The package surface: every public name resolves lazily to the object
its defining module holds, and importing the package loads no submodule."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphspectra

SRC = Path(__file__).parents[1] / "src"

PUBLIC = {
    "graphs": ["EdgeMatrix", "FiniteGraph", "OrientedEdge", "cayley_schottky_matrix",
               "directed_edge_matrix", "genus2_catalog", "kato_graph",
               "permutation_equivalent"],
    "ktheory": ["AbelianGroup", "SmithDecomposition", "Verdict", "ck_k_theory",
                "irreducibility_check", "smith_normal_form", "stable_iso_verdict"],
    "shift": ["FiltrationDims", "ParryMeasure", "PerronData", "SFTData",
              "alphabet_automorphisms", "cohomology_filtration_dims",
              "enumerate_words", "filtration_dims", "from_edge_matrix",
              "full_schottky_sft", "parry_cylinder_measure", "perron_data"],
    "triples": ["AFTriple", "CrossedProductTriple", "EvenBlock", "GradingOperator",
                "SpectralTruncation", "af_core_dims", "af_summability_report",
                "build_truncation", "crossed_product_spectrum", "even_double",
                "grading_from_sft", "jlo_phi0", "summability_exponent_fit",
                "theta_trace", "zeta_partial"],
    "buildings": ["BipartiteGraph", "BMGroupData", "PolygonalPresentation",
                  "Polyhedron", "bm_group_data", "family_presentation",
                  "four_fold_cover", "inclusion_exclusion_check",
                  "polyhedron_from_presentation", "product_grading_dims",
                  "solve_tau", "stable_pairs_check", "validate_presentation"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_public_name_is_the_defining_modules_object(module, name):
    defining = importlib.import_module(f"graphspectra.{module}")
    assert getattr(graphspectra, name) is getattr(defining, name)
    assert name in dir(graphspectra)
    assert name in graphspectra.__all__


def test_all_lists_exactly_the_public_names():
    assert sorted(graphspectra.__all__) == sorted(name for _, name in NAMES)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        getattr(graphspectra, "nope")
    assert not hasattr(graphspectra, "nope")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from graphspectra import *", namespace)
    for module, name in NAMES:
        assert namespace[name] is getattr(
            importlib.import_module(f"graphspectra.{module}"), name)


def test_submodule_is_an_attribute_before_it_is_imported():
    code = ("import sys, graphspectra\n"
            "print(graphspectra.shift.__name__, 'graphspectra.triples' in sys.modules)")
    assert _fresh(code) == "graphspectra.shift False\n"


def test_fresh_import_loads_no_submodule():
    code = ("import json, sys, graphspectra\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.startswith('graphspectra.'))))")
    assert json.loads(_fresh(code)) == []


def _fresh(code: str) -> str:
    """Stdout of ``code`` in a fresh interpreter that imports this checkout."""
    environ = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=environ,
                            capture_output=True, text=True, check=True)
    return result.stdout
