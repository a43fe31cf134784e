"""Computable invariants of graph algebras, shifts, and square complexes.

The package is organized around five capabilities:

* ``graphs``    -- finite multigraphs, directed edge matrices, the genus-2
                   catalog and its subdivided one-parameter family;
* ``ktheory``   -- exact Smith normal forms and the K-groups of
                   Cuntz-Krieger algebras, with a one-sided stable-
                   isomorphism verdict;
* ``shift``     -- subshifts of finite type: word enumeration, filtration
                   dimensions, Perron data, Parry cylinder measures,
                   coboundary cohomology ranks, letter automorphisms;
* ``triples``   -- finite spectral truncations (defining relations,
                   grading commutators), heat and zeta partial sums with
                   certified tails, summability schedules for filtered
                   algebras, crossed-product spectra and slope fits;
* ``buildings`` -- polygonal presentations, polyhedron assembly with
                   links, stable pairs, four-fold covers, product-of-trees
                   grading dimensions, and the boundary exponent equation.

The ``graphspectra`` CLI exposes each capability with reproducible JSON
output; see the README for examples.  Importing the package loads no
submodule: each public name below is imported from its module on first
use (PEP 562), so a CLI run pays only for the modules its subcommand uses.
"""

import importlib

# submodule -> the public names it defines; each submodule is also an
# attribute of the package before anything has imported it
_EXPORTS = {
    "graphs": """EdgeMatrix FiniteGraph OrientedEdge cayley_schottky_matrix
        directed_edge_matrix genus2_catalog kato_graph permutation_equivalent""",
    "ktheory": """AbelianGroup SmithDecomposition Verdict ck_k_theory
        irreducibility_check smith_normal_form stable_iso_verdict""",
    "shift": """FiltrationDims ParryMeasure PerronData SFTData
        alphabet_automorphisms cohomology_filtration_dims enumerate_words
        filtration_dims from_edge_matrix full_schottky_sft
        parry_cylinder_measure perron_data""",
    "triples": """AFTriple CrossedProductTriple EvenBlock GradingOperator
        SpectralTruncation af_core_dims af_summability_report build_truncation
        crossed_product_spectrum even_double grading_from_sft jlo_phi0
        summability_exponent_fit theta_trace zeta_partial""",
    "buildings": """BipartiteGraph BMGroupData PolygonalPresentation Polyhedron
        bm_group_data family_presentation four_fold_cover
        inclusion_exclusion_check polyhedron_from_presentation
        product_grading_dims solve_tau stable_pairs_check validate_presentation""",
    "errors": "",
    "io": "",
    "cli": "",
}

# public name -> defining submodule
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule that is not imported yet
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
