"""Command-line front end.

One subcommand per capability: catalog, ktheory, spectra, af, crossed,
cohomology, building, tau.  Every invocation parses to a replayable
:class:`RunPlan`, executes to a plain dict report, and emits bytes that
are identical across runs for identical inputs (JSON by default; CSV and
text tables for the tabular views).  Module errors surface as JSON with
"code" and "witness" fields and a nonzero exit status.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass

from . import io
from .errors import GraphSpectraError, InvalidInput, InvalidParameter, UsageError


@dataclass(frozen=True)
class RunPlan:
    subcommand: str
    options: tuple  # sorted (key, value) pairs
    fmt: str = "json"
    out: str | None = None

    def option(self, key):
        return dict(self.options).get(key)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, witness=message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="graphspectra", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "csv", "table"], default="json")
        p.add_argument("--out", default=None)

    common(sub.add_parser("catalog", help="genus-2 dual graph catalog"))

    p = sub.add_parser("ktheory", help="K-groups of a 0/1 matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--compare", default=None,
                   help="second matrix for a stable-isomorphism verdict")
    common(p)

    p = sub.add_parser("spectra", help="grading, traces, commutators")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--matrix", default=None)
    p.add_argument("--levels", type=int, default=6)
    p.add_argument("--t", default="1.0", help="comma-separated heat parameters")
    p.add_argument("--s", type=float, default=2.0)
    common(p)

    p = sub.add_parser("af", help="filtered-algebra summability schedule")
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--levels", type=int, default=6)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--q", type=float, default=3.0)
    common(p)

    p = sub.add_parser("crossed", help="crossed-product spectrum slope")
    p.add_argument("--base", choices=["linear", "quadratic", "zero"], default="linear")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--cutoff", type=int, default=200)
    common(p)

    p = sub.add_parser("cohomology", help="filtration cohomology dimensions")
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--matrix", default=None)
    p.add_argument("--levels", type=int, default=3)
    common(p)

    p = sub.add_parser("building", help="polygonal presentations")
    p.add_argument("--q", type=int, default=None, help="family parameter")
    p.add_argument("--file", default=None, help="presentation JSON")
    p.add_argument("--cover", action="store_true")
    p.add_argument("--validate", action="store_true")
    p.add_argument("--links", action="store_true")
    p.add_argument("--stable-pairs", action="store_true")
    p.add_argument("--bm", action="store_true")
    common(p)

    p = sub.add_parser("tau", help="boundary exponent equation")
    p.add_argument("--weights", required=True, help="comma-separated integers >= 2")
    common(p)

    return parser


def parse_invocation(argv) -> RunPlan:
    ns = _build_parser().parse_args(argv)
    options = {k: v for k, v in vars(ns).items()
               if k not in ("subcommand", "format", "out")
               and v is not None and v is not False}
    return RunPlan(ns.subcommand, tuple(sorted(options.items())), ns.format, ns.out)


def _number_list(plan: RunPlan, key: str, kind) -> list:
    """A comma-separated option value as a list of ``kind`` numbers."""
    raw = plan.option(key)
    try:
        return [kind(x) for x in raw.split(",")]
    except ValueError:
        raise InvalidInput(f"--{key} must list {kind.__name__} values separated "
                           "by commas", witness=raw) from None


def render_plan(plan: RunPlan) -> list[str]:
    """Inverse of parse_invocation: an argv that parses back to the plan."""
    argv = [plan.subcommand]
    for key, value in plan.options:
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    argv.extend(["--format", plan.fmt])
    if plan.out:
        argv.extend(["--out", plan.out])
    return argv


def _sft_from_options(plan: RunPlan) -> shift.SFTData:
    from . import shift
    genus = plan.option("genus")
    matrix = plan.option("matrix")
    if matrix is not None:
        return io.load_sft(matrix)
    if genus is None:
        raise UsageError("need --genus or --matrix")
    return shift.full_schottky_sft(genus)


def adaptive_theta(gradings: triples.SFTGradings, t: float) -> triples.ThetaTrace:
    """Heat-trace partial sum at the smallest power-of-two level count
    whose certified tail meets theta_trace's tolerance (capped at 512)."""
    from . import triples
    levels = 16
    while True:
        result = triples.theta_trace(gradings(levels), t)
        if result.converged or levels >= 512:
            return result
        levels *= 2


def execute(plan: RunPlan) -> tuple[dict, list | None]:
    """Run a plan; returns the report and an optional tabular view."""
    handler = {
        "catalog": _run_catalog,
        "ktheory": _run_ktheory,
        "spectra": _run_spectra,
        "af": _run_af,
        "crossed": _run_crossed,
        "cohomology": _run_cohomology,
        "building": _run_building,
        "tau": _run_tau,
    }[plan.subcommand]
    return handler(plan)


def _run_catalog(plan: RunPlan):
    from . import graphs, ktheory
    names = ["wedge_of_two_loops", "theta", "dumbbell"]
    entries = []
    for name, g in zip(names, graphs.genus2_catalog()):
        em = graphs.directed_edge_matrix(g)
        k0, k1 = ktheory.ck_k_theory(em)
        entries.append({
            "name": name,
            "vertices": len(g.vertices),
            "edges": len(g.edges),
            "betti": g.betti_number(),
            "k0": str(k0),
            "k1": str(k1),
        })
    return {"graphs": entries}, entries


def _run_ktheory(plan: RunPlan):
    from . import ktheory
    a = io.load_matrix(plan.option("matrix"))
    k0, k1 = ktheory.ck_k_theory(a)
    report = io.k_theory_to_dict(k0, k1)
    rows = [{"group": "k0", "rank": k0.rank,
             "torsion": ",".join(map(str, k0.torsion)), "display": str(k0)},
            {"group": "k1", "rank": k1.rank, "torsion": "", "display": str(k1)}]
    other = plan.option("compare")
    if other:
        verdict = ktheory._stable_iso_verdict(a, k0, io.load_matrix(other))
        report["verdict"] = verdict.value
    return report, rows


def _run_spectra(plan: RunPlan):
    from . import shift, triples
    s = _sft_from_options(plan)
    levels = plan.option("levels")
    ts = _number_list(plan, "t", float)
    zeta_s = plan.option("s")
    for t in ts:  # before any work
        triples.check_heat_parameter(t)
    triples.check_zeta_exponent(zeta_s)

    perron = shift.perron_data(s)
    triples.check_truncation_level(s, levels)
    gradings = triples.SFTGradings(s, perron)
    theta_rows = []
    for t in ts:
        res = adaptive_theta(gradings, t)
        theta_rows.append({"t": res.t, "partial": res.partial,
                           "tail_bound": res.tail_bound})
    zeta = triples.zeta_partial(gradings(max(levels, 48)), zeta_s)
    norms, residuals = triples.level_certificates(s, levels, perron)
    # k_i = 1 for every letter: see SpectralTruncation.weight_depth
    commutators = [{"letter": label, "norm": norm, "k_i": 1}
                   for label, norm in zip(s.labels, norms)]
    report = {
        "lambda_max": perron.value,
        "delta_h": perron.exponent,
        "theta": theta_rows if len(theta_rows) > 1 else theta_rows[0],
        "zeta": {"s": zeta_s, "partial": zeta.partial, "diagnosis": zeta.diagnosis},
        "commutators": commutators,
        "ck_residuals": residuals,
    }
    return report, theta_rows


def _run_af(plan: RunPlan):
    from . import shift, triples
    s = shift.full_schottky_sft(plan.option("genus"))
    levels, p_val, q_val = plan.option("levels"), plan.option("p"), plan.option("q")
    if levels < 1:  # before any level is stepped
        raise InvalidParameter("--levels must be at least 1", witness=levels)
    core = triples.af_core_dims(s, levels - 1)
    af = triples.AFTriple(tuple(level.total for level in core), p_val, q_val)
    rep = triples.af_summability_report(af)
    rows = [{"n": n + 1, "dim": af.dims[n], "partial": rep.partials[n],
             "majorant": rep.majorant_partials[n]}
            for n in range(len(af.dims))]
    report = {
        "p": p_val,
        "q": q_val,
        "dims": list(af.dims),
        "partials": list(rep.partials),
        "majorants": list(rep.majorant_partials),
        "termwise_ok": rep.termwise_ok,
        "partials_ok": rep.partials_ok,
    }
    return report, rows


def _base_spectrum(kind: str, count: int):
    """The base as one SPECTRUM_DTYPE array: 0 once, or j (linear) or j^2
    for j = 1..count, each once."""
    import numpy as np

    from . import triples
    values = np.zeros(1) if kind == "zero" else np.arange(1, count + 1, dtype=np.float64)
    if kind == "quadratic":
        values *= values
    base = np.empty(len(values), dtype=triples.SPECTRUM_DTYPE)
    base["value"] = values
    base["multiplicity"] = 1
    return base


def _run_crossed(plan: RunPlan):
    from . import triples
    kind, count, cutoff = plan.option("base"), plan.option("count"), plan.option("cutoff")
    # refused before the base array is built
    if count < 0:
        raise InvalidParameter("--count must be >= 0", witness=count)
    triples.check_crossed_size((1 if kind == "zero" else count) * (cutoff + 1))
    triple = triples.CrossedProductTriple(_base_spectrum(kind, count), cutoff)
    fit = triples.summability_exponent_fit(triple)
    report = {"slope": fit.slope, "window": list(fit.window), "points": fit.points}
    return report, [report]


def _run_cohomology(plan: RunPlan):
    from . import shift
    s = _sft_from_options(plan)
    levels = plan.option("levels")
    dims = shift.cohomology_filtration_dims(s, levels)
    rows = [{"n": n + 1, "dim": d} for n, d in enumerate(dims)]
    return {"dims": list(dims)}, rows


def _run_building(plan: RunPlan):
    from . import buildings
    q = plan.option("q")
    source = plan.option("file")
    if (q is None) == (source is None):
        raise UsageError("need exactly one of --q or --file")
    pres = buildings.family_presentation(q) if q is not None \
        else io.load_presentation(source)
    covered = bool(plan.option("cover"))
    if covered:
        pres = buildings.four_fold_cover(pres)
    report: dict = {"cover": covered, "presentation": io.presentation_to_dict(pres)}
    if plan.option("validate"):
        expected = None
        if q is not None:
            expected = (buildings.family_cover_link_graphs(q) if covered
                        else [buildings.family_link_graph(q)])
        rep = buildings.validate_presentation(pres, expected)
        report["validation"] = {
            "rotation_closure": rep.rotation_closure.passed,
            "incidence": None if rep.incidence is None else rep.incidence.passed,
            "unique_continuation": rep.unique_continuation.passed,
            "ok": rep.ok,
        }
    if plan.option("links"):
        poly = buildings.polyhedron_from_presentation(pres)
        report["polyhedron"] = {
            "vertices": poly.vertex_count,
            "edges": poly.edge_count,
            "faces": poly.face_count,
            "links_complete_bipartite": [
                link.is_complete_bipartite() for link in poly.links],
        }
    if plan.option("stable_pairs"):
        res = buildings.stable_pairs_check(pres)
        # a witness is a word, or the message that the classes are missing
        report["stable_pairs"] = {"ok": res.ok, "witnesses": [
            w if isinstance(w, str) else list(w) for w in res.witnesses]}
    if plan.option("bm"):
        bm = buildings.bm_group_data(pres)
        report["bm"] = {
            "horizontal_generators": list(bm.horizontal_generators),
            "vertical_generators": list(bm.vertical_generators),
            "valences": list(bm.valences),
            "relations": list(bm.relations),
        }
    return report, None


def _run_tau(plan: RunPlan):
    from . import buildings
    weights = _number_list(plan, "weights", int)
    x = buildings.solve_tau(weights)
    report = {"x": x, "residual": abs(buildings.tau_lhs(weights, x) - 2)}
    return report, [report]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        plan = parse_invocation(argv)
        report, rows = execute(plan)
        pieces = io.emit_pieces(report, plan.fmt, rows)
        if plan.out:
            try:
                with open(plan.out, "wb") as handle:
                    handle.writelines(pieces)
            except OSError as exc:
                raise InvalidInput(f"cannot write {plan.out}: {exc}",
                                   witness=plan.out) from None
    except UsageError as exc:
        sys.stdout.buffer.write(io.emit(
            {"error": {"code": exc.code, "witness": str(exc)}}, "json"))
        return 64
    except GraphSpectraError as exc:
        sys.stdout.buffer.write(io.emit(
            {"error": {"code": exc.code,
                       "witness": repr(exc.witness) if exc.witness is not None
                       else str(exc)}}, "json"))
        return 2
    if not plan.out:
        sys.stdout.buffer.writelines(pieces)
    return 0


if __name__ == "__main__":
    sys.exit(main())
