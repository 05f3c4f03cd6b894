"""Command-line front end.

Exit codes: 0 = valid / all checks pass, 1 = a mathematical violation,
2 = I/O or schema problem.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import categorical, crossed_modules, lie2_core, o_operators, prelie2_core, ybe
from .fileio import (
    SchemaError,
    StructureFile,
    file_from,
    read_file,
    write_file,
)
from .graded_spaces import TwoTermComplex, end_algebra
from .prelie_base import (
    LieAlgebra,
    LieRep,
    invariant_forms,
    skeletal_from_form,
    standard_reps,
    sub_adjacent,
    validate_cochain,
    validate_prelie,
    validate_prelie_rep,
)
from .report import InvalidStructureError, ValidationReport
from .scalar_tensor import MultiMap
from .ybe import Tensor2Element, cybe_check, graded_cybe_check, o_operator_to_r

OK, VIOLATION, SCHEMA = 0, 1, 2


def _validate_structure(sf: StructureFile) -> ValidationReport:
    obj = sf.structure()
    if sf.kind == "prelie":
        return validate_prelie(obj)
    if sf.kind == "prelie2":
        return prelie2_core.validate(obj)
    if sf.kind == "lie2":
        return lie2_core.validate(obj)
    if sf.kind == "crossed_module":
        return crossed_modules.validate_cm(obj)
    if sf.kind == "o_operator":
        ctx_report = o_operators.validate_context(obj.context)
        return ctx_report.merged(o_operators.validate_o(obj))
    if sf.kind == "rep":
        algebra, rep = obj
        return validate_prelie(algebra).merged(validate_prelie_rep(algebra, rep))
    if sf.kind == "cochain":
        return validate_cochain(obj)
    return ValidationReport()  # rmatrix: schema-only


def _print_report(sf: StructureFile, report: ValidationReport, out=None):
    out = out or sys.stdout
    name = sf.label or "<unlabeled>"
    if report.ok:
        print(f"OK kind={sf.kind} label={name}", file=out)
        return
    print(f"INVALID kind={sf.kind} label={name}", file=out)
    for v in report.violations:
        tag = " (derived)" if v.derived else ""
        defect = ",".join(str(x) for x in v.defect)
        print(f"  condition={v.condition} at={v.where} defect=({defect}){tag}", file=out)


def cmd_verify(args) -> int:
    sf = read_file(args.path)
    expect = "o_operator" if args.o_operator else args.expect
    if expect and sf.kind != expect:
        raise SchemaError(f"expected kind {expect}, file has {sf.kind}")
    report = _validate_structure(sf)
    _print_report(sf, report)
    return OK if report.ok else VIOLATION


def cmd_report(args) -> int:
    sf = read_file(args.path)
    report = _validate_structure(sf)
    if args.format == "json":
        doc = {
            "kind": sf.kind,
            "label": sf.label,
            "ok": report.ok,
            "violations": [
                {
                    "condition": v.condition,
                    "where": list(v.where),
                    "defect": [str(x) for x in v.defect],
                    "derived": v.derived,
                }
                for v in report.violations
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        _print_report(sf, report)
    return OK if report.ok else VIOLATION


def _construct(sf: StructureFile, target: str) -> StructureFile:
    meta = {"label": sf.label, "provenance": sf.provenance}
    if target == "lie2":
        g, _rep = lie2_core.from_prelie2(sf.structure())
        _reverify(lie2_core.validate(g), "constructed 2-algebra")
        return file_from("lie2", g, **meta)
    if target == "crossed-module":
        cm = crossed_modules.from_strict_prelie2(sf.structure())
        _reverify(crossed_modules.validate_cm(cm), "constructed crossed module")
        return file_from("crossed_module", cm, **meta)
    if target == "prelie2":
        a = crossed_modules.to_strict_prelie2(sf.structure())
        _reverify(prelie2_core.validate(a), "constructed structure")
        return file_from("prelie2", a, **meta)
    if target == "skeletal":
        algebra = sf.structure()
        forms = invariant_forms(algebra)
        nonzero = [f for f in forms if not f.omega.is_zero()]
        if not nonzero:
            raise InvalidStructureError(
                "no nonzero skew invariant form exists",
                ValidationReport(),
            )
        built = skeletal_from_form(algebra, nonzero[0])
        _reverify(prelie2_core.validate(built), "constructed skeletal structure")
        return file_from("prelie2", built, **meta)
    if target == "double":
        if sf.kind == "prelie":
            algebra = sf.structure()
            g = sub_adjacent(algebra)
            rep = LieRep(algebra.space, standard_reps(algebra)["left"].rho)
            lifted = _lie_as_lie2(ybe.double_lie_algebra(g, rep))
            _reverify(lie2_core.validate(lifted), "constructed double")
            return file_from("lie2", lifted, **meta)
        _r, _frkr, dbl = ybe.canonical_solution(sf.structure())
        _reverify(lie2_core.validate(dbl), "constructed double")
        return file_from("lie2", dbl, **meta)
    if target == "cybe-solution":
        if sf.kind == "prelie":
            algebra = sf.structure()
            g = sub_adjacent(algebra)
            rep = LieRep(algebra.space, standard_reps(algebra)["left"].rho)
            r = o_operator_to_r(MultiMap.identity(algebra.space), g, rep)
            _reverify_cybe(cybe_check(r), "constructed r-matrix")
            rmatrix = {"g0": 2 * algebra.space.dim, "g1": 0, "r": r.coeffs, "frkr": None}
            return file_from("rmatrix", rmatrix, **meta)
        r, frkr, dbl = ybe.canonical_solution(sf.structure())
        gr = graded_cybe_check(r, frkr, dbl)
        if not gr.ok:
            raise InvalidStructureError(
                "constructed solution fails the graded check",
                ValidationReport(gr.witnesses),
            )
        rmatrix = {"g0": dbl.g0.dim, "g1": dbl.g1.dim, "r": r.coeffs, "frkr": frkr}
        return file_from("rmatrix", rmatrix, **meta)
    if target == "end-algebra":
        structure = sf.structure()
        if sf.kind == "prelie2":
            complex_ = TwoTermComplex(structure.a0, structure.a1, structure.dm)
        else:
            complex_ = TwoTermComplex(structure.g0, structure.g1, structure.dk)
        end = end_algebra(complex_)
        _reverify(lie2_core.validate(end.lie2), "constructed endomorphism algebra")
        return file_from("lie2", end.lie2, **meta)
    if target == "semidirect-lie":
        flat = lie2_core.semidirect_lie_algebra(sf.structure())
        lifted = _lie_as_lie2(flat)
        _reverify(lie2_core.validate(lifted), "constructed semidirect algebra")
        return file_from("lie2", lifted, **meta)
    raise SchemaError(f"unknown construct target: {target}")


def _lie_as_lie2(g) -> "lie2_core.Lie2Algebra":
    from .lie2_core import Lie2Algebra
    from .scalar_tensor import Space

    g1 = Space(0, g.space.label + "1")
    return Lie2Algebra(
        g.space,
        g1,
        MultiMap.zero((g1,), g.space),
        g.bracket,
        MultiMap.zero((g.space, g1), g1),
        MultiMap.zero((g.space, g.space, g.space), g1),
    )


def _reverify(report: ValidationReport, what: str):
    if not report.ok:
        raise InvalidStructureError(f"{what} failed re-verification", report)


def _reverify_cybe(report: ValidationReport, what: str):
    if not report.ok:
        raise InvalidStructureError(f"{what} fails the Yang-Baxter check", report)


_TARGET_KINDS = {
    "lie2": {"prelie2"},
    "crossed-module": {"prelie2"},
    "prelie2": {"crossed_module"},
    "skeletal": {"prelie"},
    "double": {"prelie", "prelie2"},
    "cybe-solution": {"prelie", "prelie2"},
    "end-algebra": {"prelie2", "lie2"},
    "semidirect-lie": {"lie2"},
}


def cmd_construct(args) -> int:
    sf = read_file(args.path)
    allowed = _TARGET_KINDS.get(args.target)
    if allowed is None:
        raise SchemaError(f"unknown construct target: {args.target}")
    if sf.kind not in allowed:
        raise SchemaError(
            f"target {args.target} needs kind in {sorted(allowed)}, file has {sf.kind}"
        )
    out = _construct(sf, args.target)
    write_file(args.out, out)
    print(f"wrote {args.out}")
    return OK


def cmd_cybe_check(args) -> int:
    structure = read_file(args.structure)
    rmat = read_file(args.rmatrix)
    if structure.kind != "lie2":
        raise SchemaError("cybe-check needs a lie2 structure file")
    if rmat.kind != "rmatrix":
        raise SchemaError("cybe-check needs an rmatrix file")
    g = structure.structure()
    data = rmat.structure()
    if data["g0"] != g.g0.dim or data["g1"] != g.g1.dim:
        raise SchemaError("r-matrix dims do not match the structure")
    if g.g1.dim == 0:
        flat = LieAlgebra(g.g0, g.l2_00)
        r = Tensor2Element(flat, data["r"])
        report = cybe_check(r)
        print(f"cybe_ok={report.ok}")
        for v in report.violations[:10]:
            print(f"  witness at={v.where} value={v.defect[0]}")
        return OK if report.ok else VIOLATION
    flat, degrees = ybe.flatten_strict(g)
    r = Tensor2Element(flat, data["r"], degrees)
    gr = graded_cybe_check(r, data["frkr"], g)
    print(f"skew_ok={gr.skew_ok}")
    print(f"cybe_ok={gr.cybe_ok}")
    print(f"closedness_ok={gr.closedness_ok}")
    for v in gr.witnesses[:10]:
        print(f"  witness condition={v.condition} at={v.where} value={v.defect[0]}")
    return OK if gr.ok else VIOLATION


def cmd_roundtrip(args) -> int:
    sf = read_file(args.path)
    if sf.kind != "prelie2":
        raise SchemaError("roundtrip needs a prelie2 file")
    a = sf.structure()
    stage = "validate-input"
    report = prelie2_core.validate(a)
    if not report.ok:
        print(f"FAIL stage={stage} conditions={','.join(report.conditions())}")
        return VIOLATION
    try:
        stage = "functor-T"
        c = categorical.functor_T(a)
        stage = "functor-laws"
        law_report = categorical.validate_cat(c)
        if not law_report.ok:
            print(f"FAIL stage={stage} conditions={','.join(law_report.conditions())}")
            return VIOLATION
        stage = "functor-S"
        back = categorical.functor_S(c)
        if back != a:
            print(f"FAIL stage={stage} (round trip differs)")
            return VIOLATION
        stage = "hom-roundtrip"
        ident = prelie2_core.identity_hom(a)
        phi = categorical.hom_T(ident, a, a)
        if categorical.hom_S(phi, c, c) != ident:
            print(f"FAIL stage={stage}")
            return VIOLATION
        stage = "alpha"
        iso = categorical.alpha_iso(c)
        if not iso.ok:
            print(f"FAIL stage={stage} conditions={','.join(iso.report.conditions())}")
            return VIOLATION
    except InvalidStructureError as exc:
        print(f"FAIL stage={stage} ({exc})")
        return VIOLATION
    print("roundtrip OK (split, homs, comparison isomorphism)")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prelie2",
        description="verify and construct 2-term pre-Lie structures exactly",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="validate a structure file")
    p.add_argument("path")
    p.add_argument("--expect", choices=sorted({k for ks in _TARGET_KINDS.values() for k in ks} | {"o_operator", "rep", "cochain", "rmatrix"}))
    p.add_argument("--o-operator", action="store_true", help="shorthand for --expect o_operator")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="derive a new structure file")
    p.add_argument("target", choices=sorted(_TARGET_KINDS))
    p.add_argument("path")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("cybe-check", help="check an r-matrix against a structure")
    p.add_argument("structure")
    p.add_argument("rmatrix")
    p.set_defaults(func=cmd_cybe_check)

    p = sub.add_parser("roundtrip", help="drive the categorified round trip")
    p.add_argument("path")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("report", help="full validation report")
    p.add_argument("path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return SCHEMA
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return SCHEMA
    except InvalidStructureError as exc:
        print(f"invalid structure: {exc}", file=sys.stderr)
        return VIOLATION


if __name__ == "__main__":
    sys.exit(main())
