"""Batch command-line front end.

Subcommands: ``lines`` (catalog and incidence dump), ``group`` (Weyl-group
and subgroup checks), ``iso`` (mod-3 matrix-group verification),
``monodromy`` (loop tracking runs), ``symcheck`` (exact identities) and
``verify-all`` (the whole claim suite; nonzero exit on any failure).
Structured output is a single JSON document with a top-level schema tag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fermat_data, lattice, lines as lines_mod, monodromy, perm, symverify

SCHEMA_VERSION = 1


def _emit(doc: dict, fmt: str) -> None:
    doc = {"schema": SCHEMA_VERSION, **doc}
    if fmt == "structured":
        print(json.dumps(doc, indent=2, sort_keys=True, default=str))
        return
    _emit_text(doc)


def _emit_text(doc: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key, value in doc.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _emit_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                _emit_text(item, indent + 1)
                print()
        else:
            print(f"{pad}{key}: {value}")


def cmd_lines(args) -> int:
    graph = lines_mod.incidence_graph()
    table = lines_mod.coordinate_action_table()
    s4 = lines_mod.s4_group()
    doc = {
        "command": "lines",
        "catalog": lines_mod.catalog_records(),
        "incidence_matrix": graph.tolist(),
        "strongly_regular": list(lines_mod.strongly_regular_parameters(graph)),
        "s4_orbits": perm.orbits(s4),
        "coordinate_action": {
            "".join(map(str, sigma)): perm.format_cycles(p) for sigma, p in sorted(table.items())
        },
    }
    _emit(doc, args.format)
    return 0


def cmd_group(args) -> int:
    claims = [
        monodromy._claim_weyl_reconstruction(),
        monodromy._claim_s4_action(),
        monodromy._claim_subgroup_ladder(),
        monodromy._claim_presentation_and_double_sixes(),
        monodromy._claim_non_reflection(),
        monodromy._claim_preferred_double_six(),
        monodromy._claim_component_structure(),
    ]
    doc = {
        "command": "group",
        "composition_convention": "compose(p, q) applies q first",
        "claims": [c.to_dict() for c in claims],
        "all_passed": all(c.passed for c in claims),
    }
    _emit(doc, args.format)
    return 0 if doc["all_passed"] else 1


def cmd_iso(args) -> int:
    claim = monodromy._claim_exceptional_isomorphism()
    red = lattice.mod3_reduction()
    v = lattice.marking_vectors(fermat_data.PRESENTATION_SIX)
    images = lattice.images_in_po(red, v)
    doc = {
        "command": "iso",
        "claim": claim.to_dict(),
        "reduced_form": red.q5.tolist(),
        "images": {name: [list(r) for r in m] for name, m in images.items()},
        "all_passed": claim.passed,
    }
    _emit(doc, args.format)
    return 0 if claim.passed else 1


def cmd_monodromy(args) -> int:
    spec = (
        monodromy.symmetric_family()
        if args.family == "symmetric"
        else monodromy.full_family()
    )
    report = monodromy.compute_monodromy(spec, budget=args.loops, seed=args.seed)
    if args.format == "structured":
        _emit({"command": "monodromy", **report.to_dict()}, args.format)
    else:
        print(f"family: {report.family}  seed: {report.seed}")
        print(f"budget: {report.budget}  scale: {report.scale}")
        print(report.convention_note)
        for r in report.loops:
            status = "accepted" if r.accepted else f"rejected ({r.failure})"
            print(f"loop {r.index:3d} [{r.kind:8s}] {status}: {r.permutation or '-'}")
        print(f"group order: {report.group['order']}")
        if report.group_elements is not None:
            for cycles in report.group_elements:
                print(f"  element: {cycles}")
        else:
            for cycles in report.group["generators"]:
                print(f"  generator: {cycles}")
        for comp in report.components:
            print(f"  component {comp['label']}: {comp['orbit']} (stabilizer {comp['stabilizer_order']})")
        print(f"invariant violations: {report.invariant_violations}")
        order, bound = report.group["order"], report.bound_order
        if report.conclusive:
            print(f"conclusive: stabilized after {report.stabilized_after} loops at the bound order {bound}")
        elif report.stabilized_after is None:
            print(f"INCONCLUSIVE: budget exhausted before stabilization (order {order}, bound {bound})")
        else:
            print(f"INCONCLUSIVE: stalled at order {order} below the bound {bound}")
    return 0 if report.conclusive else 1


def cmd_symcheck(args) -> int:
    results = symverify.run_all_checks()
    doc = {
        "command": "symcheck",
        "checks": [r.to_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    _emit(doc, args.format)
    return 0 if doc["all_passed"] else 1


def cmd_verify_all(args) -> int:
    report = monodromy.verify_claims(seed=args.seed, include_monodromy=not args.skip_monodromy)
    if args.format == "structured":
        _emit({"command": "verify-all", **report.to_dict()}, args.format)
    else:
        for c in report.claims:
            print(f"{'PASS' if c.passed else 'FAIL'}  {c.claim_id}: {c.description}")
            if not c.passed:
                _emit_text(c.details, indent=1)
        print("all claims passed" if report.all_passed() else "SOME CLAIMS FAILED")
    return 0 if report.all_passed() else 1


def _non_negative_int(text: str) -> int:
    """A seed or a loop budget: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubic27",
        description="27 lines on cubic surfaces: exact group certification and numerical monodromy",
    )
    parser.add_argument("--seed", type=_non_negative_int, default=1, help="random seed")
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="output format",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("lines", help="dump the exact catalog, incidence graph and coordinate action")
    sub.add_parser("group", help="build the Weyl group and run all subgroup checks")
    sub.add_parser("iso", help="verify the mod-3 exceptional isomorphism")

    mon = sub.add_parser("monodromy", help="run a monodromy computation")
    mon.add_argument("--family", choices=("symmetric", "full"), required=True)
    mon.add_argument("--loops", type=_non_negative_int, default=40, help="loop budget")

    sub.add_parser("symcheck", help="run the exact polynomial identities")

    ver = sub.add_parser("verify-all", help="run every claim; nonzero exit on failure")
    ver.add_argument("--skip-monodromy", action="store_true", help="exact claims only")

    return parser


_HANDLERS = {
    "lines": cmd_lines,
    "group": cmd_group,
    "iso": cmd_iso,
    "monodromy": cmd_monodromy,
    "symcheck": cmd_symcheck,
    "verify-all": cmd_verify_all,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early, as in `cubic27 lines | head -2`; point
        # stdout at devnull so the flush at interpreter exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
