"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 usage error, 3 malformed
input file, 141 standard output closed by its reader before all output was
written (the status of a process that SIGPIPE ended; no traceback is
printed).  Class literals use the compact notation ``3l-e1-e2-2e3-e4`` with
an explicit ``--basis`` flag.  Every subcommand accepts ``--format
json|text``; ``curves``, ``h0``, ``pullback`` and ``decompose`` also accept
``--config GENERAL|P1..P6``, and the other commands, which read no
configuration, reject it as a usage error.  ``curves``, ``cover``,
``tables`` and ``decompose`` also accept ``--format csv``; ``h0``,
``pullback``, ``orbits``, ``transport`` and ``verify`` write no CSV, and
``--format csv`` on them is a usage error.  ``verify --format json`` carries
the ``--verbose`` lines.

Each command imports the modules it uses when it runs, so that a short query
such as ``h0`` does not pay for loading the table, cover and symmetry code.
"""

from __future__ import annotations

import argparse
import os
import sys

from .lattice import (
    DivisorClass,
    class_from_json,
    class_to_json,
    get_configuration,
    parse_class_label,
    render_class,
    to_curve_basis,
)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
#: 128 + SIGPIPE, the status a shell reports for a process that SIGPIPE ended.
EXIT_BROKEN_PIPE = 141

#: The `--case` choices: `casework.TABLE_CASES`, spelled out so that parsing
#: the arguments does not import the table code.
TABLE_CASES = ("p4", "p5", "p6")


class InputFileError(Exception):
    pass


def _arg(*flags, **options):
    return flags, options


_CONFIG = _arg("--config", default="GENERAL", help="GENERAL or P1..P6 (default GENERAL)")


def _class_args(basis: str, help_text: str | None = None):
    return (_CONFIG, _arg("--class", dest="cls", required=True, help=help_text),
            _arg("--basis", choices=("standard", "curve"), default=basis))


_SCENARIO = _arg("--scenario", required=True)

#: The `--format` choices of a command that writes text and JSON, and of
#: one that also writes CSV.
_TEXT_JSON = ("json", "text")
_TEXT_JSON_CSV = ("json", "csv", "text")

#: Subcommand name -> handler(args) -> exit code, in declaration order.
_COMMANDS = {}
#: Subcommand name -> (help line, --format choices, arguments besides
#: --format).
_ARGUMENTS = {}


def _command(help_text: str, *arguments, formats: tuple[str, ...] = _TEXT_JSON):
    """Declare the decorated `_cmd_<name>` as the subcommand <name>, which
    writes the output `formats`."""
    def register(handler):
        name = handler.__name__.removeprefix("_cmd_")
        _COMMANDS[name] = handler
        _ARGUMENTS[name] = (help_text, formats, arguments)
        return handler
    return register


def _build_parser(chosen: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `chosen` alone; either prints
    the same usage and errors for a command line that starts with `chosen`."""
    parser = argparse.ArgumentParser(prog="delpezzo", description=(
        "Exact divisor calculus on the degree-5 del Pezzo surface and its degenerations."))
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _ARGUMENTS if chosen is None else (chosen,):
        help_text, formats, arguments = _ARGUMENTS[name]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=formats, default="text")
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    sub.choices = _ARGUMENTS  # the usage line names every command, built or not
    return parser


def _print_json(payload, default=None) -> None:
    import json

    print(json.dumps(payload, indent=2, default=default))


def _print_rows(rows: list[dict], fmt: str, text_renderer=None) -> None:
    if fmt == "json":
        _print_json(rows, default=str)
    elif fmt == "csv":
        if rows:
            import csv
            import io

            buffer = io.StringIO()
            writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
            sys.stdout.write(buffer.getvalue())
    else:
        for row in rows:
            if text_renderer:
                print(text_renderer(row))
            else:
                print("  ".join(f"{k}={v}" for k, v in row.items()))


@_command("negative-curve inventory and incidence matrix", _CONFIG, formats=_TEXT_JSON_CSV)
def _cmd_curves(args) -> int:
    from . import contraction, curves

    cfg = get_configuration(args.config)
    _, matrix = curves.incidence_graph(cfg)
    inventory = curves.negative_curves(cfg)
    if args.format == "json":
        payload = {
            "config": cfg.name,
            "curves": [
                {"class": class_to_json(c.cls, cfg), "kind": c.kind.value,
                 "curve_basis": [str(x) for x in to_curve_basis(c.cls, cfg)]}
                for c in inventory
            ],
            "incidence": [list(row) for row in matrix],
            "singularities": list(contraction.singularity_types(cfg)),
        }
        _print_json(payload)
        return EXIT_OK
    rows = [
        {
            "class": render_class(to_curve_basis(c.cls, cfg)),
            "kind": c.kind.value,
            "row": " ".join(f"{x:>2}" for x in matrix[i]),
        }
        for i, c in enumerate(inventory)
    ]
    _print_rows(rows, args.format)
    if args.format == "text":
        print(f"singularities: {', '.join(contraction.singularity_types(cfg)) or 'none'}")
    return EXIT_OK


@_command("dimension of the space of sections of a class",
          *_class_args("standard", "class literal, e.g. 2l-e1-e2-e3-e4"),
          _arg("--verbose", action="store_true", help="print the fixed-part reduction trace"))
def _cmd_h0(args) -> int:
    from .cohomology import h0_with_trace

    cfg = get_configuration(args.config)
    d = parse_class_label(args.cls, cfg, args.basis)
    trace = h0_with_trace(d, cfg)
    if args.format == "json":
        payload = {
            "config": cfg.name,
            "class": class_to_json(d, cfg, args.basis),
            "h0": trace.value,
        }
        if args.verbose:
            payload["reduction"] = [
                {"curve": class_to_json(c, cfg), "multiplicity": m} for c, m in trace.steps
            ]
        _print_json(payload)
    else:
        print(trace.value)
        if args.verbose:
            for c, m in trace.steps:
                print(f"  - {m} x {render_class(to_curve_basis(c, cfg))}")
            if trace.result is not None:
                print(f"  nef part: {render_class(to_curve_basis(trace.result, cfg))}")
    return EXIT_OK


@_command("numerical pullback through the (-2)-contraction",
          *_class_args("curve", "representative class literal"))
def _cmd_pullback(args) -> int:
    from . import contraction

    cfg = get_configuration(args.config)
    rep = parse_class_label(args.cls, cfg, args.basis)
    pulled = contraction.mumford_pullback(contraction.SigmaClass(rep, cfg))
    coords = to_curve_basis(pulled, cfg)
    if args.format == "json":
        _print_json(class_to_json(pulled, cfg, "curve"))
    else:
        print(render_class(coords))
    return EXIT_OK


@_command("lattice automorphism group and line orbits")
def _cmd_orbits(args) -> int:
    from . import symmetry

    group = symmetry.generate_group()
    report = symmetry.line_transitivity_report()
    orbits = symmetry.line_orbits(group)
    payload = {
        "group_order": len(group),
        "line_orbit_sizes": sorted(len(o) for o in orbits),
        "transitive_on_lines": report.transitive_on_lines,
        "stabilizer_transitive_on_disjoint": report.stabilizer_transitive_on_disjoint,
        "transitive_on_disjoint_pairs": report.transitive_on_disjoint_pairs,
    }
    if args.format == "json":
        _print_json(payload)
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")
    return EXIT_OK


def _parse_automorphism(token: str) -> symmetry.LatticeAutomorphism:
    from . import symmetry

    kind, _, body = token.partition(":")
    try:
        if kind == "perm" and len(body) == 4:
            return symmetry.perm_automorphism(tuple(int(ch) for ch in body))
        if kind == "cremona" and len(body) == 3:
            return symmetry.cremona_automorphism({int(ch) for ch in body})
    except ValueError as exc:
        raise InputFileError(f"bad automorphism {token!r}: {exc}") from exc
    raise InputFileError(
        f"bad automorphism {token!r}; use perm:<4 digits> or cremona:<3 digits>"
    )


@_command("apply automorphisms to a bidouble scenario file", _SCENARIO,
          _arg("--apply", action="append", default=[],
               help="perm:<one-line images, e.g. 1243> or cremona:<3 digits>; repeatable, applied left to right"))
def _cmd_transport(args) -> int:
    from . import covers, symmetry

    data = _load_scenarios(args.scenario)
    if len(data) != 1 or not isinstance(data[0], covers.BidoubleData):
        raise InputFileError(f"{args.scenario}: transport needs a single bidouble scenario")
    current = data[0]
    for token in args.apply:
        current = symmetry.transport_cover_data(current, _parse_automorphism(token))
    payload = {
        "config": current.cfg.name,
        "D1": [class_to_json(c, current.cfg) for c in current.d1],
        "D2": [class_to_json(c, current.cfg) for c in current.d2],
        "D3": [class_to_json(c, current.cfg) for c in current.d3],
        "branch_classes": [render_class(c.coeffs) for c in current.branch_classes],
    }
    if args.format == "json":
        _print_json(payload)
    else:
        for i, part in enumerate((current.d1, current.d2, current.d3), start=1):
            rendered = " + ".join(render_class(c.coeffs) for c in part)
            print(f"D{i} = {rendered} = {render_class(current.branch_classes[i - 1].coeffs)}")
    return EXIT_OK


def _load_scenarios(path: str):
    from . import covers

    try:
        return covers.load_scenario(path)
    except OSError as exc:
        raise InputFileError(f"{path}: {exc.strerror}") from exc
    except (KeyError, ValueError, TypeError) as exc:
        raise InputFileError(f"{path}: {exc}") from exc


@_command("cover invariants from a scenario file", _SCENARIO, formats=_TEXT_JSON_CSV)
def _cmd_cover(args) -> int:
    from . import covers

    scenarios = _load_scenarios(args.scenario)
    rows = []
    for member in scenarios:
        if isinstance(member, covers.BidoubleData):
            inv = covers.bidouble_invariants(member)
            rows.append(
                {
                    "label": "bidouble",
                    "pg": inv.pg,
                    "q": inv.q,
                    "K_sq": inv.k_sq,
                    "bicanonical_is_cover": inv.bicanonical_is_cover,
                }
            )
        else:
            inv = covers.double_cover_invariants(member)
            rows.append(
                {
                    "label": member.label,
                    "chi": str(inv.chi),
                    "chi_integral": inv.chi_is_integral,
                    "K_sq": str(inv.k_sq),
                    "pg_lower": inv.pg_lower,
                    "q_lower": str(inv.q_lower),
                    "albanese_gate": covers.albanese_gate(inv.k_sq, max(0, int(inv.q_lower)))
                    if inv.chi_is_integral
                    else None,
                }
            )
    _print_rows(rows, args.format)
    return EXIT_OK


@_command("enumerate one of the three solution tables",
          _arg("--case", choices=TABLE_CASES, required=True),
          _arg("--no-diff", action="store_true", help="suppress the stderr diff against the published rows"),
          formats=_TEXT_JSON_CSV)
def _cmd_tables(args) -> int:
    from . import casework

    rows = casework.enumerate_table(args.case)
    columns = casework.CONSTRAINT_SYSTEMS[args.case].columns
    dict_rows = [dict(zip(columns, r.as_tuple())) for r in rows]
    _print_rows(dict_rows, args.format)
    if not args.no_diff:
        diff = casework.diff_tables(args.case, rows)
        for line in diff.summary_lines():
            print(line, file=sys.stderr)
    return EXIT_OK


def _parts_selector(selector: str, cfg) -> list[DivisorClass]:
    from . import curves

    if selector == "lines":
        return [c.cls for c in curves.minus_one_curves(cfg)]
    if selector == "rulings":
        return list(curves.ruling_classes(cfg, False))
    if selector.startswith("file:"):
        return _parts_from_file(selector[5:], cfg)
    raise InputFileError(f"unknown parts selector {selector!r}")


def _parts_from_file(path: str, cfg) -> list[DivisorClass]:
    """Integral classes from a JSON list of class objects, each with a
    "coeffs" list; the file's "config" tags are replaced by `cfg`."""
    import json

    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:
        raise InputFileError(f"{path}: {exc}") from exc
    if not isinstance(raw, list) or not all(isinstance(obj, dict) for obj in raw):
        raise InputFileError(f'{path}: expected a JSON list of objects, each with a "coeffs" list')
    out = []
    for obj in raw:
        try:
            cls, _ = class_from_json({**obj, "config": cfg.name})
        except ValueError as exc:
            raise InputFileError(f"{path}: {exc}") from exc
        except ZeroDivisionError as exc:
            raise InputFileError(f"{path}: zero denominator in {obj['coeffs']}") from exc
        if not isinstance(cls, DivisorClass):
            raise InputFileError(f"{path}: part {render_class(cls.coeffs)} is not an integral class")
        out.append(cls)
    return out


@_command("split a class into effective parts", *_class_args("standard"),
          _arg("--parts", default="lines",
               help="parts selector: lines, rulings, or file:<json list of class objects>"),
          _arg("--max-parts", type=int, default=2), formats=_TEXT_JSON_CSV)
def _cmd_decompose(args) -> int:
    from . import casework

    cfg = get_configuration(args.config)
    target = parse_class_label(args.cls, cfg, args.basis)
    parts = _parts_selector(args.parts, cfg)
    splittings = casework.decompose_class(target, parts, args.max_parts, cfg)
    rows = [
        {"parts": " + ".join(render_class(to_curve_basis(p, cfg)) for p in s) or "(empty)"}
        for s in splittings
    ]
    _print_rows(rows, args.format, text_renderer=lambda r: r["parts"])
    return EXIT_OK


@_command("run the golden verification suite", _arg("--verbose", action="store_true"))
def _cmd_verify(args) -> int:
    from . import verify

    ok, lines = verify.run_verification(verbose=args.verbose or args.format == "json")
    if args.format == "json":
        _print_json({"ok": ok, "checks": lines})
    else:
        for line in lines:
            print(line)
        print("verification " + ("PASSED" if ok else "FAILED"))
    return EXIT_OK if ok else EXIT_MISMATCH


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except InputFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (e.g. `| head`).  Python's SIGPIPE recipe:
        # point stdout at devnull, so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
