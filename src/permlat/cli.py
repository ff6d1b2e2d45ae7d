"""Command-line surface: group ingestion, reports, bound checks, verification.

Exit codes: 0 success, 1 an asserted check failed, 2 input/usage error.
JSON output is deterministic byte-for-byte for a fixed configuration: keys
are emitted in fixed construction order and rationals are serialized as
numerator/denominator decimal strings. The ``approx`` field on rationals is
a convenience float rendering and is not normative.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Optional

from . import cache as cache_mod
from .bounds import (CLAIM_CHOICES, READINGS, BoundCheckResult, BoundInstance,
                     BoundRow, factorization_instance_count, iter_bound_results)
from .catalog import catalog_groups
from .degrees import DegreeReport, build_degree_report
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    GroupSpecError,
    OrderCapError,
    _bits,
    fitting_subgroup,
    load_group_file,
    make_named,
    prime_signature,
)
from .lattice import (
    CONVENTIONS,
    LatticeCapError,
    SubgroupLattice,
    all_subgroups,
    is_modular_lattice,
    is_quasihamiltonian,
    maximal_subgroups,
    moebius_table,
    normal_subgroups,
    perp,
    selection_meet_join_closed,
    subnormal_subgroups,
    sylow_subgroups,
    sylow_subset_of_maximal,
)
from .moebius import conjectured_mu_symmetric, predicted_mu_symmetric
from .verify import run_verification


def _resolve_group(args: argparse.Namespace) -> FiniteGroup:
    if args.group and args.input:
        raise GroupSpecError("give either --group or --input, not both")
    if args.group:
        return make_named(args.group, max_order=args.max_order)
    if args.input:
        return load_group_file(args.input, max_order=args.max_order)
    raise GroupSpecError("a group is required: use --group or --input")


# -- serialization helpers ----------------------------------------------------

def frac_json(value: Optional[Fraction]) -> Optional[dict]:
    if value is None:
        return None
    return {
        "num": str(value.numerator),
        "den": str(value.denominator),
        "approx": format(float(value), ".12g"),
    }


def frac_text(value: Optional[Fraction]) -> str:
    if value is None:
        return "undefined"
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def count_text(value: Optional[int]) -> str:
    return "undefined" if value is None else str(value)


def emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def emit_json_list(payload: dict, key: str, texts: Iterable[str]) -> None:
    """Print ``json.dumps({**payload, key: rows}, indent=2)`` with the same
    bytes, given each row's ``json.dumps(row, indent=2)`` one at a time, so
    no list of rows is held. ``key`` is the payload's last key."""
    empty = json.dumps({**payload, key: []}, indent=2)
    out = sys.stdout
    out.write(empty[:-len("[]\n}")] + "[")
    sep = "\n"
    for text in texts:
        out.write(sep + "    " + text.replace("\n", "\n    "))
        sep = ",\n"
    out.write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")


def emit_csv(header: list[str], rows: Iterable[list[str]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)


def emit_kv_table(pairs: list[tuple[str, str]]) -> None:
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k.ljust(width)}  {v}")


# -- subcommands ---------------------------------------------------------------

def cmd_info(args: argparse.Namespace) -> int:
    g = _resolve_group(args)
    fit = fitting_subgroup(g)
    fit_order = fit.bit_count()
    cent_order = g.centralizer_of_set_mask(fit).bit_count()
    sig = prime_signature(g.order)
    pairs = [
        ("group", g.name),
        ("order", str(g.order)),
        ("prime divisors", ",".join(str(p) for p in sig.primes) or "-"),
        ("abelian", str(g.is_abelian).lower()),
        ("nilpotent", str(g.is_nilpotent).lower()),
        ("solvable", str(g.is_solvable).lower()),
        ("cyclic", str(g.is_cyclic).lower()),
        ("fitting subgroup order", str(fit_order)),
        ("centralizer of fitting order", str(cent_order)),
        ("index of that centralizer", str(g.order // cent_order)),
    ]
    if args.format == "json":
        emit_json({
            "group": g.name,
            "order": g.order,
            "prime_divisors": list(sig.primes),
            "abelian": g.is_abelian,
            "nilpotent": g.is_nilpotent,
            "solvable": g.is_solvable,
            "cyclic": g.is_cyclic,
            "fitting_order": fit_order,
            "fitting_elements": list(_bits(fit)),
            "centralizer_of_fitting_order": cent_order,
            "centralizer_index": g.order // cent_order,
        })
    elif args.format == "csv":
        emit_csv([k for k, _ in pairs], [[v for _, v in pairs]])
    else:
        emit_kv_table(pairs)
    return 0


def _node_flags(lat: SubgroupLattice, convention: str):
    normal = normal_subgroups(lat).members_mask
    subnormal = subnormal_subgroups(lat).members_mask
    sylow = sylow_subgroups(lat).members_mask
    maximal = 0
    if len(lat) > 1:
        maximal = maximal_subgroups(lat, convention).members_mask
    return normal, subnormal, sylow, maximal


def cmd_lattice(args: argparse.Namespace) -> int:
    g = _resolve_group(args)
    lat = cache_mod.cached_lattice(args.cache, g)
    normal, subnormal, sylow, maximal = _node_flags(lat, args.convention)
    pall = perp(lat, all_subgroups(lat))
    diagnostics = {
        "modular": is_modular_lattice(lat),
        "quasihamiltonian": is_quasihamiltonian(lat),
        "perp_of_all_meet_join_closed": selection_meet_join_closed(lat, pall),
        "sylow_subset_of_maximal_raw": sylow_subset_of_maximal(lat, "raw"),
    }
    rows = []
    for i, mask in enumerate(lat.masks):
        rows.append({
            "index": i,
            "order": mask.bit_count(),
            "elements": list(_bits(mask)),
            "normal": bool(normal >> i & 1),
            "subnormal": bool(subnormal >> i & 1),
            "maximal": bool(maximal >> i & 1),
            "sylow": bool(sylow >> i & 1),
        })
    if args.format == "json":
        emit_json({
            "group": g.name,
            "order": g.order,
            "convention": args.convention,
            "node_count": len(lat),
            "diagnostics": diagnostics,
            "nodes": rows,
        })
    elif args.format == "csv":
        emit_csv(
            ["index", "order", "normal", "subnormal", "maximal", "sylow"],
            [[str(r["index"]), str(r["order"]), str(r["normal"]).lower(),
              str(r["subnormal"]).lower(), str(r["maximal"]).lower(),
              str(r["sylow"]).lower()] for r in rows],
        )
    else:
        print(f"{g.name}: {len(lat)} subgroups (convention {args.convention})")
        for key, value in diagnostics.items():
            print(f"  {key}: {str(value).lower()}")
        print(f"{'idx':>4} {'order':>6}  flags")
        for r in rows:
            flags = "".join((
                "n" if r["normal"] else "-",
                "s" if r["subnormal"] else "-",
                "m" if r["maximal"] else "-",
                "y" if r["sylow"] else "-",
            ))
            print(f"{r['index']:>4} {r['order']:>6}  {flags}")
    return 0


def _report_json(report: DegreeReport) -> dict:
    return {
        "group": report.group_name,
        "order": report.order,
        "lattice_size": report.lattice_size,
        "subnormal_count": report.subnormal_count,
        "maximal_raw_count": report.maximal_raw_count,
        "maximal_closed_count": report.maximal_closed_count,
        "sd": frac_json(report.sd),
        "spd": frac_json(report.spd),
        "d": frac_json(report.d),
        "permuting_pair_count": report.permuting_pair_count,
        "quasihamiltonian": report.quasihamiltonian,
        "nilpotent": report.nilpotent,
        "solvable": report.solvable,
        "modular": report.modular,
        "convention": report.convention,
    }


_REPORT_CSV_HEADER = [
    "group", "order", "lattice_size", "subnormal_count", "maximal_raw_count",
    "maximal_closed_count", "sd", "spd", "d", "permuting_pair_count",
    "quasihamiltonian", "nilpotent", "solvable", "modular", "convention",
]


def _report_csv_row(report: DegreeReport) -> list[str]:
    return [
        report.group_name, str(report.order), str(report.lattice_size),
        str(report.subnormal_count),
        "" if report.maximal_raw_count is None else str(report.maximal_raw_count),
        "" if report.maximal_closed_count is None else str(report.maximal_closed_count),
        frac_text(report.sd), frac_text(report.spd), frac_text(report.d),
        str(report.permuting_pair_count),
        str(report.quasihamiltonian).lower(), str(report.nilpotent).lower(),
        str(report.solvable).lower(), str(report.modular).lower(),
        report.convention,
    ]


def _print_report_table(report: DegreeReport) -> None:
    emit_kv_table([
        ("group", report.group_name),
        ("order", str(report.order)),
        ("|L|", str(report.lattice_size)),
        ("|sn|", str(report.subnormal_count)),
        ("|M| raw", count_text(report.maximal_raw_count)),
        ("|M| closed", count_text(report.maximal_closed_count)),
        ("sd", frac_text(report.sd)),
        (f"spd ({report.convention})", frac_text(report.spd)),
        ("d", frac_text(report.d)),
        ("permuting pairs", str(report.permuting_pair_count)),
        ("quasihamiltonian", str(report.quasihamiltonian).lower()),
        ("nilpotent", str(report.nilpotent).lower()),
        ("solvable", str(report.solvable).lower()),
        ("modular lattice", str(report.modular).lower()),
    ])


def cmd_degrees(args: argparse.Namespace) -> int:
    g = _resolve_group(args)
    lat = cache_mod.cached_lattice(args.cache, g)
    report = build_degree_report(lat, args.convention)
    if args.format == "json":
        emit_json(_report_json(report))
    elif args.format == "csv":
        emit_csv(_REPORT_CSV_HEADER, [_report_csv_row(report)])
    else:
        _print_report_table(report)
    return 0


def _bound_json(res: BoundRow) -> dict:
    return {
        "claim": res.claim,
        "hypothesis_satisfied": res.hypothesis_satisfied,
        "reasons": list(res.reasons),
        "bound": frac_json(res.bound),
        "actual": frac_json(res.actual),
        "holds": res.holds,
        "slack": frac_json(res.slack),
        "convention": res.convention,
        "context": dict(sorted(res.context.items())),
    }


def _rows_by_decision(results: Iterable[BoundRow], row, decision_part, view_row):
    """``row(r)`` for each result r. A view's row is ``view_row(part, r)``,
    where ``part = decision_part(r.decision)`` is the text its decision
    gives every view, made once per decision."""
    parts = {}  # id of a decision -> (the decision, its part)
    for r in results:
        if type(r) is not BoundInstance:
            yield row(r)
            continue
        entry = parts.get(id(r.decision))
        if entry is None:
            entry = parts[id(r.decision)] = (r.decision, decision_part(r.decision))
        yield view_row(entry[1], r)


# labels standing in for N and H in the dump of a decision
_N_SLOT, _H_SLOT = "\0n", "\0h"
_N_JSON, _H_JSON = encode_basestring_ascii(_N_SLOT), encode_basestring_ascii(_H_SLOT)


def _bound_json_text(r: BoundRow) -> str:
    return json.dumps(_bound_json(r), indent=2)


def _decision_json(d: BoundCheckResult) -> Optional[tuple[str, str, str]]:
    # the dump of a view of d with stand-in labels, split around them (the
    # context's keys are sorted, h before n); None when a stand-in label
    # appears elsewhere in the dump
    text = _bound_json_text(BoundInstance(d, _N_SLOT, _H_SLOT))
    head, _, rest = text.partition(_H_JSON)
    mid, _, tail = rest.partition(_N_JSON)
    once = text.count(_H_JSON) == text.count(_N_JSON) == 1
    return (head, mid, tail) if once else None


def _view_json(parts: Optional[tuple[str, str, str]], r: BoundInstance) -> str:
    if parts is None:
        return _bound_json_text(r)
    return (parts[0] + encode_basestring_ascii(r.h) + parts[1]
            + encode_basestring_ascii(r.n) + parts[2])


def _bound_json_texts(results: Iterable[BoundRow]) -> Iterator[str]:
    """``json.dumps(_bound_json(r), indent=2)`` for each result. The dumps of
    the views of one decision differ only in the N and H labels, so a
    decision is dumped once with stand-in labels and each of its views fills
    in its own."""
    return _rows_by_decision(results, _bound_json_text, _decision_json, _view_json)


def _decision_csv(d: BoundRow) -> list[str]:
    # a row's fields before its n and h
    return [d.claim, str(d.hypothesis_satisfied).lower(), frac_text(d.bound),
            frac_text(d.actual), "" if d.holds is None else str(d.holds).lower(),
            frac_text(d.slack), d.convention]


def _view_csv(fields: list[str], r: BoundInstance) -> list[str]:
    return fields + [r.n, r.h]


def _bound_csv_row(r: BoundRow) -> list[str]:
    if type(r) is BoundInstance:
        return _view_csv(_decision_csv(r.decision), r)
    return _decision_csv(r) + [r.context.get("n", ""), r.context.get("h", "")]


def _decision_text(d: BoundRow) -> tuple[str, str, str]:
    # a text row around its padded column of labels: "status claim ", the
    # shape that follows a view's labels (the context's keys in sorted
    # order: h, n, shape) and " detail"
    if not d.hypothesis_satisfied:
        status = "n/a "
        detail = "; ".join(d.reasons)
    else:
        status = "ok  " if d.holds else "FAIL"
        detail = f"bound {frac_text(d.bound)} vs actual {frac_text(d.actual)}"
    shape = f" shape={d.context['shape']}" if "shape" in d.context else ""
    return f"{status} {d.claim:<12} ", shape, f" {detail}"


def _view_text(parts: tuple[str, str, str], r: BoundInstance) -> str:
    head, shape, tail = parts
    where = f"h={r.h} n={r.n}{shape}"
    return f"{head}{where:<40}{tail}"


def _bound_text_row(r: BoundRow) -> str:
    if type(r) is BoundInstance:
        return _view_text(_decision_text(r.decision), r)
    head, _, tail = _decision_text(r)
    where = " ".join(f"{k}={v}" for k, v in sorted(r.context.items())
                     if k in ("n", "h", "shape"))
    return f"{head}{where:<40}{tail}"


# a run with more (N, H) instances than this says so on stderr before it starts
LONG_RUN_INSTANCES = 10 ** 5


def cmd_bounds(args: argparse.Namespace) -> int:
    # theorem1 and mu range over neither N nor H, lemma2 and cor26 over N
    # alone; "all" applies each node option to the claims that range over it
    for option, idx, unread in (("--n-node", args.n_node, ("theorem1", "mu")),
                                ("--h-node", args.h_node,
                                 ("lemma2", "cor26", "theorem1", "mu"))):
        if idx is not None and args.claim in unread:
            raise ValueError(f"{option} does not apply to --claim {args.claim}")
    g = _resolve_group(args)
    lat = cache_mod.cached_lattice(args.cache, g)
    count = factorization_instance_count(lat, args.claim, args.n_node, args.h_node)
    if count > LONG_RUN_INSTANCES:
        print(f"note: {count:,} lemma1/cauchy/lb3 instances to check on {g.name}; "
              f"this may take a while", file=sys.stderr)
    # rows are rendered as the driver yields them; the closing line and the
    # exit code come from counts kept on the way
    tally = {"instances": 0, "qualifying": 0, "failed": 0}

    def counted():
        for r in iter_bound_results(lat, args.claim, args.convention,
                                    args.theorem1_reading, args.n_node, args.h_node):
            tally["instances"] += 1
            if r.hypothesis_satisfied:
                tally["qualifying"] += 1
                tally["failed"] += not r.holds
            yield r

    if args.format == "json":
        emit_json_list({"group": g.name}, "results", _bound_json_texts(counted()))
    elif args.format == "csv":
        emit_csv(["claim", "hypothesis_satisfied", "bound", "actual", "holds",
                  "slack", "convention", "n", "h"],
                 _rows_by_decision(counted(), _bound_csv_row, _decision_csv, _view_csv))
    else:
        for line in _rows_by_decision(counted(), _bound_text_row, _decision_text,
                                      _view_text):
            print(line)
        print(f"{tally['instances']} instances, {tally['qualifying']} with "
              f"hypotheses satisfied")
    return 1 if tally["failed"] else 0


def cmd_moebius(args: argparse.Namespace) -> int:
    g = _resolve_group(args)
    lat = cache_mod.cached_lattice(args.cache, g)
    mu = moebius_table(lat).bottom_value
    # n comes from a --group S<n> descriptor only: a file's name is free text
    match = args.group and re.fullmatch(r"S(\d+)", args.group.strip())
    predicted = predicted_mu_symmetric(int(match.group(1))) if match else None
    conjectured = (conjectured_mu_symmetric(int(match.group(1)))
                   if match and int(match.group(1)) > 1 else None)
    agrees = None if predicted is None else (mu == predicted)
    row = {
        "group": g.name,
        "lattice_size": len(lat),
        "mu_bottom": mu,
        "predicted": predicted,
        "agrees": agrees,
        "conjectured": frac_json(conjectured),
    }
    if args.format == "json":
        emit_json(row)
    elif args.format == "csv":
        emit_csv(["group", "lattice_size", "mu_bottom", "predicted", "agrees",
                  "conjectured"],
                 [[g.name, str(len(lat)), str(mu),
                   "" if predicted is None else str(predicted),
                   "" if agrees is None else str(agrees).lower(),
                   "" if conjectured is None else frac_text(conjectured)]])
    else:
        emit_kv_table([
            ("group", g.name),
            ("|L|", str(len(lat))),
            ("mu(1,G)", str(mu)),
            ("predicted", "-" if predicted is None else str(predicted)),
            ("agrees", "-" if agrees is None else str(agrees).lower()),
            ("conjectured", "-" if conjectured is None else frac_text(conjectured)),
        ])
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    reports = []
    for g in catalog_groups(max_order=args.max_order):
        lat = cache_mod.cached_lattice(args.cache, g)
        reports.append(build_degree_report(lat, args.convention))
    if args.format == "json":
        emit_json([_report_json(r) for r in reports])
    elif args.format == "csv":
        emit_csv(_REPORT_CSV_HEADER, [_report_csv_row(r) for r in reports])
    else:
        print(f"{'group':<10} {'order':>5} {'|L|':>5} {'sd':>10} {'spd':>10} {'d':>8}")
        for r in reports:
            print(f"{r.group_name:<10} {r.order:>5} {r.lattice_size:>5} "
                  f"{frac_text(r.sd):>10} {frac_text(r.spd):>10} "
                  f"{frac_text(r.d):>8}")
    return 0


def cmd_verify_paper(args: argparse.Namespace) -> int:
    run = run_verification(max_order=args.max_order, stretch=args.stretch,
                           cache_dir=args.cache)
    if args.format == "json":
        emit_json([
            {"name": o.name, "status": o.status, "detail": o.detail,
             "elapsed_seconds": format(o.elapsed, ".3f")}
            for o in run.outcomes
        ])
    else:
        for o in run.outcomes:
            detail = f"  {o.detail}" if o.detail else ""
            print(f"{o.status:<4} {o.name:<32} ({o.elapsed:6.2f}s){detail}")
        passed = sum(o.status == "PASS" for o in run.outcomes)
        failed = sum(o.status == "FAIL" for o in run.outcomes)
        skipped = sum(o.status == "SKIP" for o in run.outcomes)
        print(f"{passed} passed, {failed} failed, {skipped} skipped")
    return 0 if run.all_ok else 1


# -- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the options it reads, so argparse rejects
    # the others with exit 2 instead of ignoring them
    single = argparse.ArgumentParser(add_help=False)  # commands on one group
    single.add_argument("--group", help="group descriptor, e.g. S4, D6, Z:2,4, S3xC5")
    single.add_argument("--input", help="JSON group file (cayley/permutation/named)")
    convention = argparse.ArgumentParser(add_help=False)
    convention.add_argument("--convention", choices=CONVENTIONS, default="raw",
                            help="maximal-subgroup convention (default raw)")
    capped = argparse.ArgumentParser(add_help=False)  # every command
    capped.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP,
                        help=f"order cap (default {DEFAULT_ORDER_CAP})")
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument("--cache", metavar="DIR", dest="cache",
                       help="lattice cache directory")

    parser = argparse.ArgumentParser(
        prog="permlat",
        description="Exact subgroup-lattice permutability degrees and bounds "
                    "for finite groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, about, *parents, formats=("table", "json", "csv")):
        cmd = sub.add_parser(name, parents=[*parents, capped], help=about)
        cmd.add_argument("--format", choices=formats, default="table")
        return cmd

    command("info", "order, prime divisors, structure flags, Fitting data", single)
    command("lattice", "enumerate the subgroup lattice and node flags",
            single, convention, cache)
    command("degrees", "exact sd / spd / d report for one group",
            single, convention, cache)
    bounds_p = command("bounds", "run lower-bound checks (gate-and-report)",
                       single, convention, cache)
    bounds_p.add_argument("--theorem1-reading", choices=READINGS,
                          default="strict",
                          help="whether a cyclic Fitting-centralizer qualifies "
                               "for the rank-2 bounds (default strict)")
    bounds_p.add_argument("--claim", choices=CLAIM_CHOICES, default="all",
                          help="which bound family to check (default all)")
    bounds_p.add_argument("--n-node", type=int, default=None,
                          help="lattice index of the normal subgroup N")
    bounds_p.add_argument("--h-node", type=int, default=None,
                          help="lattice index of the factor H")
    command("moebius", "bottom Moebius number, with symmetric-group predictions",
            single, cache)
    command("batch", "degree reports for every built-in catalog group",
            convention, cache)
    verify_p = command("verify-paper",
                       "run the whole claim-verification suite on the catalog",
                       cache, formats=("table", "json"))
    verify_p.add_argument("--stretch", action="store_true",
                          help="include the S6 stretch check in verify-paper")
    return parser


COMMANDS = {
    "info": cmd_info,
    "lattice": cmd_lattice,
    "degrees": cmd_degrees,
    "bounds": cmd_bounds,
    "moebius": cmd_moebius,
    "batch": cmd_batch,
    "verify-paper": cmd_verify_paper,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.max_order < 1:
            raise ValueError("--max-order must be >= 1")
        code = COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output (``| head``): point it at
        # devnull so the flush at exit cannot fail again, and exit 1 as
        # Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (GroupSpecError, OrderCapError, LatticeCapError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

if __name__ == "__main__":
    sys.exit(main())
