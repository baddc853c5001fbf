"""Command line front end: parse a model file, dispatch a pipeline,
emit the report.

Exit status: 0 when every check passes, 1 when any check fails, 2 for
parse or usage errors, an unreadable model file, an expansion past
GVC_MAX_TERMS or an unwritable report.  GVC_MAX_TERMS bounds the
monomial count of any intermediate expansion.
"""

import argparse
import os
import sys

from .grassmann import DEFAULT_TERM_LIMIT, ExpansionLimitError, GvcError
from .superlie import check_invariant_form, check_structure
from .models import GaugeModel, model_header, run_parts, validation_parts
from .modelfile import ParseError, parse_model, spec_model
from .reporting import CheckResult, Report

COMMANDS = GaugeModel.PIPELINES + ("full",)


def run(spec, command, max_order=None, deterministic=False,
        term_limit=DEFAULT_TERM_LIMIT):
    """Execute one command against a parsed model spec."""
    header = model_header([p for _, p in spec.generators], spec.metric)
    if command == "validate-algebra":
        algebra = spec.algebra
        parts = validation_parts(algebra, lambda: check_structure(algebra),
                                 lambda: check_invariant_form(algebra))
        return Report(header, run_parts(parts, deterministic))
    try:
        model = spec_model(spec, max_jet_order=max_order, term_limit=term_limit)
    except GvcError as exc:
        return Report(header, [CheckResult(command, False, witness=str(exc))])
    if command == "full":
        pipelines = spec.checks or None
        return model.full_verification(deterministic=deterministic,
                                       pipelines=pipelines)
    results = model.pipeline(command, deterministic=deterministic)
    notes = ()
    if command == "euler-lagrange":
        try:
            notes = model.euler_lagrange_notes()
        except ExpansionLimitError:
            raise
        except GvcError:
            notes = ()
    return Report(header, results, notes)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gvc",
        description="exact checks for graded gauge models on jet coordinates")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--model", required=True, metavar="FILE",
                        help="model definition file")
    parser.add_argument("--report", metavar="FILE",
                        help="also write the report as JSON lines")
    parser.add_argument("--max-order", type=int, default=None,
                        help="override the maximum jet order")
    parser.add_argument("--deterministic", action="store_true",
                        help="omit timing fields for byte-stable output")
    args = parser.parse_args(argv)
    # the bounds a model file's max_jet_order must meet hold here too
    if args.max_order is not None and args.max_order < 1:
        parser.error("--max-order must be positive")

    limit = os.environ.get("GVC_MAX_TERMS")
    if limit is None:
        term_limit = DEFAULT_TERM_LIMIT
    else:
        try:
            term_limit = int(limit)
        except ValueError:
            parser.error("GVC_MAX_TERMS must be an integer")
        if term_limit < 1:
            parser.error("GVC_MAX_TERMS must be positive")

    try:
        with open(args.model, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print("gvc: %s" % exc, file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print("gvc: %s: not UTF-8 text: %s" % (args.model, exc), file=sys.stderr)
        return 2
    try:
        spec = parse_model(text)
    except ParseError as exc:
        print("gvc: %s: %s" % (args.model, exc), file=sys.stderr)
        return 2

    try:
        report = run(spec, args.command, max_order=args.max_order,
                     deterministic=args.deterministic, term_limit=term_limit)
    except GvcError as exc:
        print("gvc: %s" % exc, file=sys.stderr)
        return 2

    sys.stdout.write(report.render(with_time=not args.deterministic))
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(report.json_lines(with_time=not args.deterministic))
        except OSError as exc:
            print("gvc: cannot write report: %s" % exc, file=sys.stderr)
            return 2
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
