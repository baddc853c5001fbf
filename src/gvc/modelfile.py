"""Line-oriented model definition files.

Four sections: [model] holds key = value pairs, [algebra] declares
generators and structure constants, [form] the invariant bilinear form,
[checks] the ordered pipeline list.  Rationals are exact (p or p/q);
every error carries the line it came from.
"""

import sys
from fractions import Fraction

from .grassmann import DEFAULT_MAX_JET_ORDER, DEFAULT_TERM_LIMIT, GvcError
from .superlie import LieSuperalgebra
from .models import GaugeModel, Metric

SECTIONS = ("model", "algebra", "form", "checks")
MODEL_KEYS = ("dimension", "metric", "max_jet_order")
CHECK_NAMES = GaugeModel.PIPELINES


class ParseError(GvcError):
    def __init__(self, message, line, column=1):
        super().__init__("line %d, column %d: %s" % (line, column, message))
        self.line = line
        self.column = column


class ModelSpec:
    """Parsed model description; semantic validation happens on build."""

    def __init__(self):
        self.dimension = None
        self.metric = None
        self.max_jet_order = DEFAULT_MAX_JET_ORDER
        self.algebra = None       # built by parse_model, reused by spec_model
        self.generators = []      # (name, parity)
        # label strings, the Fraction value and its line number
        self.constants = []       # (r, i, j, value, lineno)
        self.form_entries = []    # (i, j, value, lineno)
        self.checks = []


def _rational(text, lineno):
    text = text.strip()
    parts = [part.strip() for part in text.split("/", 1)]
    try:
        return Fraction(*map(int, parts))
    except (ValueError, ZeroDivisionError):
        # Python's int-string conversion limit (0 when unlimited or unknown)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        digits = max(len(p.lstrip("+-")) for p in parts)
        if 0 < limit < digits and all(p.lstrip("+-").isdecimal() for p in parts):
            raise ParseError("a constant of %d digits exceeds Python's limit of %d digits "
                             "for an integer string" % (digits, limit), lineno)
        shown = repr(text) if len(text) <= 40 else "%r... (%d characters)" % (text[:40], len(text))
        raise ParseError("expected an exact rational, got %s" % shown, lineno)


def parse_model(text):
    spec = ModelSpec()
    section = None
    declared = set()
    keys = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SECTIONS:
                raise ParseError("unknown section %r" % (name,), lineno)
            section = name
            continue
        if section is None:
            raise ParseError("content before the first section header", lineno)
        if section == "model":
            if "=" not in line:
                raise ParseError("expected key = value", lineno)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key in keys:
                raise ParseError("duplicate key %r in [model]" % (key,), lineno)
            keys.add(key)
            if key == "dimension":
                try:
                    spec.dimension = int(value)
                except ValueError:
                    raise ParseError("dimension must be an integer", lineno)
                if not 1 <= spec.dimension <= 4:
                    raise ParseError("dimension must lie in 1..4", lineno)
            elif key == "metric":
                if not value or any(ch not in "+-" for ch in value):
                    raise ParseError("metric must be a signature of + and -", lineno)
                spec.metric = value
            elif key == "max_jet_order":
                try:
                    spec.max_jet_order = int(value)
                except ValueError:
                    raise ParseError("max_jet_order must be an integer", lineno)
                if spec.max_jet_order < 1:
                    raise ParseError("max_jet_order must be positive", lineno)
            else:
                raise ParseError("unknown key %r in [model]" % (key,), lineno)
        elif section == "algebra":
            fields = line.split()
            if fields[0] == "generator":
                if len(fields) != 4 or fields[2] != "parity":
                    raise ParseError("expected: generator <name> parity <0|1>", lineno)
                name = fields[1]
                if name in declared:
                    raise ParseError("generator %r declared twice" % (name,), lineno)
                if fields[3] not in ("0", "1"):
                    raise ParseError("parity must be 0 or 1", lineno)
                declared.add(name)
                spec.generators.append((name, int(fields[3])))
            elif fields[0] == "c":
                if len(fields) < 6 or fields[4] != "=":
                    raise ParseError("expected: c <r> <i> <j> = <rational>", lineno)
                r, i, j = fields[1], fields[2], fields[3]
                for lab in (r, i, j):
                    if lab not in declared:
                        raise ParseError("undeclared label %r" % (lab,), lineno)
                value = _rational(" ".join(fields[5:]), lineno)
                spec.constants.append((r, i, j, value, lineno))
            else:
                raise ParseError("unknown directive %r in [algebra]" % (fields[0],), lineno)
        elif section == "form":
            fields = line.split()
            if len(fields) < 5 or fields[0] != "h" or fields[3] != "=":
                raise ParseError("expected: h <i> <j> = <rational>", lineno)
            for lab in (fields[1], fields[2]):
                if lab not in declared:
                    raise ParseError("undeclared label %r" % (lab,), lineno)
            value = _rational(" ".join(fields[4:]), lineno)
            spec.form_entries.append((fields[1], fields[2], value, lineno))
        else:
            name = line
            if name not in CHECK_NAMES:
                raise ParseError("unknown check %r" % (name,), lineno)
            if name in spec.checks:
                raise ParseError("check %r listed twice" % (name,), lineno)
            spec.checks.append(name)
    if spec.dimension is None:
        raise ParseError("missing dimension in [model]", 1)
    if spec.metric is None:
        raise ParseError("missing metric in [model]", 1)
    if len(spec.metric) != spec.dimension:
        raise ParseError("metric signature length differs from dimension", 1)
    if not spec.generators:
        raise ParseError("at least one generator is required", 1)
    spec.algebra = spec_algebra(spec)  # early structural rejection with line information
    return spec


def render_model(spec):
    """Canonical text for a parsed spec: same content, normal whitespace."""
    out = ["[model]"]
    out.append("dimension = %d" % spec.dimension)
    out.append("metric = %s" % spec.metric)
    out.append("max_jet_order = %d" % spec.max_jet_order)
    out.append("")
    out.append("[algebra]")
    for name, parity in spec.generators:
        out.append("generator %s parity %d" % (name, parity))
    for r, i, j, value, _ in spec.constants:
        out.append("c %s %s %s = %s" % (r, i, j, value))
    out.append("")
    out.append("[form]")
    for i, j, value, _ in spec.form_entries:
        out.append("h %s %s = %s" % (i, j, value))
    out.append("")
    out.append("[checks]")
    out.extend(spec.checks)
    return "\n".join(out) + "\n"


def spec_algebra(spec):
    """The algebra a spec declares; an entry the algebra rejects raises a
    ParseError on its line."""
    alg = LieSuperalgebra([n for n, _ in spec.generators],
                          [p for _, p in spec.generators])
    entries = [(alg.set_constant, (r, i, j, value), lineno)
               for r, i, j, value, lineno in spec.constants]
    entries += [(alg.set_form, (i, j, value), lineno)
                for i, j, value, lineno in spec.form_entries]
    for setter, args, lineno in entries:
        try:
            setter(*args)
        except GvcError as exc:
            raise ParseError(str(exc), lineno)
    return alg


def spec_model(spec, max_jet_order=None, term_limit=DEFAULT_TERM_LIMIT):
    algebra = spec.algebra
    metric = Metric.from_signature(spec.metric)
    order = spec.max_jet_order if max_jet_order is None else max_jet_order
    return GaugeModel(algebra, metric, max_jet_order=order, term_limit=term_limit)
