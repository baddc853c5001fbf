"""Check results and deterministic report rendering."""

import json


class CheckResult:
    """One verified identity: pass/fail plus a residual summary."""

    __slots__ = ("name", "ok", "nonzero", "witness", "seconds")

    def __init__(self, name, ok, nonzero=0, witness="-"):
        self.name = name
        self.ok = bool(ok)
        self.nonzero = nonzero
        self.witness = witness
        self.seconds = None

    @classmethod
    def from_residuals(cls, name, residuals):
        """Summarize a mapping label -> residual polynomial."""
        bad = [(str(k), p) for k, p in sorted(residuals.items(), key=lambda it: str(it[0]))
               if not p.is_zero()]
        if not bad:
            return cls(name, True)
        label, first = bad[0]
        nonzero = sum(len(p.terms) for _, p in bad)
        witness = "%s: %s" % (label, first.leading_monomial())
        return cls(name, False, nonzero, witness)

    @classmethod
    def from_form(cls, name, form):
        if form.is_zero():
            return cls(name, True)
        nonzero = sum(len(p.terms) for p in form.terms.values())
        return cls(name, False, nonzero, form.leading_term())

    def line(self, with_time=True):
        bits = [
            "check %s" % self.name,
            "status %s" % ("pass" if self.ok else "fail"),
            "nonzero %d" % self.nonzero,
            "first %s" % self.witness,
        ]
        if with_time and self.seconds is not None:
            bits.append("time %.3fs" % self.seconds)
        return " | ".join(bits)

    def payload(self, with_time=True):
        out = {
            "check": self.name,
            "status": "pass" if self.ok else "fail",
            "nonzero": self.nonzero,
            "first": self.witness,
        }
        if with_time and self.seconds is not None:
            out["time"] = round(self.seconds, 3)
        return out


class Report:
    """Ordered collection of check results for one model run.

    The JSON serialization mirrors the text rendering line for line, so
    the two stay trivially diffable.
    """

    def __init__(self, header, results, notes=()):
        self.header = header
        self.results = list(results)
        self.notes = list(notes)

    @property
    def ok(self):
        return all(r.ok for r in self.results)

    def lines(self, with_time=True):
        out = ["model %s" % self.header]
        out.extend("note %s" % n for n in self.notes)
        out.extend(r.line(with_time) for r in self.results)
        out.append("result %s" % ("pass" if self.ok else "fail"))
        return out

    def render(self, with_time=True):
        return "\n".join(self.lines(with_time)) + "\n"

    def json_lines(self, with_time=True):
        rows = [{"model": self.header}]
        rows.extend({"note": n} for n in self.notes)
        rows.extend(r.payload(with_time) for r in self.results)
        rows.append({"result": "pass" if self.ok else "fail"})
        return "\n".join(json.dumps(row, sort_keys=True) for row in rows) + "\n"
