"""Jet bookkeeping: total derivatives and the prolongation of vertical
contact derivations.

A multi-index is a multiset of spacetime directions, held as a sorted
tuple (`Variable.index`); total derivatives commute, so iterated
derivatives only depend on the multiset.  A total
derivative is one loop over the terms that writes each raised term
straight into the caller's sum (`add_total_derivative`).  A contact
derivation is determined by its components on the generating basis; it
acts on jets of a field through total derivatives of the component, and
each jet's value is one total derivative of its parent jet's value.
The variational derivatives of a density, the sum over the jets v of z
of (-1)^|Lambda| d_Lambda of the partial along v, are built here too
(`variational_derivatives`), for `bicomplex`'s field equations.
`ContactDerivation` is the one graded derivation type, with one action
loop (`ContactDerivation._act`): `prolong_apply` runs it from the left
and `brst.KoszulTate.apply` from the right.  The loop walks p's terms
once, takes each factor the derivation moves out of its term in place
and multiplies that jet's value by the remainder straight into one
table through the kernel's one monomial product (`grassmann.add_times`),
so no partial derivative (`Poly.partials`) is built; a term that
is exactly +-v adds the total derivative of the parent's value instead
of building v's own.
"""

from types import MappingProxyType

from .grassmann import GvcError, ParityError, accumulate, add_times, common_denominator


def total_derivative(lam, p):
    """d_lam = partial_lam + sum over jets s^A_{lam+Lambda} d/d(s^A_Lambda)."""
    return add_total_derivative(p.ctx.zero(), lam, p).finish()


def add_total_derivative(out, lam, p, sign=1):
    """out += sign * d_lam p (sign +-1) for a polynomial `out`, in place;
    returns `out`, whose denominator `finish` reduces.

    One loop over the terms: in each monomial every jet factor in turn is
    traded for its raised jet (`Context.raised`), which takes the factor's
    slot when it still sorts between the slot's neighbours, and a factor
    x^lam is lowered; each result is summed into `out` as `accumulate`
    does, and the term limit is checked at the end."""
    ctx = p.ctx
    raised = ctx.raised
    x = ctx.coordinate(lam)
    lift = common_denominator(out, p.den) * sign
    terms = out.terms
    setdefault = terms.setdefault
    for (ev, od), c in p.terms.items():
        if lift != 1:
            c *= lift
        last = len(ev) - 1
        for pos, (w, e) in enumerate(ev):
            if w.gen.kind == "coordinate":
                if w is not x:
                    continue
                if e == 1:
                    m = (ev[:pos] + ev[pos + 1 :], od)
                else:
                    m = (ev[:pos] + ((w, e - 1),) + ev[pos + 1 :], od)
            else:
                r = raised(w, lam)
                key = r.key
                if e == 1 and (not pos or ev[pos - 1][0].key < key) and (
                        pos == last or key < ev[pos + 1][0].key):
                    # r sorts where w stood: swap it into the slot
                    m = (ev[:pos] + ((r, 1),) + ev[pos + 1 :], od)
                else:
                    rest = ev[:pos] + ev[pos + 1 :] if e == 1 else \
                        ev[:pos] + ((w, e - 1),) + ev[pos + 1 :]
                    at = 0
                    for u, f in rest:
                        if u.key >= key:
                            break
                        at += 1
                    if at < len(rest) and rest[at][0] is r:
                        m = (rest[:at] + ((r, rest[at][1] + 1),) + rest[at + 1 :], od)
                    else:
                        m = (rest[:at] + ((r, 1),) + rest[at:], od)
            ce = c if e == 1 else c * e
            n = len(terms)
            s = setdefault(m, ce)
            if len(terms) == n:
                s += ce
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        for pos, w in enumerate(od):
            r = raised(w, lam)
            rest = od[:pos] + od[pos + 1 :]
            key = r.key
            at = 0
            for u in rest:
                if u.key >= key:
                    break
                at += 1
            if at < len(rest) and rest[at] is r:
                continue
            # moving r from slot pos to slot at passes |pos - at| odd factors
            m = (ev, rest[:at] + (r,) + rest[at:])
            ce = -c if (pos - at) & 1 else c
            n = len(terms)
            s = setdefault(m, ce)
            if len(terms) == n:
                s += ce
                if s:
                    terms[m] = s
                else:
                    del terms[m]
    ctx.check_terms(len(terms))
    return out


def iterated_derivative(index, p):
    """d_Lambda, the composition of total derivatives over a multi-index."""
    for lam in index:
        p = total_derivative(lam, p)
    return p


def variational_derivative(density, gen, side="left"):
    """delta/delta(z) of a density for one generator, left or right."""
    ctx = density.ctx
    if isinstance(gen, str):
        gen = ctx.generator(gen)
    return variational_derivatives(density, side, (gen,)).get(gen, ctx.zero())


def variational_derivatives(density, side="left", gens=None, index=None):
    """delta/delta(z) of a density for every generator z in `gens` (every
    non-coordinate generator when None) that occurs, by generator: the
    sum over the jets v of z of (-1)^|Lambda| d_Lambda of the partial
    along v, accumulated in place; the last total derivative of each jet
    writes straight into its generator's table.  `index`, when given, is
    the density's kept `terms_by_variable()` (`Poly.partials`)."""
    ctx = density.ctx
    comps = {}
    for v, dv in density.partials(side, gens, index):
        if gens is None and v.gen.kind == "coordinate":
            continue
        table = comps.setdefault(v.gen, ctx.zero())
        if v.index:
            add_total_derivative(table, v.index[-1], iterated_derivative(v.index[:-1], dv),
                                 -1 if len(v.index) & 1 else 1)
        else:
            accumulate(table, dv.terms.items(), dv.den)
    return {gen: table.finish() for gen, table in comps.items() if table.terms}


class ContactDerivation:
    """A vertical generalized vector field given by its components.

    `components` maps generators to polynomials; the derivation acts on
    the jet s^A_Lambda by the Lambda-th total derivative of the component
    on s^A, which is the infinite prolongation of the underlying field
    transformation.  The table is read-only, so a derivation a caller
    keeps (`GaugeModel` trusts its own by identity) cannot change.
    """

    __slots__ = ("ctx", "components", "parity", "_values")

    def __init__(self, ctx, components, parity):
        self.ctx = ctx
        self.parity = parity
        self._values = {}  # jet variable -> contract_variable value
        table = {}
        for gen, comp in components.items():
            if isinstance(gen, str):
                gen = ctx.generator(gen)
            if gen.name not in ctx.generators:
                raise GvcError("component on unregistered field %r" % (gen.name,))
            if gen.kind == "coordinate":
                raise GvcError("contact derivations here are vertical; no d/dx components")
            if comp.is_zero():
                continue
            cp = comp.parity()
            if cp is None or cp != (gen.parity + parity) % 2:
                raise ParityError(
                    "component on %s must have parity %d"
                    % (gen.name, (gen.parity + parity) % 2)
                )
            table[gen] = comp
        self.components = MappingProxyType(table)

    def component(self, gen):
        if isinstance(gen, str):
            gen = self.ctx.generator(gen)
        return self.components.get(gen, self.ctx.zero())

    def is_zero(self):
        return not self.components

    def apply(self, p):
        """The prolonged derivation acting on p from the left."""
        return prolong_apply(self, p)

    def contract_variable(self, v):
        """Value on the jet variable v, d_Lambda of the component on v's
        field: the component itself on v's field, else one total
        derivative of the value on v's parent jet (Lambda less its last
        direction); computed once per variable and kept."""
        val = self._values.get(v)
        if val is None:
            comp = self.components.get(v.gen)
            if comp is None:
                val = self.ctx.zero()
            elif not v.index:
                val = comp
            else:
                val = total_derivative(v.index[-1], self.contract_variable(
                    self.ctx.jet(v.gen, v.index[:-1])))
            self._values[v] = val
        return val

    def _act(self, p, right=False):
        """The prolonged derivation on p: sum over the jets v it moves of
        value(v) * d_left p/dv, or d_right p/dv * value(v) when `right`,
        summed into one table in one walk over p's terms.

        Each factor v of a term is taken out in place, with the partial's
        sign and exponent, and v's kept value (`contract_variable`) is
        multiplied by the remainder in one `add_times`, the value on the
        left; no partial derivative is built.  A right action moves the
        value's odd word, of parity |v| + |theta|, past the remainder's,
        so it negates v's numerator when both are odd.  A term that is
        exactly +-v, for a jet of order at least one whose value is not
        kept yet, adds the total derivative of its parent's value instead,
        so that value, used once, is never built.  The term limit is
        checked after every term of p."""
        ctx = p.ctx
        comps = self.components
        values = self._values
        out = ctx.zero()
        terms = out.terms
        limit = ctx.term_limit
        pden = p.den
        for (ev, od), c in p.terms.items():
            moved = []
            for pos, (w, e) in enumerate(ev):
                if w.gen in comps:
                    rest = ev[:pos] + ev[pos + 1 :] if e == 1 else \
                        ev[:pos] + ((w, e - 1),) + ev[pos + 1 :]
                    moved.append((w, rest, od, c if e == 1 else c * e))
            n = len(od)
            for pos, w in enumerate(od):
                if w.gen in comps:
                    flips = n - 1 - pos if right else pos
                    moved.append((w, ev, od[:pos] + od[pos + 1 :], -c if flips & 1 else c))
            for w, evr, odr, cw in moved:
                val = values.get(w)
                if val is None:
                    if w.index and not evr and not odr and (cw == pden or cw == -pden):
                        parent = self.contract_variable(ctx.jet(w.gen, w.index[:-1]))
                        if parent.terms:
                            add_total_derivative(out, w.index[-1], parent, cw // pden)
                        continue
                    val = self.contract_variable(w)
                if not val.terms:
                    continue
                den = pden * val.den
                if out.den % den:
                    common_denominator(out, den)
                cw *= out.den // den
                if right and w.parity != self.parity and len(odr) & 1:
                    cw = -cw
                add_times(terms, val.terms.items(), evr, odr, cw)
            if limit is not None and len(terms) > limit:
                ctx.check_terms(len(terms))
        return out.finish()


def prolong_apply(theta, p):
    """Apply the prolonged derivation: sum_v d_Lambda(v^A) * d_left/dv p,
    over the variables of the fields theta moves."""
    return theta._act(p)

