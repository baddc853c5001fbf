"""Jet bookkeeping: total derivatives and the prolongation of vertical
contact derivations.

A multi-index is a multiset of spacetime directions, held as a sorted
tuple (`Variable.index`); total derivatives commute, so iterated
derivatives only depend on the multiset.  A contact derivation is
determined by its components on the generating basis; each jet's value
is one total derivative of its parent jet's value.  The variational
derivatives of a density, the sum over the jets v of z of
(-1)^|Lambda| d_Lambda of the partial along v, are built here too
(`variational_derivatives`), for `bicomplex`'s field equations.

A total derivative (`add_total_derivative`) and the action of
`ContactDerivation`, the one graded derivation type (one loop, `_act`;
`prolong_apply` runs it from the left and `brst.KoszulTate.apply` from
the right), each walk the terms once and write straight into one table
through the kernel's one monomial product (`grassmann.add_times`), so
no partial derivative (`Poly.partials`) is built.  The action adds the
total derivative of the parent's value for a term that is exactly +-v;
the total derivative swaps an even factor of exponent 1 whose raised
jet sorts into its own slot in place (see `add_total_derivative`).
"""

from types import MappingProxyType

from .grassmann import _ONE, GvcError, ParityError, accumulate, add_times, common_denominator


def total_derivative(lam, p):
    """d_lam = partial_lam + sum over jets s^A_{lam+Lambda} d/d(s^A_Lambda)."""
    return add_total_derivative(p.ctx.zero(), lam, p).finish()


def add_total_derivative(out, lam, p, sign=1):
    """out += sign * d_lam p (sign +-1) for a polynomial `out`, in place;
    returns `out`, whose denominator `finish` reduces.

    Each jet factor in turn is taken out of its term and its raised jet
    (`Context.raised`) multiplied back in by `add_times`, an odd one at
    slot pos with the sign (-1)^pos; x^lam is lowered, the rest times
    the empty monomial.  A lone even factor whose raised jet sorts into
    its slot takes it, and those terms, already over out's denominator,
    are summed by one `accumulate`, which checks the term limit."""
    raised = p.ctx.raised
    x = p.ctx.coordinate(lam)
    lift = common_denominator(out, p.den) * sign
    terms = out.terms
    swapped = []
    for (ev, od), c in p.terms.items():
        c *= lift
        for pos, (w, e) in enumerate(ev):
            if w.gen.kind == "coordinate":
                if w is not x:
                    continue
                m = _ONE
            else:
                r = raised(w, lam)
                key = r.key
                if e == 1 and (not pos or ev[pos - 1][0].key < key) and (
                        pos + 1 == len(ev) or key < ev[pos + 1][0].key):
                    swapped.append(((ev[:pos] + ((r, 1),) + ev[pos + 1 :], od), c))
                    continue
                m = (((r, 1),), ())
            rest = ev[:pos] + ev[pos + 1 :] if e == 1 else \
                ev[:pos] + ((w, e - 1),) + ev[pos + 1 :]
            add_times(terms, ((m, 1),), rest, od, c if e == 1 else c * e)
        for pos, w in enumerate(od):
            add_times(terms, ((((), (raised(w, lam),)), 1),), ev, od[:pos] + od[pos + 1 :],
                      -c if pos & 1 else c)
    return accumulate(out, swapped, out.den)


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

