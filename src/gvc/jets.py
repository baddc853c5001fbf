"""Jet bookkeeping: symmetric multi-indices, total derivatives and the
prolongation of vertical contact derivations.

A multi-index is a multiset of spacetime directions; total derivatives
commute, so iterated derivatives only depend on the multiset.  A total
derivative is one loop over the terms that writes each raised term
straight into the caller's sum (`add_total_derivative`).  A contact
derivation is determined by its components on the generating basis; it
acts on jets of a field through total derivatives of the component, and
each jet's value is one total derivative of its parent jet's value.
`ContactDerivation` is the one graded derivation type: it acts from the
left (`prolong_apply`); `brst.KoszulTate` overrides `apply` to act from
the right.  Both walk only the partials along the derivation's
components, and a jet whose partial is the constant +-1 adds its total
derivative straight into the result instead of building its value.
"""

from .grassmann import GvcError, ParityError, add_product, common_denominator


class MultiIndex:
    """Multiset of spacetime indices, order-insensitive by construction."""

    __slots__ = ("indices",)

    def __init__(self, *indices):
        if len(indices) == 1 and isinstance(indices[0], (tuple, list, MultiIndex)):
            indices = tuple(indices[0]) if not isinstance(indices[0], MultiIndex) else indices[0].indices
        self.indices = tuple(sorted(indices))

    @property
    def counts(self):
        out = {}
        for lam in self.indices:
            out[lam] = out.get(lam, 0) + 1
        return out

    def __len__(self):
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def __add__(self, other):
        return MultiIndex(self.indices + tuple(other))

    def __eq__(self, other):
        if isinstance(other, MultiIndex):
            return self.indices == other.indices
        return self.indices == tuple(sorted(other))

    def __hash__(self):
        return hash(self.indices)

    def __repr__(self):
        return "MultiIndex%r" % (self.indices,)


def _as_index(index):
    if isinstance(index, MultiIndex):
        return index.indices
    if isinstance(index, int):
        return (index,)
    return tuple(sorted(index))


def total_derivative(lam, p):
    """d_lam = partial_lam + sum over jets s^A_{lam+Lambda} d/d(s^A_Lambda)."""
    return add_total_derivative(p.ctx.zero(), lam, p).finish()


def add_total_derivative(out, lam, p, sign=1):
    """out += sign * d_lam p (sign +-1) for a polynomial `out`, in place;
    returns `out`, whose denominator `finish` reduces.

    One loop over the terms: in each monomial every jet factor in turn is
    traded for its raised jet (`Context.raised`), and a factor x^lam is
    lowered; each result is summed into `out` as `accumulate` does, and
    the term limit is checked at the end."""
    ctx = p.ctx
    raised = ctx.raised
    x = ctx.coordinate(lam)
    lift = common_denominator(out, p.den) * sign
    terms = out.terms
    setdefault = terms.setdefault
    for (ev, od), c in p.terms.items():
        if lift != 1:
            c *= lift
        for pos, (w, e) in enumerate(ev):
            if w.gen.kind == "coordinate":
                if w is not x:
                    continue
                if e == 1:
                    m = (ev[:pos] + ev[pos + 1 :], od)
                else:
                    m = (ev[:pos] + ((w, e - 1),) + ev[pos + 1 :], od)
            else:
                m = (_trade_even(ev, pos, e, raised(w, lam)), od)
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


def _trade_even(ev, pos, e, r):
    """The even part `ev` with its factor at `pos` lowered by one power
    and the even variable `r` raised by one, in normal order."""
    out = list(ev)
    if e == 1:
        del out[pos]
    else:
        out[pos] = (out[pos][0], e - 1)
    key = r.key
    for i, (u, f) in enumerate(out):
        if u.key >= key:
            if u is r:
                out[i] = (u, f + 1)
            else:
                out.insert(i, (r, 1))
            return tuple(out)
    out.append((r, 1))
    return tuple(out)


def iterated_derivative(index, p):
    """d_Lambda, the composition of total derivatives over a multi-index."""
    for lam in _as_index(index):
        p = total_derivative(lam, p)
    return p


class ContactDerivation:
    """A vertical generalized vector field given by its components.

    `components` maps generators to polynomials; the derivation acts on
    the jet s^A_Lambda by the Lambda-th total derivative of the component
    on s^A, which is the infinite prolongation of the underlying field
    transformation.
    """

    __slots__ = ("ctx", "components", "parity", "_values")

    def __init__(self, ctx, components, parity):
        self.ctx = ctx
        self.components = {}
        self.parity = parity
        self._values = {}  # jet variable -> contract_variable value
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
            self.components[gen] = comp

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

    def add_value(self, out, v, dp, right=False):
        """out += value(v) * dp, or dp * value(v) when `right`, for a
        polynomial `out` in place.

        A jet of order at least one whose partial `dp` is the constant +-1
        and whose value is not kept yet adds the total derivative of its
        parent's value straight into `out`, so its own value, used once,
        is never built."""
        if v.index and len(dp.terms) == 1 and v not in self._values:
            sign = dp.constant_term()
            if sign == 1 or sign == -1:
                parent = self.contract_variable(self.ctx.jet(v.gen, v.index[:-1]))
                if parent.terms:
                    add_total_derivative(out, v.index[-1], parent, sign)
                return
        val = self.contract_variable(v)
        if val.terms:
            if right:
                add_product(out, dp, val)
            else:
                add_product(out, val, dp)


def prolong_apply(theta, p):
    """Apply the prolonged derivation: sum_v d_Lambda(v^A) * d_left/dv p,
    over the variables of the fields theta moves."""
    out = p.ctx.zero()
    for v, dp in p.partials("left", theta.components):
        theta.add_value(out, v, dp)
    return out.finish()


def superbracket(t1, t2):
    """[t1, t2] = t1 o t2 - (-1)^{[t1][t2]} t2 o t1 of left-acting t1, t2."""
    ctx = t1.ctx
    sign = -1 if (t1.parity and t2.parity) else 1
    comps = {}
    gens = set(t1.components) | set(t2.components)
    for gen in gens:
        c = prolong_apply(t1, t2.component(gen)) - sign * prolong_apply(t2, t1.component(gen))
        if not c.is_zero():
            comps[gen] = c
    return ContactDerivation(ctx, comps, (t1.parity + t2.parity) % 2)
