"""Field-antifield machinery: Noether identities, the Koszul-Tate
differential, gauge and BRST derivations, the antibracket and the
classical master equation.

Every derivation is a `jets.ContactDerivation` acting through left
graded derivatives, except Koszul-Tate, whose `apply` is the one right
action; it and the antifield slot of the antibracket use the
right-derivative convention directly, so no hidden sign adapters are
spread around the code.  Each sum (a Noether row's residual, a
Koszul-Tate value, the proper solution) is built in one term table, and
the master-equation report keeps the bracket's size, not the bracket.
"""

from fractions import Fraction

from .grassmann import EVEN, ODD, GvcError, ParityError, Poly, add_product
from .jets import ContactDerivation, add_total_derivative, iterated_derivative
from .bicomplex import Lagrangian, euler_lagrange, variational_derivatives


class NoetherOperator:
    """Rows of total differential operators annihilating the variational
    derivatives: row r is a list of (coefficient, generator, multi-index),
    the coefficient a polynomial (a scalar is taken as a constant one)."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx, rows):
        self.ctx = ctx
        self.rows = {}
        for label, entries in rows.items():
            clean = []
            for coeff, gen, index in entries:
                if isinstance(gen, str):
                    gen = ctx.generator(gen)
                if not isinstance(coeff, Poly):
                    coeff = ctx.scalar(coeff)
                clean.append((coeff, gen, tuple(sorted(index))))
            self.rows[label] = clean


def noether_residuals(op, el):
    """Apply each row to the variational derivatives; zero rows are the
    valid identities.  Rows must reference field generators.

    Each row is summed in one table; an entry whose coefficient is the
    constant +-1 adds its last total derivative straight into it."""
    ctx = op.ctx
    out = {}
    for label, entries in op.rows.items():
        res = {}
        for coeff, gen, index in entries:
            if gen.kind not in ("even-field", "odd-field"):
                raise GvcError(
                    "identity row %r references non-field %r" % (label, gen.name))
            comp = el.component(gen)
            if comp.is_zero():
                continue
            sign = coeff.constant_term() if len(coeff.terms) == 1 else 0
            if index and (sign == 1 or sign == -1):
                add_total_derivative(res, index[-1], iterated_derivative(index[:-1], comp),
                                     sign)
            else:
                add_product(res, coeff, iterated_derivative(index, comp))
        out[label] = Poly(ctx, res)
    return out


class KoszulTate(ContactDerivation):
    """Odd right derivation sending antifields to variational derivatives
    and degree-two antifields to the Noether rows rewritten on antifields."""

    __slots__ = ()

    def __init__(self, ctx, values):
        super().__init__(ctx, values, ODD)

    def apply(self, p):
        """Right-derivation action: sum of right partials times prolonged
        values, multiplied from the right."""
        out = {}
        for v, dp in p.partials("right", self.components):
            self.add_value(out, v, dp, right=True)
        return Poly(self.ctx, out)


def koszul_tate(op, el, pairs):
    """Assemble the Koszul-Tate derivation from a Noether operator.

    `pairs` is the field-antifield pairing: it maps each field generator
    entering the variational derivatives to its antifield, and the names
    of its degree-two antifields label the rows of `op`.  Nilpotency on
    generators is equivalent to all Noether residuals vanishing; the
    residual on a degree-two antifield is its row's.
    """
    ctx = op.ctx

    def antifield(gen):
        try:
            return pairs[gen]
        except KeyError:
            raise GvcError("missing antifield registration for %r" % (gen.name,))

    values = {antifield(gen): comp for gen, comp in el.components.items()}
    degree_two = {bar.name: bar for bar in pairs.values() if bar.antifield_number == 2}
    for label, entries in op.rows.items():
        try:
            nbar = degree_two[label]
        except KeyError:
            raise GvcError("missing degree-two antifield for row %r" % (label,))
        acc = {}
        for coeff, gen, index in entries:
            add_product(acc, coeff, ctx.var(antifield(gen), *index))
        values[nbar] = Poly(ctx, acc)
    return KoszulTate(ctx, values)


def brst_extend(u, gamma):
    """Extend a gauge derivation by ghost-sector components.

    `gamma` maps ghost generators to antifield-free polynomials in the
    ghost sector; the result is the candidate BRST derivation, returned
    with its per-generator nilpotency residuals.
    """
    ctx = u.ctx
    comps = dict(u.components)
    for gen, val in gamma.items():
        if isinstance(gen, str):
            gen = ctx.generator(gen)
        if gen.kind != "ghost":
            raise GvcError("ghost-sector component on non-ghost %r" % (gen.name,))
        for v in val.variables():
            if v.gen.kind not in ("ghost",):
                raise GvcError("ghost-sector terms must be built from ghosts only")
        if gen in comps:
            comps[gen] = comps[gen] + val
        else:
            comps[gen] = val
    s = ContactDerivation(ctx, comps, ODD)
    return s, nilpotency_residuals(s)


def nilpotency_residuals(theta):
    """theta(theta(z)) for every generator z the derivation moves, by
    the derivation's own action (left, or right for Koszul-Tate)."""
    return {gen.name: theta.apply(theta.components[gen])
            for gen in sorted(theta.components, key=lambda g: g.key)}


def antibracket(L1, L2, pairs):
    """Odd bracket of two densities over the field-antifield pairing.

    Uses the right variational derivative in the antifield slot and the
    left one in the field slot; for parity-homogeneous arguments the
    relative sign between the two cross terms is +1.
    """
    ctx = L1.ctx
    d1, d2 = L1.density, L2.density
    d1.require_parity()
    d2.require_parity()
    fields, bars = set(pairs), set(pairs.values())
    known = fields | bars
    for density in (d1, d2):
        for v in density.variables():
            if v.gen.kind != "coordinate" and v.gen not in known:
                raise GvcError("missing antifield partner for %r" % (v.gen.name,))
    right1 = variational_derivatives(d1, "right", bars)
    left1 = variational_derivatives(d1, "left", fields)
    if d2 is d1:
        # both cross terms are right1 * left1: accumulate it once, double it
        cross = ((right1, left1),)
    else:
        cross = ((right1, variational_derivatives(d2, "left", fields)),
                 (variational_derivatives(d2, "right", bars), left1))
    out = {}
    for z, zbar in pairs.items():
        for right, left in cross:
            if zbar in right and z in left:
                add_product(out, right[zbar], left[z])
    bracket = Poly(ctx, out)
    return Lagrangian(bracket * 2 if d2 is d1 else bracket)


def master_derivation(L, pairs):
    """The odd derivation generated by an even density through the
    antibracket; nilpotency is one face of the master equation."""
    ctx = L.ctx
    if L.density.require_parity() != EVEN:
        raise ParityError("master equation is checked for even densities")
    left = variational_derivatives(L.density)
    comps = {}
    for z, zbar in pairs.items():
        sign = Fraction(-1) if z.parity == EVEN else Fraction(1)
        if zbar in left:
            comps[z] = left[zbar] * sign
        if z in left:
            comps[zbar] = left[z] * sign
    return ContactDerivation(ctx, comps, ODD)


class MasterReport:
    """Outcome of the classical master equation check, keeping the
    bracket's size (not the bracket), its Euler-Lagrange operator, the
    master derivation and that derivation's nilpotency residuals."""

    __slots__ = ("bracket_terms", "bracket_el", "derivation", "derivation_residuals")

    def __init__(self, bracket_terms, bracket_el, derivation, derivation_residuals):
        self.bracket_terms = bracket_terms
        self.bracket_el = bracket_el
        self.derivation = derivation
        self.derivation_residuals = derivation_residuals

    @property
    def bracket_trivial(self):
        """{L, L} is variationally trivial (`is_variationally_trivial`)."""
        return self.bracket_el.is_zero()

    @property
    def derivation_nilpotent(self):
        return all(p.is_zero() for p in self.derivation_residuals.values())

    @property
    def ok(self):
        return self.bracket_trivial and self.derivation_nilpotent


def master_equation_check(L, pairs):
    """Check {L, L} is variationally trivial and the generated odd
    derivation is nilpotent on generators; the two must agree."""
    bracket = antibracket(L, L, pairs)
    bracket_terms, bracket_el = len(bracket.density.terms), euler_lagrange(bracket)
    del bracket  # not alive while the derivation is built and checked
    theta = master_derivation(L, pairs)
    return MasterReport(bracket_terms, bracket_el, theta, nilpotency_residuals(theta))


def proper_solution(L, s, pairs, residuals=None):
    """Extend a density by the antifield pairing of a nilpotent extension:
    L + sum_a s(z^a) zbar_a.  `residuals`, when given, are the nilpotency
    residuals of `s` already computed (as `brst_extend` returns them)."""
    ctx = L.ctx
    res = nilpotency_residuals(s) if residuals is None else residuals
    bad = [name for name, p in res.items() if not p.is_zero()]
    if bad:
        raise GvcError("extension is not nilpotent on %s" % ", ".join(sorted(bad)))
    out = dict(L.density.terms)
    for z, comp in s.components.items():
        try:
            zbar = pairs[z]
        except KeyError:
            raise GvcError("missing antifield partner for %r" % (z.name,))
        add_product(out, comp, ctx.var(zbar))
    return Lagrangian(Poly(ctx, out))
