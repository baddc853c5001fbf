"""Field-antifield machinery: Noether identities, the Koszul-Tate
differential, gauge and BRST derivations, the antibracket and the
classical master equation.  Koszul-Tate's square on a degree-two
antifield is its Noether row's residual (`koszul_tate`).

Every derivation is a `jets.ContactDerivation` acting through left graded
derivatives, except Koszul-Tate, whose `apply` runs the same action loop as
`jets.prolong_apply` from the right; it and the antifield slot of the
antibracket use the right-derivative convention directly, so no hidden sign
adapters are spread around the code.  Each sum (a Noether row's residual, a
Koszul-Tate value, a `paired_sum`, such as the proper solution's P_s) is
built in one polynomial.  The master equation of S is checked by Theta_S^2
alone, Theta_S from S's own variational derivatives, and the bracket's
failure rows are E_z({S,S}) = -+2 Theta_S^2(zbar) (minus on fields and
ghosts, plus on antifields); `antibracket` is the tests' oracle for it.
Theta is linear in its density: for S = L + P, Theta_S^2 = Theta_L^2 +
[Theta_L, Theta_P] + Theta_P^2.  Theta_L moves antifields alone, by field
equations, which hold none, so Theta_L^2 = 0; the cross term moves a
generator g by -(g, (L, P)), which reads the field equations of (L, P)
alone, and for P = P_s, the paired sum of an s whose field components
hold no antifield, those are s(L)'s.  So where s(L) = 0, Theta_P^2 is
Theta_S^2, and by the antibracket's Jacobi identity Theta_P^2 is the
paired derivation of Q = sum_z s^2(z) zbar, zero where s^2 is.
"""

from types import MappingProxyType

from .grassmann import EVEN, ODD, GvcError, ParityError, Poly, add_product
from .jets import ContactDerivation, add_total_derivative, iterated_derivative
from .bicomplex import Lagrangian, variational_derivatives


class NoetherOperator:
    """Rows of total differential operators annihilating the variational
    derivatives: row r is a list of (coefficient, generator, multi-index),
    the coefficient a polynomial (a scalar is taken as a constant one), the
    generator a field.  No coefficient holds an antifield or a degree-two
    antifield, the only generators Koszul-Tate moves (`koszul_tate`).  The
    table of rows is read-only, like a `ContactDerivation`'s."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx, rows):
        self.ctx = ctx
        table = {}
        for label, entries in rows.items():
            clean = []
            for coeff, gen, index in entries:
                gen = ctx.generator(gen) if isinstance(gen, str) else gen
                coeff = coeff if isinstance(coeff, Poly) else ctx.scalar(coeff)
                if gen.kind not in ("even-field", "odd-field"):
                    raise GvcError("identity row %r references non-field %r" % (label, gen.name))
                if any(v.gen.kind in ("antifield", "noether-antifield")
                       for v in coeff.variables()):
                    raise GvcError("identity row %r has a coefficient Koszul-Tate moves"
                                   % (label,))
                clean.append((coeff, gen, tuple(sorted(index))))
            table[label] = clean
        self.rows = MappingProxyType(table)


def noether_residuals(op, el):
    """Apply each row to the variational derivatives; zero rows are the
    valid identities.

    Each row is summed in one table; an entry whose coefficient is the
    constant +-1 adds its last total derivative straight into it."""
    ctx = op.ctx
    out = {}
    for label, entries in op.rows.items():
        res = ctx.zero()
        for coeff, gen, index in entries:
            comp = el.component(gen)
            if comp.is_zero():
                continue
            sign = coeff.constant_term() if len(coeff.terms) == 1 else 0
            if index and (sign == 1 or sign == -1):
                add_total_derivative(res, index[-1], iterated_derivative(index[:-1], comp),
                                     sign)
            else:
                add_product(res, coeff, iterated_derivative(index, comp))
        out[label] = res.finish()
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
        return self._act(p, right=True)


def _antifield(pairs, gen):
    try:
        return pairs[gen]
    except KeyError:
        raise GvcError("missing antifield registration for %r" % (gen.name,))


def koszul_tate(op, el, pairs):
    """Assemble the Koszul-Tate derivation from a Noether operator.

    `pairs` is the field-antifield pairing: it maps each field generator
    entering the variational derivatives to its antifield, and the names
    of its degree-two antifields label the rows of `op`.  delta sends cbar_j
    to row j on antifields (`rows_on_antifields`), as field equations are on
    fields alone (checked here); it moves no coefficient (`NoetherOperator`),
    so delta^2(cbar_j) = sum coeff * D_I E is row j's Noether residual.
    """
    for gen in el.generators():
        if gen.kind not in ("even-field", "odd-field"):
            raise GvcError("field equation on non-field %r" % (gen.name,))
    values = {_antifield(pairs, gen): comp for gen, comp in el.components.items()}
    return KoszulTate(op.ctx, {**values, **rows_on_antifields(op, pairs)})


def rows_on_antifields(op, pairs):
    """delta(cbar_j) = sum coeff * abar_I for each row j of `op`, the row
    on antifields, by its degree-two antifield cbar_j."""
    ctx = op.ctx
    degree_two = {bar.name: bar for bar in pairs.values() if bar.antifield_number == 2}
    values = {}
    for label, entries in op.rows.items():
        nbar = degree_two.get(label)
        if nbar is None:
            raise GvcError("missing degree-two antifield for row %r" % (label,))
        acc = ctx.zero()
        for coeff, gen, index in entries:
            add_product(acc, coeff, ctx.var(_antifield(pairs, gen), *index))
        values[nbar] = acc.finish()
    return values


def brst_extend(u, gamma):
    """Extend a gauge derivation by ghost-sector components.

    `gamma` maps ghost generators to antifield-free polynomials in the
    ghost sector; the result is the candidate BRST derivation, whose
    square `nilpotency_residuals` gives.
    """
    ctx = u.ctx
    comps = dict(u.components)
    for gen, val in gamma.items():
        if isinstance(gen, str):
            gen = ctx.generator(gen)
        if gen.kind != "ghost":
            raise GvcError("ghost-sector component on non-ghost %r" % (gen.name,))
        if any(v.gen.kind != "ghost" for v in val.variables()):
            raise GvcError("ghost-sector terms must be built from ghosts only")
        comps[gen] = comps[gen] + val if gen in comps else val
    return ContactDerivation(ctx, comps, ODD)


def nilpotency_residuals(theta, gens=None):
    """theta(theta(z)) for every generator z the derivation moves, or for
    those of `gens`, by the derivation's own action (left, or right for
    Koszul-Tate), in key order."""
    comps = theta.components
    return {gen.name: theta.apply(theta.component(gen))
            for gen in sorted(comps if gens is None else gens, key=lambda g: g.key)}


def _require_paired(densities, pairs):
    """Every non-coordinate generator of the densities has a partner."""
    known = set(pairs) | set(pairs.values())
    for density in densities:
        for v in density.variables():
            if v.gen.kind != "coordinate" and v.gen not in known:
                raise GvcError("missing antifield partner for %r" % (v.gen.name,))


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
    _require_paired((d1, d2), pairs)
    fields, bars = set(pairs), set(pairs.values())
    out = ctx.zero()
    for right_arg, left_arg in ((d1, d2), (d2, d1)):
        right = variational_derivatives(right_arg, "right", bars)
        left = variational_derivatives(left_arg, "left", fields)
        for z, zbar in pairs.items():
            if zbar in right and z in left:
                add_product(out, right[zbar], left[z])
    return Lagrangian(out.finish())


def master_derivation(L, pairs):
    """The odd derivation generated by an even density through the
    antibracket over a pairing of all its generators, from the density's
    own left variational derivatives; its nilpotency is the master
    equation."""
    _require_master(L, pairs)
    return _paired_derivation(L.ctx, variational_derivatives(L.density), pairs)


def _require_master(S, pairs):
    """S is even and each generator it holds is paired."""
    parity = S.density.require_parity()
    _require_paired((S.density,), pairs)
    if parity != EVEN:
        raise ParityError("master equation is checked for even densities")


def _paired_derivation(ctx, left, pairs):
    """Theta of a density from its left variational derivatives `left`."""
    comps = {}
    for z, zbar in pairs.items():
        even = z.parity == EVEN
        if zbar in left:
            comps[z] = -left[zbar] if even else left[zbar]
        if z in left:
            comps[zbar] = -left[z] if even else left[z]
    return ContactDerivation(ctx, comps, ODD)


class MasterReport:
    """Outcome of the classical master equation check of a density S: its
    master derivation Theta_S, Theta_S's nilpotency residuals on every
    generator it moves and the pairing."""

    __slots__ = ("pairs", "derivation", "derivation_residuals")

    def __init__(self, pairs, derivation, derivation_residuals):
        self.pairs = pairs
        self.derivation = derivation
        self.derivation_residuals = derivation_residuals

    def bracket_residuals(self):
        """The nonzero E_g({S, S}) by generator name: -2 Theta_S^2(zbar)
        on a field or ghost z, +2 Theta_S^2(z) on its partner zbar."""
        res, out = self.derivation_residuals, {}
        for z, zbar in self.pairs.items():
            for gen, partner, factor in ((z, zbar, -2), (zbar, z, 2)):
                p = res.get(partner.name)
                if p is not None and not p.is_zero():
                    out[gen.name] = p * factor
        return out

    @property
    def ok(self):
        """Whether Theta_S^2 vanishes, so {S, S} is variationally trivial."""
        return all(p.is_zero() for p in self.derivation_residuals.values())


def paired_sum(ctx, values, partners):
    """The sum over z of values[z] * partners[z], one density for a table of
    derivation values: a map that keeps the pairing, with the partners
    paired to their z, fixes it exactly when it carries each value onto
    s_z times its image's, provided no value holds a partner (each term
    then holds one partner, which names its z)."""
    out = ctx.zero()
    for z, value in values.items():
        add_product(out, value, ctx.var(partners[z]))
    return out.finish()


def master_equation_check(L, pairs):
    """The classical master equation of an even density S by Theta_S^2
    alone: {S, S} is variationally trivial exactly when it vanishes on every
    generator, each squared here."""
    theta = master_derivation(L, pairs)
    return MasterReport(pairs, theta, nilpotency_residuals(theta))


def proper_solution(L, s, pairs, residuals=None, paired=None):
    """Extend a density by the antifield pairing of a nilpotent extension:
    S = L + sum_a s(z^a) zbar_a, L plus the `paired_sum` of s, even and
    paired as its master equation needs.  `residuals` and `paired`, when
    given, are s's nilpotency residuals and paired sum already taken."""
    res = nilpotency_residuals(s) if residuals is None else residuals
    bad = [name for name, p in res.items() if not p.is_zero()]
    if bad:
        raise GvcError("extension is not nilpotent on %s" % ", ".join(sorted(bad)))
    for z in s.components:
        if z not in pairs:
            raise GvcError("missing antifield partner for %r" % (z.name,))
    S = Lagrangian(L.density + (paired_sum(L.ctx, s.components, pairs) if paired is None
                                else paired))
    _require_master(S, pairs)
    return S
