"""Field-antifield machinery: Noether identities, the Koszul-Tate
differential, gauge and BRST derivations, the antibracket and the
classical master equation.  Koszul-Tate's square on a degree-two
antifield is its Noether row's residual (`koszul_tate`).

Every derivation is a `jets.ContactDerivation` acting through left graded
derivatives, except Koszul-Tate, whose `apply` runs the same action loop as
`jets.prolong_apply` from the right; it and the antifield slot of the
antibracket use the right-derivative convention directly, so no hidden sign
adapters are spread around the code.  Each sum (a Noether row's residual, a
Koszul-Tate value, a `paired_sum`, such as the proper solution's S - L) is
built in one polynomial.  The master equation is checked by Theta_S^2 alone,
Theta_S taking L's field equations as given plus those of P = S - L, and the
bracket's failure rows are E_z({S,S}) = -+2 Theta_S^2(zbar) (minus on fields
and ghosts, plus on antifields); `antibracket` is the tests' oracle for it.
Theta is linear in its density: Theta_S^2 = Theta_L^2 + [Theta_L, Theta_P] +
Theta_P^2.  Theta_L moves antifields alone, by field equations, which hold
none, so Theta_L^2 = 0; the cross term moves a generator g by -(g, (L, P)),
which reads the field equations of (L, P) alone, and for P = P_s, the
paired sum of an s whose field components hold no antifield, those are
s(L)'s.  So where s(L) = 0, Theta_P^2, from P's table alone, is Theta_S^2.
`orbit_representatives` proves that signed relabellings keep the pairing
and fix a density (L or a paired sum); `on_representatives` takes a
residual table on one generator per orbit of maps so proved first.
"""

from .grassmann import EVEN, ODD, GvcError, ParityError, Poly, add_product
from .jets import ContactDerivation, add_total_derivative, iterated_derivative
from .bicomplex import Lagrangian, variational_derivatives


class NoetherOperator:
    """Rows of total differential operators annihilating the variational
    derivatives: row r is a list of (coefficient, generator, multi-index),
    the coefficient a polynomial (a scalar is taken as a constant one), the
    generator a field.  No coefficient holds an antifield or a degree-two
    antifield, the only generators Koszul-Tate moves (`koszul_tate`)."""

    __slots__ = ("ctx", "rows")

    def __init__(self, ctx, rows):
        self.ctx = ctx
        self.rows = {}
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
            self.rows[label] = clean


def noether_residuals(op, el, labels=None):
    """Apply each row, or each of those labelled in `labels`, to the
    variational derivatives; zero rows are the valid identities.

    Each row is summed in one table; an entry whose coefficient is the
    constant +-1 adds its last total derivative straight into it."""
    ctx = op.ctx
    out = {}
    for label, entries in op.rows.items():
        if labels is not None and label not in labels:
            continue
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


def koszul_tate(op, el, pairs):
    """Assemble the Koszul-Tate derivation from a Noether operator.

    `pairs` is the field-antifield pairing: it maps each field generator
    entering the variational derivatives to its antifield, and the names
    of its degree-two antifields label the rows of `op`.  delta sends cbar_j
    to row j on antifields, sum coeff * abar_I, as field equations are on
    fields alone (checked here); it moves no coefficient (`NoetherOperator`),
    so delta^2(cbar_j) = sum coeff * D_I E is row j's Noether residual.
    """
    ctx = op.ctx

    def antifield(gen):
        try:
            return pairs[gen]
        except KeyError:
            raise GvcError("missing antifield registration for %r" % (gen.name,))

    for gen in el.generators():
        if gen.kind not in ("even-field", "odd-field"):
            raise GvcError("field equation on non-field %r" % (gen.name,))
    values = {antifield(gen): comp for gen, comp in el.components.items()}
    degree_two = {bar.name: bar for bar in pairs.values() if bar.antifield_number == 2}
    for label, entries in op.rows.items():
        nbar = degree_two.get(label)
        if nbar is None:
            raise GvcError("missing degree-two antifield for row %r" % (label,))
        acc = ctx.zero()
        for coeff, gen, index in entries:
            add_product(acc, coeff, ctx.var(antifield(gen), *index))
        values[nbar] = acc.finish()
    return KoszulTate(ctx, values)


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


def master_derivation(L, pairs, split=None, part=False):
    """The odd derivation generated by an even density through the
    antibracket over a pairing of all its generators; its nilpotency is
    the master equation.  With `split`, the left variational derivatives
    of a part L0 of the density by generator and the density minus L0, P,
    it adds the former to P's: delta is linear.  With `part` too, it
    returns Theta_P besides, from P's one table."""
    ctx = L.ctx
    parity = L.density.require_parity()
    _require_paired((L.density,), pairs)
    if parity != EVEN:
        raise ParityError("master equation is checked for even densities")
    rest = variational_derivatives(L.density if split is None else split[1])
    left = dict(rest)
    for z, p in (split[0].items() if split else ()):
        left[z] = p + rest[z] if z in rest else p
    theta = _paired_derivation(ctx, left, pairs)
    return (theta, _paired_derivation(ctx, rest, pairs)) if part else theta


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
    """Outcome of the classical master equation check: the master
    derivation Theta_S, its nilpotency residuals on the generators it
    squared (`squared`) and the pairing."""

    __slots__ = ("pairs", "derivation", "derivation_residuals")

    def __init__(self, pairs, derivation, derivation_residuals):
        self.pairs = pairs
        self.derivation = derivation
        self.derivation_residuals = derivation_residuals

    @property
    def squared(self):
        """Names of the generators Theta_S was squared on; any other it
        moves lies in the orbit of one of them, where it is proved zero."""
        return tuple(self.derivation_residuals)

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


def orbit_representatives(density, pairs, maps, moved):
    """The smallest-key member of each orbit of the generators `moved` (a
    derivation's generators, or the sources of its directions) under the
    relabellings `maps` (gen_map, signs) of `Poly.rename`, once each is
    proved to commute with the derivation; None if a proof fails.

    Each map must send the pairing onto itself with one sign per pair and
    fix `density` exactly.  With S, it is anticanonical, commutes with the
    total derivatives and with Theta_S; with a Lagrangian, with its field
    equations; with a `paired_sum` of a derivation's values, with the
    derivation."""
    for gen_map, signs in maps:
        if any(pairs.get(gen_map.get(z, z)) is not gen_map.get(zbar, zbar)
               or signs.get(z, 1) != signs.get(zbar, 1) for z, zbar in pairs.items()) \
                or density.rename(gen_map, signs) != density:
            return None
    return orbit_roots(maps, moved)


def orbit_roots(maps, moved):
    """The smallest-key member of each orbit of `moved` under the maps,
    signs aside, from one union-find over z -- g(z); no proof."""
    root = {z: z for z in moved}

    def find(z):
        while root[z] is not z:
            z = root[z]
        return z

    for gen_map, _ in maps:
        for z, w in gen_map.items():
            if z in root and w in root:
                a, b = sorted((find(z), find(w)), key=lambda g: g.key)
                root[b] = a
    return {z for z in moved if find(z) is z}


def on_representatives(evaluate, moved, representatives=None):
    """The residual table of the generators `moved`, by name in key order,
    where `evaluate(gens)` gives it on a sublist.  `representatives`, one
    per orbit of maps proved to carry each residual onto its image's up to
    sign, go first, and zero on them is zero everywhere: the table holds
    them alone.  Otherwise, or if none is in `moved`, the rest follows and
    the table is rebuilt in order, so a failure reads as without maps."""
    order = sorted(moved, key=lambda g: g.key)
    chosen = [z for z in order if z in representatives] if representatives else []
    kept = evaluate(chosen) if chosen else {}
    if kept and all(p.is_zero() for p in kept.values()):
        return kept
    residuals = evaluate([z for z in order if z.name not in kept])
    residuals.update(kept)
    return {z.name: residuals[z.name] for z in order}


def master_equation_check(L, pairs, representatives=None, split=None, part=False):
    """The classical master equation by Theta_S^2 alone: {S, S} is
    variationally trivial exactly when it vanishes on every generator.

    `representatives`, one generator per orbit of relabellings the caller
    proved to fix S and keep the pairing (`orbit_representatives`), so
    that Theta_S^2(g z) = g Theta_S^2(z), are squared first
    (`on_representatives`); the proof is the caller's.  `split` is as in
    `master_derivation`.  With `part`, the caller's proof that P = S - L0
    is P_s and s(L0) = 0, Theta_P^2 stands for Theta_S^2 (module docstring)."""
    theta, square = master_derivation(L, pairs, split, True) if part else \
        (master_derivation(L, pairs, split),) * 2
    return MasterReport(pairs, theta, on_representatives(
        lambda gens: nilpotency_residuals(square, gens), theta.components, representatives))


def proper_solution(L, s, pairs, residuals=None, paired=None):
    """Extend a density by the antifield pairing of a nilpotent extension:
    S = L + sum_a s(z^a) zbar_a, L plus the `paired_sum` of s.
    `residuals` and `paired`, when given, are s's nilpotency residuals and
    paired sum already taken."""
    res = nilpotency_residuals(s) if residuals is None else residuals
    bad = [name for name, p in res.items() if not p.is_zero()]
    if bad:
        raise GvcError("extension is not nilpotent on %s" % ", ".join(sorted(bad)))
    for z in s.components:
        if z not in pairs:
            raise GvcError("missing antifield partner for %r" % (z.name,))
    return Lagrangian(L.density + (paired_sum(L.ctx, s.components, pairs) if paired is None
                                   else paired))
