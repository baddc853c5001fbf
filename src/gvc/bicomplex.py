"""The Grassmann-graded variational bicomplex in jet coordinates.

Forms are stored over the basis one-forms dx^lam (horizontal) and
th^A_Lambda (contact); a wedge word is kept normal-ordered under the
bigraded commutation rule: two basis one-forms anticommute unless both
carry odd Grassmann parity, in which case they commute (and may repeat).
Coefficients are graded polynomials and always sit to the left of the
wedge word, with Koszul signs tracked on every reordering.
"""

from .grassmann import _ONE, EVEN, GvcError, Poly, accumulate, add_product
from .jets import add_total_derivative, iterated_derivative

DX = 0
TH = 1


def dx_letter(lam):
    return (DX, lam)

def theta_letter(var):
    return (TH, var)


def _letter_parity(ell):
    return EVEN if ell[0] == DX else ell[1].parity


def _normal_word(letters):
    """Sort a letter sequence; returns (sign, word) or None if it vanishes."""
    word = []
    sign = 1
    for ell in letters:
        p = _letter_parity(ell)
        pos = len(word)
        while pos > 0 and word[pos - 1] > ell:
            if not (p and _letter_parity(word[pos - 1])):
                sign = -sign
            pos -= 1
        if pos > 0 and word[pos - 1] == ell and p == EVEN:
            return None
        word.insert(pos, ell)
    return sign, tuple(word)


def _signed(items, sign=1, flip_odd=0):
    """The (monomial, numerator) pairs `items` times the sign +-1, each
    odd monomial negated once more when `flip_odd`: the Koszul sign of an
    odd letter or operator moving past the coefficient."""
    if flip_odd:
        negated = 1 if sign == 1 else 0  # the monomial parity that ends negated
        return ((m, -c if (len(m[1]) & 1) == negated else c) for m, c in items)
    return items if sign == 1 else ((m, -c) for m, c in items)


def _add_form(table, phi, sign=1):
    """table += sign * phi (sign +-1) for a per-word table of sums in
    place (word -> Poly); returns `table`."""
    ctx = phi.ctx
    for w, f in phi.terms.items():
        accumulate(table.setdefault(w, ctx.zero()), _signed(f.terms.items(), sign), f.den)
    return table


def _form(ctx, table):
    """The Form of a per-word table, each word's sum finished once."""
    return Form(ctx, {w: t.finish() for w, t in table.items()})


class Form:
    """Bigraded exterior form: finite map wedge word -> polynomial.

    Every form is built once from its per-word polynomials, and its total
    monomial count is held to the context's term limit there."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {w: f for w, f in terms.items() if f.terms} if terms else {}
        ctx.check_terms(sum(len(f.terms) for f in self.terms.values()))

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def from_poly(cls, p):
        return cls(p.ctx, {(): p})

    @classmethod
    def dx(cls, ctx, lam):
        return cls(ctx, {(dx_letter(lam),): ctx.one()})

    @classmethod
    def theta(cls, ctx, gen, index=()):
        v = ctx.jet(gen, index)
        return cls(ctx, {(theta_letter(v),): ctx.one()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, Form) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Form is unhashable")

    def __neg__(self):
        return Form(self.ctx, {w: -f for w, f in self.terms.items()})

    def __add__(self, other):
        return _form(self.ctx, _add_form(_add_form({}, self), other))

    def __sub__(self, other):
        return _form(self.ctx, _add_form(_add_form({}, self), other, -1))

    def scale(self, c):
        return Form(self.ctx, {w: f * c for w, f in self.terms.items()})

    def times_poly(self, p):
        """Left multiplication by a coefficient polynomial (no signs).  A
        constant word coefficient, as in `volume` and its interiors,
        scales p's numerators instead of multiplying."""
        out = {}
        for w, f in self.terms.items():
            c = f.terms.get(_ONE) if len(f.terms) == 1 else None
            if c is None:
                out[w] = p * f
            else:
                out[w] = Poly(self.ctx, {m: c * n for m, n in p.terms.items()},
                              p.den * f.den).finish()
        return Form(self.ctx, out)

    def wedge(self, other):
        ctx = self.ctx
        table = {}
        flipped = {}  # word of `other` -> its coefficient, odd monomials negated
        for w1, f1 in self.terms.items():
            odd = sum(ell[1].parity for ell in w1 if ell[0] == TH) & 1
            for w2, f2 in other.terms.items():
                nw = _normal_word(w1 + w2)
                if nw is None:
                    continue
                sign, word = nw
                if odd:
                    if w2 not in flipped:
                        flipped[w2] = Poly(ctx, dict(_signed(f2.terms.items(), 1, 1)), f2.den)
                    f2 = flipped[w2]
                add_product(table.setdefault(word, ctx.zero()), f1, f2, sign)
        return _form(ctx, table)

    # -- presentation ------------------------------------------------------

    def render(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=_word_sort_key):
            f = self.terms[w]
            letters = "^".join(_render_letter(ell) for ell in w) or "1"
            bits.append("(%s) %s" % (f.render(), letters))
        return "  +  ".join(bits)

    def leading_term(self):
        if not self.terms:
            return "0"
        w = min(self.terms, key=_word_sort_key)
        letters = "^".join(_render_letter(ell) for ell in w) or "1"
        return "(%s) %s" % (self.terms[w].leading_monomial(), letters)

    def __repr__(self):
        return "Form(%s)" % self.render()


def _word_sort_key(word):
    return tuple((ell[0], ell[1] if ell[0] == DX else ell[1].key) for ell in word)


def _render_letter(ell):
    if ell[0] == DX:
        return "dx%d" % ell[1]
    return "th[%s]" % ell[1].render()


def _add_letter_wedge(table, ctx, ell, pairs, sign=1, den=1):
    """table += (sign / den) * ell ^ phi (sign +-1), where `pairs` are the
    (word, polynomial) pairs of phi; in place."""
    flip = _letter_parity(ell)
    for w, t in pairs:
        nw = _normal_word((ell,) + w)
        if nw is not None and t.terms:
            s, word = nw
            accumulate(table.setdefault(word, ctx.zero()),
                       _signed(t.terms.items(), s * sign, flip), t.den * den)
    return table


def letter_wedge_left(ell, phi):
    """ell wedge phi for a single basis one-form ell."""
    return _form(phi.ctx, _add_letter_wedge({}, phi.ctx, ell, phi.terms.items()))


# -- differentials ---------------------------------------------------------


def _total_derivative_table(ctx, lam, pairs):
    """Per-word table of d_lam of the form with (word, polynomial) pairs
    `pairs`: d_lam acts on each coefficient and raises each th leg."""
    table = {}
    for w, t in pairs:
        add_total_derivative(table.setdefault(w, ctx.zero()), lam, t)
        for i, ell in enumerate(w):
            if ell[0] != TH:
                continue
            raised = theta_letter(ctx.raised(ell[1], lam))
            nw = _normal_word(w[:i] + (raised,) + w[i + 1 :])
            if nw is not None:
                sign, word = nw
                accumulate(table.setdefault(word, ctx.zero()), _signed(t.terms.items(), sign),
                           t.den)
    return table


def d_h(phi):
    """Horizontal differential dx^lam ^ d_lam.

    d_lam keeps a word's dx letters, so dx^lam ^ d_lam(w) vanishes when
    w already carries dx^lam; those words are skipped before d_lam."""
    ctx = phi.ctx
    table = {}
    for lam in range(ctx.dim):
        dx = dx_letter(lam)
        pairs = ((w, f) for w, f in phi.terms.items() if dx not in w)
        _add_letter_wedge(table, ctx, dx, _total_derivative_table(ctx, lam, pairs).items())
    return _form(ctx, table)


def d_v(phi):
    """Vertical differential th^A_Lambda ^ d/d(s^A_Lambda)."""
    ctx = phi.ctx
    table = {}
    for w, f in phi.terms.items():
        for v, df in f.partials():
            if v.gen.kind != "coordinate":
                _add_letter_wedge(table, ctx, theta_letter(v), ((w, df),))
    return _form(ctx, table)


def exterior_d(phi):
    return d_h(phi) + d_v(phi)


def h0(phi):
    """Horizontal projection: drop every term carrying a contact leg."""
    return Form(phi.ctx, {w: f for w, f in phi.terms.items()
                          if all(ell[0] == DX for ell in w)})


# -- interior products ------------------------------------------------------


def _contract_word(phi, op_parity, value_fn):
    """Shared graded interior-product recursion over wedge words.

    `value_fn(ell)` is the operator's value on a letter (None where it
    vanishes), looked up before the coefficient is touched.  Moving the
    operator past the coefficient signs each monomial by
    (-1)^{|monomial| |op|}; a unit value adds the signed coefficient
    itself, any other value its product."""
    ctx = phi.ctx
    table = {}
    for w, f in phi.terms.items():
        signed = None  # f with the operator's per-monomial sign, built on first use
        prefix_sign = 1
        prefix_parity = 0
        for i, ell in enumerate(w):
            val = value_fn(ell)
            if val is not None and val.terms:
                sign = -prefix_sign if (val.require_parity() and prefix_parity & 1) else prefix_sign
                out = table.setdefault(w[:i] + w[i + 1 :], ctx.zero())
                if len(val.terms) == 1 and val.constant_term() == 1:
                    accumulate(out, _signed(f.terms.items(), sign, op_parity), f.den)
                else:
                    if signed is None:
                        signed = Poly(ctx, dict(_signed(f.terms.items(), 1, op_parity)), f.den)
                    add_product(out, signed, val, sign)
            lp = _letter_parity(ell)
            if not (lp and op_parity):
                prefix_sign = -prefix_sign
            prefix_parity += lp
    return _form(ctx, table)


def interior(theta, phi):
    """Contraction with a vertical contact derivation: th^A_L -> d_L(v^A)."""
    return _contract_word(phi, theta.parity, lambda ell: (
        theta.contract_variable(ell[1]) if ell[0] == TH else None))


def interior_frame(var, phi):
    """Contraction with the coordinate contact frame dual to th at `var`."""
    one = phi.ctx.one()
    return _contract_word(phi, var.parity, lambda ell: (
        one if ell[0] == TH and ell[1].key == var.key else None))


def interior_dx(lam, phi):
    """Contraction with the horizontal frame d/dx^lam."""
    one = phi.ctx.one()
    return _contract_word(phi, EVEN, lambda ell: one if ell == (DX, lam) else None)


def lie_derivative(theta, phi):
    """L_theta = theta-contraction of d phi plus d of the contraction."""
    return interior(theta, exterior_d(phi)) + exterior_d(interior(theta, phi))


# -- volume forms ------------------------------------------------------------


def volume(ctx):
    word = tuple(dx_letter(lam) for lam in range(ctx.dim))
    return Form(ctx, {word: ctx.one()})


def omega_lambda(ctx, lam):
    return interior_dx(lam, volume(ctx))


def omega_pair(ctx, nu, mu):
    return interior_dx(nu, omega_lambda(ctx, mu))


# -- the variational side -----------------------------------------------------


class Lagrangian:
    """A horizontal density L = (polynomial) * volume form."""

    __slots__ = ("ctx", "density")

    def __init__(self, density):
        self.ctx = density.ctx
        self.density = density

    @property
    def form(self):
        return volume(self.ctx).times_poly(self.density)

    def __add__(self, other):
        return Lagrangian(self.density + other.density)

    def __sub__(self, other):
        return Lagrangian(self.density - other.density)

    def is_zero(self):
        return self.density.is_zero()

    def __repr__(self):
        return "Lagrangian(%s)" % self.density.render()


class EulerLagrange:
    """Variational derivatives, one polynomial per field generator."""

    __slots__ = ("ctx", "components")

    def __init__(self, ctx, components):
        self.ctx = ctx
        self.components = {g: p for g, p in components.items() if not p.is_zero()}

    def component(self, gen):
        if isinstance(gen, str):
            gen = self.ctx.generator(gen)
        return self.components.get(gen, self.ctx.zero())

    def is_zero(self):
        return not self.components

    def generators(self):
        return sorted(self.components, key=lambda g: g.key)

    def as_form(self):
        """Assemble th^A ^ E_A omega through the exterior algebra."""
        ctx = self.ctx
        (word,) = volume(ctx).terms
        table = {}
        for gen, comp in self.components.items():
            _add_letter_wedge(table, ctx, theta_letter(ctx.jet(gen)), ((word, comp),))
        return _form(ctx, table)


def euler_lagrange(L):
    """Term-by-term alternating-sign total derivatives of jet partials."""
    return EulerLagrange(L.ctx, variational_derivatives(L.density))


def variational_derivative(density, gen, side="left"):
    """delta/delta(z) of a density for one generator, left or right."""
    ctx = density.ctx
    if isinstance(gen, str):
        gen = ctx.generator(gen)
    return variational_derivatives(density, side, (gen,)).get(gen, ctx.zero())


def variational_derivatives(density, side="left", gens=None):
    """delta/delta(z) of a density for every generator z in `gens` (every
    non-coordinate generator when None) that occurs, by generator: the
    sum over the jets v of z of (-1)^|Lambda| d_Lambda of the partial
    along v, accumulated in place; the last total derivative of each jet
    writes straight into its generator's table."""
    ctx = density.ctx
    comps = {}
    for v, dv in density.partials(side, gens):
        if gens is None and v.gen.kind == "coordinate":
            continue
        table = comps.setdefault(v.gen, ctx.zero())
        if v.index:
            add_total_derivative(table, v.index[-1], iterated_derivative(v.index[:-1], dv),
                                 -1 if len(v.index) & 1 else 1)
        else:
            accumulate(table, dv.terms.items(), dv.den)
    return {gen: table.finish() for gen, table in comps.items() if table.terms}


def is_variationally_trivial(L):
    """True iff every variational derivative vanishes identically.

    On the polynomial coordinate ring this is the horizontal-exactness
    criterion for densities; base-coordinate polynomials (including
    constants) are horizontally exact here since x^lam are ring elements.
    """
    return euler_lagrange(L).is_zero()


def project_rho(phi):
    """Projection onto source forms: all contact legs reduced to th^A.

    One walk over the words contracts every contact leg with its frame,
    into one table per (contact degree k, leg).  Each table is then
    differentiated along the leg's multi-index Lambda and wedged with the
    leg's th^A, with weight (-1)^|Lambda| / k."""
    ctx = phi.ctx
    legs = {}  # (k, leg) -> per-word table of the contraction
    for w, f in phi.terms.items():
        h = sum(1 for ell in w if ell[0] == DX)
        k = len(w) - h
        if h != ctx.dim or k < 1:
            raise GvcError("projection needs contact degree >= 1 at top horizontal degree")
        passed_even = 0
        for i, ell in enumerate(w):
            if ell[0] == TH:
                v = ell[1]
                # the frame anticommutes with each letter it passes, except
                # that an odd frame commutes with odd letters
                passed = passed_even if v.parity else i
                table = legs.setdefault((k, v), {})
                accumulate(table.setdefault(w[:i] + w[i + 1 :], ctx.zero()),
                           _signed(f.terms.items(), -1 if passed & 1 else 1, v.parity), f.den)
            if not _letter_parity(ell):
                passed_even += 1
    out = {}
    for (k, v), table in legs.items():
        for lam in v.index:
            table = _total_derivative_table(ctx, lam, table.items())
        _add_letter_wedge(out, ctx, theta_letter(ctx.jet(v.gen, ())), table.items(),
                          -1 if len(v.index) & 1 else 1, k)
    return _form(ctx, out)


def variational_delta(phi):
    """The variational operator: projection of the exterior differential."""
    ctx = phi.ctx
    for w in phi.terms:
        if sum(1 for ell in w if ell[0] == DX) != ctx.dim:
            raise GvcError("variational operator needs top horizontal degree")
    return project_rho(exterior_d(phi))


def lepage_equivalent(L):
    """First-order Lepage form: L plus th^A ^ (dL/d s^A_lam) omega_lam."""
    density = L.density
    ctx = L.ctx
    if density.max_jet_order() > 1:
        raise GvcError("Lepage form implemented for first-order densities only")
    table = _add_form({}, L.form)
    for v, momentum in density.partials():
        if v.gen.kind == "coordinate" or v.order != 1:
            continue
        piece = omega_lambda(ctx, v.index[0]).times_poly(momentum)
        _add_letter_wedge(table, ctx, theta_letter(ctx.jet(v.gen)), piece.terms.items())
    return _form(ctx, table)


def first_variational_residual(theta, L):
    """L_theta L - theta | delta L - d_H h0(theta | Xi_L); zero when exact."""
    lie = lie_derivative(theta, L.form)
    dl = variational_delta(L.form)
    xi = lepage_equivalent(L)
    return lie - interior(theta, dl) - d_h(h0(interior(theta, xi)))


def noether_current(theta, L, lie=None, lepage=None):
    """Conserved current of an exact symmetry: -h0(theta | Xi_L).

    `lie` and `lepage`, when given, are the already computed L_theta L,
    used for the exact-symmetry precondition instead of recomputing it,
    and the Lepage form Xi_L.
    """
    if lie is None:
        lie = lie_derivative(theta, L.form)
    if not lie.is_zero():
        raise GvcError("derivation is not an exact symmetry of the density")
    return -h0(interior(theta, lepage_equivalent(L) if lepage is None else lepage))


def conservation_residual(theta, current, el):
    """d_h(J) - interior(theta, variational_delta(L.form)) for a horizontal
    current J of codegree 1 and the field equations `el` of L, as one table
    times the volume form: each word w of J, lacking dx^mu, adds
    sign(dx^mu ^ w) d_mu J_w, and each field z subtracts E_z theta(z) with
    the Koszul sign of th^z and theta passing each monomial of E_z."""
    ctx = current.ctx
    (vol,) = volume(ctx).terms
    table = ctx.zero()
    for w, j in current.terms.items():
        missing = tuple(ell for ell in vol if ell not in w)
        if len(w) != ctx.dim - 1 or len(missing) != 1:
            raise GvcError("current must be horizontal of codegree 1")
        add_total_derivative(table, missing[0][1], j, _normal_word(missing + w)[0])
    for gen, e in el.components.items():
        val = theta.contract_variable(ctx.jet(gen))
        if val.terms:
            if (gen.parity + theta.parity) & 1:
                e = Poly(ctx, dict(_signed(e.terms.items(), 1, 1)), e.den)
            add_product(table, e, val, -1)
    return Form(ctx, {vol: table.finish()})


def superpotential_residual(current, el, w_rows, U):
    """current - W - d_H U for W an on-shell combination of variational
    derivatives, given as rows (coefficient, generator, multi-index, mu)."""
    ctx = current.ctx
    for w in U.terms:
        if any(ell[0] == TH for ell in w) or sum(1 for ell in w if ell[0] == DX) != ctx.dim - 2:
            raise GvcError("superpotential form must be horizontal of codegree 2")
    table = _add_form({}, current)
    for coeff, gen, index, mu in w_rows:
        piece = iterated_derivative(tuple(index), el.component(gen))
        _add_form(table, omega_lambda(ctx, mu).times_poly(coeff * piece), -1)
    return _form(ctx, _add_form(table, d_h(U), -1))
