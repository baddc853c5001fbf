"""The Grassmann-graded variational bicomplex in jet coordinates.

Forms are stored over the basis one-forms dx^lam (horizontal) and
th^A_Lambda (contact); a wedge word is kept normal-ordered under the
bigraded commutation rule: two basis one-forms anticommute unless both
carry odd Grassmann parity, in which case they commute (and may repeat).
Coefficients are graded polynomials and always sit to the left of the
wedge word, with Koszul signs tracked on every reordering.
"""

from fractions import Fraction

from .grassmann import EVEN, GvcError, Poly, accumulate
from .jets import iterated_derivative, total_derivative

DX = 0
TH = 1


def dx_letter(lam):
    return (DX, lam)

def theta_letter(var):
    return (TH, var)


def _letter_parity(ell):
    return EVEN if ell[0] == DX else ell[1].parity


def _word_parity(word):
    p = 0
    for ell in word:
        if ell[0] == TH:
            p += ell[1].parity
    return p & 1


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


def _acc(table, word, poly):
    if poly.is_zero():
        return
    cur = table.get(word)
    if cur is None:
        table[word] = poly
    else:
        s = cur + poly
        if s.is_zero():
            del table[word]
        else:
            table[word] = s


class Form:
    """Bigraded exterior form: finite map wedge word -> polynomial."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = {}
        if terms:
            for w, f in terms.items():
                if not f.is_zero():
                    self.terms[w] = f

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
        out = dict(self.terms)
        for w, f in other.terms.items():
            _acc(out, w, f)
        return Form(self.ctx, out)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return Form.zero(self.ctx)
        return Form(self.ctx, {w: f * c for w, f in self.terms.items()})

    def times_poly(self, p):
        """Left multiplication by a coefficient polynomial (no signs)."""
        out = {}
        for w, f in self.terms.items():
            _acc(out, w, p * f)
        return Form(self.ctx, out)

    def wedge(self, other):
        out = {}
        for w1, f1 in self.terms.items():
            p1 = _word_parity(w1)
            for w2, f2 in other.terms.items():
                nw = _normal_word(w1 + w2)
                if nw is None:
                    continue
                sign, word = nw
                for gp, gpart in f2.parity_parts():
                    s = -sign if (gp and p1) else sign
                    _acc(out, word, (f1 * gpart) * s)
        return Form(self.ctx, out)

    # -- degrees ---------------------------------------------------------

    def max_jet_order(self):
        orders = [0]
        for w, f in self.terms.items():
            orders.append(f.max_jet_order())
            for ell in w:
                if ell[0] == TH:
                    orders.append(ell[1].order)
        return max(orders)

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


def letter_wedge_left(ell, phi):
    """ell wedge phi for a single basis one-form ell."""
    out = {}
    lp = _letter_parity(ell)
    for w, f in phi.terms.items():
        nw = _normal_word((ell,) + w)
        if nw is None:
            continue
        sign, word = nw
        for fp, fpart in f.parity_parts():
            s = -sign if (fp and lp) else sign
            _acc(out, word, fpart * s)
    return Form(phi.ctx, out)


# -- differentials ---------------------------------------------------------


def form_total_derivative(lam, phi):
    """d_lam extended to forms: acts on coefficients and raises th legs."""
    ctx = phi.ctx
    out = {}
    for w, f in phi.terms.items():
        _acc(out, w, total_derivative(lam, f))
        for i, ell in enumerate(w):
            if ell[0] != TH:
                continue
            v = ell[1]
            raised = ctx.jet(v.gen, v.index + (lam,))
            nw = _normal_word(w[:i] + (theta_letter(raised),) + w[i + 1 :])
            if nw is None:
                continue
            sign, word = nw
            _acc(out, word, f * sign)
    return Form(ctx, out)


def d_h(phi):
    """Horizontal differential dx^lam ^ d_lam."""
    out = Form.zero(phi.ctx)
    for lam in range(phi.ctx.dim):
        out += letter_wedge_left(dx_letter(lam), form_total_derivative(lam, phi))
    return out


def d_v(phi):
    """Vertical differential th^A_Lambda ^ d/d(s^A_Lambda)."""
    out = Form.zero(phi.ctx)
    for w, f in phi.terms.items():
        for v, df in f.partials():
            if v.gen.kind != "coordinate":
                out += letter_wedge_left(theta_letter(v), Form(phi.ctx, {w: df}))
    return out


def exterior_d(phi):
    return d_h(phi) + d_v(phi)


def h0(phi):
    """Horizontal projection: drop every term carrying a contact leg."""
    return Form(phi.ctx, {w: f for w, f in phi.terms.items()
                          if all(ell[0] == DX for ell in w)})


# -- interior products ------------------------------------------------------


def _contract_word(phi, op_parity, value_fn):
    """Shared graded interior-product recursion over wedge words."""
    out = {}
    for w, f in phi.terms.items():
        for fp, fpart in f.parity_parts():
            base = -1 if (fp and op_parity) else 1
            prefix_sign = 1
            prefix_parity = 0
            for i, ell in enumerate(w):
                val = value_fn(ell)
                if val is not None and not val.is_zero():
                    vp = val.require_parity()
                    move = -1 if (vp and prefix_parity & 1) else 1
                    poly = fpart * val * (base * prefix_sign * move)
                    _acc(out, w[:i] + w[i + 1 :], poly)
                lp = _letter_parity(ell)
                if not (lp and op_parity):
                    prefix_sign = -prefix_sign
                prefix_parity += lp
    return Form(phi.ctx, out)


def interior(theta, phi):
    """Contraction with a vertical contact derivation: th^A_L -> d_L(v^A)."""
    ctx = phi.ctx

    def value(ell):
        if ell[0] != TH:
            return None
        return theta.contract_variable(ell[1])

    return _contract_word(phi, theta.parity, value)


def interior_frame(var, phi):
    """Contraction with the coordinate contact frame dual to th at `var`."""
    ctx = phi.ctx
    one = ctx.one()

    def value(ell):
        if ell[0] == TH and ell[1] is var:
            return one
        if ell[0] == TH and ell[1].key == var.key:
            return one
        return None

    return _contract_word(phi, var.parity, value)


def interior_dx(lam, phi):
    """Contraction with the horizontal frame d/dx^lam."""
    ctx = phi.ctx
    one = ctx.one()

    def value(ell):
        if ell[0] == DX and ell[1] == lam:
            return one
        return None

    return _contract_word(phi, EVEN, value)


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
        out = Form.zero(self.ctx)
        om = volume(self.ctx)
        for gen, comp in self.components.items():
            out += Form.theta(self.ctx, gen).wedge(om.times_poly(comp))
        return out


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
    along v, accumulated in place."""
    ctx = density.ctx
    comps = {}
    for v, dv in density.partials(side):
        skip = v.gen.kind == "coordinate" if gens is None else v.gen not in gens
        if skip:
            continue
        items = iterated_derivative(v.index, dv).terms.items()
        if len(v.index) & 1:
            items = ((m, -c) for m, c in items)
        accumulate(ctx, comps.setdefault(v.gen, {}), items)
    return {gen: Poly(ctx, terms) for gen, terms in comps.items() if terms}


def is_variationally_trivial(L):
    """True iff every variational derivative vanishes identically.

    On the polynomial coordinate ring this is the horizontal-exactness
    criterion for densities; base-coordinate polynomials (including
    constants) are horizontally exact here since x^lam are ring elements.
    """
    return euler_lagrange(L).is_zero()


def project_rho(phi):
    """Projection onto source forms: all contact legs reduced to th^A."""
    ctx = phi.ctx
    if not phi.terms:
        return Form.zero(ctx)
    by_k = {}
    for w, f in phi.terms.items():
        h = sum(1 for ell in w if ell[0] == DX)
        k = len(w) - h
        if h != ctx.dim or k < 1:
            raise GvcError("projection needs contact degree >= 1 at top horizontal degree")
        part = by_k.setdefault(k, {})
        part[w] = f
    out = Form.zero(ctx)
    for k, terms in by_k.items():
        psi = Form(ctx, terms)
        legs = set()
        for w in terms:
            for ell in w:
                if ell[0] == TH:
                    legs.add(ell[1])
        acc = Form.zero(ctx)
        for v in sorted(legs, key=lambda u: u.key):
            contracted = interior_frame(v, psi)
            if contracted.is_zero():
                continue
            for lam in v.index:
                contracted = form_total_derivative(lam, contracted)
            piece = letter_wedge_left(theta_letter(ctx.jet(v.gen, ())), contracted)
            if len(v.index) & 1:
                piece = -piece
            acc += piece
        out += acc.scale(Fraction(1, k))
    return out


def variational_delta(phi):
    """The variational operator: projection of the exterior differential."""
    ctx = phi.ctx
    for w in phi.terms:
        if sum(1 for ell in w if ell[0] == DX) != ctx.dim:
            raise GvcError("variational operator needs top horizontal degree")
    d = exterior_d(phi)
    if d.is_zero():
        return Form.zero(ctx)
    return project_rho(d)


def lepage_equivalent(L):
    """First-order Lepage form: L plus th^A ^ (dL/d s^A_lam) omega_lam."""
    density = L.density
    ctx = L.ctx
    if density.max_jet_order() > 1:
        raise GvcError("Lepage form implemented for first-order densities only")
    xi = L.form
    for v, momentum in density.partials():
        if v.gen.kind == "coordinate" or v.order != 1:
            continue
        lam = v.index[0]
        xi += Form.theta(ctx, v.gen).wedge(omega_lambda(ctx, lam).times_poly(momentum))
    return xi


def first_variational_residual(theta, L):
    """L_theta L - theta | delta L - d_H h0(theta | Xi_L); zero when exact."""
    lie = lie_derivative(theta, L.form)
    dl = variational_delta(L.form)
    xi = lepage_equivalent(L)
    return lie - interior(theta, dl) - d_h(h0(interior(theta, xi)))


def noether_current(theta, L, lie=None):
    """Conserved current of an exact symmetry: -h0(theta | Xi_L).

    `lie`, when given, is the already computed L_theta L, used for the
    exact-symmetry precondition instead of recomputing it.
    """
    if lie is None:
        lie = lie_derivative(theta, L.form)
    if not lie.is_zero():
        raise GvcError("derivation is not an exact symmetry of the density")
    return -h0(interior(theta, lepage_equivalent(L)))


def superpotential_residual(current, el, w_rows, U):
    """current - W - d_H U for W an on-shell combination of variational
    derivatives, given as rows (coefficient, generator, multi-index, mu)."""
    ctx = current.ctx
    for w in U.terms:
        if any(ell[0] == TH for ell in w) or sum(1 for ell in w if ell[0] == DX) != ctx.dim - 2:
            raise GvcError("superpotential form must be horizontal of codegree 2")
    W = Form.zero(ctx)
    for coeff, gen, index, mu in w_rows:
        piece = iterated_derivative(tuple(index), el.component(gen))
        W += omega_lambda(ctx, mu).times_poly(coeff * piece)
    return current - W - d_h(U)
