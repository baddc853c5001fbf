"""Wedge algebra, the two differentials, projections, variational
operators, Lepage forms, Lie derivatives and currents."""

import random
from fractions import Fraction

import pytest

from gvc import (
    ContactDerivation,
    EVEN,
    ExpansionLimitError,
    GvcError,
    Lagrangian,
    ODD,
    conservation_residual,
    d_h,
    d_v,
    euler_lagrange,
    interior,
    is_variationally_trivial,
    lepage_equivalent,
    lie_derivative,
    noether_current,
    omega_lambda,
    omega_pair,
    project_rho,
    superpotential_residual,
    variational_delta,
    variational_derivative,
    variational_derivatives,
    volume,
)
from gvc.bicomplex import TH, Form, exterior_d, interior_dx, theta_letter
from gvc.jets import iterated_derivative

from util import (even_part, field_generators, first_variational_residual,
                  form_from_poly, interior_frame, letter_wedge_left, make_context, odd_part,
                  oracle_add, oracle_d_h, oracle_interior,
                  oracle_interior_dx, oracle_interior_frame, oracle_letter_wedge_left,
                  oracle_project_rho, oracle_wedge, random_form, random_jet, random_poly,
                  random_vertical, scale)


class TestWedge:
    def test_horizontal_one_forms_anticommute(self):
        ctx = make_context(2)
        dx0, dx1 = Form.dx(ctx, 0), Form.dx(ctx, 1)
        assert dx0.wedge(dx1) == -(dx1.wedge(dx0))
        assert dx0.wedge(dx0).is_zero()

    def test_odd_contact_forms_commute_and_square(self):
        ctx = make_context(2)
        th = Form.theta(ctx, "q1")
        other = Form.theta(ctx, "q2")
        assert th.wedge(other) == other.wedge(th)
        assert not th.wedge(th).is_zero()

    def test_even_contact_forms_anticommute(self):
        ctx = make_context(2)
        th = Form.theta(ctx, "s1")
        assert th.wedge(th).is_zero()

    def test_volume_overflow(self):
        ctx = make_context(2)
        assert volume(ctx).wedge(Form.dx(ctx, 0)).is_zero()

    def test_associativity_random(self):
        ctx = make_context(2)
        rng = random.Random(41)
        for _ in range(25):
            a = random_form(rng, ctx, rng.randint(0, 1), rng.randint(0, 1))
            b = random_form(rng, ctx, rng.randint(0, 1), rng.randint(0, 1))
            c = random_form(rng, ctx, rng.randint(0, 1), rng.randint(0, 1))
            assert (a.wedge(b)).wedge(c) == a.wedge(b.wedge(c))

    def test_sign_rule_on_homogeneous_pairs(self):
        ctx = make_context(2)
        rng = random.Random(42)
        for _ in range(30):
            k1, h1 = rng.randint(0, 1), rng.randint(0, 1)
            k2, h2 = rng.randint(0, 1), rng.randint(0, 1)
            for p1 in (EVEN, ODD):
                for p2 in (EVEN, ODD):
                    a = random_form(rng, ctx, k1, h1, terms=1)
                    b = random_form(rng, ctx, k2, h2, terms=1)
                    a = Form(ctx, {w: even_part(f) if p1 == EVEN else odd_part(f)
                                   for w, f in a.terms.items()})
                    b = Form(ctx, {w: even_part(f) if p2 == EVEN else odd_part(f)
                                   for w, f in b.terms.items()})
                    # parities of the full terms include the contact legs
                    def total_parity(form):
                        ps = set()
                        for w, f in form.terms.items():
                            fp = f.parity()
                            wp = sum(1 for ell in w if ell[0] == 1
                                     and ell[1].parity == ODD) % 2
                            ps.add((fp + wp) % 2)
                        return ps.pop() if len(ps) == 1 else None

                    pa, pb = total_parity(a), total_parity(b)
                    if pa is None or pb is None:
                        continue
                    deg_sign = (-1) ** ((k1 + h1) * (k2 + h2))
                    par_sign = (-1) ** (pa * pb)
                    lhs = a.wedge(b)
                    rhs = scale(b.wedge(a), deg_sign * par_sign)
                    assert lhs == rhs


class TestDifferentials:
    def test_dh_on_field(self):
        ctx = make_context(2)
        got = d_h(form_from_poly(ctx.var("s1")))
        want = Form.dx(ctx, 0).times_poly(ctx.var("s1", 0)) + \
            Form.dx(ctx, 1).times_poly(ctx.var("s1", 1))
        assert got == want

    def test_dh_on_contact_leg(self):
        ctx = make_context(2)
        got = d_h(Form.theta(ctx, "s1"))
        want = Form.dx(ctx, 0).wedge(Form.theta(ctx, "s1", (0,))) + \
            Form.dx(ctx, 1).wedge(Form.theta(ctx, "s1", (1,)))
        assert got == want

    def test_dv_on_field(self):
        ctx = make_context(2)
        assert d_v(form_from_poly(ctx.var("s1"))) == Form.theta(ctx, "s1")

    def test_dv_leibniz_with_parity_sign(self):
        ctx = make_context(2)
        p = ctx.var("s1", 0) * ctx.var("s2")
        got = d_v(form_from_poly(p))
        want = Form.theta(ctx, "s1", (0,)).times_poly(ctx.var("s2")) + \
            Form.theta(ctx, "s2").times_poly(ctx.var("s1", 0))
        assert got == want

    def test_nilpotency_random(self):
        rng = random.Random(43)
        for dim in (2, 3):
            ctx = make_context(dim)
            for _ in range(20):
                phi = random_form(rng, ctx, rng.randint(0, 2), rng.randint(0, dim - 1),
                                  max_order=2)
                assert d_h(d_h(phi)).is_zero()
                assert d_v(d_v(phi)).is_zero()
                assert (d_h(d_v(phi)) + d_v(d_h(phi))).is_zero()
                assert exterior_d(exterior_d(phi)).is_zero()


class TestProjection:
    def test_fixed_point(self):
        ctx = make_context(1)
        phi = Form.theta(ctx, "s1").wedge(volume(ctx).times_poly(ctx.var("s1", 0)))
        assert project_rho(phi) == phi

    def test_one_integration_by_parts(self):
        ctx = make_context(1)
        f = ctx.var("s1") * ctx.var("s1", 0)
        phi = Form.theta(ctx, "s1", (0,)).wedge(volume(ctx).times_poly(f))
        from gvc.jets import total_derivative
        want = -Form.theta(ctx, "s1").wedge(
            volume(ctx).times_poly(total_derivative(0, f)))
        assert project_rho(phi) == want

    def test_annihilates_horizontal_differentials(self):
        rng = random.Random(44)
        ctx = make_context(2)
        for _ in range(20):
            psi = random_form(rng, ctx, 1, ctx.dim - 1, max_order=2)
            assert project_rho(d_h(psi)).is_zero() or d_h(psi).is_zero()

    def test_wrong_bidegree_rejected(self):
        ctx = make_context(2)
        with pytest.raises(GvcError):
            project_rho(Form.theta(ctx, "s1"))
        with pytest.raises(GvcError):
            project_rho(volume(ctx))


class TestVariationalOperator:
    def test_matches_euler_lagrange_assembly(self):
        ctx = make_context(1)
        L = Lagrangian(Fraction(1, 2) * ctx.var("s1", 0) * ctx.var("s1", 0)
                       + ctx.var("q1") * ctx.var("q1", 0))
        assert variational_delta(L.form) == euler_lagrange(L).as_form()

    def test_below_top_degree_rejected(self):
        ctx = make_context(2)
        phi = omega_lambda(ctx, 0).times_poly(ctx.var("s1"))
        with pytest.raises(GvcError, match="variational operator needs top horizontal degree"):
            variational_delta(phi)

    def test_delta_squared_zero(self):
        rng = random.Random(45)
        ctx = make_context(2)
        for _ in range(12):
            phi = random_form(rng, ctx, rng.randint(0, 1), ctx.dim, max_order=1)
            assert variational_delta(variational_delta(phi)).is_zero()

    def test_delta_kills_horizontal_exact(self):
        rng = random.Random(46)
        ctx = make_context(2)
        for _ in range(12):
            xi = random_form(rng, ctx, 0, ctx.dim - 1, max_order=1)
            assert variational_delta(d_h(xi)).is_zero()


class TestEulerLagrange:
    def test_free_field(self):
        ctx = make_context(1, evens=1, odds=0)
        L = Lagrangian(Fraction(1, 2) * ctx.var("s1", 0) * ctx.var("s1", 0))
        el = euler_lagrange(L)
        assert el.component("s1") == -ctx.var("s1", 0, 0)

    def test_horizontal_exact_is_trivial(self):
        rng = random.Random(47)
        ctx = make_context(2)
        for _ in range(10):
            xi = random_form(rng, ctx, 0, ctx.dim - 1, max_order=1)
            density = d_h(xi).terms.get(tuple(volume(ctx).terms)[0])
            if density is None:
                continue
            assert is_variationally_trivial(Lagrangian(density))

    def test_single_exact_density(self):
        ctx = make_context(2, evens=1, odds=0)
        from gvc.jets import total_derivative
        L = Lagrangian(total_derivative(0, ctx.var("s1") * ctx.var("s1")))
        assert is_variationally_trivial(L)

    def test_nonzero_field_equation_not_trivial(self):
        ctx = make_context(1, evens=1, odds=0)
        L = Lagrangian(Fraction(1, 2) * ctx.var("s1", 0) * ctx.var("s1", 0))
        assert not is_variationally_trivial(L)

    def test_zero_density_trivial(self):
        ctx = make_context(1)
        assert is_variationally_trivial(Lagrangian(ctx.zero()))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_matches_per_variable_reference(self, side):
        ctx = make_context(2)
        rng = random.Random(48)
        for _ in range(20):
            density = random_poly(rng, ctx, terms=5)
            want = {}
            for v in density.variables():
                if v.gen.kind == "coordinate":
                    continue
                term = iterated_derivative(v.index, density.deriv(v, side))
                if len(v.index) & 1:
                    term = -term
                want[v.gen] = want.get(v.gen, ctx.zero()) + term
            want = {g: p for g, p in want.items() if not p.is_zero()}
            assert variational_derivatives(density, side) == want
            for gen in field_generators(ctx):
                assert (variational_derivative(density, gen, side)
                        == want.get(gen, ctx.zero()))
            if side == "left":
                assert euler_lagrange(Lagrangian(density)).components == want


class TestLepage:
    def test_free_field_form(self):
        ctx = make_context(1, evens=1, odds=0)
        L = Lagrangian(Fraction(1, 2) * ctx.var("s1", 0) * ctx.var("s1", 0))
        xi = lepage_equivalent(L)
        want = L.form + Form.theta(ctx, "s1").wedge(
            omega_lambda(ctx, 0).times_poly(ctx.var("s1", 0)))
        assert xi == want

    def test_jetless_density_unchanged(self):
        ctx = make_context(2)
        L = Lagrangian(ctx.var("s1") * ctx.var("s1"))
        assert lepage_equivalent(L) == L.form

    def test_second_order_rejected(self):
        ctx = make_context(1, evens=1, odds=0)
        L = Lagrangian(ctx.var("s1", 0, 0))
        with pytest.raises(GvcError):
            lepage_equivalent(L)


class TestLieDerivative:
    def test_density_rule_for_vertical(self):
        rng = random.Random(48)
        ctx = make_context(2)
        from gvc.jets import prolong_apply
        for _ in range(10):
            for parity in (EVEN, ODD):
                theta = random_vertical(rng, ctx, parity)
                f = random_poly(rng, ctx, max_order=1)
                got = lie_derivative(theta, volume(ctx).times_poly(f))
                want = volume(ctx).times_poly(prolong_apply(theta, f))
                assert got == want

    def test_product_rule_with_parity_sign(self):
        rng = random.Random(49)
        ctx = make_context(2)
        for _ in range(10):
            for parity in (EVEN, ODD):
                theta = random_vertical(rng, ctx, parity)
                a = random_form(rng, ctx, 1, 0, terms=1, max_order=1)
                ap = _form_parity(a)
                if ap is None:
                    continue
                b = random_form(rng, ctx, 0, 1, terms=1, max_order=1)
                lhs = lie_derivative(theta, a.wedge(b))
                sign = -1 if (parity and ap) else 1
                rhs = lie_derivative(theta, a).wedge(b) + \
                    scale(a.wedge(lie_derivative(theta, b)), sign)
                assert lhs == rhs

    def test_zero_derivation(self):
        ctx = make_context(2)
        theta = ContactDerivation(ctx, {}, EVEN)
        phi = volume(ctx).times_poly(ctx.var("s1"))
        assert lie_derivative(theta, phi).is_zero()


def _form_parity(form):
    ps = set()
    for w, f in form.terms.items():
        fp = f.parity()
        if fp is None:
            return None
        wp = sum(1 for ell in w if ell[0] == 1 and ell[1].parity == ODD) % 2
        ps.add((fp + wp) % 2)
    if not ps:
        return EVEN
    return ps.pop() if len(ps) == 1 else None


class TestVariationalFormula:
    def test_constant_shift_on_free_field(self):
        ctx = make_context(1, evens=1, odds=0)
        L = Lagrangian(Fraction(1, 2) * ctx.var("s1", 0) * ctx.var("s1", 0))
        shift = ContactDerivation(ctx, {"s1": ctx.one()}, EVEN)
        assert first_variational_residual(shift, L).is_zero()

    def test_zero_derivation(self):
        ctx = make_context(1)
        L = Lagrangian(ctx.var("s1") * ctx.var("q1") * ctx.var("q1", 0))
        theta = ContactDerivation(ctx, {}, EVEN)
        assert first_variational_residual(theta, L).is_zero()

    def test_random_first_order(self):
        rng = random.Random(50)
        ctx = make_context(2)
        for _ in range(10):
            for parity in (EVEN, ODD):
                L = Lagrangian(random_poly(rng, ctx, terms=3, max_order=1))
                theta = random_vertical(rng, ctx, parity)
                assert first_variational_residual(theta, L).is_zero()


class TestNoetherCurrent:
    def test_shift_current_free_field(self):
        ctx = make_context(1, evens=1, odds=0)
        L = Lagrangian(Fraction(1, 2) * ctx.var("s1", 0) * ctx.var("s1", 0))
        shift = ContactDerivation(ctx, {"s1": ctx.one()}, EVEN)
        J = noether_current(shift, L)
        assert J == form_from_poly(-ctx.var("s1", 0))

    def test_requires_exact_symmetry(self):
        ctx = make_context(1, evens=1, odds=0)
        L = Lagrangian(ctx.var("s1") * ctx.var("s1"))
        shift = ContactDerivation(ctx, {"s1": ctx.one()}, EVEN)
        with pytest.raises(GvcError):
            noether_current(shift, L)

    def test_off_shell_identity(self):
        ctx = make_context(1, evens=1, odds=0)
        L = Lagrangian(Fraction(1, 2) * ctx.var("s1", 0) * ctx.var("s1", 0))
        shift = ContactDerivation(ctx, {"s1": ctx.one()}, EVEN)
        J = noether_current(shift, L)
        assert d_h(J) == interior(shift, variational_delta(L.form))

    def test_conservation_residual_matches_forms(self):
        # random densities of mixed parity, derivations of both parities
        # and random currents: the one-table residual equals the Form route
        rng = random.Random(57)
        for dim in (1, 2):
            ctx = make_context(dim)
            for _ in range(8):
                L = Lagrangian(random_poly(rng, ctx, terms=4, max_order=1))
                J = random_form(rng, ctx, 0, dim - 1, terms=3, max_order=1)
                for parity in (EVEN, ODD):
                    theta = random_vertical(rng, ctx, parity)
                    want = d_h(J) - interior(theta, variational_delta(L.form))
                    assert conservation_residual(theta, J, euler_lagrange(L)) == want

    def test_zero_derivation_zero_current(self):
        ctx = make_context(1)
        L = Lagrangian(ctx.var("s1", 0) * ctx.var("s1", 0))
        theta = ContactDerivation(ctx, {}, EVEN)
        assert noether_current(theta, L).is_zero()


class TestSuperpotential:
    def test_zero_everything(self):
        ctx = make_context(2)
        el = euler_lagrange(Lagrangian(ctx.zero()))
        res = superpotential_residual(Form.zero(ctx), el, [], Form.zero(ctx))
        assert res.is_zero()

    def test_wrong_degree_rejected(self):
        ctx = make_context(2)
        el = euler_lagrange(Lagrangian(ctx.zero()))
        with pytest.raises(GvcError):
            superpotential_residual(Form.zero(ctx), el, [], volume(ctx))

    def test_horizontal_interior_products(self):
        ctx = make_context(3)
        w = volume(ctx)
        assert interior_dx(0, w) == omega_lambda(ctx, 0)
        assert interior_dx(1, omega_lambda(ctx, 0)) == omega_pair(ctx, 1, 0)
        assert omega_pair(ctx, 1, 0) == -omega_pair(ctx, 0, 1)
        # dx^lam ^ omega_lam = volume for every lam
        for lam in range(3):
            assert Form.dx(ctx, lam).wedge(omega_lambda(ctx, lam)) == w


def _oracle_context(dim):
    """Even and odd fields plus an even ghost, whose contact letters sort
    after the odd fields' ones, so even legs also follow odd letters."""
    ctx = make_context(dim)
    ctx.add_generator("g1", "ghost", EVEN)
    return ctx


def _oracle_case(rng, ctx, k, horizontal):
    """A seeded random form of contact degree k (1 to 3) and the given
    horizontal degree: mixed-parity coefficients with jets of order 0 to
    2, contact legs of order 0 to 2, and every other form carrying a
    repeated odd contact letter."""
    if k >= 2 and rng.random() < 0.5:
        odd = [g for g in field_generators(ctx) if g.parity == ODD]
        ell = theta_letter(random_jet(rng, ctx, rng.choice(odd), 2))
        rest = random_form(rng, ctx, k - 2, horizontal, terms=2)
        return letter_wedge_left(ell, letter_wedge_left(ell, rest))
    return random_form(rng, ctx, k, horizontal, terms=3)


def _legs(phi):
    return sorted({ell[1] for w in phi.terms for ell in w if ell[0] == TH},
                  key=lambda v: v.key)


class TestAgainstDenseOracles:
    """The per-word accumulators equal the dense pre-rewrite operations
    (tests/util.py) on seeded random forms."""

    def test_project_rho(self):
        ctx = _oracle_context(2)
        rng = random.Random(61)
        repeated = 0
        for _ in range(30):
            # contact degrees 1 to 3 in one form, so each gets its own 1/k
            phi = Form.zero(ctx)
            for k in rng.sample((1, 2, 3), rng.randint(1, 3)):
                phi = phi + _oracle_case(rng, ctx, k, ctx.dim)
            repeated += any(len(set(w)) < len(w) for w in phi.terms)
            assert project_rho(phi) == oracle_project_rho(phi)
        assert repeated

    @pytest.mark.parametrize("parity", [EVEN, ODD])
    def test_interior(self, parity):
        ctx = _oracle_context(2)
        rng = random.Random(63 + parity)
        for _ in range(30):
            theta = random_vertical(rng, ctx, parity)
            phi = _oracle_case(rng, ctx, rng.randint(1, 3), rng.randint(0, 2))
            assert interior(theta, phi) == oracle_interior(theta, phi)

    def test_interior_frames(self):
        ctx = _oracle_context(2)
        rng = random.Random(65)
        for _ in range(25):
            phi = _oracle_case(rng, ctx, rng.randint(1, 3), rng.randint(0, 2))
            for v in _legs(phi):
                assert interior_frame(v, phi) == oracle_interior_frame(v, phi)
            for lam in range(ctx.dim):
                assert interior_dx(lam, phi) == oracle_interior_dx(lam, phi)

    def test_d_h(self):
        ctx = _oracle_context(3)
        rng = random.Random(66)
        for _ in range(25):
            # words with and without each dx^lam in one form
            phi = Form.zero(ctx)
            for h in rng.sample(range(4), 2):
                phi = phi + _oracle_case(rng, ctx, rng.randint(1, 3), h)
            assert d_h(phi) == oracle_d_h(phi)

    def test_sums_and_wedges(self):
        ctx = _oracle_context(2)
        rng = random.Random(67)
        for _ in range(25):
            a = _oracle_case(rng, ctx, rng.randint(1, 2), rng.randint(0, 1))
            b = _oracle_case(rng, ctx, rng.randint(1, 2), rng.randint(0, 1))
            assert a + b == oracle_add(a, b)
            assert a - b == oracle_add(a, -b)
            assert a + (-a) == Form.zero(ctx)
            assert a.wedge(b) == oracle_wedge(a, b)
            for v in _legs(b):
                ell = theta_letter(v)
                assert letter_wedge_left(ell, a) == oracle_letter_wedge_left(ell, a)


class TestTimesPoly:
    def test_constant_words_scale_like_products(self):
        ctx = make_context(3)
        rng = random.Random(32)
        half = scale(Form.dx(ctx, 0), Fraction(1, 2))
        mixed = scale(Form.dx(ctx, 1), -3) + Form.dx(ctx, 2).times_poly(
            ctx.var("s1") + ctx.var("q1") * ctx.var("q2"))
        forms = (volume(ctx), omega_lambda(ctx, 1), omega_pair(ctx, 0, 2), half, half + mixed)
        for _ in range(20):
            p = random_poly(rng, ctx, dens=(1, 2, 3))
            for phi in forms:
                want = {w: p * f for w, f in phi.terms.items()}
                assert phi.times_poly(p).terms == {w: f for w, f in want.items() if f.terms}


class TestFormTermLimit:
    """The term limit bounds a form's total monomial count: each result
    below has every word under the limit of 3 and 4 monomials in all."""

    @staticmethod
    def _raises_only_in_total(ctx, op):
        whole = op()
        assert all(len(f.terms) <= 3 for f in whole.terms.values())
        assert sum(len(f.terms) for f in whole.terms.values()) == 4
        ctx.term_limit = 3
        with pytest.raises(ExpansionLimitError):
            op()

    def test_d_h(self):
        ctx = make_context(3)
        phi = Form.dx(ctx, 0).times_poly(ctx.var("s1") * ctx.var("s2"))
        self._raises_only_in_total(ctx, lambda: d_h(phi))

    def test_wedge(self):
        ctx = make_context(3)
        a = Form.dx(ctx, 0).times_poly(ctx.var("s1") + ctx.var("s2"))
        b = Form.dx(ctx, 1) + Form.dx(ctx, 2)
        self._raises_only_in_total(ctx, lambda: a.wedge(b))

    def test_interior(self):
        ctx = make_context(3)
        theta = ContactDerivation(ctx, {"s1": ctx.var("s2") + ctx.var("x0"),
                                        "s2": ctx.var("s1") + ctx.var("x1")}, EVEN)
        phi = Form.theta(ctx, "s1").wedge(Form.theta(ctx, "s2"))
        self._raises_only_in_total(ctx, lambda: interior(theta, phi))

    def test_per_word_limit_still_holds(self):
        ctx = make_context(3)
        phi = Form.dx(ctx, 0).times_poly(ctx.var("s1") * ctx.var("s2") * ctx.var("q1"))
        ctx.term_limit = 2
        with pytest.raises(ExpansionLimitError):
            d_h(phi)
