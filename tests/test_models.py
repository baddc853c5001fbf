"""Model builders: rosters, strengths, Lagrangians, field equations,
currents, superpotentials and the end-to-end verification report."""

import gc
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import gvc.bicomplex
import gvc.brst
import gvc.models
from gvc import EVEN, GvcError, Lagrangian, ODD, euler_lagrange
from gvc.bicomplex import (EulerLagrange, Form, conservation_residual, d_h, interior,
                           lie_derivative, noether_current, superpotential_residual,
                           variational_delta, volume)
from gvc.brst import (NoetherOperator, master_derivation, master_equation_check,
                      nilpotency_residuals, orbit_representatives, orbit_roots, paired_sum)
from gvc.grassmann import ExpansionLimitError, Poly
from gvc.jets import ContactDerivation, prolong_apply, total_derivative
from gvc.models import GaugeModel, Metric, run_parts
from gvc.modelfile import parse_model, spec_model
from gvc.presets import PRESET_MODEL_TEXT, preset_model
from gvc.reporting import CheckResult
from gvc.superlie import LieSuperalgebra, bracket

from util import (abelian_algebra, assert_normal, constant_parameter_symmetry,
                  first_variational_residual, mass_term_lagrangian, rescaled_model_text,
                  scale, su2_algebra, superbracket, sym_jet, sym_quadratic_lagrangian)

GOLDEN = Path(__file__).parent / "golden"
SL21_MODEL = Path(__file__).resolve().parent.parent / "bench" / "sl21.model"
SL3_MODEL = SL21_MODEL.with_name("sl3.model")


@pytest.fixture(scope="module")
def su2():
    return preset_model("su2")


@pytest.fixture(scope="module")
def abelian():
    return preset_model("abelian")


@pytest.fixture(scope="module")
def osp12():
    return preset_model("osp12")


@pytest.fixture(scope="module")
def sl21():
    return spec_model(parse_model(SL21_MODEL.read_text(encoding="utf-8")))


@pytest.fixture(scope="module")
def sl3():
    return spec_model(parse_model(SL3_MODEL.read_text(encoding="utf-8")))


class TestMetric:
    def test_signature_round_trip(self):
        m = Metric.from_signature("+--")
        assert m.dim == 3
        assert m.signature() == "+--"
        assert m.signs == (1, -1, -1)

    def test_bad_signature(self):
        with pytest.raises(GvcError):
            Metric.from_signature("+0-")


class TestFrozenContext:
    def test_built_model_refuses_new_generators(self):
        model = GaugeModel(su2_algebra(), Metric.from_signature("+--"))
        ctx = model.ctx
        before = dict(ctx.generators)
        with pytest.raises(GvcError, match="frozen"):
            ctx.add_generator("spectator", "even-field", EVEN)
        assert ctx.generators == before
        for model in (preset_model("osp12"),
                      spec_model(parse_model(SL21_MODEL.read_text(encoding="utf-8")))):
            with pytest.raises(GvcError, match="frozen"):
                model.ctx.add_generator("spectator", "odd-field", ODD)

    def test_new_jets_of_registered_generators_still_intern(self):
        model = GaugeModel(su2_algebra(), Metric.from_signature("+--"))
        ctx = model.ctx
        a = model.field[0][0]
        v = ctx.jet(a, (2, 0, 1))
        assert v is ctx.jet(a, (0, 1, 2)) and v.order == 3
        assert ctx.raised(ctx.jet(a, (1,)), 2) is ctx.jet(a, (1, 2))
        assert prolong_apply(model.gauge_operator(), ctx.var(a, 1, 2)) == \
            total_derivative(2, total_derivative(1, model.gauge_operator().component(a)))


class TestRoster:
    def test_abelian_n4(self):
        model = GaugeModel(abelian_algebra(), Metric.from_signature("+---"))
        fields = [g for g in model.ctx.generators.values() if g.kind == "even-field"]
        ghosts = [g for g in model.ctx.generators.values() if g.kind == "ghost"]
        # 4 gauge components plus 1 parameter field; one odd ghost
        assert len([g for g in fields if g.name.startswith("a")]) == 4
        assert len(ghosts) == 1 and ghosts[0].parity == ODD

    def test_su2_gradings(self, su2):
        assert len([g for g in su2.ctx.generators.values()
                    if g.name.startswith("a") and g.kind == "even-field"]) == 12
        for r in range(3):
            assert su2.ghost[r].parity == ODD
            assert su2.ghost[r].ghost_number == 1
            assert su2.ghost[r].antifield_number == -1
            for mu in range(4):
                assert su2.antifield[r][mu].parity == ODD
                assert su2.antifield[r][mu].antifield_number == 1
            assert su2.noether_antifield[r].parity == EVEN
            assert su2.noether_antifield[r].antifield_number == 2

    def test_graded_roster_flips_parities(self, osp12):
        alg = osp12.algebra
        for r in range(alg.dim):
            expected = alg.parities[r]
            for mu in range(2):
                assert osp12.field[r][mu].parity == expected
                assert osp12.antifield[r][mu].parity == (expected + 1) % 2
            assert osp12.ghost[r].parity == (expected + 1) % 2
            assert osp12.noether_antifield[r].parity == expected
            assert osp12.parameter[r].parity == expected
            assert osp12.parameter[r].kind == osp12.field[r][0].kind
        # odd algebra directions give even ghosts
        assert osp12.ghost[alg.index("x")].parity == EVEN
        assert osp12.parameter[alg.index("x")].kind == "odd-field"

    def test_one_pairing(self, su2):
        pairs = su2.pairs()
        assert su2.pairs() is pairs
        assert len(pairs) == 3 * 4 + 3
        for r in range(3):
            assert pairs[su2.ghost[r]] is su2.noether_antifield[r]
            for mu in range(4):
                assert pairs[su2.field[r][mu]] is su2.antifield[r][mu]
        assert list(su2.noether_operator().rows) == ["cbar1", "cbar2", "cbar3"]

    def test_unvalidated_algebra_rejected(self):
        bad = su2_algebra()
        bad.set_constant("e2", "e1", "e2", 1)
        with pytest.raises(GvcError):
            GaugeModel(bad, Metric.from_signature("+-"))


class TestStrength:
    def test_abelian_is_jet_antisymmetrization(self, abelian):
        ctx = abelian.ctx
        got = abelian.strength(0, 0, 1)
        want = ctx.var(abelian.field[0][1], 0) \
            - ctx.var(abelian.field[0][0], 1)
        assert got == want

    def test_su2_quadratic_term(self, su2):
        ctx = su2.ctx
        got = su2.strength(0, 0, 1)
        want = ctx.var(su2.field[0][1], 0) \
            - ctx.var(su2.field[0][0], 1) \
            + ctx.var(su2.field[1][0]) * ctx.var(su2.field[2][1]) \
            - ctx.var(su2.field[2][0]) * ctx.var(su2.field[1][1])
        assert got == want

    def test_antisymmetry(self, su2, osp12):
        # built for lam < mu alone, the strength is the closed formula in
        # every order of the two directions
        for model in (su2, osp12):
            ctx = model.ctx
            for r in range(model.algebra.dim):
                for lam in range(model.metric.dim):
                    for mu in range(model.metric.dim):
                        want = ctx.var(model.field[r][mu], lam) - ctx.var(model.field[r][lam], mu)
                        for _, i, j, c in (e for e in model.constants if e[0] == r):
                            want += c * ctx.var(model.field[i][lam]) * ctx.var(model.field[j][mu])
                        assert model.strength(r, lam, mu) == want
                        assert (model.strength(r, lam, mu)
                                + model.strength(r, mu, lam)).is_zero()
                    assert model.strength(r, lam, lam).is_zero()

    def test_split_reconstructs_jet(self, su2, osp12):
        for model in (su2, osp12):
            ctx = model.ctx
            for r in range(model.algebra.dim):
                for lam in range(model.metric.dim):
                    for mu in range(model.metric.dim):
                        recon = model.strength(r, lam, mu) + sym_jet(model, r, lam, mu)
                        want = 2 * ctx.var(model.field[r][mu], lam)
                        assert recon == want

    def test_graded_odd_quadratic_survives(self, osp12):
        # two odd directions contribute a nonzero symmetric-constant term
        alg = osp12.algebra
        x = alg.index("x")
        f_idx = alg.index("f")
        strength = osp12.strength(f_idx, 0, 1)
        ctx = osp12.ctx
        quad = ctx.var(osp12.field[x][0]) * ctx.var(osp12.field[x][1])
        collected = {m: c for m, c in strength.terms.items() if m in quad.terms}
        assert collected  # the c^f_xx a^x a^x piece is present


class TestLagrangian:
    def test_abelian_maxwell_term_count(self):
        model = GaugeModel(abelian_algebra(), Metric.from_signature("+---"))
        density = model.ym_lagrangian().density
        # 6 independent strength components, each squared into 3 monomials
        assert len(density.terms) == 18
        assert density.parity() == EVEN

    def test_su2_color_sum(self, su2):
        density = su2.ym_lagrangian().density
        assert density.parity() == EVEN
        colors = {v.gen.name[1] for v in density.variables()}
        assert colors == {"1", "2", "3"}

    def test_graded_density_is_even(self, osp12):
        assert osp12.ym_lagrangian().density.parity() == EVEN

    def test_missing_form_rejected(self):
        from gvc.superlie import LieSuperalgebra

        alg = LieSuperalgebra(["e1"], [EVEN])
        model = GaugeModel(alg, Metric.from_signature("+-"))
        with pytest.raises(GvcError):
            model.ym_lagrangian()


class TestFieldEquations:
    def test_abelian_maxwell_form(self):
        model = GaugeModel(abelian_algebra(), Metric.from_signature("+---"))
        ctx = model.ctx
        generic = model.generic_euler_lagrange()
        from gvc.jets import total_derivative
        for mu in range(4):
            want = ctx.zero()
            for lam in range(4):
                pi = ctx.zero()
                coeff = model.metric.signs[mu] * model.metric.signs[lam]
                pi += coeff * model.strength(0, mu, lam)
                want += total_derivative(lam, pi)
            assert generic.component(model.field[0][mu]) == want

    def test_two_paths_agree(self, su2, abelian, osp12, sl21):
        # the closed route on every field, the reference for the check's
        # reduced table
        sl3 = spec_model(parse_model(SL3_MODEL.read_text(encoding="utf-8")))
        for model in (abelian, su2, osp12, sl3, sl21):
            generic = model.generic_euler_lagrange()
            closed = model.closed_euler_lagrange()
            gens = set(generic.components) | set(closed.components)
            assert len(closed.components) == model.algebra.dim * model.metric.dim
            for g in gens:
                assert (generic.component(g) - closed.component(g)).is_zero()

    @pytest.mark.parametrize("name, count", [
        ("abelian", 2), ("su2", 4), ("osp12", 6), ("sl21", 16), ("sl3", 12)])
    def test_closed_route_on_one_field_per_orbit(self, name, count, monkeypatch):
        path = {"sl21": SL21_MODEL, "sl3": SL3_MODEL}.get(name)
        model = spec_model(parse_model(path.read_text(encoding="utf-8"))) if path \
            else preset_model(name)
        asked, closed = [], GaugeModel.closed_euler_lagrange

        def counted(model, fields=None):
            asked.append(fields)
            return closed(model, fields)

        monkeypatch.setattr(GaugeModel, "closed_euler_lagrange", counted)
        (result,) = model.pipeline("euler-lagrange", deterministic=True)
        assert result.ok
        # abelian has no algebra map, so its whole table runs
        fields = [g for row in model.field for g in row]
        reps = model._representatives("euler-lagrange")
        if model.algebra_maps():
            assert model._fixes("L")
            assert reps == orbit_roots(model.algebra_maps(), fields)
        else:
            assert reps is None
        chosen = [g for g in fields if reps is None or g in reps]
        assert asked == [chosen] and len(chosen) == count

    def test_mass_term_off_the_representatives_fails_the_whole_table(self, monkeypatch):
        # a mass term on a3_3 moves under the algebra maps,
        # and it changes the generic field equation of a3_3 alone, which
        # is on no representative: the L proof fails, the whole table
        # runs, and its row is the unreduced route's
        su2 = preset_model("su2")
        assert {g.name for g in su2._representatives("euler-lagrange")} == {
            "a1_0", "a1_1", "a1_2", "a1_3"}
        models, lines = [], []
        for reduced in (True, False):
            model = preset_model("su2")
            L = Lagrangian(model.ym_lagrangian(validate=False).density
                           + model.ctx.var(model.field[2][3]) ** 2)
            monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True, L=L: L)
            if not reduced:
                monkeypatch.setattr(model, "_representatives", lambda check: None)
            (row,) = model.pipeline("euler-lagrange", deterministic=True)
            models.append(model)
            lines.append(row.line())
        assert not row.ok and row.nonzero == 1 and row.witness.startswith("a3_3: ")
        assert lines[0] == lines[1]
        assert models[0]._representatives("euler-lagrange") is None


class TestSymmetries:
    def test_parameter_symmetry_is_exact(self, su2):
        res = lie_derivative(su2.parameter_symmetry(), su2.ym_lagrangian().form)
        assert res.is_zero()

    def test_gauge_operator_components(self, su2):
        ctx = su2.ctx
        u = su2.gauge_operator()
        comp = u.component(su2.field[0][2])
        want = ctx.var(su2.ghost[0], 2) \
            + ctx.var(su2.field[1][2]) * ctx.var(su2.ghost[2]) \
            - ctx.var(su2.field[2][2]) * ctx.var(su2.ghost[1])
        assert comp == want

    def test_abelian_gauge_operator_pure_derivative(self, abelian):
        ctx = abelian.ctx
        u = abelian.gauge_operator()
        assert u.component(abelian.field[0][1]) == ctx.var(abelian.ghost[0], 1)

    def test_graded_gauge_operator_sign(self, osp12):
        ctx = osp12.ctx
        alg = osp12.algebra
        u = osp12.gauge_operator()
        r = alg.index("x")
        comp = u.component(osp12.field[r][0])
        want = ctx.var(osp12.ghost[r], 0)
        for j in range(alg.dim):
            for i in range(alg.dim):
                c = alg.constant(r, j, i)
                if c:
                    want -= c * (ctx.var(osp12.ghost[j]) * ctx.var(osp12.field[i][0]))
        assert comp == want

    def test_gauge_operator_is_exact_symmetry(self, su2, abelian, osp12):
        for model in (abelian, su2, osp12):
            res = lie_derivative(model.gauge_operator(), model.ym_lagrangian().form)
            assert res.is_zero()

    def test_parameter_symmetry_components(self, su2):
        ctx = su2.ctx
        comp = su2.parameter_symmetry().component(su2.field[0][2])
        want = ctx.var(su2.parameter[0], 2) \
            + ctx.var(su2.field[1][2]) * ctx.var(su2.parameter[2]) \
            - ctx.var(su2.field[2][2]) * ctx.var(su2.parameter[1])
        assert comp == want

    def test_bracket_of_constant_symmetries(self, su2):
        # the map from parameters to symmetries preserves brackets
        u1 = constant_parameter_symmetry(su2, [1, 0, 0])
        u2 = constant_parameter_symmetry(su2, [0, 1, 0])
        lhs = superbracket(u1, u2)
        vec = bracket(su2.algebra, [1, 0, 0], [0, 1, 0])
        rhs = constant_parameter_symmetry(su2, vec)
        gens = set(lhs.components) | set(rhs.components)
        for g in gens:
            assert (lhs.component(g) - rhs.component(g)).is_zero()

    def test_bracket_of_field_dependent_symmetries(self):
        # two independent parameter families: the symmetry of the pointwise
        # bracket equals the derivation bracket of the two symmetries
        from gvc import ContactDerivation
        from gvc.jets import total_derivative

        model = GaugeModel(su2_algebra(), Metric.from_signature("+--"))
        ctx = model.ctx
        # the built context is frozen: the second family is a set of even
        # generators it already holds and that xi does not touch
        eta = [model.aux_sym[(r, 0, 0)] for r in range(3)]
        assert all(g.kind == "even-field" and g.parity == EVEN for g in eta)

        def symmetry_from_sources(sources):
            comps = {}
            for r in range(3):
                for mu in range(3):
                    comp = total_derivative(mu, sources[r])
                    for j in range(3):
                        for i in range(3):
                            c = model.algebra.constant(r, j, i)
                            if c:
                                comp -= c * (sources[j]
                                             * ctx.var(model.field[i][mu]))
                    comps[model.field[r][mu]] = comp
            return ContactDerivation(ctx, comps, EVEN)

        xi_src = [ctx.var(model.parameter[r]) for r in range(3)]
        eta_src = [ctx.var(eta[r]) for r in range(3)]
        u_xi = symmetry_from_sources(xi_src)
        u_eta = symmetry_from_sources(eta_src)
        lhs = superbracket(u_xi, u_eta)
        bracket_src = []
        for r in range(3):
            acc = ctx.zero()
            for i in range(3):
                for j in range(3):
                    c = model.algebra.constant(r, i, j)
                    if c:
                        acc += c * (xi_src[i] * eta_src[j])
            bracket_src.append(acc)
        rhs = symmetry_from_sources(bracket_src)
        gens = set(lhs.components) | set(rhs.components)
        for g in gens:
            assert (lhs.component(g) - rhs.component(g)).is_zero()


class TestCurrents:
    def test_current_closed_form(self, su2):
        # J^lam = -(transform of a^r_mu) * (metric-contracted strength)
        from gvc.bicomplex import omega_lambda

        ctx = su2.ctx
        u = su2.parameter_symmetry()
        want = Form.zero(ctx)
        for lam in range(4):
            comp = ctx.zero()
            for r in range(3):
                for mu in range(4):
                    pi = su2.momentum(r, lam, mu)
                    if not pi.is_zero():
                        comp -= u.component(su2.field[r][mu]) * pi
            want += omega_lambda(ctx, lam).times_poly(comp)
        assert su2.current() == want

    def test_first_variational_formula_for_gauge_symmetry(self, su2):
        res = first_variational_residual(su2.parameter_symmetry(),
                                         su2.ym_lagrangian())
        assert res.is_zero()

    def test_current_conservation_off_shell(self, su2):
        current = su2.current()
        residual = d_h(current) - interior(su2.parameter_symmetry(),
                                           variational_delta(su2.ym_lagrangian().form))
        assert residual.is_zero()

    def test_superpotential_decomposition(self, su2):
        from gvc.bicomplex import superpotential_residual

        res = superpotential_residual(su2.current(), su2.generic_euler_lagrange(),
                                      su2.superpotential_rows(), su2.superpotential())
        assert res.is_zero()

    @pytest.mark.parametrize("name", ["osp12", "sl21"])
    def test_graded_parameter_residuals_vanish(self, name, request):
        """Parameters carry their directions' parities, so the parameter
        symmetry, current conservation and superpotential hold on graded
        models too."""
        from gvc.bicomplex import superpotential_residual

        model = request.getfixturevalue(name)
        assert not model.all_even
        assert model.parameter_lie_derivative().is_zero()
        current = model.current()
        residual = d_h(current) - interior(model.parameter_symmetry(),
                                           variational_delta(model.ym_lagrangian().form))
        assert residual.is_zero()
        assert not model.superpotential().is_zero()
        assert superpotential_residual(current, model.generic_euler_lagrange(),
                                       model.superpotential_rows(),
                                       model.superpotential()).is_zero()

    def test_symmetrized_superpotential_fails(self, su2):
        from gvc.bicomplex import omega_pair, superpotential_residual

        ctx = su2.ctx
        n = su2.metric.dim
        bad = Form.zero(ctx)
        for nu in range(n):
            for mu in range(nu + 1, n):
                comp = ctx.zero()
                for r in range(3):
                    pi = su2.momentum(r, nu, mu)
                    if not pi.is_zero():
                        comp += ctx.var(su2.parameter[r]) * pi
                # wrong sign on the swapped slot: symmetric instead of
                # antisymmetric, entering through a doubled contribution
                if not comp.is_zero():
                    bad += omega_pair(ctx, nu, mu).times_poly(comp) \
                        + omega_pair(ctx, mu, nu).times_poly(comp)
        res = superpotential_residual(su2.current(), su2.generic_euler_lagrange(),
                                      su2.superpotential_rows(), bad)
        assert not res.is_zero()


class TestDensityRoutes:
    """The pipelines' density routes against the Form route they replace:
    equal forms, so equal `nonzero` counts and `first` witnesses."""

    @staticmethod
    def assert_same_row(got, want):
        assert got == want
        assert CheckResult.from_form("x", got).line() == CheckResult.from_form("x", want).line()

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_conservation_residual_matches_forms(self, name, request):
        model = request.getfixturevalue(name)
        theta, el = model.parameter_symmetry(), model.generic_euler_lagrange()
        delta = variational_delta(model.ym_lagrangian().form)
        current = model.current()
        rng = random.Random(name)
        words = sorted(current.terms)
        for scaled in (None, rng.choice(words)):
            factor = rng.choice((2, 3, -1, Fraction(1, 2)))
            J = Form(model.ctx, {w: f * factor if w == scaled else f
                                 for w, f in current.terms.items()})
            got = conservation_residual(theta, J, el)
            self.assert_same_row(got, d_h(J) - interior(theta, delta))
            assert got.is_zero() == (scaled is None)

    def test_conservation_residual_rejects_other_degrees(self, su2):
        theta, el = su2.parameter_symmetry(), su2.generic_euler_lagrange()
        for bad in (su2.ym_lagrangian().form, su2.superpotential()):
            with pytest.raises(GvcError, match="codegree 1"):
                conservation_residual(theta, bad, el)

    @pytest.mark.parametrize("name", ["abelian", "su2", "osp12", "sl21"])
    def test_lie_derivatives_match_forms(self, name, request):
        model = request.getfixturevalue(name)
        L = model.ym_lagrangian()
        rng = random.Random(name)
        for theta in (model.gauge_operator(), model.parameter_symmetry()):
            doubled = rng.choice(sorted(theta.components, key=lambda g: g.key))
            perturbed = ContactDerivation(model.ctx, {
                g: c * 2 if g is doubled else c for g, c in theta.components.items()},
                theta.parity)
            for t in (theta, perturbed):
                got = model.lie_derivative(t)
                self.assert_same_row(got, lie_derivative(t, L.form))
                assert got.is_zero() == (t is theta)

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_field_equations_match_the_form_route(self, name, request):
        model = request.getfixturevalue(name)
        el = model.generic_euler_lagrange()
        assert not el.is_zero()
        assert variational_delta(model.ym_lagrangian().form) == el.as_form()


def _unreduced_form(model, check):
    """The check's Form by the whole derivation at once, as before the
    checks were split by direction."""
    L, el = model.ym_lagrangian(), model.generic_euler_lagrange()
    theta = model.parameter_symmetry()
    if check == "gauge-symmetry":
        return model.lie_derivative(model.gauge_operator())
    if check == "parameter-symmetry":
        return model.lie_derivative(theta)
    current = noether_current(theta, L)
    if check == "current-conservation":
        return conservation_residual(theta, current, el)
    return superpotential_residual(current, el, model.superpotential_rows(),
                                   model.superpotential())


def _unreduced_row(model, check):
    (row,) = run_parts([(check, lambda n: CheckResult.from_form(n, _unreduced_form(model, n)))],
                       deterministic=True)
    return row.line()


SYMMETRY_CHECKS = ("parameter-symmetry", "current-conservation", "superpotential",
                   "gauge-symmetry")


class TestParameterOrbits:
    """The parameter and gauge symmetry checks, each a sum over algebra
    directions q of a residual linear in the source xi^q or c^q, on one
    direction per orbit of the algebra maps, against the whole
    derivation."""

    @staticmethod
    def _batches(monkeypatch):
        """The source names of each batch the symmetry checks evaluate."""
        batches = []
        original = gvc.models.on_representatives

        def recording(evaluate, moved, representatives=None):
            def record(gens):
                # parameters and ghosts alone; the Noether rows and
                # Koszul-Tate batches hold antifields, the BRST square's
                # gauge fields
                if gens and all(g.kind == "ghost" or g.name.startswith("xi") for g in gens):
                    batches.append([g.name for g in gens])
                return evaluate(gens)

            return original(record, moved, representatives)

        monkeypatch.setattr(gvc.models, "on_representatives", recording)
        return batches

    @staticmethod
    def _prolonged(monkeypatch):
        """The derivations whose L_theta L the symmetry checks take, in
        order, each with whether the jet route prolonged it on L's
        polynomial, which it does only when the split route is nonzero."""
        thetas, calls = [], []
        lie, prolong = GaugeModel.lie_derivative, gvc.models.prolong_apply

        def recording(model, theta):
            start = len(calls)
            out = lie(model, theta)
            density = model.ym_lagrangian().density
            thetas.append((theta, any(p is density for _, p in calls[start:])))
            return out

        def counted(theta, p):
            calls.append((theta, p))
            return prolong(theta, p)

        monkeypatch.setattr(GaugeModel, "lie_derivative", recording)
        monkeypatch.setattr(gvc.models, "prolong_apply", counted)
        return thetas

    @staticmethod
    def _rows(model):
        return {row.name: row for pipeline in ("noether", "brst")
                for row in model.pipeline(pipeline, deterministic=True)}

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_parts_sum_to_the_whole(self, name, request):
        model = request.getfixturevalue(name)
        ctx, m, n = model.ctx, model.algebra.dim, model.metric.dim
        every = tuple(range(m))
        L, el = model.ym_lagrangian(), model.generic_euler_lagrange()
        mass = mass_term_lagrangian(model).density
        for kind, check in (("parameter", "parameter-symmetry"), ("gauge", "gauge-symmetry")):
            theta, sources = model._symmetry(kind)
            parts = [model._part(kind, (q,)) for q in range(m)]
            assert model._part(kind, every).components == theta.components
            for q, part in enumerate(parts):
                # D_mu sources[q] on a^q_mu, -c^r_qi sources[q] a^i_mu on a^r_mu
                want = {model.field[q][mu]: ctx.var(sources[q], mu) for mu in range(n)}
                for r, j, i, c in model.constants:
                    for mu in range(n):
                        if j == q:
                            want[model.field[r][mu]] = want.get(model.field[r][mu], ctx.zero()) \
                                - c * (ctx.var(sources[q]) * ctx.var(model.field[i][mu]))
                assert part.parity == theta.parity
                assert part.components == {g: p for g, p in want.items() if not p.is_zero()}
            # on a density that breaks the symmetry the parts' Lie
            # derivatives share no term and sum to the whole
            lies = [prolong_apply(t, mass) for t in parts]
            assert all(not p.is_zero() for p in lies)
            assert sum(lies, ctx.zero()) == prolong_apply(theta, mass)
            assert sum(len(p.terms) for p in lies) == len(prolong_apply(theta, mass).terms)
            assert model._by_direction(kind, lambda qs: model._lie(kind, qs)) == \
                _unreduced_form(model, check)
        theta = model.parameter_symmetry()
        currents = [model.current((q,)) for q in range(m)]
        whole = noether_current(theta, L)
        assert not whole.is_zero() and sum(currents, Form.zero(ctx)) == whole == model.current()
        # doubled currents and superpotentials leave nonzero residuals
        conserved = [conservation_residual(model._part("parameter", (q,)), scale(currents[q], 2),
                                           el) for q in range(m)]
        assert sum(conserved, Form.zero(ctx)) == conservation_residual(theta, scale(whole, 2), el)
        spread = [superpotential_residual(currents[q], el, model.superpotential_rows((q,)),
                                          scale(model.superpotential((q,)), 2)) for q in range(m)]
        assert sum(spread, Form.zero(ctx)) == superpotential_residual(
            whole, el, model.superpotential_rows(), scale(model.superpotential(), 2))
        assert all(not f.is_zero() for f in conserved + spread)
        assert sum((model.superpotential((q,)) for q in range(m)), Form.zero(ctx)) == \
            model.superpotential()

    def test_invariant_perturbation_is_caught_on_representatives(self, monkeypatch):
        # the mass term is fixed by every algebra map and breaks both
        # symmetries: the first direction fails, the rest follows, and each
        # row is the whole derivation's
        model = preset_model("su2")
        L = Lagrangian(model.ym_lagrangian().density + mass_term_lagrangian(model).density)
        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        batches = self._batches(monkeypatch)
        rows = self._rows(model)
        assert batches == [["xi1"], ["xi2", "xi3"], ["xi1"], ["xi1"], ["c1"], ["c2", "c3"]]
        for check in SYMMETRY_CHECKS:
            assert not rows[check].ok
            assert rows[check].line() == _unreduced_row(model, check)
        assert "not an exact symmetry" in rows["current-conservation"].witness

    def test_invariant_residuals_are_caught_on_representatives(self, monkeypatch):
        # L is invariant, but doubled currents and superpotentials, fixed
        # by every map, leave a residual in every direction
        model = preset_model("su2")
        current, superpotential = model.current, model.superpotential
        batches = self._batches(monkeypatch)
        monkeypatch.setattr(model, "current", lambda q=None: scale(current(q), 2))
        row = dict(model._noether_parts())["current-conservation"]("current-conservation")
        monkeypatch.delattr(model, "current")
        monkeypatch.setattr(model, "superpotential", lambda q=None: scale(superpotential(q), 2))
        rows = self._rows(model)
        assert batches == [["xi1"], ["xi2", "xi3"], ["xi1"], ["xi1"], ["xi1"], ["xi2", "xi3"],
                           ["c1"]]
        theta, el = model.parameter_symmetry(), model.generic_euler_lagrange()
        want = conservation_residual(theta, scale(current(), 2), el)
        assert not row.ok and row.line() == CheckResult.from_form(row.name, want).line()
        assert not rows["superpotential"].ok
        assert rows["superpotential"].line() == _unreduced_row(model, "superpotential")

    def test_a_component_breaking_a_map_forces_the_full_route(self, monkeypatch):
        # the last direction's component on a3_0 gains its source times
        # a3_0: the algebra maps no longer carry it, and only that
        # direction's piece fails, so the representative alone would pass
        original = GaugeModel._gauge_components

        def broken(model, sources):
            comps = original(model, sources)
            q = model.algebra.dim - 1
            a = model.field[q][0]
            comps[a] = comps[a] + model.ctx.var(sources[q]) * model.ctx.var(a)
            return comps

        monkeypatch.setattr(GaugeModel, "_gauge_components", broken)
        model = preset_model("su2")
        batches, prolonged = self._batches(monkeypatch), self._prolonged(monkeypatch)
        rows = self._rows(model)
        assert batches == []
        # the split route is nonzero on both, so the rows are the jet route's
        assert prolonged == [(model.parameter_symmetry(), True), (model.gauge_operator(), True)]
        for kind in ("parameter", "gauge"):
            assert model._representatives(kind) is None
            lies = [model.lie_derivative(model._part(kind, (q,))) for q in range(3)]
            assert [p.is_zero() for p in lies] == [True, True, False]
        for check in SYMMETRY_CHECKS:
            assert not rows[check].ok
            assert rows[check].line() == _unreduced_row(model, check)

    @pytest.mark.parametrize("extra", ["no source", "three sources"])
    def test_a_term_without_one_source_runs_unreduced(self, extra, monkeypatch):
        # every parameter-symmetry component gains the field, or the
        # parameter, of its direction times h_ij a^i_0 a^j_0, or times
        # h_ij xi^i xi^j: the algebra maps still commute with it, but such a
        # term would belong to no part, or to three
        original = GaugeModel._gauge_components

        def patched(model, sources):
            comps = original(model, sources)
            if sources is model.parameter:
                ctx, n = model.ctx, model.metric.dim
                pair = [model.field[r][0] for r in range(3)] if extra == "no source" \
                    else model.parameter
                scalar = sum((ctx.product(h, (ctx.jet(pair[i]), ctx.jet(pair[j])))
                              for i, j, h in model.form_entries), ctx.zero())
                for r in range(3):
                    for mu in range(n):
                        first = model.field[r][mu] if extra == "no source" else sources[r]
                        a = model.field[r][mu]
                        comps[a] = comps[a] + ctx.var(first) * scalar
            return comps

        monkeypatch.setattr(GaugeModel, "_gauge_components", patched)
        model = preset_model("su2")
        theta = model.parameter_symmetry()
        carried = paired_sum(model.ctx, theta.components, model.pairs())
        assert orbit_representatives(carried, model.pairs(), model.algebra_maps(),
                                     model.parameter) == {model.parameter[0]}
        prolonged = self._prolonged(monkeypatch)
        rows = self._rows(model)
        assert model._representatives("parameter") is None
        assert prolonged[0] == (theta, True)
        assert not rows["parameter-symmetry"].ok
        for check in SYMMETRY_CHECKS:
            assert rows[check].line() == _unreduced_row(model, check)

    def test_abelian_runs_unreduced(self, monkeypatch):
        model = preset_model("abelian")
        batches, prolonged = self._batches(monkeypatch), self._prolonged(monkeypatch)
        rows = self._rows(model)
        assert model.algebra_maps() == [] and batches == []
        assert prolonged == [(model.parameter_symmetry(), False), (model.gauge_operator(), False)]
        assert all(rows[check].ok for check in SYMMETRY_CHECKS)

    def test_a_source_in_L_runs_unreduced(self, monkeypatch):
        # h_ij xi^i xi^j is fixed by every algebra map, but with it the parts
        # of two directions may share terms, so no part stands for another
        model = preset_model("su2")
        ctx = model.ctx
        extra = ctx.zero()
        for i, j, h in model.form_entries:
            extra += ctx.product(h, (ctx.jet(model.parameter[i]), ctx.jet(model.parameter[j])))
        L = Lagrangian(model.ym_lagrangian().density + extra)
        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        assert model._fixes("L")
        batches, prolonged = self._batches(monkeypatch), self._prolonged(monkeypatch)
        rows = self._rows(model)
        assert model._representatives("parameter") is None
        assert model._representatives("gauge") == {model.ghost[0]}
        assert batches == [["c1"]]
        assert prolonged == [(model.parameter_symmetry(), False),
                             (model._part("gauge", (0,)), False)]
        for check in SYMMETRY_CHECKS:
            assert rows[check].line() == _unreduced_row(model, check)

    @pytest.mark.parametrize("name", ["su2", "sl21"])
    def test_order_of_the_maps_changes_nothing(self, name, request, monkeypatch):
        shared = request.getfixturevalue(name)
        maps = shared.algebra_maps()
        assert len(maps) == 2
        pairs = shared.pairs()
        for kind in ("parameter", "gauge"):
            theta, sources = shared._symmetry(kind)
            carried = paired_sum(shared.ctx, theta.components, pairs)
            reps = [orbit_representatives(carried, pairs, order, sources)
                    for order in (maps, maps[::-1])]
            assert reps[0] == reps[1] == shared._representatives(kind)
            assert len(reps[0]) < len(sources)
        lines, runs = [], []
        for order in (maps, maps[::-1]):
            model = preset_model(name) if name == "su2" else spec_model(
                parse_model(SL21_MODEL.read_text(encoding="utf-8")))
            monkeypatch.setattr(model, "algebra_maps", lambda order=order: order)
            runs.append(self._batches(monkeypatch))
            lines.append([row.line() for row in model.full_verification(True).results])
            monkeypatch.undo()
        assert runs[0] == runs[1] and lines[0] == lines[1]

    def test_term_limit_on_the_reduced_current_route(self):
        # the Lepage form, built for the representative's current, is the
        # largest table of the noether pipeline on su2
        lepage = preset_model("su2").lepage_form()
        limit = sum(len(f.terms) for f in lepage.terms.values()) - 1
        model = spec_model(parse_model(PRESET_MODEL_TEXT["su2"]), term_limit=limit)
        parts = model._noether_parts()
        assert all(row.ok for row in run_parts(parts[:2]))
        assert model._representatives("parameter") == {model.parameter[0]}
        with pytest.raises(ExpansionLimitError, match="limit %d" % limit):
            run_parts(parts[2:3])


class TestSplitRoute:
    """L_theta L and the Utiyama tables in the split coordinates: phi(L),
    and the conjugated derivation phi theta phi^-1 on it, against
    `split_coordinates` and against L_theta L prolonged in jets."""

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl3", "sl21"])
    def test_conjugated_derivation_is_phi_of_theta(self, name, request):
        # the own L (whose phi(L) is built factor-wise), a mass term and a
        # symmetric-quadratic L, each phi(L) kept with its own L; the even
        # parameter symmetry and the odd gauge operator, a part of one
        # direction and the whole
        model = request.getfixturevalue(name)
        own, m = model.ym_lagrangian(), model.algebra.dim
        every = tuple(range(m))
        for L in (own, mass_term_lagrangian(model), sym_quadratic_lagrangian(model)):
            assert model._split(L) == model.split_coordinates(L.density)
            for kind in ("parameter", "gauge"):
                for directions in ((0,), every):
                    theta = model._part(kind, directions)
                    got = model._split_lie(theta, L)
                    assert got == model.split_coordinates(prolong_apply(theta, L.density))
                    assert got.is_zero() == (L is own)
        assert model._split(own) is model._split(own)

    @pytest.mark.parametrize("name, order", [
        ("su2", None), ("su2", 1), ("su2", 2), ("osp12", None), ("osp12", 1), ("osp12", 2),
        ("sl21", 1)])
    def test_rows_are_the_jet_routes(self, name, order, monkeypatch):
        # with the own L, plus a mass term or a symmetric-quadratic term,
        # at each maximum jet order, each symmetry row is that of L_theta L
        # prolonged in jets: zero, nonzero and raised alike
        text = SL21_MODEL.read_text(encoding="utf-8") if name == "sl21" \
            else PRESET_MODEL_TEXT[name]
        lines = []
        for extra in (None, mass_term_lagrangian, sym_quadratic_lagrangian):
            model = spec_model(parse_model(text), max_jet_order=order)
            if extra is not None:
                L = Lagrangian(model.ym_lagrangian().density + extra(model).density)
                monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True, L=L: L)
            for kind, check in (("parameter", "parameter-symmetry"), ("gauge", "gauge-symmetry")):
                theta = model._symmetry(kind)[0]
                got, want = run_parts([
                    (check, lambda n: CheckResult.from_form(n, model.lie_derivative(theta))),
                    (check, lambda n: CheckResult.from_form(n, volume(model.ctx).times_poly(
                        prolong_apply(theta, model.ym_lagrangian().density))))], True)
                assert got.line() == want.line()
                lines.append(got)
        assert [row.ok for row in lines] == [order != 1] * 2 + [False] * 4
        if order == 1:
            assert all("exceeds configured maximum 1" in row.witness for row in lines)

    def test_a_split_coordinate_in_L_takes_the_jet_route(self, su2, monkeypatch):
        # F^1_01 - Fs1_01 is zero under phi, which is not injective on a
        # density holding a split coordinate: the jet route decides
        L = Lagrangian(su2.strength(0, 0, 1) - su2.ctx.var(su2.aux_strength[(0, 0, 1)]))
        theta = su2.parameter_symmetry()
        assert su2.split_coordinates(L.density).is_zero()
        assert su2._split_lie(theta, L) is None
        monkeypatch.setattr(su2, "ym_lagrangian", lambda validate=True: L)
        assert su2.lie_derivative(theta) == volume(su2.ctx).times_poly(
            prolong_apply(theta, L.density))
        assert not su2.lie_derivative(theta).is_zero()


class TestInvarianceConditions:
    def test_quadratic_strength_density_passes(self, su2):
        sym, fld, contr = su2.invariance_conditions()
        assert all(p.is_zero() for p in sym.values())
        assert all(p.is_zero() for p in fld.values())
        assert all(p.is_zero() for p in contr.values())

    def test_mass_term_fails_field_independence_only(self, su2):
        sym, fld, contr = su2.invariance_conditions(mass_term_lagrangian(su2))
        assert all(p.is_zero() for p in sym.values())
        assert any(not p.is_zero() for p in fld.values())
        assert all(p.is_zero() for p in contr.values())

    def test_sym_quadratic_fails_strength_dependence_only(self, su2):
        sym, fld, contr = su2.invariance_conditions(sym_quadratic_lagrangian(su2))
        assert any(not p.is_zero() for p in sym.values())
        assert all(p.is_zero() for p in fld.values())
        assert all(p.is_zero() for p in contr.values())

    def test_contraction_matches_operator_sum(self, su2):
        # linear in one strength, so the contraction rows are nonzero
        ctx, n = su2.ctx, su2.metric.dim
        L = Lagrangian(su2.strength(0, 0, 1))
        partial = dict(su2.split_coordinates(L.density).partials())
        want = {"q%d" % (q + 1): ctx.zero() for q in range(su2.algebra.dim)}
        for r, p, q, c in su2.algebra.graded_constants():
            for lam in range(n):
                for mu in range(lam + 1, n):
                    dpoly = partial.get(ctx.jet(su2.aux_strength[(r, lam, mu)]))
                    if dpoly is not None:
                        want["q%d" % (q + 1)] += c * (
                            ctx.var(su2.aux_strength[(p, lam, mu)]) * dpoly)
        _, _, got = su2.invariance_conditions(L)
        assert got == want
        assert any(not p.is_zero() for p in got.values())

    @pytest.mark.parametrize("name", ["osp12", "sl21"])
    def test_graded_contraction_vanishes(self, name, request):
        """The graded Yang-Mills density passes the contraction condition;
        the sign (-1)^{|p||q|} is what makes its odd-odd rows cancel."""
        model = request.getfixturevalue(name)
        assert not model.all_even
        _, _, contr = model.invariance_conditions()
        assert sorted(contr) == sorted("q%d" % (q + 1) for q in range(model.algebra.dim))
        assert all(p.is_zero() for p in contr.values())

    @pytest.mark.parametrize("labels, rows", [
        # odd strengths: only constants of one odd and one even index enter
        (("x", "y"), ["q4", "q5"]),
        # linear in F^h, which c^h_xy = -1 ties to an odd-odd pair
        (("h",), ["q2", "q3", "q4", "q5"]),
    ])
    def test_graded_contraction_matches_signed_oracle(self, osp12, labels, rows):
        ctx, alg, n = osp12.ctx, osp12.algebra, osp12.metric.dim
        density = ctx.one()
        for label in labels:
            density = density * osp12.strength(alg.index(label), 0, 1)
        L = Lagrangian(density)
        partial = dict(osp12.split_coordinates(L.density).partials())
        want = {"q%d" % (q + 1): ctx.zero() for q in range(alg.dim)}
        for r, p, q, c in alg.graded_constants():
            sign = (-1) ** (alg.parities[p] * alg.parities[q])
            for lam in range(n):
                for mu in range(lam + 1, n):
                    dpoly = partial.get(ctx.jet(osp12.aux_strength[(r, lam, mu)]))
                    if dpoly is not None:
                        want["q%d" % (q + 1)] += (sign * c) * (
                            ctx.var(osp12.aux_strength[(p, lam, mu)]) * dpoly)
        _, _, got = osp12.invariance_conditions(L)
        assert got == want
        assert sorted(q for q, p in got.items() if not p.is_zero()) == rows

    def test_second_order_density_rejected(self, su2):
        ctx = su2.ctx
        L = Lagrangian(ctx.var(su2.field[0][0], 0, 0))
        with pytest.raises(GvcError):
            su2.invariance_conditions(L)


class TestOneTableBuilders:
    """Each builder that sums into one table equals the same sum taken
    with polynomial operators."""

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_match_operator_sums(self, name, request):
        model = request.getfixturevalue(name)
        ctx, alg, n = model.ctx, model.algebra, model.metric.dim
        var, consts = ctx.var, alg.graded_constants()
        for r in range(alg.dim):
            for lam in range(n):
                for mu in range(n):
                    want = ctx.zero()
                    for s, i, j, c in consts:
                        if s == r:
                            want += c * (var(model.field[i][lam]) * var(model.field[j][mu]))
                    assert model._twist_sum(r, lam, mu) == want
        for sources in (model.ghost, model.parameter):
            want = {model.field[r][mu]: var(sources[r], mu)
                    for r in range(alg.dim) for mu in range(n)}
            for r, j, i, c in consts:
                for mu in range(n):
                    want[model.field[r][mu]] -= c * (var(sources[j]) * var(model.field[i][mu]))
            assert model._gauge_components(sources) == want
        want = {}
        for r, i, j, c in consts:
            sign = Fraction(1, 2) if alg.parities[i] == ODD else Fraction(-1, 2)
            want[model.ghost[r]] = want.get(model.ghost[r], ctx.zero()) + (sign * c) * (
                var(model.ghost[i]) * var(model.ghost[j]))
        assert model.ghost_sector() == {g: p for g, p in want.items() if not p.is_zero()}
        want = ctx.zero()
        for i, j, h in alg.graded_form():
            for mu in range(n):
                want += (h * model.metric.signs[mu]) * (var(model.field[i][mu])
                                                        * var(model.field[j][mu]))
        assert mass_term_lagrangian(model).density == want
        half, mapping = Fraction(1, 2), {}
        for r in range(alg.dim):
            for mu in range(n):
                for lam in range(n):
                    key = (r, min(lam, mu), max(lam, mu))
                    sym = var(model.aux_sym[key])
                    strength = var(model.aux_strength[key]) if lam != mu else ctx.zero()
                    if lam <= mu:
                        repl = half * (strength + sym)
                    else:
                        repl = half * (sym - strength) + model._twist_sum(r, mu, lam)
                    mapping[ctx.jet(model.field[r][mu], (lam,))] = repl
        density = model.ym_lagrangian().density
        assert model.split_coordinates(density) == density.substitute(mapping)


class TestDimensionSweep:
    @pytest.mark.parametrize("signature", ["++", "+-", "++-", "+--"])
    def test_noether_identities_any_dimension(self, signature):
        model = GaugeModel(su2_algebra(), Metric.from_signature(signature))
        from gvc.brst import noether_residuals

        res = noether_residuals(model.noether_operator(),
                                model.generic_euler_lagrange())
        assert all(p.is_zero() for p in res.values())

    @pytest.mark.parametrize("signature", ["+++", "-+-"])
    def test_abelian_gauge_symmetry_any_dimension(self, signature):
        model = GaugeModel(abelian_algebra(), Metric.from_signature(signature))
        res = lie_derivative(model.gauge_operator(), model.ym_lagrangian().form)
        assert res.is_zero()


class TestFullVerification:
    def test_abelian_all_pass(self, abelian):
        report = abelian.full_verification(deterministic=True)
        assert report.ok

    def test_graded_all_pass(self, osp12):
        report = osp12.full_verification(deterministic=True)
        assert report.ok

    def test_graded_reports_drop_the_even_only_checks(self, su2, osp12):
        even = [r.name for r in su2.full_verification(deterministic=True).results]
        graded = [r.name for r in osp12.full_verification(deterministic=True).results]
        assert set(GaugeModel.EVEN_ONLY_CHECKS) <= set(even)
        assert graded == [n for n in even if n not in GaugeModel.EVEN_ONLY_CHECKS]

    def test_koszul_tate_compared_row_by_row(self, monkeypatch):
        # the rows with their last entry doubled, so every row has a nonzero
        # residual: the row from the kept residuals is the direct square's
        model = preset_model("su2")
        op, el = model.noether_operator(), model.generic_euler_lagrange()
        rows = {}
        for label, entries in op.rows.items():
            coeff, gen, index = entries[-1]
            rows[label] = entries[:-1] + [(coeff * 2, gen, index)]
        doubled = NoetherOperator(model.ctx, rows)
        monkeypatch.setattr(model, "noether_operator", lambda: doubled)
        noe = gvc.brst.noether_residuals(doubled, el)
        assert all(not p.is_zero() for p in noe.values())
        kt = gvc.brst.koszul_tate(doubled, el, model.pairs())
        monkeypatch.setattr(model, "koszul_tate", lambda: kt)
        (row,) = model.pipeline("koszul-tate", deterministic=True)
        want = CheckResult.from_residuals("koszul-tate", nilpotency_residuals(kt))
        assert not row.ok and row.line() == want.line()

    def test_pipeline_subset(self, su2):
        report = su2.full_verification(deterministic=True,
                                       pipelines=["validate-algebra", "koszul-tate"])
        names = [r.name for r in report.results]
        assert names == ["algebra-structure", "invariant-form", "koszul-tate"]
        assert report.ok

    def test_missing_form_surfaces_as_failure(self):
        from gvc.superlie import LieSuperalgebra

        alg = LieSuperalgebra(["e1"], [EVEN])
        model = GaugeModel(alg, Metric.from_signature("+-"))
        report = model.full_verification(deterministic=True,
                                         pipelines=["master-equation"])
        assert not report.ok
        assert "invariant form" in report.results[0].witness


class TestMasterEquationWitnesses:
    """The master-equation row on densities other than the proper solution."""

    def test_plain_lagrangian_is_a_trivial_solution(self, monkeypatch):
        model = preset_model("su2")
        monkeypatch.setattr(model, "extended_lagrangian", model.ym_lagrangian)
        (row,) = model.pipeline("master-equation", deterministic=True)
        assert not row.ok and row.witness == "solution is trivial"

    def test_perturbed_ghost_term_fails_the_bracket(self, monkeypatch):
        model = preset_model("su2")
        ghost, pairs = model.ghost[0], model.pairs()
        # the ghost term s(c1) cbar1 of the proper solution, counted twice
        term = model.brst_operator().components[ghost] * model.ctx.var(pairs[ghost])
        perturbed = Lagrangian(model.extended_lagrangian().density + term)
        monkeypatch.setattr(model, "extended_lagrangian", lambda: perturbed)
        (row,) = model.pipeline("master-equation", deterministic=True)
        el = euler_lagrange(gvc.brst.antibracket(perturbed, perturbed, pairs))
        assert not el.is_zero()
        want = CheckResult.from_residuals(
            "master-equation", {g.name: p for g, p in el.components.items()})
        assert not row.ok and row.line() == want.line()


class TestBasisRescaling:
    """sl(2|1) in its supertrace basis, whose constants include +-1/2, and
    with every odd basis vector doubled, where every constant is an
    integer: the rational and the integral kernel paths must agree."""

    @pytest.fixture(scope="class")
    def bases(self):
        spec = parse_model(SL21_MODEL.read_text(encoding="utf-8"))
        doubled = parse_model(rescaled_model_text(
            spec, {name: 2 for name, parity in spec.generators if parity == ODD}))
        assert any(c.denominator != 1 for *_, c, _ in spec.constants)
        assert all(c.denominator == 1 for *_, c, _ in doubled.constants)
        assert all(h.denominator == 1 for *_, h, _ in doubled.form_entries)
        return spec_model(spec), spec_model(doubled)

    @pytest.mark.parametrize("pipeline", ["koszul-tate", "brst", "master-equation"])
    def test_checks_pass_on_both_bases(self, bases, pipeline):
        for model in bases:
            rows = model.pipeline(pipeline, deterministic=True)
            assert rows and all(row.ok for row in rows)

    def test_perturbed_ghost_term_fails_alike(self, bases, monkeypatch):
        """The perturbation of `TestMasterEquationWitnesses`, on the ghost
        of H1, whose s(c) has coefficients +-1/2 in the supertrace basis."""
        rows, labels, dens = [], [], []
        for model in bases:
            ghost, pairs = model.ghost[model.algebra.index("H1")], model.pairs()
            s_c = model.brst_operator().components[ghost]
            dens.append(s_c.den)
            # the ghost term s(c) cbar of the proper solution, counted twice
            perturbed = Lagrangian(model.extended_lagrangian().density
                                   + s_c * model.ctx.var(pairs[ghost]))
            monkeypatch.setattr(model, "extended_lagrangian", lambda: perturbed)
            (row,) = model.pipeline("master-equation", deterministic=True)
            assert not row.ok
            rows.append((row.nonzero, row.witness.split(":")[0]))
            residuals = master_equation_check(perturbed, pairs).bracket_residuals()
            labels.append({label: len(p.terms) for label, p in residuals.items()})
        assert dens[0] != 1 and dens[1] == 1
        assert rows[0] == rows[1] and labels[0] == labels[1] and labels[0]


class TestBuildOnce:
    def test_shared_objects_built_once_per_full_run(self, monkeypatch):
        calls = {}

        def count(name):
            original = getattr(gvc.models, name)

            def counted(*args, **kwargs):
                calls.setdefault(name, []).append(args)
                return original(*args, **kwargs)

            monkeypatch.setattr(gvc.models, name, counted)

        names = ("check_structure", "check_invariant_form", "noether_residuals",
                 "euler_lagrange", "noether_current", "lepage_equivalent")
        for name in names:
            count(name)
        densities, tables, derived = [], [], []
        for module in (gvc.bicomplex, gvc.brst):
            def counted_derivatives(density, side="left", gens=None,
                                    original=module.variational_derivatives):
                densities.append(density)
                tables.append(original(density, side, gens))
                return tables[-1]

            monkeypatch.setattr(module, "variational_derivatives", counted_derivatives)
        paired = gvc.brst._paired_derivation

        def counted_paired(ctx, left, pairs):
            derived.append(left)
            return paired(ctx, left, pairs)

        monkeypatch.setattr(gvc.brst, "_paired_derivation", counted_paired)
        model = preset_model("su2")
        assert model.full_verification().ok
        assert {name: len(calls.get(name, ())) for name in names} == dict.fromkeys(names, 1)
        assert calls["euler_lagrange"][0] == (model.ym_lagrangian(),)
        # the variational derivatives of L, the generic field equations,
        # and of S - L, which Theta_S adds to them; Theta_{S - L}, which is
        # squared, is built from that same table
        assert [p is q for p, q in zip(densities, (model.ym_lagrangian().density,
                                                    model._s_minus_l()))] == [True, True]
        assert len(densities) == 2
        assert len(derived) == 2 and derived[0] is not tables[1] and derived[1] is tables[1]

    def test_parameter_lie_derivative_computed_once(self, monkeypatch):
        calls, lies, currents, form_lies, lepages = [], [], [], [], []
        prolong, lie, current, form_lie, lepage = (
            gvc.models.prolong_apply, GaugeModel.lie_derivative, gvc.models.noether_current,
            gvc.bicomplex.lie_derivative, gvc.models.lepage_equivalent)

        def counted(theta, p):
            calls.append((theta, p))
            return prolong(theta, p)

        def counted_lie(model, theta):
            lies.append(theta)
            return lie(model, theta)

        def counted_current(theta, L, lie=None, lepage=None):
            currents.append((theta, lie, lepage))
            return current(theta, L, lie=lie, lepage=lepage)

        def counted_form_lie(theta, phi):
            form_lies.append(theta)
            return form_lie(theta, phi)

        def counted_lepage(L):
            lepages.append(L)
            return lepage(L)

        monkeypatch.setattr(gvc.models, "prolong_apply", counted)
        monkeypatch.setattr(GaugeModel, "lie_derivative", counted_lie)
        monkeypatch.setattr(gvc.models, "noether_current", counted_current)
        monkeypatch.setattr(gvc.bicomplex, "lie_derivative", counted_form_lie)
        monkeypatch.setattr(gvc.models, "lepage_equivalent", counted_lepage)
        model = preset_model("su2")
        assert model.full_verification().ok
        # su2's three directions are one orbit of its algebra maps: L_theta L
        # of the first direction's part of the parameter symmetry for
        # parameter-symmetry, and of the gauge operator's for gauge-symmetry,
        # each by the split route: the part on the 18 strengths, the
        # conjugated derivation once on phi(L); never on L's polynomial, and
        # none on forms
        L = model.ym_lagrangian()
        image = model._split(L)
        xi, ghost = model._part("parameter", (0,)), model._part("gauge", (0,))
        assert lies == [xi, ghost]
        assert not any(p is L.density for _, p in calls)
        assert [p is image for _, p in calls] == ([False] * 18 + [True]) * 2
        assert [theta for theta, p in calls if p is not image] == [xi] * 18 + [ghost] * 18
        assert form_lies == []
        # that part's current takes its own L_theta as the precondition,
        # and the one Lepage form
        assert [(theta, lie is model._lie("parameter", (0,)), xi_L is model.lepage_form())
                for theta, lie, xi_L in currents] == [(xi, True, True)]
        assert len(lepages) == 1 and lepages[0] is model.ym_lagrangian()
        # the whole current takes L_theta of the whole part once, reuses it
        # and the same Lepage form
        model.current()
        whole = model._part("parameter", (0, 1, 2))
        assert lies[2:] == [whole] and not any(p is L.density for _, p in calls)
        assert [(theta, lie is model._lie("parameter", (0, 1, 2)), xi_L is model.lepage_form())
                for theta, lie, xi_L in currents[1:]] == [(whole, True, True)]
        assert len(lepages) == 1 and form_lies == []
        assert model.parameter_symmetry() is model.parameter_symmetry()
        # sl(2|1)'s gauge-symmetry: L_theta L of the part of its four
        # representative directions, by the split route
        lies.clear()
        calls.clear()
        sl21 = spec_model(parse_model(SL21_MODEL.read_text(encoding="utf-8")))
        assert all(row.ok for row in sl21.pipeline("brst"))
        assert lies == [sl21._part("gauge", (0, 2, 3, 4))]
        assert not any(p is sl21.ym_lagrangian().density for _, p in calls)

    def test_momentum_built_once_per_direction_pair(self, monkeypatch):
        # the momentum, like the strength, is antisymmetric in its two
        # directions: built for mu < kappa alone, once each
        asked, built = [], []
        momentum, build = GaugeModel.momentum, GaugeModel._momentum

        def counted_momentum(model, *args):
            asked.append(args)
            return momentum(model, *args)

        def counted_build(model, *args):
            built.append(args)
            return build(model, *args)

        monkeypatch.setattr(GaugeModel, "momentum", counted_momentum)
        monkeypatch.setattr(GaugeModel, "_momentum", counted_build)
        assert preset_model("su2").full_verification().ok
        assert all(mu < kappa for _, mu, kappa in built) and len(built) == len(set(built))
        assert set(built) == {(r, min(mu, kappa), max(mu, kappa)) for r, mu, kappa in asked
                              if mu != kappa}
        assert len(asked) > len(built)

    def test_koszul_tate_built_once_per_model(self, monkeypatch):
        built = []
        original = gvc.models.koszul_tate

        def counted(*args):
            built.append(args)
            return original(*args)

        monkeypatch.setattr(gvc.models, "koszul_tate", counted)
        model = preset_model("su2")
        assert model.full_verification().ok
        kt = model.koszul_tate()
        assert model.pipeline("koszul-tate")[0].ok
        assert model.koszul_tate() is kt
        assert len(built) == 1

    def test_quadratic_twist_built_once_per_argument(self, monkeypatch):
        asked, built = [], []
        twist, build = GaugeModel._quadratic_twist, GaugeModel._twist_sum

        def counted_twist(model, *args):
            asked.append(args)
            return twist(model, *args)

        def counted_build(model, *args):
            built.append(args)
            return build(model, *args)

        monkeypatch.setattr(GaugeModel, "_quadratic_twist", counted_twist)
        monkeypatch.setattr(GaugeModel, "_twist_sum", counted_build)
        assert preset_model("su2").full_verification().ok
        assert sorted(built) == sorted(set(asked))
        assert len(asked) > len(built)

    def test_brst_residuals_computed_once(self, monkeypatch):
        calls = []
        for module in (gvc.brst, gvc.models):
            def counted(theta, gens=None, original=module.nilpotency_residuals):
                calls.append(theta)
                return original(theta, gens)

            monkeypatch.setattr(module, "nilpotency_residuals", counted)
        model = preset_model("su2")
        assert model.full_verification().ok
        # besides Koszul-Tate's: the BRST square on one generator per
        # orbit, which proper_solution reuses, and the square of the
        # master derivation of S - L, which stands for Theta_S's
        calls = [theta for theta in calls if theta is not model.koszul_tate()]
        assert len(calls) == 2
        assert calls[0] is model.brst_operator()
        rest = master_derivation(Lagrangian(model._s_minus_l()), model.pairs())
        assert list(calls[1].components.items()) == list(rest.components.items())

    @pytest.mark.parametrize("name", ["su2", "sl21"])
    def test_each_density_renamed_once_per_map(self, name, monkeypatch):
        # every map is proved on L once, for the master equation, the
        # Noether rows, Koszul-Tate and the symmetry checks together, and
        # no density is renamed twice under one map
        renamed = []
        original = Poly.rename

        def counted(p, gen_map, signs):
            renamed.append((p, gen_map))
            return original(p, gen_map, signs)

        monkeypatch.setattr(Poly, "rename", counted)
        model = preset_model(name) if name == "su2" else spec_model(
            parse_model(SL21_MODEL.read_text(encoding="utf-8")))
        assert model.full_verification().ok
        L = model.ym_lagrangian().density
        maps = [gen_map for gen_map, _ in model.algebra_maps()]
        on_L = [gen_map for p, gen_map in renamed if p is L]
        assert len(on_L) == len(maps) == 2
        assert all(any(g is gen_map for g in on_L) for gen_map in maps)
        pairs = [(id(p), id(gen_map)) for p, gen_map in renamed]
        assert len(pairs) == len(set(pairs))

    @pytest.mark.parametrize("name", ["su2", "osp12"])
    def test_pipelines_in_reverse_order_match_full(self, name):
        full = preset_model(name).full_verification(deterministic=True)
        model = preset_model(name)
        rows = []
        for pipeline in reversed(GaugeModel.PIPELINES):
            rows = model.pipeline(pipeline, deterministic=True) + rows
        assert [r.line() for r in rows] == [r.line() for r in full.results]

    def test_context_freed_without_the_cycle_collector(self):
        gc.disable()
        try:
            model = preset_model("su2")
            assert model.full_verification().ok
            ref = weakref.ref(model.ctx)
            del model
            assert ref() is None
        finally:
            gc.enable()

    def test_context_fixed_after_construction(self):
        model = preset_model("su2")
        before = len(model.ctx.generators)
        model.full_verification(deterministic=True)
        model.invariance_conditions(mass_term_lagrangian(model))
        assert len(model.ctx.generators) == before

    def test_unvalidated_lagrangian_keeps_form_validation(self):
        text = PRESET_MODEL_TEXT["su2"].replace("h e1 e1 = 1", "h e1 e1 = 2")
        model = spec_model(parse_model(text))
        model.ym_lagrangian(validate=False)
        with pytest.raises(GvcError, match="invariant form fails validation"):
            model.ym_lagrangian()
        (row,) = model.pipeline("euler-lagrange", deterministic=True)
        assert not row.ok
        assert row.witness.startswith("invariant form fails validation")


class TestSparseBuilders:
    @pytest.mark.parametrize("name", ["su2", "osp12"])
    def test_builders_never_look_up_single_constants(self, name, monkeypatch):
        def refuse(alg, r, i, j):
            raise AssertionError("model builder scanned LieSuperalgebra.constant")

        monkeypatch.setattr(LieSuperalgebra, "constant", refuse)
        model = preset_model(name)
        report = model.full_verification(deterministic=True)
        assert report.render() == (GOLDEN / ("%s.txt" % name)).read_text(encoding="utf-8")
        for L in (mass_term_lagrangian(model), sym_quadratic_lagrangian(model)):
            model.invariance_conditions(L)
        model.closed_euler_lagrange()
        if model.all_even:
            constant_parameter_symmetry(model, [1] * model.algebra.dim)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
def test_reduced_rows_match_the_unreduced_route(name, order, monkeypatch):
    """At a low maximum jet order, where checks fail on the bound, every
    check of every pipeline (the graded models' gated ones included) has
    the row of the route without orbit reduction, witness and all."""
    text = SL21_MODEL.read_text(encoding="utf-8") if name == "sl21" else PRESET_MODEL_TEXT[name]
    lines = []
    for reduced in (True, False):
        model = spec_model(parse_model(text), max_jet_order=order)
        if not reduced:
            monkeypatch.setattr(model, "_representatives", lambda check: None)
        rows = [row for pipeline in GaugeModel.PIPELINES
                for row in run_parts(GaugeModel._PIPELINE_PARTS[pipeline](model), True)]
        lines.append([row.line() for row in rows])
    assert len(lines[0]) == 14 and lines[0] == lines[1]
    assert any("exceeds configured maximum %d" % order in line for line in lines[0])


def _polys(obj, seen):
    """Every polynomial reachable from a memoized model object."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, Poly):
        yield obj
    elif isinstance(obj, Form):
        for f in obj.terms.values():
            yield from _polys(f, seen)
    elif isinstance(obj, Lagrangian):
        yield from _polys(obj.density, seen)
    elif isinstance(obj, (EulerLagrange, ContactDerivation)):
        yield from _polys(obj.components, seen)
        yield from _polys(getattr(obj, "_values", {}), seen)
    elif isinstance(obj, NoetherOperator):
        for entries in obj.rows.values():
            for coeff, _, _ in entries:
                yield from _polys(coeff, seen)
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _polys(value, seen)
    elif isinstance(obj, (tuple, list)):
        for value in obj:
            yield from _polys(value, seen)


@pytest.mark.parametrize("name", ["su2", "osp12"])
def test_memoized_coefficients_are_canonical(name):
    """Every kept polynomial has int numerators over a normalised
    denominator, and its coefficients read as ints when integral."""
    model = preset_model(name)
    assert model.full_verification().ok
    polys = list(_polys(model._memo, set()))
    for p in polys:
        assert_normal(p)
    coeffs = [c for p in polys for c in p.coeffs().values()]
    assert len(coeffs) > 500
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in coeffs)
    assert any(type(c) is int for c in coeffs)
    # the quadratic Lagrangian's h/2 and the ghost sector's 1/2 are not integral
    assert any(p.den != 1 for p in polys) and any(p.den == 1 for p in polys)
