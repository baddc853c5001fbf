"""Model builders: rosters, strengths, Lagrangians, field equations,
currents, superpotentials and the end-to-end verification report."""

import contextlib
import gc
import random
import re
import weakref
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType

import pytest

import gvc.bicomplex
import gvc.brst
import gvc.models
from gvc import EVEN, GvcError, Lagrangian, ODD, euler_lagrange
from gvc.bicomplex import (EulerLagrange, Form, conservation_residual, d_h, interior,
                           lie_derivative, noether_current, omega_lambda,
                           superpotential_residual, variational_delta, variational_derivatives,
                           volume)
from gvc.brst import (NoetherOperator, master_equation_check,
                      nilpotency_residuals, noether_residuals, paired_sum)
from gvc.grassmann import ExpansionLimitError, Poly
from gvc.jets import ContactDerivation, prolong_apply, total_derivative
from gvc.models import GaugeModel, Metric, _YangMills, run_parts
from gvc.modelfile import parse_model, spec_model
from gvc.presets import PRESET_MODEL_TEXT, preset_model
from gvc.reporting import CheckResult
from gvc.superlie import LieSuperalgebra, bracket, orbit_roots, signed_automorphisms

from util import (abelian_algebra, assert_normal, constant_parameter_symmetry, direct_routes,
                  first_variational_residual, fixed_by, generator_roots, mass_term_lagrangian,
                  oracle_add_product, oracle_coeffs, oracle_partial, oracle_poly,
                  oracle_prolong_apply, osp_model_text, random_poly, relabel, relabellings,
                  rescaled_model_text, scale, su2_algebra, superbracket, supermatrix_model_text,
                  sym_jet, sym_quadratic_lagrangian)

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
        # abelian has no algebra map, so its whole table runs; elsewhere the
        # fields of the representative directions, which are the
        # smallest-key fields of their orbits under the relabellings below
        # ten directions
        fields = [g for row in model.field for g in row]
        reps, maps = model._representatives("euler-lagrange"), model.algebra_maps()
        if maps:
            assert reps == orbit_roots(maps, model.algebra.dim)
            assert {g for r in reps for g in model.field[r]} == generator_roots(
                relabellings(model, maps), fields)
        else:
            assert reps is None
        chosen = [g for r, row in enumerate(model.field) for g in row
                  if reps is None or r in reps]
        assert asked == [chosen] and len(chosen) == count

    def test_mass_term_off_the_representatives_fails_the_whole_table(self, monkeypatch):
        # a mass term on a3_3 moves under the algebra maps,
        # and it changes the generic field equation of a3_3 alone, which
        # is on no representative: the installed L is not the model's
        # own, the whole table runs, and its row is the unreduced route's
        su2 = preset_model("su2")
        assert su2._representatives("euler-lagrange") == (0,)
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

    def test_installed_field_equations_run_the_whole_table(self, monkeypatch):
        # the model's own L with field equations that gain a term on a3_3,
        # on no representative: they are not the model's own, so the whole
        # table runs, and its row is the unreduced route's
        lines = []
        for reduced in (True, False):
            model = preset_model("su2")
            generic = model.generic_euler_lagrange()
            a = model.field[2][3]
            installed = EulerLagrange(model.ctx, {**generic.components, a: generic.component(
                a) + model.ctx.var(a)})
            monkeypatch.setattr(model, "generic_euler_lagrange", lambda: installed)
            if not reduced:
                monkeypatch.setattr(model, "_representatives", lambda check: None)
            (row,) = model.pipeline("euler-lagrange", deterministic=True)
            lines.append(row.line())
        assert not row.ok and row.nonzero == 1 and row.witness.startswith("a3_3: ")
        assert lines[0] == lines[1]


class TestFieldEquationsByField:
    """The kept E(L) is filled field by field (`EulerLagrange.by_field`):
    each component is the one of `euler_lagrange` on the whole density, in
    any order of requests, and a passing run fills only what it reads."""

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21", "sl3", "sl31", "su2-mixed"])
    def test_filled_field_by_field_is_the_whole_table(self, name):
        # seeded orders of single requests and batches over the fields,
        # ghosts, antifields and degree-two antifields, of which the own L
        # holds the fields alone; su2-mixed adds terms in all of them and a
        # coordinate to L
        rng = random.Random("by field %s" % name)
        model = _new_model(name.split("-")[0])
        ctx, density = model.ctx, model.ym_lagrangian().density
        gens = [g for row in model.field + model.antifield for g in row]
        gens += model.ghost + model.noether_antifield
        if name == "su2-mixed":
            density = density + TestSecondTheorem._random(rng, model, gens, 6, 1) \
                + ctx.product(1, (ctx.jet(model.field[0][1], (2,)), ctx.coordinate(1)))
        whole = euler_lagrange(Lagrangian(density))
        assert (name == "su2-mixed") == any(g.kind not in ("even-field", "odd-field")
                                            for g in whole.components)
        for _ in range(3):
            el = EulerLagrange.by_field(Lagrangian(density))
            asked = rng.sample(gens, len(gens))
            while asked:
                k = rng.randint(1, 6)
                batch, asked = asked[:k], asked[k:]
                if rng.random() < 0.5:
                    el.fill(batch)
                for g in batch:
                    assert el.component(g) == whole.component(g)
            # every generator asked: the table is whole, in the whole table's order
            assert el._L is None
            assert list(el.components.items()) == list(whole.components.items())
        el = model.generic_euler_lagrange()
        assert list(el.components.items()) == list(euler_lagrange(model.ym_lagrangian())
                                                    .components.items())

    @pytest.mark.parametrize("name", ["su2", "sl21"])
    def test_a_failing_batch_raises_the_whole_tables_error(self, name):
        # at order 1 no field equation fits; the batch of one field alone
        # would name another jet than the whole table does
        model = _new_model(name, max_jet_order=1)
        L = model.ym_lagrangian()
        with pytest.raises(GvcError) as whole:
            euler_lagrange(L)
        for gen in (model.field[-1][-1], model.field[1][2]):
            with pytest.raises(GvcError, match="jet order 2 exceeds") as alone:
                variational_derivatives(L.density, "left", {gen})
            el = EulerLagrange.by_field(L)
            with pytest.raises(GvcError) as got:
                el.fill([gen])
            assert str(got.value) == str(whole.value) != str(alone.value)
            assert el._table == {}

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21", "sl3"])
    def test_a_passing_full_fills_only_the_representatives(self, name, monkeypatch):
        # euler-lagrange-two-path and superpotential read E on one field per
        # orbit; koszul-tate squares nothing, so Koszul-Tate is neither built
        # nor applied; master-equation is settled by Theta_P alone
        built, applied = [], []
        monkeypatch.setattr(GaugeModel, "koszul_tate", lambda model: built.append(model))
        monkeypatch.setattr(gvc.brst.KoszulTate, "apply", lambda kt, p: applied.append(p))
        model = _new_model(name)
        assert model.full_verification(deterministic=True).ok
        assert built == [] and applied == []
        reps = model._representatives("euler-lagrange")
        assert set(model.generic_euler_lagrange()._table) == {
            g for r in reps for g in model.field[r]}
        assert len(reps) < model.algebra.dim


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
        assert model._whole_lie("parameter").is_zero()
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
    direction per orbit of the algebra maps where L and the derivation are
    the model's own, against the whole derivation."""

    @staticmethod
    def _batches(monkeypatch):
        """The source names of each batch the symmetry checks evaluate
        where their tables are reduced (`_representatives`); the generator
        tables of the two-path and BRST checks are not recorded."""
        batches = []
        original = GaugeModel._by_direction

        def recording(model, kind, residual):
            sources = model._symmetry(kind)[1]
            reduced = kind in ("parameter", "gauge") and model._representatives(kind) is not None

            def record(directions):
                if reduced:
                    batches.append([sources[q].name for q in directions])
                return residual(directions)

            return original(model, kind, record)

        monkeypatch.setattr(GaugeModel, "_by_direction", recording)
        return batches

    @staticmethod
    def _prolonged(monkeypatch):
        """The derivations whose L_theta L the symmetry checks take in jets
        (`lie_derivative`), in order, each with whether it was prolonged on
        L's polynomial: `_lie` takes that route only where the shortcut
        does not apply or a contraction row is nonzero."""
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
        # symmetries; the installed L is not the model's own, so no table
        # is reduced, and each row is the whole derivation's
        model = preset_model("su2")
        L = Lagrangian(model.ym_lagrangian().density + mass_term_lagrangian(model).density)
        assert fixed_by(relabellings(model, model.algebra_maps()), L.density)
        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        batches = self._batches(monkeypatch)
        rows = self._rows(model)
        assert batches == []
        assert model._representatives("parameter") is None is model._representatives("gauge")
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
        # the first current-conservation reads the Noether rows, zero from
        # u L on the representative ghost; a residual nonzero on the
        # representative is taken whole
        every = ["xi1", "xi2", "xi3"]
        assert batches == [["xi1"], ["c1"], every, ["xi1"], ["xi1"], ["xi1"], every]
        theta, el = model.parameter_symmetry(), model.generic_euler_lagrange()
        want = conservation_residual(theta, scale(current(), 2), el)
        assert not row.ok and row.line() == CheckResult.from_form(row.name, want).line()
        assert not rows["superpotential"].ok
        assert rows["superpotential"].line() == _unreduced_row(model, "superpotential")

    @staticmethod
    def _install(model, monkeypatch, patched):
        """Installs the parameter symmetry and the gauge operator of the
        components patched(model, sources), made from the model's own."""
        for kind, parity in (("parameter", EVEN), ("gauge", ODD)):
            sources = model._symmetry(kind)[1]
            theta = ContactDerivation(model.ctx, patched(
                model, sources, model._gauge_components(sources)), parity)
            monkeypatch.setattr(model, "parameter_symmetry" if kind == "parameter"
                                else "gauge_operator", lambda theta=theta: theta)

    def test_a_component_breaking_a_map_forces_the_full_route(self, monkeypatch):
        # the last direction's component on a3_0 gains its source times
        # a3_0: the algebra maps no longer carry it, and only that
        # direction's piece fails, so the representative alone would pass;
        # installed, the derivations are not the model's own
        def broken(model, sources, comps):
            q = model.algebra.dim - 1
            a = model.field[q][0]
            comps[a] = comps[a] + model.ctx.var(sources[q]) * model.ctx.var(a)
            return comps

        model = preset_model("su2")
        self._install(model, monkeypatch, broken)
        assert not fixed_by(relabellings(model, model.algebra_maps()), paired_sum(
            model.ctx, model.parameter_symmetry().components, model.pairs()))
        batches, prolonged = self._batches(monkeypatch), self._prolonged(monkeypatch)
        rows = self._rows(model)
        assert batches == []
        # installed, neither derivation is the model's own, so both rows
        # are the jet route's
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
        # term would belong to no part, or to three; installed, it is not
        # the model's own
        def patched(model, sources, comps):
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

        model = preset_model("su2")
        self._install(model, monkeypatch, patched)
        theta = model.parameter_symmetry()
        assert fixed_by(relabellings(model, model.algebra_maps()),
                        paired_sum(model.ctx, theta.components, model.pairs()))
        prolonged = self._prolonged(monkeypatch)
        rows = self._rows(model)
        assert model._representatives("parameter") is None
        assert prolonged[0] == (theta, True)
        assert not rows["parameter-symmetry"].ok
        for check in SYMMETRY_CHECKS:
            assert rows[check].line() == _unreduced_row(model, check)

    def test_abelian_runs_unreduced(self, monkeypatch):
        # no algebra map, so the whole derivations; with no constants every
        # contraction row is zero, so neither is prolonged
        model = preset_model("abelian")
        batches, prolonged = self._batches(monkeypatch), self._prolonged(monkeypatch)
        rows = self._rows(model)
        assert model.algebra_maps() == [] and batches == []
        assert prolonged == []
        assert all(rows[check].ok for check in SYMMETRY_CHECKS)

    def test_a_nonzero_row_sends_its_part_to_the_jet_route(self, monkeypatch):
        # a contraction row forced nonzero on su2's representative
        # direction: its part, and no other, is prolonged on L's density,
        # where it is zero, so both checks still pass
        model = preset_model("su2")
        ctx, L, contraction = model.ctx, model.ym_lagrangian(), model._contraction
        monkeypatch.setattr(model, "_contraction", lambda L, q: contraction(L, q) + (
            ctx.one() if q == 0 else ctx.zero()))
        prolonged = self._prolonged(monkeypatch)
        rows = self._rows(model)
        assert model._representatives("parameter") == (0,) == model._representatives("gauge")
        assert prolonged == [(model._part("parameter", (0,)), True),
                             (model._part("gauge", (0,)), True)]
        assert model._contraction(L, 0) == ctx.one()
        assert all(rows[check].ok for check in SYMMETRY_CHECKS)

    def test_a_source_in_L_runs_unreduced(self, monkeypatch):
        # h_ij xi^i xi^j is fixed by every algebra map, but with it the parts
        # of two directions may share terms, so no part stands for another;
        # the installed L is not the model's own, so no table is reduced,
        # and each derivation is prolonged in jets
        model = preset_model("su2")
        ctx = model.ctx
        extra = ctx.zero()
        for i, j, h in model.form_entries:
            extra += ctx.product(h, (ctx.jet(model.parameter[i]), ctx.jet(model.parameter[j])))
        L = Lagrangian(model.ym_lagrangian().density + extra)
        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        assert fixed_by(relabellings(model, model.algebra_maps()), L.density)
        batches, prolonged = self._batches(monkeypatch), self._prolonged(monkeypatch)
        rows = self._rows(model)
        assert model._representatives("parameter") is None is model._representatives("gauge")
        assert batches == []
        assert prolonged == [(model.parameter_symmetry(), True), (model.gauge_operator(), True)]
        for check in SYMMETRY_CHECKS:
            assert rows[check].line() == _unreduced_row(model, check)

    @pytest.mark.parametrize("name", ["su2", "sl21"])
    def test_order_of_the_maps_changes_nothing(self, name, request, monkeypatch):
        shared = request.getfixturevalue(name)
        maps = shared.algebra_maps()
        assert len(maps) == 2
        pairs, m = shared.pairs(), shared.algebra.dim
        for kind in ("parameter", "gauge"):
            theta = shared._symmetry(kind)[0]
            assert fixed_by(relabellings(shared, maps), paired_sum(shared.ctx, theta.components,
                                                                    pairs))
            reps = [orbit_roots(order, m) for order in (maps, maps[::-1])]
            assert reps[0] == reps[1] == shared._representatives(kind)
            assert len(reps[0]) < m
        lines, runs = [], []
        for order in (maps, maps[::-1]):
            model = preset_model(name) if name == "su2" else spec_model(
                parse_model(SL21_MODEL.read_text(encoding="utf-8")))
            # the maps in this order, kept as the model's own
            monkeypatch.setitem(model._memo, "algebra-maps", signed_automorphisms(
                model.algebra)[::1 if order is maps else -1])
            runs.append(self._batches(monkeypatch))
            lines.append([row.line() for row in model.full_verification(True).results])
            monkeypatch.undo()
        assert runs[0] == runs[1] and runs[0] and lines[0] == lines[1]

    def test_term_limit_on_the_reduced_current_route(self):
        # the Lepage form, built for the representative's current, is the
        # largest table of the noether pipeline on su2
        lepage = preset_model("su2").lepage_form()
        limit = sum(len(f.terms) for f in lepage.terms.values()) - 1
        model = spec_model(parse_model(PRESET_MODEL_TEXT["su2"]), term_limit=limit)
        parts = model._noether_parts()
        assert all(row.ok for row in run_parts(parts[:2]))
        assert model._representatives("parameter") == (0,)
        with pytest.raises(ExpansionLimitError, match="limit %d" % limit):
            run_parts(parts[2:3])


class TestOrbitFuzz:
    """A reduced table is zero on its representatives or taken whole.  An
    installed object runs whole tables, so only an object placed in the
    memo, as the model's own, reaches the failure path: seeded
    perturbations that every algebra map fixes, a mass term added to L
    (gauge fields alone, first order) and the ghost sector scaled by one
    factor on every ghost.  Each reduced row is the row with no
    representatives.  The contraction rows read phi of the strength density
    by construction, so the massive L passes the symmetry checks on both
    runs; the field equations, the current and the superpotential see it.
    sl(3|1) has 15 directions, so its representatives' generators are not
    the first in key order ("a12_0" sorts before "a2_0")."""

    CHECKS = ("euler-lagrange-two-path", "parameter-symmetry", "current-conservation",
              "superpotential", "gauge-symmetry", "brst-nilpotency")
    FAILING = {"mass-term": {"euler-lagrange-two-path", "current-conservation", "superpotential"},
               "ghost-sector": {"brst-nilpotency"}}

    @staticmethod
    def _rows(model):
        """Every row of the euler-lagrange, noether and brst parts, the
        even-only checks included."""
        parts = model._euler_lagrange_parts() + model._noether_parts() + model._brst_parts()
        return {row.name: row.line() for row in run_parts(parts, deterministic=True)}

    @pytest.mark.parametrize("kind", ["mass-term", "ghost-sector"])
    @pytest.mark.parametrize("name", ["su2", "sl21", "sl31"])
    def test_reduced_rows_are_the_whole_tables(self, name, kind, monkeypatch):
        q = random.Random("orbit fuzz %s %s" % (name, kind)).choice([2, -1, 3, Fraction(1, 2)])
        lines = []
        for reduced in (True, False):
            model = _new_model(name)
            if kind == "mass-term":
                L = Lagrangian(model.ym_lagrangian().density
                               + mass_term_lagrangian(model).density * q)
                assert fixed_by(relabellings(model, model.algebra_maps()), L.density)
                monkeypatch.setitem(model._memo, "lagrangian", L)
            else:
                monkeypatch.setitem(model._memo, "ghost-sector", MappingProxyType(
                    {c: p * q for c, p in model.ghost_sector().items()}))
            if not reduced:
                monkeypatch.setattr(model, "_representatives", lambda check: None)
            lines.append(self._rows(model))
            if reduced:
                assert all(model._representatives(family) is not None for family in (
                    "euler-lagrange", "parameter", "gauge", "brst"))
                assert name != "sl31" or model._representatives("brst") == (
                    0, 1, 2, 3, 4, 5, 7, 8, 11)
        assert lines[0] == lines[1]
        assert {check for check in self.CHECKS if " status fail " in lines[0][check]} == \
            self.FAILING[kind]


class TestDirectRoutes:
    """Every shortcut against the direct routes over a whole report: the
    deterministic `full` report is the same with every shortcut off
    (`direct_routes`), at the default jet order, --max-order 2 and
    --max-order 1.  The models are the presets and each in dimension 1,
    sl(3), and sl(2|1) in its supertrace basis and with its odd directions
    doubled (`TestBasisRescaling`); the failing ones install a mass term
    in L, or the H1 ghost term of the proper solution, which L + P_s then
    counts twice.  Each object a route reads, installed through its
    accessor on abelian, su2 and sl3, reports alike too.
    sl(4), whose 15 directions part the smallest index from the smallest
    generator name, runs at the default order.  GVC_MAX_TERMS stays out: the direct routes build larger intermediates,
    so they abort earlier by design."""

    @staticmethod
    def _text(name):
        """The model text of `name`."""
        if name == "sl21-doubled":
            spec = parse_model(SL21_MODEL.read_text(encoding="utf-8"))
            return rescaled_model_text(
                spec, {label: 2 for label, parity in spec.generators if parity == ODD})
        if name in ("sl3", "sl21"):
            return (SL3_MODEL if name == "sl3" else SL21_MODEL).read_text(encoding="utf-8")
        if name == "sl4":
            return supermatrix_model_text((0, 0, 0, 0))
        text = PRESET_MODEL_TEXT[name.replace("-dim1", "")]
        return re.sub(r"dimension = \d+\nmetric = \S+", "dimension = 1\nmetric = +", text) \
            if name.endswith("-dim1") else text

    @staticmethod
    def _mass_term(model):
        L = Lagrangian(model.ym_lagrangian().density + mass_term_lagrangian(model).density)
        model.ym_lagrangian = lambda validate=True: L

    @staticmethod
    def _ghost_term(model):
        # L' = L + s(c_H1) cbar_H1, whose proper solution L' + P_s counts
        # the H1 ghost term twice
        ghost = model.ghost[model.algebra.index("H1")]
        L = Lagrangian(model.ym_lagrangian().density + model.brst_operator().components[
            ghost] * model.ctx.var(model.pairs()[ghost]))
        model.ym_lagrangian = lambda validate=True: L

    @classmethod
    def _reports(cls, name, order, install=None):
        """The report by the shortcut routes and by the direct routes, where
        the one switch (`direct_routes`) also reduces no table."""
        reports = []
        for routes in (contextlib.nullcontext, direct_routes):
            with routes():
                model = spec_model(parse_model(cls._text(name)), max_jet_order=order)
                if install:
                    install(model)
                reports.append(model.full_verification(deterministic=True).render())
                if routes is direct_routes:
                    assert [model._representatives(check) for check in (
                        "euler-lagrange", "parameter", "gauge", "brst")] == [None] * 4
        return reports

    @pytest.mark.parametrize("order", [None, 2, 1])
    @pytest.mark.parametrize("name", ["abelian", "su2", "osp12", "abelian-dim1", "su2-dim1",
                                      "osp12-dim1", "sl3", "sl21", "sl21-doubled"])
    def test_a_model_reports_alike_on_both_routes(self, name, order):
        shortcut, direct = self._reports(name, order)
        assert shortcut == direct

    @pytest.mark.parametrize("order", [None, 2, 1])
    @pytest.mark.parametrize("name, install", [
        ("su2", "_mass_term"), ("sl21", "_mass_term"), ("sl21", "_ghost_term"),
        ("sl21-doubled", "_ghost_term")])
    def test_a_failing_model_reports_alike_on_both_routes(self, name, install, order):
        shortcut, direct = self._reports(name, order, getattr(self, install))
        assert shortcut == direct and " status fail " in shortcut

    @staticmethod
    def _off_orbit(model):
        """A direction that is no orbit's representative, or the last one
        where every direction is (abelian)."""
        roots = orbit_roots(model.algebra_maps(), model.algebra.dim)
        return next((q for q in range(model.algebra.dim) if q not in roots),
                    model.algebra.dim - 1)

    @classmethod
    def _installed(cls, accessor, build):
        """An install of build(model, q), q off the orbit representatives
        (`_off_orbit`), as what the model's `accessor` returns."""
        def install(model):
            obj = build(model, cls._off_orbit(model))
            setattr(model, accessor, lambda *args, **kwargs: obj)
        return install

    @staticmethod
    def _doubled(theta, gen):
        """theta with its component on gen doubled."""
        return ContactDerivation(theta.ctx, {**theta.components, gen: theta.component(gen) * 2},
                                 theta.parity)

    @staticmethod
    def _el_plus_field(model, q):
        """E(L) plus the field a^q_0 on the component of a^q_0."""
        el, z = model.generic_euler_lagrange(), model.field[q][0]
        return EulerLagrange(model.ctx, {**el.components, z: el.component(z) + model.ctx.var(z)})

    @staticmethod
    def _rows_doubled(model, q):
        """The Noether rows with the last entry of row q doubled."""
        rows = dict(model.noether_operator().rows)
        label = model.noether_antifield[q].name
        *entries, (coeff, *rest) = rows[label]
        rows[label] = entries + [(coeff * 2, *rest)]
        return NoetherOperator(model.ctx, rows)

    INSTALLS = {
        # E read where its route runs: by the master equation's coupling
        # test where P_s couples no pair (abelian), and off the
        # representatives by the superpotential and conservation residuals
        "zero-el": ("generic_euler_lagrange", lambda m, q: EulerLagrange(m.ctx, {})),
        "el": ("generic_euler_lagrange", _el_plus_field),
        "lagrangian": ("ym_lagrangian", lambda m, q: Lagrangian(
            m.ym_lagrangian().density * 2)),
        "gauge": ("gauge_operator", lambda m, q: TestDirectRoutes._doubled(
            m.gauge_operator(), m.field[q][0])),
        "parameter": ("parameter_symmetry", lambda m, q: TestDirectRoutes._doubled(
            m.parameter_symmetry(), m.field[q][0])),
        "rows": ("noether_operator", _rows_doubled),
        "ghost-sector": ("ghost_sector", lambda m, q: {c: p * 2 if c is m.ghost[q] else p
                                                       for c, p in m.ghost_sector().items()}),
    }

    @pytest.mark.parametrize("order", [None, 2])
    @pytest.mark.parametrize("name, install", [
        ("abelian", "zero-el"), ("su2", "el"), ("sl3", "el")] + [
        (name, install) for name in ("su2", "sl3")
        for install in ("lagrangian", "gauge", "parameter", "rows", "ghost-sector")])
    def test_an_installed_object_reports_alike_on_both_routes(self, name, install, order):
        shortcut, direct = self._reports(name, order, self._installed(*self.INSTALLS[install]))
        assert shortcut == direct

    @pytest.mark.parametrize("name, line", [
        ("abelian", "check master-equation | status pass "),
        ("su2", "check superpotential | status fail "),
        ("sl3", "check superpotential | status fail ")])
    def test_the_rows_that_read_an_installed_el(self, name, line):
        # S is built from L, so E = 0 leaves the direct master equation's
        # pass; E + a^q_0 fails the superpotential off the representatives
        shortcut, _ = self._reports(name, None, self._installed(
            *self.INSTALLS["zero-el" if name == "abelian" else "el"]))
        assert line in shortcut

    def test_sl4_reports_alike_on_both_routes(self):
        # 15 directions: the representatives are the smallest index of each
        # orbit, no longer the fields of smallest name ("a10_0" sorts before
        # "a2_0"), and the report does not depend on which
        model = spec_model(parse_model(self._text("sl4")))
        fields = [g for row in model.field for g in row]
        reps = model._representatives("euler-lagrange")
        assert {g for r in reps for g in model.field[r]} != generator_roots(
            relabellings(model, model.algebra_maps()), fields)
        shortcut, direct = self._reports("sl4", None)
        assert shortcut == direct and " status fail " not in shortcut


def _new_model(name, **kwargs):
    """A new model of the fixture `name`, or of sl(3|1) for "sl31", with
    nothing built or proved."""
    if name == "sl31":
        return spec_model(parse_model(supermatrix_model_text((0, 0, 0, 1))), **kwargs)
    if name in ("sl3", "sl21"):
        path = SL3_MODEL if name == "sl3" else SL21_MODEL
        return spec_model(parse_model(path.read_text(encoding="utf-8")), **kwargs)
    return preset_model(name, **kwargs)


class TestSecondTheorem:
    """current-conservation by Noether's second theorem,
        d_h J - sum_z E_z theta(z) = d_h(J - W - d_H U) + sum_q xi^q N_q(E) vol,
    from the superpotential check's J - W - d_H U and the kept Noether rows,
    against `conservation_residual`, the direct route and the tests' oracle."""

    @staticmethod
    def _random(rng, model, gens, terms=3, order=2):
        """A sum of `terms` products of one to three jets of `gens` of order
        up to `order`, of either parity."""
        ctx, out = model.ctx, model.ctx.zero()
        for _ in range(terms):
            term = ctx.scalar(rng.choice([1, -1, 2, Fraction(1, 2)]))
            for _ in range(rng.randint(1, 3)):
                index = (rng.randrange(ctx.dim) for _ in range(rng.randint(0, order)))
                term = term * ctx.var(rng.choice(gens), *index)
            out = out + term
        return out

    @pytest.mark.parametrize("name", ["sl3", "su2", "osp12", "sl21"])
    def test_identity_term_by_term(self, name, monkeypatch):
        # random field equations and currents, random direction subsets: the
        # route's Form is the oracle's, on the model's own E (whose kept rows
        # are zero, read from u L) and on a random E installed before any
        # row is kept (whose rows are applied)
        rng = random.Random("second theorem %s" % name)
        for own in (True, False):
            model = _new_model(name)
            ctx, m = model.ctx, model.algebra.dim
            fields = [g for row in model.field for g in row]
            if own:
                el = model.generic_euler_lagrange()
            else:
                el = EulerLagrange(ctx, {z: self._random(rng, model, fields)
                                         for z in rng.sample(fields, 8)})
                monkeypatch.setattr(model, "generic_euler_lagrange", lambda el=el: el)
            assert model._detour("current-conservation") is None
            kept = model._noether_residuals()
            # every row is kept: zero from u L on the own E, applied on another
            assert len(kept) == m and all(p.is_zero() for p in kept.values()) == own
            for _ in range(4):
                qs = tuple(sorted(rng.sample(range(m), rng.randint(1, m))))
                J = sum((omega_lambda(ctx, lam).times_poly(
                    self._random(rng, model, fields + model.parameter, 2, 1))
                    for lam in range(ctx.dim)), Form.zero(ctx))
                for current in (J, model.current(qs)):
                    want = conservation_residual(model._part("parameter", qs), current, el)
                    residual = superpotential_residual(current, el, model.superpotential_rows(qs),
                                                       model.superpotential(qs))
                    assert model._conserved(qs, residual) == want
                    assert want.is_zero() == (own and current is not J)
            monkeypatch.undo()

    @staticmethod
    def _lines(model):
        """The pipeline's current-conservation line, the condition that kept
        it off the second theorem (`_detour`), and the line of
        `conservation_residual` on the whole derivation."""
        rows = {row.name: row for row in model.pipeline("noether", deterministic=True)}
        return (rows["current-conservation"].line(), model._detour("current-conservation"),
                _unreduced_row(model, "current-conservation"), rows)

    def test_a_scaled_parameter_symmetry_takes_the_direct_route(self, monkeypatch):
        # 2 theta is exact and its current 2 J conserved, but W and U are
        # built for theta: the route would leave d_h J
        model = _new_model("su2")
        theta = model.parameter_symmetry()
        doubled = ContactDerivation(model.ctx, {z: p * 2 for z, p in theta.components.items()},
                                    EVEN)
        monkeypatch.setattr(model, "parameter_symmetry", lambda: doubled)
        line, detour, direct, _ = self._lines(model)
        assert detour == "parameter-symmetry" and line == direct
        assert line == CheckResult("current-conservation", True).line()

    def test_installed_rows_take_the_direct_route(self, monkeypatch):
        # rows with their last entry doubled fail noether-identities, which
        # the direct route does not read
        model = _new_model("su2")
        rows = {label: entries[:-1] + [(entries[-1][0] * 2,) + entries[-1][1:]]
                for label, entries in model.noether_operator().rows.items()}
        doubled = NoetherOperator(model.ctx, rows)
        monkeypatch.setattr(model, "noether_operator", lambda: doubled)
        line, detour, direct, rows = self._lines(model)
        assert detour == "noether-operator" and line == direct
        assert line == CheckResult("current-conservation", True).line()
        assert not rows["noether-identities"].ok

    def test_jets_out_of_bound_take_the_direct_route(self):
        # the rows and d_h W take third jets, the direct route none
        from test_cli import SU2_JET_ORDER_2

        model = _new_model("su2", max_jet_order=2)
        line, detour, direct, rows = self._lines(model)
        assert detour == "jets-fit" and line == direct
        assert line == CheckResult("current-conservation", True).line()
        assert line in SU2_JET_ORDER_2.splitlines()
        assert rows["noether-identities"].witness.startswith("jet order 3 exceeds")

    def test_a_mass_term_fails_as_the_direct_route(self, monkeypatch):
        # an installed L is not the model's own, so the direct route is
        # taken, and the current's own precondition, L_theta L = 0, fails
        model = _new_model("su2")
        L = Lagrangian(model.ym_lagrangian().density + mass_term_lagrangian(model).density)
        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        line, detour, direct, _ = self._lines(model)
        assert detour == "lagrangian" and line == direct
        assert line.endswith("first derivation is not an exact symmetry of the density")

    @pytest.mark.parametrize("name", ["sl3", "su2"])
    def test_a_passing_run_forms_no_direct_residual(self, name, monkeypatch):
        # no conservation_residual, and no d_h of the zero superpotential
        # residual; each part's superpotential residual is taken once
        residuals = []
        original = gvc.models.superpotential_residual

        def refused(*args):
            raise AssertionError("formed")

        def counted(*args):
            residuals.append(args)
            return original(*args)

        monkeypatch.setattr(gvc.models, "conservation_residual", refused)
        monkeypatch.setattr(gvc.models, "d_h", refused)
        monkeypatch.setattr(gvc.models, "superpotential_residual", counted)
        model = _new_model(name)
        report = model.full_verification(deterministic=True)
        assert report.ok
        assert len(residuals) == 1
        if name == "su2":
            assert report.render() == (GOLDEN / "su2.txt").read_text(encoding="utf-8")


class TestRowsFromGaugeSymmetry:
    """noether-identities by Noether's second theorem in adjoint form: the
    rows N are the adjoint of the C-coefficients of the gauge operator u, so
    for every L holding no ghost, N_j(E(L)) = -delta(u L)/delta C^j, and a
    model whose kept u L is zero reads zero rows, against the whole table
    `noether_residuals`, the tests' oracle."""

    @staticmethod
    def _sides(model, L, kind="gauge", op=None, theta=None):
        """The rows of `op` (the model's own when None) on E(L), and minus
        the left variational derivatives of theta L (the derivation of
        `kind` when None) along its sources, both by degree-two antifield."""
        ctx = model.ctx
        op = model.noether_operator() if op is None else op
        own, sources = model._symmetry(kind)
        d = variational_derivatives(prolong_apply(own if theta is None else theta, L), "left",
                                    sources)
        rows = noether_residuals(op, euler_lagrange(Lagrangian(L)))
        return rows, {bar.name: -d.get(src, ctx.zero())
                      for bar, src in zip(model.noether_antifield, sources)}

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl3", "sl21"])
    def test_identity_term_by_term(self, name):
        # the own L, L plus a mass term and L plus seeded random field terms
        # of either parity, with C and u and with xi and the parameter
        # symmetry: the same polynomials, row by row, with the minus sign
        rng = random.Random("rows from u L %s" % name)
        model = _new_model(name)
        L = model.ym_lagrangian().density
        fields = [g for row in model.field for g in row]
        densities = [L, L + mass_term_lagrangian(model).density]
        densities += [L + TestSecondTheorem._random(rng, model, fields, 3, 1) for _ in range(3)]
        for i, density in enumerate(densities):
            for kind in ("gauge", "parameter"):
                rows, minus = self._sides(model, density, kind)
                assert list(rows) == list(minus) and rows == minus
                assert all(p.is_zero() for p in rows.values()) == (i == 0)

    @pytest.mark.parametrize("name", ["su2", "sl21"])
    def test_identity_needs_the_adjoint_pair(self, name):
        # rows with a doubled entry, or u with one component scaled by 2,
        # are no longer adjoint: the identity fails on the own L
        model = _new_model(name)
        L, ctx = model.ym_lagrangian().density, model.ctx
        op = model.noether_operator()
        doubled = NoetherOperator(ctx, {label: entries[:-1] + [
            (entries[-1][0] * 2,) + entries[-1][1:]] for label, entries in op.rows.items()})
        u = model.gauge_operator()
        a = model.field[0][0]
        scaled = ContactDerivation(ctx, {**u.components, a: u.components[a] * 2}, u.parity)
        for sides in (self._sides(model, L, op=doubled), self._sides(model, L, theta=scaled)):
            rows, minus = sides
            assert rows != minus

    def test_identity_needs_l_free_of_ghosts(self):
        # c c_;0 a_0 on the abelian model: u moves a_0 by c_;0, so u L is
        # zero (c_;0 is odd), yet its row is D_0(c c_;0) = c c_;00
        model = _new_model("abelian")
        ctx = model.ctx
        c, a = model.ghost[0], model.field[0][0]
        L = model.ym_lagrangian().density + ctx.var(c) * ctx.var(c, 0) * ctx.var(a)
        assert prolong_apply(model.gauge_operator(), L).is_zero()
        rows, minus = self._sides(model, L)
        assert all(p.is_zero() for p in minus.values())
        assert rows["cbar1"] == ctx.var(c) * ctx.var(c, 0, 0)

    @staticmethod
    def _whole_lines(model):
        """The noether-identities and koszul-tate lines of the whole tables:
        the rows applied to E, and delta squared on every generator."""
        return [row.line() for row in run_parts([
            ("noether-identities", lambda n: CheckResult.from_residuals(n, noether_residuals(
                model.noether_operator(), model.generic_euler_lagrange()))),
            ("koszul-tate", lambda n: CheckResult.from_residuals(
                n, nilpotency_residuals(model.koszul_tate())))], deterministic=True)]

    @staticmethod
    def _cases():
        """(case, model, order bound, install(model, monkeypatch), whether
        the whole rows vanish): each fallback of `_noether_residuals`."""
        def lagrangian(extra):
            def install(model, monkeypatch):
                L = Lagrangian(model.ym_lagrangian().density + extra(model))
                monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
            return install

        def mass(model):
            return mass_term_lagrangian(model).density

        def installed_rows(model, monkeypatch):
            rows = {label: entries[:-1] + [(entries[-1][0] * 2,) + entries[-1][1:]]
                    for label, entries in model.noether_operator().rows.items()}
            doubled = NoetherOperator(model.ctx, rows)
            monkeypatch.setattr(model, "noether_operator", lambda: doubled)

        def scaled_gauge_component(model, monkeypatch):
            u, a = model.gauge_operator(), model.field[0][0]
            scaled = ContactDerivation(model.ctx, {**u.components, a: u.components[a] * 2},
                                       u.parity)
            monkeypatch.setattr(model, "gauge_operator", lambda: scaled)

        def zero_gauge_operator(model, monkeypatch):
            # zero on any L: without its own u, a massive L would pass
            lagrangian(mass)(model, monkeypatch)
            zero = ContactDerivation(model.ctx, {}, ODD)
            monkeypatch.setattr(model, "gauge_operator", lambda: zero)

        def installed_field_equations(model, monkeypatch):
            rng = random.Random("installed field equations")
            fields = [g for row in model.field for g in row]
            el = EulerLagrange(model.ctx, {z: TestSecondTheorem._random(rng, model, fields)
                                           for z in rng.sample(fields, 6)})
            monkeypatch.setattr(model, "generic_euler_lagrange", lambda: el)

        def antifield(model):
            return model.ctx.var(model.antifield[0][0]) * model.ctx.var(model.antifield[0][1])

        def ghost(model):
            c, a = model.ghost[0], model.field[0][0]
            return model.ctx.var(c) * model.ctx.var(c, 0) * model.ctx.var(a)

        def nothing(model, monkeypatch):
            pass

        return [
            ("installed-rows", "su2", None, installed_rows, False),
            ("scaled-gauge-component", "su2", None, scaled_gauge_component, True),
            ("zero-gauge-operator", "su2", None, zero_gauge_operator, False),
            ("installed-field-equations", "su2", None, installed_field_equations, False),
            ("max-jet-order-2", "su2", 2, nothing, False),
            ("mass-term", "su2", None, lagrangian(mass), False),
            ("antifield-in-l", "su2", None, lagrangian(antifield), True),
            ("ghost-in-l", "abelian", None, lagrangian(ghost), False),
        ]

    @pytest.mark.parametrize("case", [case[0] for case in _cases.__func__()])
    def test_pipeline_rows_are_the_whole_tables(self, case, monkeypatch):
        # every precondition of reading the rows from u L, dropped in turn:
        # the pipeline's lines are the whole tables', and each case but the
        # scaled component and the antifields fails them
        _, name, order, install, vanish = next(c for c in self._cases() if c[0] == case)
        model = _new_model(name, **({} if order is None else {"max_jet_order": order}))
        install(model, monkeypatch)
        got = [row.line() for pipeline in ("noether", "koszul-tate")
               for row in model.pipeline(pipeline, deterministic=True)
               if row.name in ("noether-identities", "koszul-tate")]
        whole = self._whole_lines(model)
        assert got == whole
        assert whole[0].startswith("check noether-identities | status %s |"
                                   % ("pass" if vanish else "fail"))

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl3", "sl21"])
    def test_a_passing_run_applies_no_row(self, name, monkeypatch):
        # zero rows from the kept u L, the same lines as the whole tables
        applied = []
        original = gvc.models.noether_residuals
        monkeypatch.setattr(gvc.models, "noether_residuals",
                            lambda *args: applied.append(args) or original(*args))
        model = _new_model(name)
        got = [row.line() for pipeline in ("noether", "koszul-tate")
               for row in model.pipeline(pipeline, deterministic=True)
               if row.name in ("noether-identities", "koszul-tate")]
        assert applied == [] and model._whole_lie("gauge").is_zero()
        assert got == self._whole_lines(model)


class TestSplitRoute:
    """L_theta L and the Utiyama tables in the split coordinates: phi(L)
    against `split_coordinates`, and each symmetry check's L_theta L, read
    off the contraction rows for the model's own L and derivations, against
    L_theta L prolonged in jets; an installed L or derivation takes the jet
    route alone."""

    @staticmethod
    def _doubled(theta, gen):
        """theta with its component on `gen` doubled."""
        comps = dict(theta.components)
        comps[gen] = comps[gen] + comps[gen]
        return ContactDerivation(theta.ctx, comps, theta.parity)

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl3", "sl21"])
    def test_conjugated_derivation_is_phi_of_theta(self, name, request, monkeypatch):
        # the own L (whose phi(L) is built factor-wise), a mass term and a
        # symmetric-quadratic L, each phi(L)'s partials kept with its own L;
        # the even parameter symmetry and the odd gauge operator, a part of
        # one direction and the whole: zero on the own L, and nonzero in
        # jets on an installed L
        model = request.getfixturevalue(name)
        own, m = model.ym_lagrangian(), model.algebra.dim
        every = tuple(range(m))
        for L in (own, mass_term_lagrangian(model), sym_quadratic_lagrangian(model)):
            assert model._split(L) == model.split_coordinates(L.density)
            monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True, L=L: L)
            for kind in ("parameter", "gauge"):
                for directions in ((0,), every):
                    got = model._lie(kind, directions)
                    assert got == volume(model.ctx).times_poly(
                        prolong_apply(model._part(kind, directions), L.density))
                    assert got.is_zero() == (L is own)
            monkeypatch.undo()
        assert model._partials(own) is model._partials(own)

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl3", "sl21"])
    def test_conjugated_derivation_on_a_nonzero_result(self, name, request, monkeypatch):
        # with one component doubled and installed, theta(L) is nonzero and
        # theta is not the model's own: the row is the jet route's, no row
        # is read and nothing is split; an installed L's density is never
        # split from a Lie derivative either
        model = request.getfixturevalue(name)
        L, every = model.ym_lagrangian(), tuple(range(model.algebra.dim))
        split_calls, rows = [], []
        original = model.split_coordinates
        monkeypatch.setattr(model, "split_coordinates", lambda density: split_calls.append(
            density) or original(density))
        monkeypatch.setattr(model, "_contraction", lambda L, q: rows.append(q))
        for kind in ("parameter", "gauge"):
            theta = self._doubled(model._symmetry(kind)[0], model.field[0][0])
            monkeypatch.setattr(model, "parameter_symmetry" if kind == "parameter"
                                else "gauge_operator", lambda theta=theta: theta)
            for directions in ((0,), every):
                check = kind + "-symmetry"
                row, want = run_parts([
                    (check, lambda n: CheckResult.from_form(n, model._lie(kind, directions))),
                    (check, lambda n: CheckResult.from_form(n, volume(model.ctx).times_poly(
                        prolong_apply(model._part(kind, directions), L.density))))], True)
                assert not row.ok and row.line() == want.line()
        assert split_calls == [] and rows == []
        installed = Lagrangian(L.density + mass_term_lagrangian(model).density)
        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: installed)
        for kind in ("parameter", "gauge"):
            model._whole_lie(kind)
        assert split_calls == [] and rows == []

    @pytest.mark.parametrize("name, order", [
        ("su2", None), ("su2", 1), ("su2", 2), ("osp12", None), ("osp12", 1), ("osp12", 2),
        ("sl21", 1)])
    def test_rows_are_the_jet_routes(self, name, order, monkeypatch):
        # with the own L, plus a mass term or a symmetric-quadratic term,
        # at each maximum jet order, each symmetry row is that of L_theta L
        # prolonged in jets: zero, nonzero and raised alike; below a bound
        # of 3 (the jets-fit condition) no contraction row is read
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
                    (check, lambda n: CheckResult.from_form(n, model._whole_lie(kind))),
                    (check, lambda n: CheckResult.from_form(n, volume(model.ctx).times_poly(
                        prolong_apply(theta, model.ym_lagrangian().density))))], True)
                assert got.line() == want.line()
                lines.append(got)
            read = [key for key in model._memo if key[0] == "contraction"]
            assert bool(read) == (extra is None and order is None)
        assert [row.ok for row in lines] == [order != 1] * 2 + [False] * 4
        if order == 1:
            assert all("exceeds configured maximum 1" in row.witness for row in lines)

    def test_a_split_coordinate_in_L_takes_the_jet_route(self, su2, monkeypatch):
        # F^1_01 - Fs1_01 is zero under phi, which is not injective on a
        # density holding a split coordinate: such an L is installed, so
        # it takes the jet route, where its Lie derivative is nonzero
        Fs = su2.ctx.var(su2.aux_strength[(0, 0, 1)])
        L = Lagrangian(su2.strength(0, 0, 1) - Fs)
        theta = su2.parameter_symmetry()
        assert su2.split_coordinates(L.density).is_zero()
        monkeypatch.setattr(su2, "ym_lagrangian", lambda validate=True: L)
        got = su2._whole_lie("parameter")
        assert got == volume(su2.ctx).times_poly(prolong_apply(theta, L.density))
        assert not got.is_zero()


class TestSplitProof:
    """The algebra maps against phi(L): each fixes phi(L) exactly when it
    fixes L (`relabellings`), and an installed direction map that is not
    the model's own, whether or not it keeps h or c, reduces no table."""

    CHECKS = ("euler-lagrange", "parameter", "gauge", "brst")

    @pytest.mark.parametrize("name", ["su2", "sl3", "sl21", "two-abelian"])
    def test_phi_of_L_is_fixed_exactly_when_L_is(self, name, request):
        # the algebra maps fix both; on two abelian directions with
        # h = diag(1, 2), the swap keeps c = 0 but not h and fixes neither
        if name == "two-abelian":
            model = spec_model(parse_model(
                "[model]\ndimension = 2\nmetric = +-\n\n[algebra]\ngenerator A parity 0\n"
                "generator B parity 0\n\n[form]\nh A A = 1\nh B B = 2\n"))
            maps = relabellings(model, model.algebra_maps() + [((1, 0), (1, 1)),
                                                               ((1, 0), (-1, 1))])
        else:
            model = request.getfixturevalue(name)
            maps = relabellings(model, model.algebra_maps())
        L = model.ym_lagrangian().density
        image = model._split(model.ym_lagrangian())
        fixed = [fixed_by([g], image) for g in maps]
        assert fixed == [fixed_by([g], L) for g in maps]
        assert fixed == [True] * len(model.algebra_maps()) + [False] * (len(maps) - len(
            model.algebra_maps()))

    def test_a_map_keeping_h_but_not_c_fails_the_proof(self, monkeypatch):
        # E12 <-> E13 and E21 <-> E31 on sl(3) keep the trace form, so they
        # fix 1/4 h Fs Fs, but not c, so they neither commute with phi nor
        # fix L; not the model's own maps, they reduce no table
        model = _new_model("sl3")
        names = [name for name, _ in parse_model(SL3_MODEL.read_text(encoding="utf-8")).generators]
        pi = list(range(8))
        for x, y in (("E12", "E13"), ("E21", "E31")):
            pi[names.index(x)], pi[names.index(y)] = names.index(y), names.index(x)
        direction_map = (tuple(pi), (1,) * 8)
        (swap,) = relabellings(model, [direction_map])
        assert all((pi[i], pi[j], h) in model.form_entries for i, j, h in model.form_entries)
        L = model.ym_lagrangian()
        image = model._split(L)
        assert relabel(image, *swap) == image and relabel(L.density, *swap) != L.density
        monkeypatch.setattr(model, "algebra_maps", lambda: [direction_map])
        reps = {check: model._representatives(check) for check in self.CHECKS}
        assert reps == dict.fromkeys(reps)
        lines = [row.line() for row in model.full_verification(True).results]
        assert lines == [row.line() for row in _new_model("sl3").full_verification(True).results]

    def test_a_map_leaving_the_split_coordinates_fails_the_proof(self, monkeypatch):
        # each algebra map's relabelling with its strength and symmetric
        # coordinates left in place still fixes L, and trivially phi(L),
        # but need not commute with phi; a direction map moves those
        # coordinates with their direction, so none leaves them, and an
        # installed copy of the kept maps is not the model's own: it
        # reduces no table
        model = _new_model("su2")
        split = set(model.aux_strength.values()).union(model.aux_sym.values())
        left = [({g: h for g, h in gen_map.items() if g not in split},
                 {g: s for g, s in signs.items() if g not in split})
                for gen_map, signs in relabellings(model, model.algebra_maps())]
        L, image = model.ym_lagrangian().density, model._split(model.ym_lagrangian())
        assert fixed_by(left, L) and fixed_by(left, image)
        maps = list(model.algebra_maps())
        assert maps == model.algebra_maps()
        monkeypatch.setattr(model, "algebra_maps", lambda: maps)
        assert [model._representatives(check) for check in self.CHECKS] == [None] * 4

    def test_a_map_moving_a_field_off_the_fields_fails_the_proof(self, monkeypatch):
        # e3 -> e4, a direction su2 lacks, would move a3_mu off the fields;
        # installed, the map is not the model's own: it reduces no table,
        # and nothing raises
        model = _new_model("su2")
        monkeypatch.setattr(model, "algebra_maps", lambda: [((1, 0, 3), (1, 1, 1))])
        assert [model._representatives(check) for check in self.CHECKS] == [None] * 4

    @pytest.mark.parametrize("name", ["su2", "sl21"])
    def test_an_installed_L_runs_whole_tables(self, name, monkeypatch):
        # a mass-term L, alone or added to the own L, keeps the algebra
        # maps, but is not the model's own: no table is reduced, nothing is
        # split, and each row is the unreduced route's
        for extra in (False, True):
            lines = []
            for reduced in (True, False):
                model = _new_model(name)
                mass = mass_term_lagrangian(model)
                installed = Lagrangian(model.ym_lagrangian().density + mass.density) if extra \
                    else mass
                assert fixed_by(relabellings(model, model.algebra_maps()), installed.density)
                monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: installed)
                split = []
                monkeypatch.setattr(model, "split_coordinates", lambda d: split.append(d))
                if reduced:
                    assert [model._representatives(check) for check in self.CHECKS[:3]] == \
                        [None] * 3
                else:
                    monkeypatch.setattr(model, "_representatives", lambda check: None)
                lines.append([row.line() for pipeline in ("euler-lagrange", "brst")
                              for row in model.pipeline(pipeline, deterministic=True)])
                assert split == []
                monkeypatch.undo()
            assert lines[0] == lines[1]

    @pytest.mark.parametrize("name", ["sl3", "sl21"])
    def test_a_passing_full_renames_no_L_and_splits_nothing(self, name, monkeypatch):
        # no density is relabelled, each gauge Lie derivative is read off
        # the contraction rows, and L and phi(L) are each built once, one
        # table per stored form pair, of n(n-1)/2 products
        renamed, split, products, tables = [], [], [], []
        substitute, density, product = Poly.substitute, gvc.models._strength_density, \
            gvc.models.add_product
        monkeypatch.setattr(Poly, "substitute", lambda p, m: renamed.append(p) or substitute(p, m))
        monkeypatch.setattr(GaugeModel, "split_coordinates", lambda model, d: split.append(d))
        monkeypatch.setattr(gvc.models, "add_product", lambda out, *args: products.append(
            out) or product(out, *args))

        def counted(L, strength):
            del products[:]
            out = density(L, strength)
            tables.append((len({id(p) for p in products}), len(products)))
            return out

        monkeypatch.setattr(gvc.models, "_strength_density", counted)
        model = _new_model(name)
        assert model.full_verification().ok
        assert renamed == [] and split == []
        stored, n = sum(i <= j for i, j, _ in model.form_entries), model.metric.dim
        assert stored < len(model.form_entries)
        assert tables == [(stored, stored * n * (n - 1) // 2)] * 2


class TestAlgebraMapsFixTheModel:
    """What `_representatives` takes from the construction: each kept
    algebra map keeps the pairing with one sign per pair, fixes L, phi(L),
    P_s and the parameter symmetry's paired sum, and sends each field
    equation E_z(L), by either route, onto s_z E_g(z)(L)."""

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21", "sl3", "sl31"])
    def test_each_map_fixes_what_the_checks_read(self, name):
        model = _new_model(name)
        pairs, ctx = model.pairs(), model.ctx
        assert model.algebra_maps() == signed_automorphisms(model.algebra)
        maps = relabellings(model, model.algebra_maps())
        assert maps
        for gen_map, signs in maps:
            for z, zbar in pairs.items():
                assert pairs[gen_map.get(z, z)] is gen_map.get(zbar, zbar)
                assert signs.get(z, 1) == signs.get(zbar, 1)
        L = model.ym_lagrangian()
        for density in (L.density, model._split(L), model._paired_sum(),
                        paired_sum(ctx, model.parameter_symmetry().components, pairs)):
            assert fixed_by(maps, density)
        fields = [g for row in model.field for g in row]
        for el in (model.generic_euler_lagrange(), model.closed_euler_lagrange()):
            assert set(el.components) == set(fields)
            for gen_map, signs in maps:
                assert any(gen_map[z] is not z for z in fields)
                for z in fields:
                    assert relabel(el.component(z), gen_map, signs) == \
                        el.component(gen_map[z]) * signs.get(z, 1)


class TestSplitLieFuzz:
    """Gauge and parameter derivations with seeded random field terms
    added, some of which put a first jet of a field into M^r_i, installed:
    not the model's own, so no contraction row is read and L_theta L of
    each part is the jet route's."""

    @pytest.mark.parametrize("name, seed", [("su2", 1), ("osp12", 2), ("sl3", 3), ("sl21", 4)])
    def test_split_lie_is_phi_of_theta_of_L(self, name, seed, request, monkeypatch):
        model = request.getfixturevalue(name)
        ctx, L, rng = model.ctx, model.ym_lagrangian(), random.Random(seed)
        m, n = model.algebra.dim, model.metric.dim
        fields = [g for row in model.field for g in row]
        monkeypatch.setattr(model, "_contraction", None)
        for kind in ("parameter", "gauge"):
            theta, sources = model._symmetry(kind)
            comps = dict(theta.components)
            q = rng.randrange(m)
            for _ in range(3):
                r, mu, i, k, nu, lam = (rng.randrange(x) for x in (m, n, m, m, n, n))
                a = model.field[r][mu]
                want = (a.parity + theta.parity) % 2
                # a first jet of a field times a^i_mu: M^r_i holds it
                jet = ctx.var(model.field[k][nu], lam) * ctx.var(model.field[i][mu])
                factor = rng.choice([f for f in [ctx.one()] + [ctx.var(g) for g in sources]
                                     if (jet * f).parity() == want])
                comps[a] = comps.get(a, ctx.zero()) + jet * factor + random_poly(
                    rng, ctx, terms=2, max_order=1, parity=want, gens=fields + sources)
            fuzzed = ContactDerivation(ctx, comps, theta.parity)
            monkeypatch.setattr(model, "parameter_symmetry" if kind == "parameter"
                                else "gauge_operator", lambda fuzzed=fuzzed: fuzzed)
            for directions in ((q,), tuple(range(m))):
                jets = prolong_apply(model._part(kind, directions), L.density)
                assert model._lie(kind, directions) == volume(ctx).times_poly(jets)
            assert not jets.is_zero()


class TestCovarianceOfF:
    """What the contraction rows' reading of L_theta L (`GaugeModel._lie`,
    `TestContractionRows`) takes from the construction: each part of the
    model's own gauge and parameter derivations, of one direction or of
    all, moves the jet strength covariantly,
        theta(F^r_lam,mu) = sum_i M^r_i F^i_lam,mu,
    M^r_i the right partial of theta(a^r_mu) along a^i_mu, by the tests'
    oracles (`oracle_prolong_apply`, `oracle_partial`, `oracle_add_product`),
    which share no code with the prolonged action.  With one twist term's
    sign flipped and installed, the identity breaks, and each row and each
    part's L_theta L is the jet route's, nonzero."""

    MODELS = ["abelian", "su2", "osp12", "sl3", "sl21", "sl31", "sl12", "sl21-rescaled",
              "osp14", "osp32"]

    @staticmethod
    def _model(name):
        if name == "sl12":
            return spec_model(parse_model(supermatrix_model_text((0, 1, 1))))
        if name == "sl21-rescaled":
            # every basis vector scaled by a non-integer: 3/2, 5/2, ...
            spec = parse_model(SL21_MODEL.read_text(encoding="utf-8"))
            return spec_model(parse_model(rescaled_model_text(spec, {
                label: Fraction(2 * k + 3, 2) for k, (label, _) in enumerate(spec.generators)})))
        if name.startswith("osp"):
            return spec_model(parse_model(osp_model_text(int(name[3]), int(name[4]))))
        return _new_model(name)

    @staticmethod
    def _defects(model, theta):
        """theta(F^r_lam,mu) - sum_i M^r_i F^i_lam,mu by the oracles, as
        rational coefficients, on each (r, lam, mu), lam < mu, where it is
        nonzero; and the number of nonzero M^r_i read."""
        ctx, m, n = model.ctx, model.algebra.dim, model.metric.dim
        defects, read = {}, 0
        for r in range(m):
            for mu in range(n):
                comp = theta.component(model.field[r][mu])
                M = [oracle_poly(ctx, oracle_partial(comp, ctx.jet(model.field[i][mu]), "right"))
                     for i in range(m)]
                read += sum(bool(p.terms) for p in M)
                for lam in range(mu):
                    moved = oracle_coeffs(oracle_prolong_apply(theta, model.strength(r, lam, mu)))
                    for i, p in enumerate(M):
                        if p.terms:
                            oracle_add_product(moved, p, model.strength(i, lam, mu), -1)
                    if moved:
                        defects[(r, lam, mu)] = moved
        return defects, read

    @staticmethod
    def _directions(model):
        m = model.algebra.dim
        return [(q,) for q in range(m)] + [tuple(range(m))]

    @pytest.mark.parametrize("name", MODELS)
    def test_each_part_moves_F_by_M(self, name):
        model = self._model(name)
        assert model.form_report().ok
        for kind in ("gauge", "parameter"):
            reads = []
            for directions in self._directions(model):
                part = model._part(kind, directions)
                defects, read = self._defects(model, part)
                assert defects == {}
                reads.append(read)
            # every part but abelian's reads some M, a twist
            assert all((read > 0) == bool(model.constants) for read in reads)

    @pytest.mark.parametrize("name", MODELS[1:])
    def test_a_flipped_twist_term_breaks_it(self, name, monkeypatch):
        # -c^r_ji sources[j] a^i_mu in theta(a^r_mu) becomes +c^r_ji ...
        model = self._model(name)
        ctx, L, every = model.ctx, model.ym_lagrangian(), tuple(range(model.algebra.dim))
        r, j, i, c = random.Random(name).choice(model.constants)
        mu = model.metric.dim - 1
        for kind in ("gauge", "parameter"):
            theta, sources = model._symmetry(kind)
            a = model.field[r][mu]
            flip = ctx.product(2 * c, (ctx.jet(sources[j]), ctx.jet(model.field[i][mu])))
            flipped = ContactDerivation(ctx, {**theta.components, a: theta.component(a) + flip},
                                        theta.parity)
            assert len((flipped.component(a) - theta.component(a)).terms) == 1
            monkeypatch.setattr(model, "gauge_operator" if kind == "gauge"
                                else "parameter_symmetry", lambda flipped=flipped: flipped)
            assert self._defects(model, model._part(kind, (j,)))[0]
            for directions in ((j,), every):
                got = model._lie(kind, directions)
                assert not got.is_zero() and got == volume(ctx).times_poly(
                    prolong_apply(model._part(kind, directions), L.density))
            check = kind + "-symmetry"
            parts = dict(model._brst_parts() if kind == "gauge" else model._noether_parts())
            row, want = run_parts([
                (check, parts[check]),
                (check, lambda n: CheckResult.from_form(n, volume(ctx).times_poly(
                    prolong_apply(flipped, L.density))))], True)
            assert not row.ok and row.line() == want.line()
            monkeypatch.undo()


class TestContractionRows:
    """The identity `GaugeModel._lie` reads gauge invariance from: for each
    part of the model's own gauge or parameter derivation on directions qs,
    of one direction or of all, and the model's own L,
        phi(theta(L)) = sum over q in qs of sources[q] * (contraction row q),
    the left side by prolonging theta on L's density in jets and rewriting
    it by `split_coordinates`, sharing no code with the rows.  It holds for
    any form h, so also with one form entry doubled (`ym_lagrangian` with
    validate=False), where both sides are nonzero."""

    MODELS = ["abelian", "su2", "osp12", "sl3", "sl21", "sl31", "osp14", "osp32"]

    @staticmethod
    def _text(name):
        if name in PRESET_MODEL_TEXT:
            return PRESET_MODEL_TEXT[name]
        if name in ("sl3", "sl21"):
            return (SL3_MODEL if name == "sl3" else SL21_MODEL).read_text(encoding="utf-8")
        if name == "sl31":
            return supermatrix_model_text((0, 0, 0, 1))
        return osp_model_text(int(name[3]), int(name[4]))

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("name", MODELS)
    def test_lie_derivative_is_sources_times_rows(self, name, perturbed):
        text = self._text(name)
        if perturbed:
            # the first form entry doubled
            text = re.sub(r"^(h \S+ \S+ = )(\S+)$", lambda m: m.group(1) + str(
                2 * Fraction(m.group(2))), text, count=1, flags=re.M)
        model = spec_model(parse_model(text))
        assert model.form_report().ok is (not perturbed or name == "abelian")
        L = model.ym_lagrangian(validate=not perturbed)
        ctx, m = model.ctx, model.algebra.dim
        rows = model.invariance_conditions(L)[2]
        nonzero = 0
        for kind in ("gauge", "parameter"):
            sources = model._symmetry(kind)[1]
            for directions in [(q,) for q in range(m)] + [tuple(range(m))]:
                got = model.split_coordinates(prolong_apply(model._part(kind, directions),
                                                            L.density))
                want = ctx.zero()
                for q in directions:
                    want = want + ctx.var(sources[q]) * rows["q%d" % (q + 1)]
                assert got == want
                nonzero += not got.is_zero()
        # the invariant form's rows are zero; a doubled entry breaks
        # invariance unless there is no bracket
        assert (nonzero > 0) is (perturbed and name != "abelian")


class TestGatedChecksOnGradedModels:
    """The checks `EVEN_ONLY_CHECKS` keeps out of graded reports, run
    directly from the noether and utiyama pipelines' parts: on graded
    models every row passes, and each is the direct routes' row."""

    @pytest.mark.parametrize("name", ["osp12", "sl21", "sl31", "osp14", "osp32", "osp42"])
    def test_every_row_passes_on_both_routes(self, name):
        lines = []
        for routes in (contextlib.nullcontext, direct_routes):
            with routes():
                model = spec_model(parse_model(TestContractionRows._text(name)))
                rows = run_parts(model._noether_parts() + model._utiyama_parts(),
                                 deterministic=True)
            assert not model.all_even and all(row.ok for row in rows)
            lines.append([row.line() for row in rows])
        assert {row.name for row in rows} >= set(GaugeModel.EVEN_ONLY_CHECKS)
        assert lines[0] == lines[1]


class TestRouteDecision:
    """One table decides every shortcut route (`GaugeModel._ROUTES`): the
    resolver `_detour` is None where a route runs, and otherwise names the
    first of its conditions (`GaugeModel._CONDITIONS`) that fails."""

    ROUTES = GaugeModel._ROUTES

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_every_route_runs_on_a_fresh_model_and_none_on_the_direct_routes(self, name):
        model = _new_model(name)
        assert [model._detour(route) for route in self.ROUTES] == [None] * len(self.ROUTES)
        with direct_routes():
            model = _new_model(name)
            # no object is the model's own, and each route tests one first
            assert [model._detour(route) for route in self.ROUTES] == [
                conditions[0] for conditions in self.ROUTES.values()]

    def test_the_table_orders_each_condition_after_what_it_assumes(self):
        for route, conditions in self.ROUTES.items():
            assert len(set(conditions)) == len(conditions), route
            # the jets fit for the model's own L, which is at most first order
            if "jets-fit" in conditions:
                assert "lagrangian" in conditions[:conditions.index("jets-fit")], route
            # the kept L_u L is the model's own u's
            if "gauge-invariant" in conditions:
                assert {"gauge-operator", "brst-operator"} & set(
                    conditions[:conditions.index("gauge-invariant")]), route
        assert set().union(*self.ROUTES.values()) == set(GaugeModel._CONDITIONS)

    @staticmethod
    def _installs(model):
        """Per condition, the accessor and the object installed through it:
        a mass-term L, and a copy of each other object, equal to the
        model's own but not the one kept under its key."""
        ctx, rows = model.ctx, model.noether_operator().rows
        u, theta, s = model.gauge_operator(), model.parameter_symmetry(), model.brst_operator()
        return {
            "algebra-maps": ("algebra_maps", list(model.algebra_maps())),
            "lagrangian": ("ym_lagrangian", Lagrangian(
                model.ym_lagrangian().density + mass_term_lagrangian(model).density)),
            "euler-lagrange": ("generic_euler_lagrange",
                               EulerLagrange.by_field(model.ym_lagrangian())),
            "gauge-operator": ("gauge_operator", ContactDerivation(ctx, dict(u.components), ODD)),
            "parameter-symmetry": ("parameter_symmetry", ContactDerivation(
                ctx, dict(theta.components), EVEN)),
            "noether-operator": ("noether_operator", NoetherOperator(ctx, dict(rows))),
            "ghost-sector": ("ghost_sector", dict(model.ghost_sector())),
            "brst-operator": ("brst_operator", ContactDerivation(ctx, dict(s.components), ODD)),
        }

    @pytest.mark.parametrize("condition", list(GaugeModel._CONDITIONS))
    def test_a_broken_condition_is_named_by_each_route_reading_it(self, condition, monkeypatch):
        if condition == "jets-fit":
            model = _new_model("su2", max_jet_order=2)
        elif condition == "gauge-invariant":
            # the first form entry doubled: the model's own L, not invariant
            model = spec_model(parse_model(re.sub(
                r"^(h \S+ \S+ = )(\S+)$", lambda m: m.group(1) + str(2 * Fraction(m.group(2))),
                PRESET_MODEL_TEXT["su2"], count=1, flags=re.M)))
            L = model.ym_lagrangian(validate=False)
            monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        else:
            model = _new_model("su2")
            accessor, installed = self._installs(model)[condition]
            monkeypatch.setattr(model, accessor, lambda *args, **kwargs: installed)
        assert {route: model._detour(route) for route in self.ROUTES} == {
            route: condition if condition in conditions else None
            for route, conditions in self.ROUTES.items()}


class TestSupermatrixModels:
    def test_sl3_is_the_benchmark_model(self):
        assert supermatrix_model_text((0, 0, 0)) == SL3_MODEL.read_text(encoding="utf-8")

    def test_sl31_full_passes(self):
        # sl(3|1): 15 directions, 6 of them odd, and one algebra map
        model = spec_model(parse_model(supermatrix_model_text((0, 0, 0, 1))))
        assert model.algebra.dim == 15 and sum(model.algebra.parities) == 6
        assert model.full_verification().ok and len(model.algebra_maps()) == 1


class TestOrthosymplecticModels:
    """osp(m|2n) from `osp_model_text`: its odd-odd bracket and its form on
    the odd part differ from sl(m|n)'s."""

    @pytest.mark.parametrize("m, two_n, dim, odd", [(1, 4, 14, 4), (3, 2, 12, 6),
                                                  (4, 2, 17, 8)])
    def test_validate_algebra_passes(self, m, two_n, dim, odd):
        model = spec_model(parse_model(osp_model_text(m, two_n)))
        assert model.algebra.dim == dim and sum(model.algebra.parities) == odd
        rows = model.pipeline("validate-algebra", deterministic=True)
        assert [row.name for row in rows] == ["algebra-structure", "invariant-form"]
        assert all(row.ok for row in rows)

    @pytest.mark.parametrize("m, two_n", [(1, 4), (3, 2), (4, 2)])
    def test_full_passes_on_both_routes(self, m, two_n):
        reports = []
        for routes in (contextlib.nullcontext, direct_routes):
            with routes():
                report = spec_model(parse_model(osp_model_text(m, two_n))).full_verification(
                    deterministic=True)
                assert report.ok
                reports.append(report.render())
        assert reports[0] == reports[1]


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
                    assert model._yang_mills._twist_sum(r, lam, mu) == want
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
                        repl = half * (sym - strength) + model._yang_mills._twist_sum(r, mu, lam)
                    mapping[ctx.jet(model.field[r][mu], (lam,))] = repl
        density = model.ym_lagrangian().density
        assert model.split_coordinates(density) == density.substitute(mapping)


class TestDimensionSweep:
    @pytest.mark.parametrize("signature", ["++", "+-", "++-", "+--"])
    def test_noether_identities_any_dimension(self, signature):
        model = GaugeModel(su2_algebra(), Metric.from_signature(signature))

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
    """The direct route's master-equation row on densities other than the
    proper solution, installed as S: only the direct route reads S."""

    def test_plain_lagrangian_is_a_trivial_solution(self, monkeypatch):
        model = preset_model("su2")
        monkeypatch.setattr(model, "extended_lagrangian", model.ym_lagrangian)
        with direct_routes():
            (row,) = model.pipeline("master-equation", deterministic=True)
        assert not row.ok and row.witness == "solution is trivial"

    def test_perturbed_ghost_term_fails_the_bracket(self, monkeypatch):
        model = preset_model("su2")
        ghost, pairs = model.ghost[0], model.pairs()
        # the ghost term s(c1) cbar1 of the proper solution, counted twice
        term = model.brst_operator().components[ghost] * model.ctx.var(pairs[ghost])
        perturbed = Lagrangian(model.extended_lagrangian().density + term)
        monkeypatch.setattr(model, "extended_lagrangian", lambda: perturbed)
        with direct_routes():
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
            with direct_routes():
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
                 "noether_current", "lepage_equivalent")
        for name in names:
            count(name)
        densities, asked, tables, derived = [], [], [], []
        for module in (gvc.bicomplex, gvc.brst, gvc.models):
            def counted_derivatives(density, side="left", gens=None, index=None,
                                    original=module.variational_derivatives):
                densities.append(density)
                asked.append(gens)
                tables.append(original(density, side, gens, index))
                return tables[-1]

            monkeypatch.setattr(module, "variational_derivatives", counted_derivatives)
        paired = gvc.brst._paired_derivation

        def counted_paired(ctx, left, pairs):
            derived.append(left)
            return paired(ctx, left, pairs)

        monkeypatch.setattr(gvc.brst, "_paired_derivation", counted_paired)
        model = preset_model("su2")
        assert model.full_verification().ok
        # the Noether rows are read from the kept u L, so none is applied
        assert {name: len(calls.get(name, ())) for name in names} == {
            **dict.fromkeys(names, 1), "noether_residuals": 0}
        # the variational derivatives of L on the euler-lagrange
        # representatives alone, the generic field equations the check
        # reads, and of P_s on s's generators, from which the master
        # equation reads its nontriviality; no Theta is built
        reps = {g for r in model._representatives("euler-lagrange") for g in model.field[r]}
        assert [p is q for p, q in zip(densities, (model.ym_lagrangian().density,
                                                    model._paired_sum()))] == [True, True]
        assert len(densities) == 2 and set(asked[0]) == reps
        assert asked[1] is model.brst_operator().components and tables[1]
        assert set(model.generic_euler_lagrange()._table) == reps
        assert derived == []

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
        # each read off the contraction row of that direction, zero: nothing
        # is prolonged, on L's polynomial or on phi(L), and none on forms;
        # utiyama-contraction reads every row, each kept once with L
        L = model.ym_lagrangian()
        xi = model._part("parameter", (0,))
        assert lies == [] and calls == [] and form_lies == []
        assert sorted(key[2] for key in model._memo if key[:2] == ("contraction", L)) == [0, 1, 2]
        # that part's current takes its own L_theta as the precondition,
        # and the one Lepage form
        assert [(theta, lie is model._lie("parameter", (0,)), xi_L is model.lepage_form())
                for theta, lie, xi_L in currents] == [(xi, True, True)]
        assert len(lepages) == 1 and lepages[0] is model.ym_lagrangian()
        # the whole current takes L_theta of the whole part once, reuses it
        # and the same Lepage form
        model.current()
        whole = model._part("parameter", (0, 1, 2))
        assert lies == [] and calls == []
        assert [(theta, lie is model._lie("parameter", (0, 1, 2)), xi_L is model.lepage_form())
                for theta, lie, xi_L in currents[1:]] == [(whole, True, True)]
        assert len(lepages) == 1 and form_lies == []
        assert model.parameter_symmetry() is model.parameter_symmetry()
        # sl(2|1)'s gauge-symmetry: L_theta L of the part of its four
        # representative directions, read off their rows alone
        sl21 = spec_model(parse_model(SL21_MODEL.read_text(encoding="utf-8")))
        assert all(row.ok for row in sl21.pipeline("brst"))
        assert sl21._representatives("gauge") == (0, 2, 3, 4)
        assert lies == [] and calls == []
        assert sorted(key[2] for key in sl21._memo if key[0] == "contraction") == [0, 2, 3, 4]

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
        twist, build = _YangMills.twist, _YangMills._twist_sum

        def counted_twist(L, *args):
            asked.append(args)
            return twist(L, *args)

        def counted_build(L, *args):
            built.append(args)
            return build(L, *args)

        monkeypatch.setattr(_YangMills, "twist", counted_twist)
        monkeypatch.setattr(_YangMills, "_twist_sum", counted_build)
        model = preset_model("su2")
        assert model.full_verification().ok
        # a passing run asks for each twist once, for its strength: the
        # gauge Lie derivatives read the contraction rows and never rewrite
        # a jet
        assert sorted(built) == sorted(asked) == sorted(set(asked))
        # phi rewrites each swapped first jet with the twist already built
        before = len(built)
        model.split_coordinates(model.ym_lagrangian().density)
        assert len(built) == before and len(asked) > len(built)

    def test_kept_tables_are_read_only(self, monkeypatch):
        # the kept derivations, Noether rows and field equations are trusted
        # by identity (`_own`), so none may change in place: adding c3*a3_0
        # to the kept u's component on a3_0 in place had given gauge-symmetry
        # a pass on one ghost per orbit; installed as a new u, it fails whole
        model = preset_model("su2")
        ctx, a, c = model.ctx, model.field[2][0], model.ghost[2]
        u = model.gauge_operator()
        moved = u.components[a] + ctx.var(c) * ctx.var(a)
        with pytest.raises(TypeError):
            u.components[a] = moved
        tables = [model.parameter_symmetry().components, model.brst_operator().components,
                  model.noether_operator().rows, model.generic_euler_lagrange().components]
        for table in tables:
            key = next(iter(table))
            with pytest.raises(TypeError):
                table[key] = table[key]
            with pytest.raises(TypeError):
                del table[key]
        assert model.pipeline("brst", deterministic=True)[0].ok
        installed = ContactDerivation(ctx, {**u.components, a: moved}, u.parity)
        monkeypatch.setattr(model, "gauge_operator", lambda: installed)
        (gauge, _) = model.pipeline("brst", deterministic=True)
        assert model._representatives("gauge") is None
        assert gauge.line().startswith("check gauge-symmetry | status fail | nonzero 48 |")

    def test_ghost_sector_kept_read_only(self):
        # the kept sector is the model's own, which the BRST square's orbit
        # reduction trusts, so no caller may change it in place
        model = preset_model("su2")
        sector = model.ghost_sector()
        assert sector is model.ghost_sector() and sector
        with pytest.raises(TypeError):
            sector[model.ghost[0]] = model.ctx.zero()

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
        # orbit, which proper_solution reuses; the master equation, which
        # follows from it and s(L) = 0, squares nothing
        calls = [theta for theta in calls if theta is not model.koszul_tate()]
        assert calls == [model.brst_operator()]

    @pytest.mark.parametrize("name", ["su2", "sl21"])
    def test_each_density_renamed_once_per_map(self, name, monkeypatch):
        # no density is relabelled: every check's representatives are the
        # roots of the kept maps' orbits on the algebra's directions, found
        # once per model, and finding them builds nothing but what the
        # first check itself reads
        renamed, roots, added, asked = [], [], [], set()
        substitute, find = Poly.substitute, gvc.models.orbit_roots
        reps = GaugeModel._representatives
        monkeypatch.setattr(Poly, "substitute", lambda p, m: renamed.append(p) or substitute(p, m))
        monkeypatch.setattr(gvc.models, "orbit_roots", lambda maps, m: roots.append(
            m) or find(maps, m))

        def counted(model, check):
            before = set(model._memo)
            out = reps(model, check)
            asked.add(check)
            added.extend((check, key) for key in set(model._memo) - before)
            return out

        monkeypatch.setattr(GaugeModel, "_representatives", counted)
        model = preset_model(name) if name == "su2" else spec_model(
            parse_model(SL21_MODEL.read_text(encoding="utf-8")))
        assert model.full_verification().ok
        # a graded model runs no parameter check
        checks = [check for check in ("euler-lagrange", "parameter", "gauge", "brst")
                  if model.all_even or check != "parameter"]
        assert renamed == []
        assert roots == [model.algebra.dim] and asked == set(checks)
        # the maps, their representative directions and E(L), whose
        # components are built only when read, are kept for the first
        # check, euler-lagrange, and the later checks add nothing
        L = model.ym_lagrangian()
        assert sorted(added, key=repr) == sorted([
            ("euler-lagrange", key) for key in (("euler-lagrange", L), "algebra-maps",
                                                "representatives")], key=repr)

    @pytest.mark.parametrize("name", ["su2", "osp12"])
    def test_pipelines_in_reverse_order_match_full(self, name):
        full = preset_model(name).full_verification(deterministic=True)
        model = preset_model(name)
        rows = []
        for pipeline in reversed(GaugeModel.PIPELINES):
            rows = model.pipeline(pipeline, deterministic=True) + rows
        assert [r.line() for r in rows] == [r.line() for r in full.results]

    def test_context_freed_without_the_cycle_collector(self):
        # after `full`, and after each pipeline alone that never reads L's
        # density: the kept L, which builds its density when first read,
        # may hold no path back to the model, whose memo keeps L
        gc.disable()
        try:
            for command in ("full", "utiyama", "brst", "koszul-tate"):
                model = preset_model("su2")
                if command == "full":
                    assert model.full_verification().ok
                else:
                    assert all(row.ok for row in model.pipeline(command))
                ref = weakref.ref(model.ctx)
                del model
                assert ref() is None, command
        finally:
            gc.enable()

    @staticmethod
    def _density_builds(monkeypatch):
        """The list that each build of a model's own L in jets, the
        strength density of its jet strengths, appends that L to."""
        built, density = [], gvc.models._strength_density

        def counted(L, strength):
            if strength == L.strength:
                built.append(L)
            return density(L, strength)

        monkeypatch.setattr(gvc.models, "_strength_density", counted)
        return built

    @staticmethod
    def _solutions(monkeypatch):
        """The list that each build of a proper solution S = L + P_s
        appends its S to."""
        built, solution = [], gvc.models.proper_solution
        monkeypatch.setattr(gvc.models, "proper_solution", lambda *args: built.append(
            solution(*args)) or built[-1])
        return built

    @staticmethod
    def _kept_densities(model):
        """The Lagrangians the model keeps other than its own L."""
        return [v for v in model._memo.values()
                if isinstance(v, Lagrangian) and v is not model.ym_lagrangian()]

    @pytest.mark.parametrize("name, command", [
        (name, command) for name in ("su2", "osp12", "sl21")
        for command in ("utiyama", "brst", "koszul-tate", "master-equation")] + [
        ("sl21", "noether"), ("osp12", "noether"), ("sl3", "master-equation")])
    def test_lone_pipeline_leaves_L_unbuilt(self, name, command, monkeypatch):
        # the invariance conditions and the gauge Lie derivatives read the
        # partials of phi(L), built from the strength coordinates, the gauge
        # Lie derivatives through the contraction rows, and the kept E(L) and
        # Noether rows are compared by identity; the master equation reads
        # s^2, u L and, where P_s couples a pair, E(P_s) alone: none reads L
        # in jets, none builds a jet strength, and none builds S = L + P_s
        built, solutions = self._density_builds(monkeypatch), self._solutions(monkeypatch)
        model = _new_model(name)
        rows = model.pipeline(command, deterministic=True)
        assert rows and all(row.ok for row in rows)
        assert built == [] and solutions == [] and self._kept_densities(model) == []
        assert not any(key[0] == "strength" for key in model._yang_mills.memo)
        assert model._own("lagrangian", model.ym_lagrangian())
        assert model.ym_lagrangian().density.terms and len(built) == 1

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_L_built_once_where_read(self, name, monkeypatch):
        # euler-lagrange reads E(L), and full reads it and L itself (the
        # Lepage form) again: one build each
        built = self._density_builds(monkeypatch)
        model = _new_model(name)
        assert all(row.ok for row in model.pipeline("euler-lagrange", deterministic=True))
        assert built == [model.ym_lagrangian()]
        model = _new_model(name)
        assert model.full_verification(deterministic=True).ok
        assert built == [built[0], model.ym_lagrangian()]

    @pytest.mark.parametrize("name", ["su2", "sl21"])
    def test_full_builds_no_proper_solution(self, name, monkeypatch):
        # a passing master equation reads s^2 = 0 and s(L) = 0, not S
        solutions = self._solutions(monkeypatch)
        model = _new_model(name)
        assert model.full_verification(deterministic=True).ok
        assert solutions == [] and self._kept_densities(model) == []

    def test_abelian_master_equation_builds_L_once(self, monkeypatch):
        # P_s couples no pair on the abelian model, so the coupling is read
        # from E(L), which reads L in jets; S is still not built
        built, solutions = self._density_builds(monkeypatch), self._solutions(monkeypatch)
        model = _new_model("abelian")
        assert all(row.ok for row in model.pipeline("master-equation", deterministic=True))
        assert built == [model.ym_lagrangian()] and solutions == []

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
    elif isinstance(obj, Mapping):
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
    polys = list(_polys((model._memo, model._yang_mills.memo), set()))
    for p in polys:
        assert_normal(p)
    coeffs = [c for p in polys for c in p.coeffs().values()]
    assert len(coeffs) > 500
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in coeffs)
    assert any(type(c) is int for c in coeffs)
    # the quadratic Lagrangian's h/2 and the ghost sector's 1/2 are not integral
    assert any(p.den != 1 for p in polys) and any(p.den == 1 for p in polys)
