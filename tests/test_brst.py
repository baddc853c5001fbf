"""Noether identities, Koszul-Tate, BRST extensions, the antibracket
and the classical master equation."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import gvc.brst
import gvc.jets
import gvc.models
from gvc import (
    ContactDerivation,
    EVEN,
    EulerLagrange,
    GvcError,
    Lagrangian,
    ODD,
    ParityError,
    antibracket,
    brst_extend,
    euler_lagrange,
    koszul_tate,
    master_derivation,
    master_equation_check,
    nilpotency_residuals,
    noether_residuals,
    proper_solution,
    variational_derivative,
)
from gvc.brst import KoszulTate, MasterReport, NoetherOperator, paired_sum
from gvc.bicomplex import variational_derivatives
from gvc.grassmann import ExpansionLimitError, JetOrderError, Poly
from gvc.jets import iterated_derivative, total_derivative
from gvc.modelfile import parse_model, spec_model
from gvc.models import GaugeModel, Metric
from gvc.presets import PRESET_MODEL_TEXT, preset_model
from gvc.reporting import CheckResult
from gvc.superlie import signed_automorphisms

from util import (antifield_numbers, basis_orbits, even_part, field_generators, fixed_by,
                  generator_roots, linear_jet_paths, linear_jet_polys, make_context,
                  mass_term_lagrangian, odd_part, orbit_only_failure,
                  oracle_koszul_tate_apply, oracle_koszul_tate_residuals, random_jet,
                  random_poly, random_vertical, reduce_or_whole, relabel, relabellings,
                  shared_jet_cases, shared_jet_poly, su2_algebra)

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
def su2_euclidean():
    return GaugeModel(su2_algebra(), Metric((1, 1, 1, 1)))


def _fresh(name):
    """A new model of the fixture `name`, with nothing built or proved."""
    if name in ("sl21", "sl3"):
        path = SL21_MODEL if name == "sl21" else SL3_MODEL
        return spec_model(parse_model(path.read_text(encoding="utf-8")))
    if name == "su2_euclidean":
        return GaugeModel(su2_algebra(), Metric((1, 1, 1, 1)))
    return preset_model(name)


def _rows_density(model, kt):
    """The sum of delta(cbar_j) c_j over the Noether rows delta(cbar_j):
    fixed by an algebra map exactly when it carries each row onto s_j
    times its image's."""
    ghosts = dict(zip(model.noether_antifield, model.ghost))
    return paired_sum(model.ctx, {z: kt.components[z] for z in ghosts}, ghosts)


class TestNoetherIdentities:
    def test_abelian_divergence_identity(self, abelian):
        res = noether_residuals(abelian.noether_operator(),
                                abelian.generic_euler_lagrange())
        assert all(p.is_zero() for p in res.values())

    def test_su2_rows_vanish(self, su2):
        res = noether_residuals(su2.noether_operator(),
                                su2.generic_euler_lagrange())
        assert all(p.is_zero() for p in res.values())

    def test_mass_perturbation_obstruction(self, su2):
        broken = Lagrangian(su2.ym_lagrangian().density
                            + mass_term_lagrangian(su2).density)
        res = noether_residuals(su2.noether_operator(), euler_lagrange(broken))
        assert any(not p.is_zero() for p in res.values())

    def test_rows_match_memo_free_sum(self):
        # coefficients +-1 (the fused path, also as plain ints), 2, 1/2 and
        # polynomials, on random mixed-parity components
        ctx = make_context(2)
        gens = field_generators(ctx)
        rng = random.Random(2016)
        coeffs = (ctx.one(), -ctx.one(), -1, ctx.scalar(2), Fraction(1, 2))
        for _ in range(40):
            el = EulerLagrange(ctx, {g: random_poly(rng, ctx, terms=3) for g in gens})
            rows = {"r%d" % r: [(rng.choice(coeffs + (random_poly(rng, ctx, terms=1),)),
                                 rng.choice(gens),
                                 [rng.randrange(2) for _ in range(rng.randint(0, 2))])
                                for _ in range(4)]
                    for r in range(3)}
            want = {label: sum((coeff * iterated_derivative(index, el.component(gen))
                                for coeff, gen, index in entries), ctx.zero())
                    for label, entries in rows.items()}
            assert noether_residuals(NoetherOperator(ctx, rows), el) == want

    def test_mismatched_field_sets_rejected(self, su2):
        ctx = su2.ctx
        with pytest.raises(GvcError, match="identity row 'only' references non-field 'c1'"):
            NoetherOperator(ctx, {"only": [(ctx.one(), su2.ghost[0], ())]})

    def test_coefficients_koszul_tate_moves_rejected(self, su2):
        # an antifield or a degree-two antifield in a coefficient, alone,
        # as a jet or times a field; a ghost is not moved by Koszul-Tate
        ctx = su2.ctx
        field = ctx.var(su2.field[1][0])
        for gen in (su2.antifield[0][2], su2.noether_antifield[1]):
            for coeff in (ctx.var(gen), ctx.var(gen, 1), field * ctx.var(gen) + ctx.scalar(3)):
                with pytest.raises(GvcError, match="identity row 'r2' has a coefficient "
                                                   "Koszul-Tate moves"):
                    NoetherOperator(ctx, {"r1": [(1, su2.field[0][0], ())],
                                          "r2": [(coeff, su2.field[0][1], (0,))]})
        NoetherOperator(ctx, {"r1": [(ctx.var(su2.ghost[0]) * field, su2.field[0][0], ())]})

    def test_zero_component_rows_allowed(self, su2):
        # a field the density never touches (the gauge parameter xi1) has
        # zero variational derivative
        ctx = su2.ctx
        spectator = su2.parameter[0]
        assert spectator.kind == "even-field"
        assert su2.generic_euler_lagrange().component(spectator).is_zero()
        op = NoetherOperator(ctx, {"only": [(ctx.one(), spectator, ())]})
        res = noether_residuals(op, su2.generic_euler_lagrange())
        assert res["only"].is_zero()


class TestKoszulTate:
    def test_su2_nilpotent(self, su2):
        res = nilpotency_residuals(su2.koszul_tate())
        assert all(p.is_zero() for p in res.values())

    def test_abelian_nilpotent(self, abelian):
        res = nilpotency_residuals(abelian.koszul_tate())
        assert all(p.is_zero() for p in res.values())

    def test_graded_nilpotent(self, osp12):
        res = nilpotency_residuals(osp12.koszul_tate())
        assert all(p.is_zero() for p in res.values())

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_lowers_antifield_number_by_one(self, name, request):
        kt = request.getfixturevalue(name).koszul_tate()
        for gen, value in kt.components.items():
            if value.is_zero():
                continue
            numbers = antifield_numbers(value)
            assert numbers == {gen.antifield_number - 1}

    @staticmethod
    def _hand_built(rng):
        """A Koszul-Tate-style right derivation on a small field content:
        an odd antifield with an even value and an even one with an odd
        value, so the side values are multiplied on matters."""
        ctx = make_context(2)
        bar = ctx.add_generator("sbar", "antifield", ODD, ghost_number=-1,
                                antifield_number=1)
        tbar = ctx.add_generator("tbar", "antifield", EVEN, ghost_number=-1,
                                 antifield_number=1)
        kt = KoszulTate(ctx, {bar: random_poly(rng, ctx, terms=3, parity=EVEN),
                              tbar: random_poly(rng, ctx, terms=3, parity=ODD)})
        p = ctx.zero()
        for name in ("sbar", "tbar"):
            for index in ((), (0,), (1,), (0, 1)):
                p = p + random_poly(rng, ctx, terms=2) * ctx.var(name, *index)
        return ctx, kt, p

    def test_apply_matches_per_variable_reference(self):
        rng = random.Random(51)
        for _ in range(20):
            ctx, kt, p = self._hand_built(rng)
            want = ctx.zero()
            for v in p.variables():
                val = kt.components.get(v.gen)
                if val is not None:
                    want = want + p.deriv(v, "right") * iterated_derivative(v.index, val)
            assert kt.apply(p) == want

    def test_apply_term_limit(self):
        ctx, kt, p = self._hand_built(random.Random(52))
        n = len(kt.apply(p).terms)
        ctx.term_limit = n
        kt.apply(p)
        ctx.term_limit = n - 1
        with pytest.raises(ExpansionLimitError):
            kt.apply(p)

    def test_perturbed_row_breaks_nilpotency(self, su2):
        ctx = su2.ctx
        op = su2.noether_operator()
        rows = {label: list(entries) for label, entries in op.rows.items()}
        coeff, gen, index = rows["cbar1"][0]
        rows["cbar1"][0] = (coeff + ctx.one(), gen, index)
        broken = NoetherOperator(ctx, rows)
        el = su2.generic_euler_lagrange()
        kt = koszul_tate(broken, el, su2.pairs())
        kt_res = nilpotency_residuals(kt)
        noe = noether_residuals(broken, el)
        # the two detections agree, and the failing residuals match
        assert any(not p.is_zero() for p in kt_res.values())
        assert any(not p.is_zero() for p in noe.values())
        assert (kt_res["cbar1"] - noe["cbar1"]).is_zero()

    def test_field_equation_on_a_ghost_rejected(self, su2, monkeypatch):
        # L + a1_0 c1 c2 has field equations on c1 and c2, which pair with
        # cbar1 and cbar2: each would be overwritten by its Noether row
        ctx = su2.ctx
        a, c1, c2 = ctx.var(su2.field[0][0]), ctx.var(su2.ghost[0]), ctx.var(su2.ghost[1])
        L = Lagrangian(su2.ym_lagrangian().density + a * c1 * c2)
        el = euler_lagrange(L)
        assert el.component(su2.ghost[0]) == a * c2
        with pytest.raises(GvcError, match="field equation on non-field 'c1'"):
            koszul_tate(su2.noether_operator(), el, su2.pairs())
        model = _fresh("su2")
        L = Lagrangian(model.ym_lagrangian().density + model.ctx.var(model.field[0][0])
                       * model.ctx.var(model.ghost[0]) * model.ctx.var(model.ghost[1]))
        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        (row,) = model.pipeline("koszul-tate", deterministic=True)
        assert not row.ok and row.witness == "field equation on non-field 'c1'"

    def test_missing_antifield_registration(self, su2):
        op, el = su2.noether_operator(), su2.generic_euler_lagrange()
        with pytest.raises(GvcError, match="missing antifield registration for 'a"):
            koszul_tate(op, el, {})
        for label in ("r1", "abar1_0"):
            relabelled = NoetherOperator(su2.ctx, {label: op.rows["cbar1"]})
            with pytest.raises(GvcError, match="missing degree-two antifield for row %r"
                               % label):
                koszul_tate(relabelled, el, su2.pairs())

    def test_is_a_contact_derivation(self, su2):
        kt = su2.koszul_tate()
        assert isinstance(kt, ContactDerivation)
        assert kt.parity == ODD
        cbar = su2.noether_antifield[0]
        assert kt.component(cbar) is kt.components[cbar]
        assert kt.component(su2.field[0][0]).is_zero()

    @staticmethod
    def _doubled_rows(model):
        """Noether rows whose last entry is doubled, so every degree-two
        antifield has a nonzero residual, and their Koszul-Tate derivation."""
        rows = {}
        for label, entries in model.noether_operator().rows.items():
            coeff, gen, index = entries[-1]
            rows[label] = entries[:-1] + [(coeff * 2, gen, index)]
        op = NoetherOperator(model.ctx, rows)
        return op, koszul_tate(op, model.generic_euler_lagrange(), model.pairs())

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_residuals_match_oracle(self, name, request):
        model = request.getfixturevalue(name)
        kt = model.koszul_tate()
        res = nilpotency_residuals(kt)
        assert res == oracle_koszul_tate_residuals(kt)
        assert list(res) == sorted(res, key=lambda n: model.ctx.generator(n).key)
        assert all(p.is_zero() for p in res.values())
        op, broken = self._doubled_rows(model)
        res = nilpotency_residuals(broken)
        assert res == oracle_koszul_tate_residuals(broken)
        assert {label for label, p in res.items() if not p.is_zero()} == {
            g.name for g in model.noether_antifield}
        # each degree-two antifield's residual is its Noether row's
        el = model.generic_euler_lagrange()
        noe = noether_residuals(op, el)
        assert noe == {g.name: res[g.name] for g in model.noether_antifield}
        # and so on rows whose coefficients gain random field polynomials
        rng, failing = random.Random(26), 0
        for _ in range(3):
            rows = {label: [(coeff + self._field_poly(rng, model, coeff.require_parity())
                             if rng.random() < 0.3 else coeff, gen, index)
                            for coeff, gen, index in entries]
                    for label, entries in model.noether_operator().rows.items()}
            op = NoetherOperator(model.ctx, rows)
            noe = noether_residuals(op, el)
            assert nilpotency_residuals(koszul_tate(op, el, model.pairs()),
                                        model.noether_antifield) == noe
            failing += sum(not p.is_zero() for p in noe.values())
        assert failing

    @staticmethod
    def _field_poly(rng, model, parity):
        """A random polynomial of the given parity in the model's gauge
        fields and their first jets; zero is possible."""
        ctx = model.ctx
        fields = [g for row in model.field for g in row]
        out = ctx.zero()
        for _ in range(3):
            factors = [random_jet(rng, ctx, rng.choice(fields), 1)
                       for _ in range(rng.randint(1, 2))]
            out = out + ctx.product(rng.choice([1, -1, 2, Fraction(1, 2)]), factors)
        return even_part(out) if parity == EVEN else odd_part(out)

    @pytest.mark.parametrize("mass", [False, True])
    @pytest.mark.parametrize("name", ["abelian", "su2", "osp12", "sl21", "sl3"])
    def test_pipeline_row_is_the_direct_square(self, name, mass, monkeypatch):
        # the pipeline squares delta on the antifields and takes the rows'
        # kept residuals; the direct square of every generator is the oracle
        model = _fresh(name)
        if mass:
            L = Lagrangian(model.ym_lagrangian().density + mass_term_lagrangian(model).density)
            monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        (row,) = model.pipeline("koszul-tate", deterministic=True)
        assert row.line() == CheckResult.from_residuals(
            "koszul-tate", nilpotency_residuals(model.koszul_tate())).line()
        assert row.ok is not mass

    def test_value_parity_enforced(self):
        ctx = make_context(2)
        bar = ctx.add_generator("sbar", "antifield", ODD, ghost_number=-1,
                                antifield_number=1)
        KoszulTate(ctx, {bar: ctx.var("s1")})
        for value in (ctx.var("q1"), ctx.var("s1") + ctx.var("q1")):
            with pytest.raises(ParityError):
                KoszulTate(ctx, {bar: value})

    def test_apply_matches_memo_free_oracle(self):
        ctx = make_context(2)
        rng = random.Random(2015)
        counts = {"fused": 0, "product": 0}
        shared = {"den": 0, "power": 0, "first": 0, "later": 0}
        for _ in range(80):
            kt = KoszulTate(ctx, random_vertical(rng, ctx, ODD).components)
            moved = list(kt.components) or field_generators(ctx)
            p = linear_jet_polys(rng, ctx, moved)
            assert kt.apply(p) == oracle_koszul_tate_apply(kt, p)
            linear_jet_paths(kt, p, "right", counts)
            # a fresh memo, so the shared jet's value is not kept yet
            kt = KoszulTate(ctx, kt.components)
            q, v = shared_jet_poly(rng, ctx, moved)
            assert kt.apply(q) == oracle_koszul_tate_apply(kt, q)
            shared_jet_cases(kt, q, v, shared)
        assert counts["fused"] > 50 and counts["product"] > 50
        assert min(shared.values()) > 20, shared

    def test_bounds_on_the_fused_path(self):
        ctx = make_context(2, max_jet_order=2)
        kt = KoszulTate(ctx, {ctx.generator("q1"): ctx.var("s2", 0)})
        with pytest.raises(JetOrderError):
            kt.apply(-ctx.var("q1", 0, 1))
        ctx = make_context(1, evens=3, odds=1)
        comp = ctx.var("s2") * ctx.var("s3") * ctx.var("s2")
        kt = KoszulTate(ctx, {ctx.generator("q1"): comp})
        ctx.term_limit = 1
        with pytest.raises(ExpansionLimitError):
            kt.apply(ctx.var("q1", 0))
        ctx.term_limit = 2
        assert kt.apply(ctx.var("q1", 0)) == total_derivative(0, comp)
        assert ctx.jet("q1", (0,)) not in kt._values

    def test_prolongs_each_jet_variable_once(self, sl21, monkeypatch):
        # a fresh derivation: the model keeps its own, memo filled by earlier tests
        kt = koszul_tate(sl21.noether_operator(), sl21.generic_euler_lagrange(),
                         sl21.pairs())
        calls = []
        original = gvc.jets.add_total_derivative

        def counted(out, lam, p, sign=1):
            calls.append((lam, id(p)))
            return original(out, lam, p, sign)

        # every total derivative, kept or fused, goes through this one loop
        monkeypatch.setattr(gvc.jets, "add_total_derivative", counted)
        monkeypatch.setattr(gvc.brst, "add_total_derivative", counted)
        assert all(p.is_zero() for p in nilpotency_residuals(kt).values())
        # each (direction, parent value) pair names one jet: none is prolonged twice
        assert len(calls) == len(set(calls)) > 0
        # the rows' abar;lam are linear with partial +-1: fused, never kept
        assert not [v for v in kt._values if v.gen.kind == "antifield" and v.index]
        assert all(kt._values[v] is kt.components[v.gen] for v in kt._values)


class TestBrstExtension:
    def test_abelian_ghostless_extension(self, abelian):
        s = brst_extend(abelian.gauge_operator(), {})
        assert all(p.is_zero() for p in nilpotency_residuals(s).values())

    def test_su2_quadratic_ghost_sector(self, su2):
        s = brst_extend(su2.gauge_operator(), su2.ghost_sector())
        assert all(p.is_zero() for p in nilpotency_residuals(s).values())

    def test_graded_ghost_sector(self, osp12):
        s = brst_extend(osp12.gauge_operator(), osp12.ghost_sector())
        assert all(p.is_zero() for p in nilpotency_residuals(s).values())

    def test_model_rejects_broken_constants(self):
        alg = su2_algebra()
        alg.set_constant("e2", "e1", "e2", 1)  # breaks the bracket axioms
        from gvc.models import GaugeModel
        with pytest.raises(GvcError):
            GaugeModel(alg, Metric.from_signature("+-"))

    def test_broken_constants_localize_in_brst_square(self, osp12):
        # same roster, gauge-shaped derivation built from perturbed
        # constants: the square stops vanishing exactly on the sector the
        # bracket axioms feed (fields and ghosts)
        ctx = osp12.ctx
        alg = osp12.algebra
        m, n = alg.dim, 2

        def constant(r, i, j):
            base = alg.constant(r, i, j)
            if (r, i, j) == (0, 3, 4) or (r, i, j) == (0, 4, 3):
                return base + 1  # perturb c^h_xy keeping graded antisymmetry
            return base

        comps = {}
        for r in range(m):
            for lam in range(n):
                comp = ctx.var(osp12.ghost[r], lam)
                for j in range(m):
                    for i in range(m):
                        c = constant(r, j, i)
                        if c:
                            comp -= c * (ctx.var(osp12.ghost[j])
                                         * ctx.var(osp12.field[i][lam]))
                comps[osp12.field[r][lam]] = comp
        for r in range(m):
            acc = ctx.zero()
            for i in range(m):
                for j in range(m):
                    c = constant(r, i, j)
                    if c:
                        sign = Fraction(-1, 2) * ((-1) ** alg.parities[i])
                        acc += sign * c * (ctx.var(osp12.ghost[i])
                                           * ctx.var(osp12.ghost[j]))
            if not acc.is_zero():
                comps[osp12.ghost[r]] = acc
        s = ContactDerivation(ctx, comps, ODD)
        res = nilpotency_residuals(s)
        bad = {name for name, p in res.items() if not p.is_zero()}
        assert bad
        kinds = {ctx.generator(name).kind for name in bad}
        assert kinds <= {"even-field", "odd-field", "ghost"}

    def test_ghost_sector_must_be_ghost_only(self, su2):
        ctx = su2.ctx
        bad = {su2.ghost[0]: ctx.var(su2.antifield[0][0])}
        with pytest.raises(GvcError):
            brst_extend(su2.gauge_operator(), bad)

    def test_ghost_sector_on_non_ghost_rejected(self, su2):
        ctx = su2.ctx
        with pytest.raises(GvcError):
            brst_extend(su2.gauge_operator(),
                        {su2.field[0][0]: ctx.zero()})

    def test_term_limit_holds_on_a_zero_square(self):
        # a fresh model, since the limit is lowered on its context; each
        # square is zero, but its sum holds more than one monomial on the
        # way, and every value it uses is already kept
        model = preset_model("osp12")
        s = model.brst_operator()
        kt = model.koszul_tate()
        squares = ((s, model.ghost[0]), (kt, model.noether_antifield[0]))
        for theta, gen in squares:
            assert theta.apply(theta.components[gen]).is_zero()
        model.ctx.term_limit = 1
        for theta, gen in squares:
            with pytest.raises(ExpansionLimitError):
                theta.apply(theta.components[gen])

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_raises_ghost_number_by_one(self, name, request):
        s = request.getfixturevalue(name).brst_operator()
        for gen, comp in s.components.items():
            numbers = comp.ghost_numbers()
            assert numbers == {gen.ghost_number + 1}

    def test_square_vanishes_on_random_polynomials(self, su2):
        from gvc.jets import prolong_apply
        s = su2.brst_operator()
        rng = random.Random(61)
        gens = [su2.field[r][mu] for r in range(3) for mu in range(4)]
        gens += list(su2.ghost)
        for _ in range(10):
            p = su2.ctx.one()
            for _ in range(2):
                g = rng.choice(gens)
                order = rng.randint(0, 1)
                idx = tuple(rng.randrange(4) for _ in range(order))
                factor = su2.ctx.var(g, *idx)
                p = p * factor
            assert prolong_apply(s, prolong_apply(s, p)).is_zero()


class TestAntibracket:
    def test_no_antifield_dependence(self, abelian):
        L = abelian.ym_lagrangian()
        assert antibracket(L, L, abelian.pairs()).density.is_zero()

    def test_single_pair_hand_expansion(self):
        ctx = make_context(1, evens=0, odds=0)
        s = ctx.add_generator("s", "even-field", EVEN)
        sbar = ctx.add_generator("sbar", "antifield", ODD,
                                 ghost_number=-1, antifield_number=1)
        L = Lagrangian(ctx.var("sbar") * ctx.var("s"))
        got = antibracket(L, L, {s: sbar})
        # frozen single-term oracle: both cross terms contribute s*sbar
        want = 2 * (ctx.var("s") * ctx.var("sbar"))
        assert got.density == want

    def test_symmetry_of_the_two_cross_terms(self, su2):
        rng = random.Random(62)
        ctx = su2.ctx
        pairs = su2.pairs()
        fields = list(pairs) + list(pairs.values())
        for _ in range(8):
            def rand_density(parity):
                out = ctx.zero()
                for _ in range(3):
                    g1, g2 = rng.choice(fields), rng.choice(fields)
                    term = ctx.var(g1) * ctx.var(g2, rng.randrange(4))
                    part = even_part(term) if parity == EVEN else odd_part(term)
                    out = out + part
                return Lagrangian(out)

            L1 = rand_density(EVEN)
            L2 = rand_density(EVEN)
            b12 = antibracket(L1, L2, pairs)
            b21 = antibracket(L2, L1, pairs)
            assert b12.density == b21.density

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_even_bracket_is_odd_density(self, name, request):
        """{S, S} of the proper solution is a nonzero odd density; only
        its Euler-Lagrange rows vanish."""
        model = request.getfixturevalue(name)
        extended = model.extended_lagrangian()
        bracket = antibracket(extended, extended, model.pairs())
        assert not bracket.density.is_zero()
        assert bracket.density.parity() == ODD

    def test_missing_partner(self, su2):
        L = su2.ym_lagrangian()
        with pytest.raises(GvcError):
            antibracket(L, L, {})


class TestMasterEquation:
    def test_original_lagrangian_is_trivial_solution(self, su2):
        L = su2.ym_lagrangian()
        rep = master_equation_check(L, su2.pairs())
        assert rep.ok
        assert antibracket(L, L, su2.pairs()).density.is_zero()
        # the field-direction derivation vanishes identically
        for z in su2.pairs():
            assert variational_derivative(L.density, su2.pairs()[z], "right").is_zero()

    def test_extended_lagrangian_passes(self, su2):
        extended = su2.extended_lagrangian()
        rep = master_equation_check(extended, su2.pairs())
        assert rep.ok
        assert not antibracket(extended, extended, su2.pairs()).density.is_zero()
        # non-trivial: both derivations have nonzero components
        assert any(not variational_derivative(extended.density, zbar, "right").is_zero()
                   for zbar in su2.pairs().values())
        assert any(not variational_derivative(extended.density, z, "left").is_zero()
                   for z in su2.pairs())

    def test_graded_extension_passes(self, osp12):
        extended = osp12.extended_lagrangian()
        rep = master_equation_check(extended, osp12.pairs())
        assert rep.ok

    def test_flipped_ghost_sector_fails(self, su2):
        ctx = su2.ctx
        u = su2.gauge_operator()
        merged = dict(u.components)
        merged.update({g: -p for g, p in su2.ghost_sector().items()})
        s = ContactDerivation(ctx, merged, ODD)
        density = su2.ym_lagrangian().density
        for z, comp in s.components.items():
            density = density + comp * ctx.var(su2.pairs()[z])
        rep = master_equation_check(Lagrangian(density), su2.pairs())
        assert not rep.ok

    def test_odd_density_rejected(self, su2):
        ctx = su2.ctx
        L = Lagrangian(ctx.var(su2.ghost[0]))
        with pytest.raises(GvcError):
            master_derivation(L, su2.pairs())

    def test_check_rejects_odd_and_mixed_densities(self, su2):
        ctx = su2.ctx
        odd = ctx.var(su2.ghost[0])
        for density in (odd, odd + ctx.var(su2.field[0][0])):
            with pytest.raises(ParityError):
                master_equation_check(Lagrangian(density), su2.pairs())

    def test_check_rejects_unpaired_generator(self, su2):
        # xi1 is a field of the roster but has no antifield partner
        L = Lagrangian(su2.extended_lagrangian().density + su2.ctx.var("xi1") ** 2)
        with pytest.raises(GvcError, match="missing antifield partner for 'xi1'"):
            master_equation_check(L, su2.pairs())

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_generated_derivation_raises_ghost_number_by_one(self, name, request):
        model = request.getfixturevalue(name)
        theta = master_equation_check(model.extended_lagrangian(), model.pairs()).derivation
        assert theta.components
        for gen, comp in theta.components.items():
            assert comp.ghost_numbers() == {gen.ghost_number + 1}

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_proper_solution_has_ghost_number_zero(self, name, request):
        assert request.getfixturevalue(name).extended_lagrangian().density.ghost_numbers() == {0}

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_derivation_from_the_paired_sum_alone(self, name, monkeypatch):
        """On the proper solution the pipeline reads the left variational
        derivatives of P = P_s, the kept `_paired_sum()` itself, on s's
        generators alone, builds no Theta and squares nothing; Theta_P^2 is
        Theta_S^2 on every generator, for the model's s and for one whose
        ghost sector is doubled, so that s(L) = 0 still holds but neither
        square vanishes."""
        squared, built, tables = [], [], []
        paired, derivatives = gvc.brst._paired_derivation, gvc.models.variational_derivatives

        def kept(ctx, left, pairs):
            built.append(left)
            return paired(ctx, left, pairs)

        def counted(density, side="left", gens=None):
            tables.append((density, side, gens))
            return derivatives(density, side, gens)

        model = _fresh(name)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gvc.models, "master_equation_check", lambda *args: squared.append(args))
            patch.setattr(gvc.brst, "_paired_derivation", kept)
            patch.setattr(gvc.models, "variational_derivatives", counted)
            (row,) = model.pipeline("master-equation", deterministic=True)
        P = model._paired_sum()
        assert row.ok and squared == [] and built == []
        assert tables == [(P, "left", model.brst_operator().components)]
        pairs, L, s = model.pairs(), model.ym_lagrangian(), model.brst_operator()
        doubled = ContactDerivation(model.ctx, {z: p * 2 if z.kind == "ghost" else p
                                                for z, p in s.components.items()}, ODD)
        for ext, zero in ((s, True), (doubled, False)):
            assert ext.apply(L.density).is_zero()
            P = paired_sum(model.ctx, ext.components, pairs)
            whole = nilpotency_residuals(master_derivation(Lagrangian(L.density + P), pairs))
            part = master_derivation(Lagrangian(P), pairs)
            assert all(part.apply(part.component(model.ctx.generator(g))) == p
                       for g, p in whole.items())
            assert all(p.is_zero() for p in whole.values()) is zero


def _perturbed_solution(model, rng):
    """The proper solution plus a nonzero even sum of products of two or
    three paired generators; field jets go up to order one, so the
    bracket's Euler-Lagrange rows stay within the jet order bound."""
    pairs = model.pairs()
    return Lagrangian(model.extended_lagrangian().density + _random_even(
        model, rng, sorted(list(pairs) + list(pairs.values()), key=lambda g: g.key)))


def _random_even(model, rng, gens):
    """A nonzero even sum of products of two or three of `gens`, field
    jets of order up to one."""
    ctx = model.ctx
    added = ctx.zero()
    while added.is_zero():
        for _ in range(2):
            term = ctx.scalar(rng.choice([1, -1, 2]))
            for _ in range(rng.randint(2, 3)):
                gen = rng.choice(gens)
                order = rng.randint(0, 1) if gen.kind in ("even-field", "odd-field") else 0
                term = term * ctx.var(gen, *(rng.randrange(ctx.dim) for _ in range(order)))
            added = added + even_part(term)
    return added


class TestMasterIdentity:
    """E_z({S,S}) = -2 Theta_S^2(zbar) and E_zbar({S,S}) = +2 Theta_S^2(z),
    against the bracket built by `antibracket` and differentiated by
    `euler_lagrange`, which the master-equation check never calls."""

    @staticmethod
    def _rows(model, el, rep, field_sign, antifield_sign):
        """(oracle, predicted) component by component over the pairing."""
        res, zero = rep.derivation_residuals, model.ctx.zero()
        for z, zbar in model.pairs().items():
            yield el.component(z), res.get(zbar.name, zero) * field_sign
            yield el.component(zbar), res.get(z.name, zero) * antifield_sign

    @staticmethod
    def _both_routes(model, S):
        return (euler_lagrange(antibracket(S, S, model.pairs())),
                master_equation_check(S, model.pairs()))

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_bracket_rows_are_the_square_of_the_derivation(self, name, request):
        model = request.getfixturevalue(name)
        rng = random.Random(1406)
        for _ in range(2):
            el, rep = self._both_routes(model, _perturbed_solution(model, rng))
            assert not el.is_zero() and not rep.ok
            for got, want in self._rows(model, el, rep, -2, 2):
                assert got == want
            # the report rebuilds the nonzero rows by name
            assert rep.bracket_residuals() == {g.name: p for g, p in el.components.items()}

    @pytest.mark.parametrize("sign", [-2, 2])
    def test_one_sign_for_both_sides_fails(self, sign, su2):
        el, rep = self._both_routes(su2, _perturbed_solution(su2, random.Random(1406)))
        assert any(got != want for got, want in self._rows(su2, el, rep, sign, sign))


class TestMasterSplit:
    """Theta_S^2 = Theta_P^2 + [Theta_L, Theta_P] for S = L + P, P = P_s the
    paired sum of s (Theta_L^2 = 0), where the cross term is the derivation
    of the bracket (L, P_s), whose field equations are s(L)'s, and Theta_P^2
    is Theta_Q for Q = sum_z s^2(z) zbar (`TestMasterByNilpotency`): the
    pipeline squares nothing when L is the model's own, S is the proper
    solution built here for the model's own s, s(L) = 0 and the direct
    square's jets are in bound, and Theta_S on every generator otherwise."""

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_cross_term_is_the_bracket_derivation(self, name, request):
        # A = L plus a mass term, so s(A) != 0 and the cross term is not
        # zero; (g, X) is the oracle's formula on a generator g: the right
        # variational derivative of X along zbar on a field or ghost z, the
        # left one along z on its partner zbar
        model = request.getfixturevalue(name)
        pairs, ctx, s = model.pairs(), model.ctx, model.brst_operator()
        L = model.ym_lagrangian()
        A = Lagrangian(L.density + mass_term_lagrangian(model).density)
        B = Lagrangian(model._paired_sum())
        AB = antibracket(A, B, pairs)
        moved = euler_lagrange(Lagrangian(s.apply(A.density)))
        assert euler_lagrange(AB).components == moved.components
        # on the ghosts, E(s(A)) is minus the Noether rows on E(A)
        rows = noether_residuals(model.noether_operator(), euler_lagrange(A))
        assert all(moved.component(c) == -rows[cbar.name]
                   for c, cbar in zip(model.ghost, model.noether_antifield))
        right = variational_derivatives(AB.density, "right", set(pairs.values()))
        left = variational_derivatives(AB.density, "left", set(pairs))
        bracket = {}
        for z, zbar in pairs.items():
            bracket[z], bracket[zbar] = right.get(zbar, ctx.zero()), left.get(z, ctx.zero())
        for g in (model.ghost[0], model.antifield[0][1]):
            assert antibracket(Lagrangian(ctx.var(g)), AB, pairs).density == bracket[g]
        theta_a, theta_b = master_derivation(A, pairs), master_derivation(B, pairs)
        for g, want in bracket.items():
            got = theta_a.apply(theta_b.component(g)) + theta_b.apply(theta_a.component(g))
            assert got == -want
        assert any(not p.is_zero() for p in bracket.values())
        for density in (L, A):
            assert all(p.is_zero()
                       for p in nilpotency_residuals(master_derivation(density, pairs)).values())

    @staticmethod
    def _rows(model):
        """The pipeline's master-equation line, the route it took ("P" where
        it read the variational derivatives of P_s and squared nothing, "S"
        where it squared Theta_S by `master_equation_check`), and the line of
        `master_equation_check(S, pairs)`."""
        parts = []
        checked, derivatives = gvc.models.master_equation_check, gvc.models.variational_derivatives

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gvc.models, "master_equation_check",
                          lambda S, pairs: parts.append(S) or checked(S, pairs))
            patch.setattr(gvc.models, "variational_derivatives",
                          lambda density, *args: parts.append(density) or derivatives(
                              density, *args))
            (row,) = model.pipeline("master-equation", deterministic=True)
        parts = ["S" if density is model.extended_lagrangian() else
                 "P" if density is model._paired_sum() else "?"
                 for density in parts]
        try:
            rep = master_equation_check(model.extended_lagrangian(), model.pairs())
        except GvcError as exc:
            direct = CheckResult("master-equation", False, witness=str(exc))
        else:
            direct = CheckResult("master-equation", True) if rep.ok else \
                CheckResult.from_residuals("master-equation", rep.bracket_residuals())
        return row.line(), parts, direct.line()

    @pytest.mark.parametrize("name", ["abelian", "su2", "osp12", "sl21", "sl3"])
    def test_route_row_is_the_direct_row(self, name):
        # with or without algebra maps (abelian has none), nothing is squared
        model = _fresh(name)
        line, parts, direct = self._rows(model)
        assert parts == ["P"] and line == direct
        assert line == CheckResult("master-equation", True).line()

    @pytest.mark.parametrize("name, passes", [("abelian", False), ("su2", True),
                                              ("osp12", True)])
    def test_dimension_one_rows(self, name, passes):
        # in one dimension F has no component, so L = 0 and E(L) = 0: the
        # solution is nontrivial only through E(P_s), which couples c and
        # cbar where the ghost sector is nonzero (su2, osp12), and not on
        # the abelian model, whose s moves a1_0 alone
        text = re.sub(r"dimension = \d+\nmetric = \S+", "dimension = 1\nmetric = +",
                      PRESET_MODEL_TEXT[name])
        model = spec_model(parse_model(text))
        assert model.ym_lagrangian().density.is_zero()
        assert model.generic_euler_lagrange().is_zero()
        line, parts, direct = self._rows(model)
        assert parts == ["P"] and model._detour("master-equation") is None
        assert direct == CheckResult("master-equation", True).line()
        assert line == (direct if passes else
                        "check master-equation | status fail | nonzero 0 | first solution is trivial")
        assert bool(model.ghost_sector()) is passes

    @pytest.mark.parametrize("name", ["abelian", "su2", "osp12", "sl21", "sl3", "abelian-dim1",
                                      "su2-dim1", "osp12-dim1"])
    def test_coupled_pairs_are_read_from_s_generators(self, name):
        # the pairs Theta_S moves on both sides are the z of s.components
        # with E_z(P_s) != 0 or E_z(L) != 0, each taken whole here, and the
        # pipeline's row passes exactly when there is one
        if name.endswith("-dim1"):
            model = spec_model(parse_model(re.sub(
                r"dimension = \d+\nmetric = \S+", "dimension = 1\nmetric = +",
                PRESET_MODEL_TEXT[name[:-5]])))
        else:
            model = _fresh(name)
        pairs, s = model.pairs(), model.brst_operator()
        of_p = variational_derivatives(model._paired_sum())
        of_l = euler_lagrange(model.ym_lagrangian()).components
        read = {z for z in s.components if z in of_p or z in of_l}
        moved = master_equation_check(model.extended_lagrangian(), pairs).derivation.components
        assert read == {z for z, zbar in pairs.items() if z in moved and zbar in moved}
        (row,) = model.pipeline("master-equation", deterministic=True)
        assert model._detour("master-equation") is None and row.ok == bool(read)
        assert bool(read) is (name != "abelian-dim1")

    def _installed(self, install):
        """install(model) on a new su2 model, then its rows (`_rows`)."""
        model = _fresh("su2")
        install(model)
        line, parts, direct = self._rows(model)
        assert parts == ["S"] and line == direct
        assert line != CheckResult("master-equation", True).line()

    def test_a_mass_term_lagrangian_takes_the_direct_route(self, monkeypatch):
        def install(model):
            L = Lagrangian(model.ym_lagrangian().density + mass_term_lagrangian(model).density)
            monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)

        self._installed(install)

    def test_a_nilpotent_s_moving_l_takes_the_direct_route(self, monkeypatch):
        # s'(a^r_mu) = D_mu c^r and s'(c) = 0: nilpotent, antifield-free,
        # but s'(L) != 0 on su2, whose L is cubic in the fields
        def install(model):
            comps = {row[mu]: model.ctx.var(model.ghost[r], mu)
                     for r, row in enumerate(model.field) for mu in range(4)}
            s = ContactDerivation(model.ctx, comps, ODD)
            assert all(p.is_zero() for p in nilpotency_residuals(s).values())
            assert not s.apply(model.ym_lagrangian().density).is_zero()
            monkeypatch.setattr(model, "brst_operator", lambda: s)

        self._installed(install)

    def test_an_installed_s_takes_the_direct_route(self, monkeypatch):
        def install(model):
            S = _perturbed_solution(model, random.Random(24))
            monkeypatch.setattr(model, "extended_lagrangian", lambda: S)

        self._installed(install)

    def test_jets_out_of_bound_take_the_direct_route(self):
        # Theta_S^2 forms third jets of the ghosts, Theta_P does not
        model = preset_model("su2", max_jet_order=2)
        line, parts, direct = self._rows(model)
        assert parts == ["S"] and line == direct
        assert line.endswith("first jet order 3 exceeds configured maximum 2 for c1")

    @pytest.mark.parametrize("term, power, witness", [
        ("c1", 1, "polynomial is not parity-homogeneous"),
        ("xi1", 2, "missing antifield partner for 'xi1'")])
    def test_a_mixed_or_unpaired_s_is_refused(self, term, power, witness, monkeypatch):
        # the gauge operator's L_s L is zero for L plus the odd c1, or plus
        # xi1^2, which no antifield pairs, and the jets are in bound; but
        # S = L + P_s is mixed or unpaired, so the proper solution refuses
        # it, as the direct route would, before Theta_P could be built
        model = _fresh("su2")
        L = Lagrangian(model.ym_lagrangian().density + model.ctx.var(term) ** power)
        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        assert model._whole_lie("gauge").is_zero()
        line, parts, direct = self._rows(model)
        assert parts == [] and line == direct
        assert line == CheckResult("master-equation", False, witness=witness).line()

    def test_a_lagrangian_installed_after_a_run_is_built_anew(self, monkeypatch):
        # the field equations, Koszul-Tate, the gauge Lie derivative and S
        # are kept with L: after koszul-tate, brst and master-equation, an
        # L with a mass term gives a new model's rows
        model, fresh = _fresh("su2"), _fresh("su2")
        for pipeline in ("koszul-tate", "brst", "master-equation"):
            assert all(row.ok for row in model.pipeline(pipeline))
        rows = []
        for m in (model, fresh):
            L = Lagrangian(m.ym_lagrangian().density + mass_term_lagrangian(m).density)
            monkeypatch.setattr(m, "ym_lagrangian", lambda validate=True, L=L: L)
            rows.append({row.name: row.line() for p in ("euler-lagrange", "koszul-tate", "brst",
                                                       "master-equation")
                         for row in m.pipeline(p, deterministic=True)})
        assert rows[0] == rows[1]
        assert all(" status fail " in rows[0][check] for check in (
            "euler-lagrange-two-path", "koszul-tate", "gauge-symmetry", "master-equation"))

    def test_gauge_derivations_installed_after_a_run_are_built_anew(self, monkeypatch):
        # s, the parts and their Lie derivatives are kept with the gauge
        # operator or the parameter symmetry they come from: after noether,
        # brst and master-equation, each with its a1_0 component doubled
        # gives a new model's rows
        model, fresh = _fresh("su2"), _fresh("su2")
        for pipeline in ("noether", "brst", "master-equation"):
            assert all(row.ok for row in model.pipeline(pipeline))
        rows = []
        for m in (model, fresh):
            for name, parity in (("gauge_operator", ODD), ("parameter_symmetry", EVEN)):
                comps = dict(getattr(m, name)().components)
                a = m.field[0][0]
                comps[a] = comps[a] * 2
                theta = ContactDerivation(m.ctx, comps, parity)
                monkeypatch.setattr(m, name, lambda theta=theta: theta)
            rows.append({row.name: row.line() for p in ("noether", "brst", "master-equation")
                         for row in m.pipeline(p, deterministic=True)})
        assert rows[0] == rows[1]
        for check, nonzero in (("parameter-symmetry", 120), ("gauge-symmetry", 120),
                               ("brst-nilpotency", 4)):
            assert " status fail | nonzero %d " % nonzero in rows[0][check]
        assert " status fail " in rows[0]["master-equation"]

    @pytest.mark.parametrize("pair", [("abar1_0", "abar1_1"), ("cbar1", "cbar2")])
    def test_an_antifield_in_l_takes_the_direct_route(self, pair, monkeypatch):
        # L plus an even product of two antifields, or of two degree-two
        # antifields: s moves neither, so L_s L is zero, but Theta_L moves
        # fields and s^2 = 0 no longer settles Theta_S^2
        def install(model):
            extra = model.ctx.var(pair[0]) * model.ctx.var(pair[1])
            L = Lagrangian(model.ym_lagrangian().density + extra)
            monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
            assert model._whole_lie("gauge").is_zero()

        self._installed(install)

    def test_rows_installed_after_a_run_are_applied_anew(self, monkeypatch):
        # the Noether residuals and Koszul-Tate are kept with the rows: after
        # noether and koszul-tate, rows with their last entry doubled give a
        # new model's rows
        model, fresh = _fresh("su2"), _fresh("su2")
        for pipeline in ("noether", "koszul-tate"):
            assert all(row.ok for row in model.pipeline(pipeline))
        rows = []
        for m in (model, fresh):
            doubled = NoetherOperator(m.ctx, {
                label: entries[:-1] + [(entries[-1][0] * 2,) + entries[-1][1:]]
                for label, entries in m.noether_operator().rows.items()})
            monkeypatch.setattr(m, "noether_operator", lambda doubled=doubled: doubled)
            rows.append({row.name: row.line() for p in ("noether", "koszul-tate")
                         for row in m.pipeline(p, deterministic=True)})
        assert rows[0] == rows[1]
        assert " status fail " in rows[0]["noether-identities"]
        assert " status fail " in rows[0]["koszul-tate"]
        cbar = model.noether_antifield[0]
        assert model.koszul_tate().components[cbar] == \
            gvc.brst.rows_on_antifields(model.noether_operator(), model.pairs())[cbar]

    def test_paired_derivation_copies_no_component(self, monkeypatch):
        # Theta takes each variational derivative itself where its sign is
        # +1 and its negation where it is -1: no product is formed
        model = _fresh("sl21")
        left = variational_derivatives(model.extended_lagrangian().density)
        products = []
        mul = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append(q) or mul(p, q))
        theta = gvc.brst._paired_derivation(model.ctx, left, model.pairs())
        assert products == []
        taken = 0
        for z, zbar in model.pairs().items():
            for gen, partner in ((z, zbar), (zbar, z)):
                if partner in left:
                    got = theta.components[gen]
                    assert got == (left[partner] if z.parity == ODD else -left[partner])
                    taken += got is left[partner]
        assert taken > 0


class TestMasterByNilpotency:
    """Theta_P^2 = Theta_Q for P = sum_z s(z) zbar and Q = sum_z s^2(z) zbar,
    any odd s with antifield-free components: the identity that lets the
    pipeline's master equation read brst-nilpotency instead of a square."""

    @staticmethod
    def _sectors(model):
        """The ghost sectors of s: the model's own, doubled, dropped, and
        the own one with a field-dependent term on one ghost."""
        ctx, gamma = model.ctx, model.ghost_sector()
        r = model.algebra.parities.index(EVEN)
        c = next(c for c in model.ghost if c in gamma)
        field = dict(gamma)
        field[c] = gamma[c] + ctx.var(model.field[r][0]) * gamma[c]
        return {"own": gamma, "doubled": {g: p * 2 for g, p in gamma.items()},
                "dropped": {}, "field": field}

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21", "sl3"])
    def test_square_of_theta_p_is_theta_q(self, name):
        model = _fresh(name)
        ctx, pairs, zero = model.ctx, model.pairs(), model.ctx.zero()
        nonzero = {}
        for label, sector in self._sectors(model).items():
            s = ContactDerivation(ctx, {**model.gauge_operator().components, **sector}, ODD)
            P = paired_sum(ctx, s.components, pairs)
            Q = paired_sum(ctx, {z: s.apply(s.component(z)) for z in s.components}, pairs)
            res = master_equation_check(Lagrangian(P), pairs).derivation_residuals
            dQ = variational_derivatives(Q)
            for z, zbar in pairs.items():
                assert res.get(z.name, zero) == dQ.get(zbar, zero)
                assert res.get(zbar.name, zero) == -dQ.get(z, zero)
            nonzero[label] = sum(not p.is_zero() for p in res.values())
        assert nonzero["own"] == 0
        assert all(nonzero[label] > 0 for label in ("doubled", "dropped", "field"))

    @pytest.mark.parametrize("name", ["su2", "sl21"])
    def test_a_ghost_sector_with_nonzero_square_is_no_nilpotent_extension(
            self, name, monkeypatch):
        # s with its ghost sector doubled is the model's own and keeps
        # s(L) = 0, so the split route, which squares nothing, would take
        # it: the nilpotency guard reads brst-nilpotency's table first
        model = _fresh(name)
        sector = {g: p * 2 for g, p in model.ghost_sector().items()}
        monkeypatch.setattr(model, "ghost_sector", lambda: sector)
        gauge, square = model.pipeline("brst", deterministic=True)
        assert gauge.ok and not square.ok
        assert model._own(("brst-operator", model.gauge_operator()), model.brst_operator())
        (row,) = model.pipeline("master-equation", deterministic=True)
        assert row.line() == CheckResult(
            "master-equation", False, witness="no nilpotent extension").line()
        assert row.line().endswith("| first no nilpotent extension")


class TestMasterRouteFuzz:
    """Seeded perturbations of L, s or S, some fixed by the algebra maps
    and some not: the pipeline's master-equation line is the line of
    `master_equation_check(S, pairs)` on every generator, and it squares
    nothing exactly when its route runs (`_detour`), else Theta_S on every
    generator, and an install names the condition it breaks.
    The gauge-symmetry and brst-nilpotency lines are the whole tables'."""

    @staticmethod
    def _conjugated(model, factors):
        """The gauge operator and ghost sector of s' = phi s phi^-1 for
        phi: c_r -> factors[r] c_r: nilpotent, and s'(L) = phi(s(L)) = 0."""
        ctx, sector = model.ctx, model.ghost_sector()
        phi = {ctx.jet(c, index): factors[r] * ctx.var(c, *index)
               for r, c in enumerate(model.ghost)
               for index in ((),) + tuple((mu,) for mu in range(ctx.dim))}
        gauge = ContactDerivation(ctx, {z: p.substitute(phi) for z, p in
                                        model.gauge_operator().components.items()}, ODD)
        return gauge, {c: sector[c].substitute(phi) * Fraction(1, factors[r])
                       for r, c in enumerate(model.ghost) if c in sector}

    def _perturbations(self, rng, monkeypatch):
        """(what is perturbed, whether the maps fix it, the route, install)."""
        q = rng.choice([2, -1, 3, Fraction(1, 2)])

        def lagrangian(build):
            def install(model):
                L = Lagrangian(build(model, model.ym_lagrangian().density))
                monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
            return install

        def own_s(uniform):
            # the model's own s, built from a gauge operator kept as its
            # own; one ghost that a map moves is scaled, or all of them
            def install(model):
                moved = next(c for r, c in enumerate(model.ghost)
                             if any(pi[r] != r for pi, _ in model.algebra_maps()))
                gauge, sector = self._conjugated(model, [
                    q if uniform else 2 if c is moved else 1 for c in model.ghost])
                monkeypatch.setitem(model._memo, "gauge-operator", gauge)
                monkeypatch.setattr(model, "ghost_sector", lambda: sector)
            return install

        def installed_s(model):
            s = model.brst_operator()
            scaled = ContactDerivation(model.ctx, {z: p * q for z, p in s.components.items()}, ODD)
            monkeypatch.setattr(model, "brst_operator", lambda: scaled)

        def extended(build):
            def install(model):
                S = build(model)
                monkeypatch.setattr(model, "extended_lagrangian", lambda: S)
            return install

        return [
            ("L", True, "S", lagrangian(lambda model, L: L * q)),
            ("L", True, "S", lagrangian(
                lambda model, L: L + mass_term_lagrangian(model).density * q)),
            ("L", False, "S", lagrangian(lambda model, L: L + _random_even(
                model, rng, [g for row in model.field for g in row]))),
            ("brst", True, "P", own_s(True)),
            ("brst", False, "P", own_s(False)),
            ("brst", True, "S", installed_s),
            ("S", True, "S", extended(lambda model: Lagrangian(
                model.extended_lagrangian().density + model.ym_lagrangian().density * q))),
            ("S", False, "S", extended(lambda model: _perturbed_solution(model, rng))),
        ]

    @pytest.mark.parametrize("name, seed", [("su2", 27), ("osp12", 28), ("sl21", 29)])
    def test_routes_agree_with_the_direct_square(self, name, seed, monkeypatch):
        verdicts = []
        for key, fixed, route, install in self._perturbations(random.Random(seed), monkeypatch):
            model = _fresh(name)
            install(model)
            line, parts, direct = TestMasterSplit._rows(model)
            assert line == direct
            assert parts == [route]
            assert model._detour("master-equation") == (None if route == "P" else {
                "L": "lagrangian", "brst": "brst-operator", "S": "extended-lagrangian"}[key])
            maps = relabellings(model, model.algebra_maps())
            S = model.extended_lagrangian().density
            perturbed = {"L": model.ym_lagrangian().density, "brst": model._paired_sum(),
                         "S": S}[key]
            assert fixed_by(maps, perturbed) is fixed_by(maps, S) is fixed
            # own_s(False) makes a u no map fixes the model's own: the gauge
            # check reduces on it, and u L is still zero on each part
            gauge, square = model.pipeline("brst", deterministic=True)
            assert gauge.line() == CheckResult.from_form(
                "gauge-symmetry", model.lie_derivative(model.gauge_operator())).line()
            assert square.line() == CheckResult.from_residuals(
                "brst-nilpotency", nilpotency_residuals(model.brst_operator())).line()
            verdicts.append(line == CheckResult("master-equation", True).line())
            monkeypatch.undo()
        assert True in verdicts and False in verdicts


class TestOrbitReduction:
    """The orbit layer's rule (`reduce_or_whole`) on Theta_S^2: on one
    generator per orbit of the algebra maps' relabellings (`relabellings`,
    `generator_roots`) where each fixes S and keeps the pairing (`relabel`),
    against `master_equation_check`'s full table of every generator."""

    @staticmethod
    def _square(pairs, theta, reps):
        """theta^2 by `reduce_or_whole` on `reps`, as a report."""
        return MasterReport(pairs, theta, reduce_or_whole(
            lambda gens: gvc.brst.nilpotency_residuals(theta, gens), theta.components, reps))

    @staticmethod
    def _roots(density, pairs, maps, moved):
        """`generator_roots` of `moved` where each relabelling keeps the
        pairing with one sign per pair and fixes `density`, else None."""
        if all(pairs.get(gen_map.get(z, z)) is gen_map.get(zbar, zbar)
               and signs.get(z, 1) == signs.get(zbar, 1) for gen_map, signs in maps
               for z, zbar in pairs.items()) and fixed_by(maps, density):
            return generator_roots(maps, moved)
        return None

    @classmethod
    def _routes(cls, name, build):
        """The master equation of the density build(model) on a new model
        of `name`, on the representatives of the algebra maps where they
        fix it (`_roots`), and by the full table."""
        model = _fresh(name)
        S, pairs = build(model), model.pairs()
        theta = master_derivation(S, pairs)
        reps = cls._roots(S.density, pairs, relabellings(model, model.algebra_maps()),
                          theta.components)
        return model, cls._square(pairs, theta, reps), master_equation_check(S, pairs)

    @staticmethod
    def _same_failure(reduced, full):
        """The full table and the same rows, byte for byte."""
        assert list(reduced.derivation_residuals.items()) == \
            list(full.derivation_residuals.items())
        rows = [CheckResult.from_residuals("master-equation", rep.bracket_residuals()).line()
                for rep in (reduced, full)]
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("name", ["abelian", "su2", "osp12", "sl21", "su2_euclidean"])
    def test_same_verdicts_on_one_generator_per_orbit(self, name):
        model, reduced, full = self._routes(name, lambda model: model.extended_lagrangian())
        assert reduced.ok and full.ok
        assert reduced.bracket_residuals() == full.bracket_residuals() == {}
        moved = sorted(full.derivation.components, key=lambda g: g.key)
        assert tuple(full.derivation_residuals) == tuple(g.name for g in moved)
        # the representatives: every generator of the first algebra
        # direction of each orbit; abelian has no map, so all of them
        first = TestAlgebraOrbits._first_of_orbit(model)
        direction = {gen: r for table in (model.field, model.antifield)
                     for r, row in enumerate(table) for gen in row}
        direction.update((gen, r) for table in (model.ghost, model.noether_antifield)
                         for r, gen in enumerate(table))
        squared = tuple(reduced.derivation_residuals)
        assert squared == tuple(g.name for g in moved if first[direction[g]])
        assert len(squared) < len(moved) or name == "abelian"

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21", "su2_euclidean"])
    def test_perturbed_rows_are_identical(self, name):
        rng = random.Random(1406)
        for _ in range(2):
            _, reduced, full = self._routes(name, lambda model: _perturbed_solution(model, rng))
            assert not full.ok
            self._same_failure(reduced, full)

    def test_invariant_breaking_is_caught_on_representatives(self, monkeypatch):
        # the mass term is fixed by every algebra map, so the proof holds,
        # and it breaks gauge invariance, so a representative fails and the
        # whole table is squared
        def build(model):
            S = Lagrangian(model.extended_lagrangian().density
                           + mass_term_lagrangian(model).density)
            assert fixed_by(relabellings(model, model.algebra_maps()), S.density)
            return S

        squared = []
        original = gvc.brst.nilpotency_residuals

        def counted(theta, gens=None):
            squared.append(len(theta.components if gens is None else gens))
            return original(theta, gens)

        monkeypatch.setattr(gvc.brst, "nilpotency_residuals", counted)
        _, reduced, full = self._routes("su2", build)
        moved = len(reduced.derivation.components)
        assert squared == [10, moved, moved]
        assert not full.ok
        self._same_failure(reduced, full)

    def test_failure_off_the_representatives_is_caught(self):
        L, pairs, g = orbit_only_failure()
        assert relabel(L.density, *g) != L.density
        full = master_equation_check(L, pairs)
        theta = full.derivation
        # the orbits of g, which does not fix S, would hide both failing rows
        assert self._square(pairs, theta, generator_roots([g], theta.components)).ok
        reps = self._roots(L.density, pairs, [g], theta.components)
        assert reps is None
        rep = self._square(pairs, theta, reps)
        assert not rep.ok
        self._same_failure(rep, full)
        assert tuple(rep.derivation_residuals) == ("u1", "u2", "ebar1", "ebar2", "c", "cbar")
        assert [name for name, p in rep.derivation_residuals.items() if p.terms] == \
            ["u2", "ebar2"]
        assert set(rep.bracket_residuals()) == {"ubar2", "e2"}

    def test_map_breaking_the_pairing_is_refused(self):
        # S holds none of u1, u2, ebar1 and ebar2, so swapping them alone
        # fixes it; but the map sends u1 to u2 and keeps u1's partner
        # ubar1, and taken as a symmetry it would hide both failing rows
        L, pairs, (gen_map, signs) = orbit_only_failure()
        half = {g: h for g, h in gen_map.items() if g.name in ("u1", "u2", "ebar1", "ebar2")}
        assert relabel(L.density, half, signs) == L.density
        theta = master_derivation(L, pairs)
        assert self._square(pairs, theta, generator_roots([(half, signs)], theta.components)).ok
        reps = self._roots(L.density, pairs, [(half, signs)], theta.components)
        assert reps is None
        rep = self._square(pairs, theta, reps)
        assert not rep.ok
        assert tuple(rep.derivation_residuals) == ("u1", "u2", "ebar1", "ebar2", "c", "cbar")

    @pytest.mark.parametrize("name", ["su2", "sl21"])
    def test_representatives_holding_no_generator_run_the_full_table(self, name, monkeypatch):
        # relabellings passed where representatives belong hold none of
        # the generators: the whole table is squared, and a failure shows
        model = _fresh(name)
        wrong = model.algebra_maps()
        for S in (model.extended_lagrangian(), _perturbed_solution(model, random.Random(7))):
            full = master_equation_check(S, model.pairs())
            given = self._square(model.pairs(), full.derivation, wrong)
            assert tuple(given.derivation_residuals) == tuple(
                g.name for g in sorted(full.derivation.components, key=lambda g: g.key))
            self._same_failure(given, full)
        evaluated = []

        def evaluate(gens):
            evaluated.append(len(gens))
            return {g.name: model.ctx.one() for g in gens}

        table = reduce_or_whole(evaluate, model.ghost, {model.field[0][0]})
        assert evaluated == [len(model.ghost)] and len(table) == len(model.ghost)

    def test_a_perturbed_brst_operator_forces_the_full_route(self, monkeypatch):
        # s' = phi s phi^-1 for phi: c1 -> 2 c1 is nilpotent, and L + the
        # paired sum of s' is S under the anticanonical c1 -> 2 c1,
        # cbar1 -> cbar1 / 2, so it solves the master equation; L is
        # unchanged, but the algebra maps no longer fix P_s', nor S
        model = _fresh("su2")
        ctx, c1 = model.ctx, model.ghost[0]
        s = model.brst_operator()
        phi = {ctx.jet(c1, index): 2 * ctx.var(c1, *index)
               for index in ((),) + tuple((mu,) for mu in range(4))}
        comps = {z: p.substitute(phi) * (Fraction(1, 2) if z is c1 else 1)
                 for z, p in s.components.items()}
        perturbed = ContactDerivation(ctx, comps, ODD)
        assert all(p.is_zero() for p in nilpotency_residuals(perturbed).values())
        monkeypatch.setattr(model, "brst_operator", lambda: perturbed)
        squared = []
        original = gvc.brst.nilpotency_residuals

        def counted(theta, gens=None):
            squared.append((theta, len(theta.components if gens is None else gens)))
            return original(theta, gens)

        monkeypatch.setattr(gvc.brst, "nilpotency_residuals", counted)
        (row,) = model.pipeline("master-equation", deterministic=True)
        assert row.ok
        maps = relabellings(model, model.algebra_maps())
        assert fixed_by(maps, model.ym_lagrangian().density)
        assert not fixed_by(maps, model._paired_sum())
        assert model._representatives("brst") is None
        S = model.extended_lagrangian()
        assert not fixed_by(maps, S.density)
        # s' is installed, not the model's own, so Theta_S itself is
        # squared, on every generator
        ((theta, count),) = squared
        assert count == len(model.pairs()) * 2
        assert list(theta.components.items()) == \
            list(master_derivation(S, model.pairs()).components.items())


def _direction_strength_square(model, r):
    """sum over lam < mu of g_lam g_mu F^r_lam,mu F^r_lam,mu, the strength
    density of algebra direction r alone.  On su2, c^r_ir = 0, so it is
    invariant under the gauge transformations along r but not along the
    other directions, and the algebra maps move it."""
    signs, n = model.metric.signs, model.metric.dim
    out = model.ctx.zero()
    for lam in range(n):
        for mu in range(lam + 1, n):
            out += signs[lam] * signs[mu] * (model.strength(r, lam, mu) * model.strength(r, lam, mu))
    return out


class TestAlgebraOrbits:
    """The gauge Lie derivative behind the Noether rows and the BRST square
    on one algebra direction per orbit of the algebra's signed
    automorphisms, where the maps and what each check reads are the
    model's own, against the full tables; Theta_S^2 and Koszul-Tate's
    square are taken whole."""

    @staticmethod
    def _first_of_orbit(model):
        """Whether each algebra direction is the first of its orbit."""
        orbits = basis_orbits(model.algebra.dim, signed_automorphisms(model.algebra))
        return {r: r == min(o) for o in orbits for r in o}

    @pytest.mark.parametrize("name, count", [
        ("abelian", 0), ("su2", 2), ("osp12", 1), ("sl21", 2)])
    def test_maps_move_a_direction_with_one_sign(self, name, count, request):
        model = request.getfixturevalue(name)
        # the kept maps are the algebra's signed automorphisms; each moves
        # every generator of direction r onto pi(r)'s with the sign s_r
        # (`relabellings`) and so fixes S and L
        maps = model.algebra_maps()
        assert maps == signed_automorphisms(model.algebra) and len(maps) == count
        S, L = model.extended_lagrangian().density, model.ym_lagrangian().density
        for (gen_map, signs), (pi, s) in zip(relabellings(model, maps), maps):
            for r in range(model.algebra.dim):
                for family in (model.field, model.antifield):
                    for mu, gen in enumerate(family[r]):
                        assert gen_map[gen] is family[pi[r]][mu]
                        assert signs.get(gen, 1) == s[r]
                for family in (model.ghost, model.noether_antifield):
                    assert gen_map[family[r]] is family[pi[r]]
                    assert signs.get(family[r], 1) == s[r]
            # the strength and symmetric coordinates move with their fields
            for table in (model.aux_strength, model.aux_sym):
                for (r, lam, mu), gen in table.items():
                    assert gen_map[gen] is table[(pi[r], lam, mu)]
                    assert signs.get(gen, 1) == s[r]
            assert relabel(S, gen_map, signs) == S
            assert relabel(L, gen_map, signs) == L

    @pytest.mark.parametrize("name, rows", [
        ("abelian", ["cbar1"]), ("su2", ["cbar1"]), ("osp12", ["cbar1", "cbar2", "cbar4"]),
        ("sl21", ["cbar1", "cbar3", "cbar4", "cbar5"])])
    def test_rows_on_one_direction_per_orbit(self, name, rows, monkeypatch):
        # the rows are read from u L (-delta(u L)/delta C^q), which is taken
        # on the ghosts of one direction per orbit: no row is applied
        model = (spec_model(parse_model(SL21_MODEL.read_text(encoding="utf-8")))
                 if name == "sl21" else preset_model(name))
        squared, applied, lies = [], [], []
        original, lie = gvc.models.nilpotency_residuals, GaugeModel._lie

        def counted(theta, gens=None):
            squared.append(gens)
            return original(theta, gens)

        def counted_lie(model, kind, directions):
            lies.append((kind, directions))
            return lie(model, kind, directions)

        monkeypatch.setattr(gvc.models, "nilpotency_residuals", counted)
        monkeypatch.setattr(gvc.models, "noether_residuals", lambda *args: applied.append(args))
        monkeypatch.setattr(GaugeModel, "_lie", counted_lie)
        kept = model._noether_residuals()
        assert list(kept) == [g.name for g in model.noether_antifield]
        assert all(p.is_zero() for p in kept.values())
        assert lies == [("gauge", tuple(int(label[4:]) - 1 for label in rows))]
        assert all(r.ok for r in model.pipeline("koszul-tate", deterministic=True))
        # delta squared on an antifield is delta(E_z(L)), zero by
        # construction: this lone koszul-tate squares nothing and builds no
        # E_z, and the rows are the kept ones
        assert model._detour("koszul-tate") is None
        assert squared == [] and applied == []
        assert model.generic_euler_lagrange()._table == {}

    @pytest.mark.parametrize("name", ["su2", "sl21"])
    def test_order_of_the_maps_changes_nothing(self, name, request):
        # the algebra maps in either order, for the master equation and
        # for the rows: the same representatives and the same reduced tables
        model = request.getfixturevalue(name)
        pairs, maps = model.pairs(), relabellings(model, model.algebra_maps())
        assert len(maps) == 2
        S = model.extended_lagrangian()
        full = master_equation_check(S, pairs)
        theta = full.derivation.components
        orders = (maps, maps[::-1])
        reps = [TestOrbitReduction._roots(S.density, pairs, order, theta) for order in orders]
        reports = [TestOrbitReduction._square(pairs, full.derivation, r) for r in reps]
        assert reps[0] == reps[1] and len(reps[0]) < len(theta)
        assert tuple(reports[0].derivation_residuals) == tuple(
            g.name for g in sorted(reps[0], key=lambda g: g.key))
        assert list(reports[0].derivation_residuals.items()) == \
            list(reports[1].derivation_residuals.items())
        kt = model.koszul_tate()
        rows = [TestOrbitReduction._roots(_rows_density(model, kt), pairs, order, kt.components)
                for order in orders]
        assert rows[0] == rows[1] and len(rows[0]) < len(kt.components)
        whole = noether_residuals(model.noether_operator(), model.generic_euler_lagrange())
        for moved, evaluate in (
                (kt.components, lambda gens: nilpotency_residuals(kt, gens)),
                (model.noether_antifield, lambda gens: {g.name: whole[g.name] for g in gens})):
            tables = [reduce_or_whole(evaluate, moved, r) for r in rows]
            assert list(tables[0].items()) == list(tables[1].items())
            assert set(tables[0]) == {g.name for g in moved if g in rows[0]}

    def test_invariant_breaking_is_caught_on_representatives(self, monkeypatch):
        # the mass term is fixed by every algebra map, and it breaks gauge
        # invariance: u L fails on the representative ghost and then on the
        # rest, so the rows are applied, once and whole, and they are the
        # unreduced ones (the master equation's table: TestOrbitReduction's
        # test of this name)
        model = _fresh("su2")
        L = Lagrangian(model.ym_lagrangian().density + mass_term_lagrangian(model).density)
        applied = []
        original_rows = gvc.models.noether_residuals

        def counted_rows(op, el):
            applied.append(op)
            return original_rows(op, el)

        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        monkeypatch.setattr(gvc.models, "noether_residuals", counted_rows)
        got = model._noether_residuals()
        assert applied == [model.noether_operator()]
        assert not model._whole_lie("gauge").is_zero()
        want = noether_residuals(model.noether_operator(), euler_lagrange(L))
        assert all(not p.is_zero() for p in want.values())
        assert list(got.items()) == list(want.items())

    def test_algebra_breaking_term_runs_the_full_tables(self, monkeypatch):
        # the direction-1 strength square moves under the algebra maps; it
        # spoils the Noether rows of directions 2 and 3 only, so the
        # representative cbar1 alone would hide them
        model, reduced, full = TestOrbitReduction._routes("su2", lambda model: Lagrangian(
            model.extended_lagrangian().density + _direction_strength_square(model, 0)))
        maps = relabellings(model, model.algebra_maps())
        assert fixed_by(maps, model.ym_lagrangian().density) and not full.ok
        TestOrbitReduction._same_failure(reduced, full)
        # the rows, on a new model whose L holds the term
        model = _fresh("su2")
        L = Lagrangian(model.ym_lagrangian().density + _direction_strength_square(model, 0))
        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        kt = model.koszul_tate()
        assert not fixed_by(relabellings(model, model.algebra_maps()), L.density)
        assert model._representatives("gauge") is None
        want = noether_residuals(model.noether_operator(), euler_lagrange(L))
        assert want["cbar1"].is_zero() and not want["cbar2"].is_zero()
        assert list(model._noether_residuals().items()) == list(want.items())
        (row,) = model.pipeline("koszul-tate", deterministic=True)
        assert not row.ok
        assert row.line() == CheckResult.from_residuals(
            "koszul-tate", nilpotency_residuals(kt)).line()

    def test_a_lagrangian_breaking_the_maps_forces_the_full_table(self, monkeypatch):
        # L gains the direction-1 strength square, which the algebra maps
        # move: S is still L + P_s, and they keep P_s, but the installed L
        # is not the model's own, so gauge-symmetry runs whole and fails,
        # Theta_S is squared and the row is the full table's
        model = _fresh("su2")
        L = Lagrangian(model.ym_lagrangian().density + _direction_strength_square(model, 0))
        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        line, parts, direct = TestMasterSplit._rows(model)
        maps = relabellings(model, model.algebra_maps())
        assert fixed_by(maps, model._paired_sum()) and not fixed_by(maps, L.density)
        assert model._representatives("gauge") is None
        assert parts == ["S"] and line == direct
        assert line != CheckResult("master-equation", True).line()

    def test_rows_that_break_a_map_run_the_full_tables(self, monkeypatch):
        # L keeps every map, but cbar2's row has its last entry doubled:
        # the rows' values are no longer carried onto each other
        model = preset_model("su2")
        op = model.noether_operator()
        rows = dict(op.rows)
        coeff, gen, index = rows["cbar2"][-1]
        rows["cbar2"] = rows["cbar2"][:-1] + [(coeff * 2, gen, index)]
        broken = NoetherOperator(model.ctx, rows)
        monkeypatch.setattr(model, "noether_operator", lambda: broken)
        kt = model.koszul_tate()
        maps = relabellings(model, model.algebra_maps())
        assert fixed_by(maps, model.ym_lagrangian().density)
        assert not fixed_by(maps, _rows_density(model, kt))
        want = noether_residuals(broken, model.generic_euler_lagrange())
        assert want["cbar1"].is_zero() and not want["cbar2"].is_zero()
        assert list(model._noether_residuals().items()) == list(want.items())
        (row,) = model.pipeline("koszul-tate", deterministic=True)
        assert not row.ok
        assert row.line() == CheckResult.from_residuals(
            "koszul-tate", nilpotency_residuals(kt)).line()

    def test_rows_are_proved_without_koszul_tate(self, monkeypatch):
        # L + a1_0 c2 c3 + a2_0 c3 c1 + a3_0 c1 c2 keeps every algebra map
        # and has field equations on the ghosts, so Koszul-Tate is not
        # built; the rows are applied to E(L) without it, and
        # noether-identities reports them, as with no maps at all: an
        # installed L is not the model's own, so no table is reduced
        lines = []
        for reduced in (True, False):
            model = _fresh("su2")
            ctx, a, c = model.ctx, model.field, model.ghost
            density = model.ym_lagrangian().density
            for r, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                density = density + ctx.var(a[r][0]) * ctx.var(c[i]) * ctx.var(c[j])
            L = Lagrangian(density)
            monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True, L=L: L)
            if reduced:
                assert fixed_by(relabellings(model, model.algebra_maps()), L.density)
                assert model._representatives("gauge") is None
            else:
                monkeypatch.setattr(model, "_representatives", lambda check: None)
            rows = {row.name: row for row in model.pipeline("noether", deterministic=True)
                    + model.pipeline("koszul-tate", deterministic=True)}
            assert rows["koszul-tate"].witness == "field equation on non-field 'c1'"
            lines.append(rows["noether-identities"].line())
        assert lines == ["check noether-identities | status fail | nonzero 12 "
                         "| first cbar1: c2*c3;0"] * 2

    def test_a_sign_on_one_member_of_a_pair_is_refused(self, monkeypatch):
        # the su2 maps' relabellings with their antifields' signs dropped
        # still fix L, which holds no antifield, but no longer keep the
        # pairing; a direction map moves both members of a pair with their
        # direction's sign, so none does that.  Installed direction maps
        # other than the kept ones reduce no table, and every row is the
        # one of a new model's: the su2 maps with direction 1's sign
        # flipped, which keep h but not c and fix no L, and an equal copy
        # of the kept maps, which fixes L
        model = _fresh("su2")
        bars = set(model.pairs().values())
        dropped = [(gen_map, {g: sign for g, sign in signs.items() if g not in bars})
                   for gen_map, signs in relabellings(model, model.algebra_maps())]
        assert fixed_by(dropped, model.ym_lagrangian().density)
        assert any(signs.get(z, 1) != signs.get(zbar, 1) for _, signs in dropped
                   for z, zbar in model.pairs().items())
        want = [row.line() for row in _fresh("su2").full_verification(True).results]
        kept = model.algebra_maps()
        flipped = [(pi, (-s[0],) + tuple(s[1:])) for pi, s in kept]
        for maps, fixes in ((flipped, False), (list(kept), True)):
            model = _fresh("su2")
            assert maps is not model.algebra_maps()
            assert fixed_by(relabellings(model, maps), model.ym_lagrangian().density) is fixes
            monkeypatch.setattr(model, "algebra_maps", lambda maps=maps: maps)
            assert [model._representatives(check) for check in (
                "euler-lagrange", "parameter", "gauge", "brst")] == [None] * 4
            assert [row.line() for row in model.full_verification(True).results] == want

    @pytest.mark.parametrize("name, squared", [
        ("abelian", 2), ("su2", 5), ("osp12", 9), ("sl21", 20)])
    def test_brst_square_on_one_direction_per_orbit(self, name, squared, monkeypatch):
        # the fields and ghosts of the first direction of each orbit; the
        # square reads u, the ghost sector and s, and no L
        model = _fresh(name)
        batches = self._brst_batches(model, monkeypatch)
        gauge, square = model.pipeline("brst", deterministic=True)
        assert gauge.ok and square.ok
        first = self._first_of_orbit(model)
        direction = {gen: r for r, row in enumerate(model.field) for gen in row}
        direction.update((gen, r) for r, gen in enumerate(model.ghost))
        moved = sorted(model.brst_operator().components, key=lambda g: g.key)
        assert batches == [[g.name for g in moved if first[direction[g]]]]
        assert len(batches[0]) == squared
        assert list(model._brst_residuals()) == batches[0]
        assert fixed_by(relabellings(model, model.algebra_maps()), model._paired_sum())
        # s holds no L: the square alone builds none
        alone = _fresh(name)
        assert list(alone._brst_residuals()) == batches[0]
        assert "lagrangian" not in alone._memo

    @staticmethod
    def _brst_batches(model, monkeypatch):
        """The generator names of each batch the BRST square is taken on, in
        key order."""
        batches = []
        original = gvc.models.nilpotency_residuals

        def counted(theta, gens=None):
            if theta is model.brst_operator():
                batches.append([g.name for g in sorted(gens, key=lambda g: g.key)])
            return original(theta, gens)

        monkeypatch.setattr(gvc.models, "nilpotency_residuals", counted)
        return batches

    def test_a_ghost_sector_perturbation_forces_the_full_square(self, monkeypatch):
        # s(c2) doubled: L and the gauge part still keep every algebra map,
        # but the paired sum of s does not; the installed sector is not the
        # model's own, so the square is taken on every generator at once,
        # while gauge-symmetry, which reads L and u alone, is reduced
        model = _fresh("su2")
        sector = dict(model.ghost_sector())
        sector[model.ghost[1]] = sector[model.ghost[1]] * 2
        monkeypatch.setattr(model, "ghost_sector", lambda: sector)
        batches = self._brst_batches(model, monkeypatch)
        gauge, square = model.pipeline("brst", deterministic=True)
        assert not fixed_by(relabellings(model, model.algebra_maps()), model._paired_sum())
        assert model._representatives("brst") is None
        assert model._representatives("gauge") == (0,)
        s = model.brst_operator()
        assert batches == [[g.name for g in sorted(s.components, key=lambda g: g.key)]]
        assert gauge.ok and not square.ok
        assert square.line() == CheckResult.from_residuals(
            "brst-nilpotency", nilpotency_residuals(s)).line()
        with pytest.raises(GvcError, match="not nilpotent"):
            model.extended_lagrangian()


    def test_densities_installed_after_a_run_run_whole_tables(self, monkeypatch):
        # master-equation reduces the BRST square on the model's own s; an L
        # installed afterwards that breaks the algebra maps is not the
        # model's own, so its tables are taken whole, and its row is the
        # unreduced route's; an S installed afterwards is squared whole
        def routes(install, pipeline):
            model, rows = _fresh("su2"), []
            for reduced in (True, False):
                if reduced:
                    assert model.pipeline("master-equation", deterministic=True)[0].ok
                    assert model._representatives("brst") is not None
                else:
                    model = _fresh("su2")
                    monkeypatch.setattr(model, "_representatives", lambda check: None)
                install(model)
                rows.append(model.pipeline(pipeline, deterministic=True)[0])
                if reduced and pipeline == "brst":
                    assert model._representatives("gauge") is None
            assert not rows[0].ok and rows[0].line() == rows[1].line()

        def install_s(model):
            S = Lagrangian(model.extended_lagrangian().density
                           + _direction_strength_square(model, 0))
            monkeypatch.setattr(model, "extended_lagrangian", lambda: S)

        def install_l(model):
            L = Lagrangian(model.ym_lagrangian().density + _direction_strength_square(model, 0))
            monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)

        routes(install_s, "master-equation")
        routes(install_l, "brst")

    def test_s_minus_l_of_the_proper_solution_is_the_paired_sum(self, monkeypatch):
        # S built here is L plus the paired sum P of s, and no S - L is
        # formed; an installed S equal to it is squared whole, and no L is
        # subtracted from it
        model = _fresh("su2")
        subtracted = []
        sub = Poly.__sub__
        monkeypatch.setattr(Poly, "__sub__", lambda p, q: subtracted.append((p, q)) or sub(p, q))
        assert model.pipeline("master-equation", deterministic=True)[0].ok
        S, L = model.extended_lagrangian(), model.ym_lagrangian()
        assert S.density == L.density + model._paired_sum()
        installed = Lagrangian(S.density + model.ctx.zero())
        assert installed.density is not S.density and installed.density == S.density
        monkeypatch.setattr(model, "extended_lagrangian", lambda: installed)
        assert model.pipeline("master-equation", deterministic=True)[0].ok
        assert not any(p is d or q is L.density for p, q in subtracted
                       for d in (S.density, installed.density))


class TestKoszulTateRouteFuzz:
    """koszul-tate squares nothing on the antifields where L, E(L) and the
    rows are the model's own (`_detour`): delta^2(abar_z) =
    delta(E_z(L)) is zero by construction, and where E cannot be built the
    rows, applied to it, raise its error; an installed L, such as a
    massive one, takes the direct route.  Under
    seeded installs, its line is the direct route's: delta squared on every
    antifield by `nilpotency_residuals`, the rows applied by
    `noether_residuals`."""

    KINDS = ("own", "mass-term", "max-order-2", "max-order-1", "bar-in-l", "random-e",
             "doubled-entry", "unknown-row")

    @staticmethod
    def _install(kind, name, rng, monkeypatch):
        """A new model of `name` with the install of `kind`."""
        model = _fresh(name) if not kind.startswith("max-order") else spec_model(
            parse_model(PRESET_MODEL_TEXT[name] if name != "sl21"
                        else SL21_MODEL.read_text(encoding="utf-8")), max_jet_order=int(kind[-1]))
        ctx = model.ctx
        fields = [g for row in model.field for g in row]
        bars = [g for row in model.antifield for g in row] + model.noether_antifield
        if kind == "mass-term":
            L = Lagrangian(model.ym_lagrangian().density + mass_term_lagrangian(model).density)
            monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        elif kind == "bar-in-l":
            # an antifield or degree-two antifield times a field jet
            term = ctx.var(rng.choice(bars)) * ctx.var(rng.choice(fields), rng.randrange(ctx.dim))
            L = Lagrangian(model.ym_lagrangian().density + term)
            monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        elif kind == "random-e":
            # field equations on four fields, of their parities, holding
            # the antifields of two of them, which delta moves
            zs = rng.sample(fields, 4)
            gens = fields + [model.pairs()[z] for z in zs[:2]]
            el = EulerLagrange(ctx, {z: random_poly(rng, ctx, terms=6, max_order=1,
                                                    parity=z.parity, gens=gens)
                                     for z in zs})
            monkeypatch.setattr(model, "generic_euler_lagrange", lambda: el)
        elif kind == "doubled-entry":
            rows = dict(model.noether_operator().rows)
            label = rng.choice(sorted(rows))
            k = rng.randrange(len(rows[label]))
            coeff, gen, index = rows[label][k]
            rows[label] = rows[label][:k] + [(coeff * 2, gen, index)] + rows[label][k + 1:]
            doubled = NoetherOperator(ctx, rows)
            monkeypatch.setattr(model, "noether_operator", lambda: doubled)
        elif kind == "unknown-row":
            # a row labelled by no degree-two antifield, which Koszul-Tate refuses
            rows = dict(model.noether_operator().rows)
            rows["q%d" % rng.randrange(9)] = rows.pop(rng.choice(sorted(rows)))
            relabelled = NoetherOperator(ctx, rows)
            monkeypatch.setattr(model, "noether_operator", lambda: relabelled)
        return model

    @staticmethod
    def _direct(model):
        """The koszul-tate line of the direct route."""
        op, el = model.noether_operator(), model.generic_euler_lagrange()
        try:
            kt = koszul_tate(op, el, model.pairs())
            squares = nilpotency_residuals(kt, [g for row in model.antifield for g in row])
            rows = noether_residuals(op, el)
        except GvcError as exc:
            return CheckResult("koszul-tate", False, witness=str(exc)).line(), None
        return CheckResult.from_residuals("koszul-tate", {**squares, **rows}).line(), squares

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21"])
    def test_line_is_the_direct_routes(self, name, kind, seed, monkeypatch):
        rng = random.Random("koszul-tate %s %s %d" % (name, kind, seed))
        model = self._install(kind, name, rng, monkeypatch)
        built, original = [], GaugeModel.koszul_tate
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GaugeModel, "koszul_tate", lambda m: built.append(m) or original(m))
            (row,) = model.pipeline("koszul-tate", deterministic=True)
        # Koszul-Tate is built only where delta^2 is not zero by construction
        by_construction = kind in ("own", "max-order-2", "max-order-1")
        assert model._detour("koszul-tate") == {
            "mass-term": "lagrangian", "bar-in-l": "lagrangian", "random-e": "euler-lagrange",
            "doubled-entry": "noether-operator", "unknown-row": "noether-operator"}.get(kind)
        assert (built == []) == by_construction
        assert row.ok == (kind == "own")
        if kind == "own":
            assert model.generic_euler_lagrange()._table == {}
        line, squares = self._direct(model)
        assert row.line() == line
        if kind == "random-e":
            assert any(not p.is_zero() for p in squares.values())


class TestProperSolution:
    def test_abelian_display(self, abelian):
        ctx = abelian.ctx
        s = abelian.brst_operator()
        got = proper_solution(abelian.ym_lagrangian(), s, abelian.pairs())
        want = abelian.ym_lagrangian().density
        for mu in range(2):
            want = want + ctx.var(abelian.ghost[0], mu) \
                * ctx.var(abelian.antifield[0][mu])
        assert got.density == want

    def test_su2_display(self, su2):
        ctx = su2.ctx
        alg = su2.algebra
        s = su2.brst_operator()
        got = proper_solution(su2.ym_lagrangian(), s, su2.pairs())
        want = su2.ym_lagrangian().density
        for r in range(3):
            for mu in range(4):
                comp = ctx.var(su2.ghost[r], mu)
                for p in range(3):
                    for q in range(3):
                        c = alg.constant(r, p, q)
                        if c:
                            comp += c * (ctx.var(su2.field[p][mu]) * ctx.var(su2.ghost[q]))
                want = want + comp * ctx.var(su2.antifield[r][mu])
        for r in range(3):
            gamma = ctx.zero()
            for p in range(3):
                for q in range(3):
                    c = alg.constant(r, p, q)
                    if c:
                        gamma += Fraction(-1, 2) * c * (
                            ctx.var(su2.ghost[p]) * ctx.var(su2.ghost[q]))
            want = want + gamma * ctx.var(su2.noether_antifield[r])
        assert got.density == want

    def test_graded_display_signs(self, osp12):
        ctx = osp12.ctx
        alg = osp12.algebra
        s = osp12.brst_operator()
        got = proper_solution(osp12.ym_lagrangian(), s, osp12.pairs())
        want = osp12.ym_lagrangian().density
        m, n = alg.dim, 2
        for r in range(m):
            for lam in range(n):
                comp = ctx.var(osp12.ghost[r], lam)
                for j in range(m):
                    for i in range(m):
                        c = alg.constant(r, j, i)
                        if c:
                            comp -= c * (ctx.var(osp12.ghost[j])
                                         * ctx.var(osp12.field[i][lam]))
                want = want + comp * ctx.var(osp12.antifield[r][lam])
        for r in range(m):
            gamma = ctx.zero()
            for i in range(m):
                for j in range(m):
                    c = alg.constant(r, i, j)
                    if c:
                        sign = Fraction(-1, 2) * ((-1) ** alg.parities[i])
                        gamma += sign * c * (ctx.var(osp12.ghost[i])
                                             * ctx.var(osp12.ghost[j]))
            want = want + gamma * ctx.var(osp12.noether_antifield[r])
        assert got.density == want

    def test_requires_nilpotent_extension(self, su2):
        ctx = su2.ctx
        u = su2.gauge_operator()  # not nilpotent without the ghost sector
        res = nilpotency_residuals(u)
        assert any(not p.is_zero() for p in res.values())
        with pytest.raises(GvcError):
            proper_solution(su2.ym_lagrangian(), u, su2.pairs())
