"""Noether identities, Koszul-Tate, BRST extensions, the antibracket
and the classical master equation."""

import random
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
from gvc.brst import (KoszulTate, NoetherOperator, on_representatives, orbit_representatives,
                      orbit_roots, paired_sum)
from gvc.bicomplex import variational_derivatives
from gvc.grassmann import ExpansionLimitError, JetOrderError, Poly
from gvc.jets import iterated_derivative, total_derivative
from gvc.modelfile import parse_model, spec_model
from gvc.models import GaugeModel, Metric
from gvc.presets import preset_model
from gvc.reporting import CheckResult
from gvc.superlie import signed_automorphisms

from util import (antifield_numbers, basis_orbits, even_part, field_generators, linear_jet_paths,
                  linear_jet_polys, make_context, mass_term_lagrangian, odd_part,
                  orbit_only_failure,
                  oracle_koszul_tate_apply, oracle_koszul_tate_residuals, random_jet,
                  random_poly, random_vertical, shared_jet_cases, shared_jet_poly,
                  su2_algebra)

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
    def test_derivation_from_the_kept_field_equations(self, name, monkeypatch):
        """Theta_S of the pipeline, from the kept field equations of L and
        the variational derivatives of S - L, is Theta_S taken from S, on
        the proper solution, where Theta_{S - L} is squared, and on S plus
        a random term, where Theta_S is; so are the split sums of L alone
        and of S - L alone, where L's cancel."""
        reports, parts = [], []
        original = gvc.models.master_equation_check

        def kept(S, pairs, representatives=None, split=None, part=False):
            parts.append(part)
            reports.append((split, original(S, pairs, representatives, split, part)))
            return reports[-1][1]

        monkeypatch.setattr(gvc.models, "master_equation_check", kept)
        verdicts = []
        for build in (lambda model: model.extended_lagrangian(),
                      lambda model: _perturbed_solution(model, random.Random(22))):
            model = _fresh(name)
            pairs, L, S = model.pairs(), model.ym_lagrangian(), build(model)
            el = model.generic_euler_lagrange().components
            monkeypatch.setattr(model, "extended_lagrangian", lambda S=S: S)
            (row,) = model.pipeline("master-equation", deterministic=True)
            (split, rep), want = reports.pop(), master_equation_check(S, pairs)
            assert split[0] is el and split[1] == S.density - L.density
            assert list(rep.derivation.components.items()) == \
                list(master_derivation(S, pairs).components.items())
            assert row.line() == (CheckResult("master-equation", True) if want.ok else
                                  CheckResult.from_residuals("master-equation",
                                                             want.bracket_residuals())).line()
            verdicts.append(row.ok)
        assert verdicts == [True, False] and parts == [True, False]
        rest = model._paired_sum("brst")
        for S, split in ((L, (el, L.density - L.density)),
                         (Lagrangian(rest), (el, rest - L.density))):
            assert list(master_derivation(S, pairs, split).components.items()) == \
                list(master_derivation(S, pairs).components.items())


def _perturbed_solution(model, rng):
    """The proper solution plus a nonzero even sum of products of two or
    three paired generators; field jets go up to order one, so the
    bracket's Euler-Lagrange rows stay within the jet order bound."""
    ctx, pairs = model.ctx, model.pairs()
    gens = sorted(list(pairs) + list(pairs.values()), key=lambda g: g.key)
    added = ctx.zero()
    while added.is_zero():
        for _ in range(2):
            term = ctx.scalar(rng.choice([1, -1, 2]))
            for _ in range(rng.randint(2, 3)):
                gen = rng.choice(gens)
                order = rng.randint(0, 1) if gen.kind in ("even-field", "odd-field") else 0
                term = term * ctx.var(gen, *(rng.randrange(ctx.dim) for _ in range(order)))
            added = added + even_part(term)
    return Lagrangian(model.extended_lagrangian().density + added)


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
    of the bracket (L, P_s), whose field equations are s(L)'s: the
    pipeline squares Theta_P when S is the proper solution built here for
    the model's own s, s(L) = 0 and the direct square's jets are in bound,
    and Theta_S otherwise."""

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
        B = Lagrangian(model._paired_sum("brst"))
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
        """The pipeline's master-equation line, whether it squared Theta_P
        and on which representatives, and the line of
        `master_equation_check(S, pairs)`."""
        parts = []
        original = gvc.models.master_equation_check

        def kept(S, pairs, representatives=None, split=None, part=False):
            parts.append((part, representatives))
            return original(S, pairs, representatives, split, part)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gvc.models, "master_equation_check", kept)
            (row,) = model.pipeline("master-equation", deterministic=True)
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
        # on the orbit layer's representatives; abelian has no algebra map,
        # so Theta_P is squared on every generator
        model = _fresh(name)
        line, parts, direct = self._rows(model)
        ((part, representatives),) = parts
        assert part and line == direct
        assert representatives == model._representatives("master-equation")
        assert (representatives is None) == (name == "abelian")
        assert line == CheckResult("master-equation", True).line()

    def _installed(self, install):
        """install(model) on a new su2 model, then its rows (`_rows`)."""
        model = _fresh("su2")
        install(model)
        line, parts, direct = self._rows(model)
        assert [part for part, _ in parts] == [False] and line == direct
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
        # Theta_S^2 forms third jets of the ghosts, Theta_P^2 does not
        model = preset_model("su2", max_jet_order=2)
        line, parts, direct = self._rows(model)
        assert [part for part, _ in parts] == [False] and line == direct
        assert line.endswith("first jet order 3 exceeds configured maximum 2 for c1")

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


class TestOrbitReduction:
    """Theta_S^2 on one generator per orbit of the algebra maps, once the
    orbit layer proves that they fix S, against the full table of every
    generator."""

    @staticmethod
    def _routes(name, build, monkeypatch):
        """The master equation of the density build(model) on a new model
        of `name`, on the representatives its orbit layer proves, and by
        the full table."""
        model = _fresh(name)
        S = build(model)
        monkeypatch.setattr(model, "extended_lagrangian", lambda: S)
        reps = model._representatives("master-equation")
        return (model, master_equation_check(S, model.pairs(), reps),
                master_equation_check(S, model.pairs()))

    @staticmethod
    def _same_failure(reduced, full):
        """The full table and the same rows, byte for byte."""
        assert reduced.squared == full.squared
        assert list(reduced.derivation_residuals.items()) == \
            list(full.derivation_residuals.items())
        rows = [CheckResult.from_residuals("master-equation", rep.bracket_residuals()).line()
                for rep in (reduced, full)]
        assert rows[0] == rows[1]

    @pytest.mark.parametrize("name", ["abelian", "su2", "osp12", "sl21", "su2_euclidean"])
    def test_same_verdicts_on_one_generator_per_orbit(self, name, monkeypatch):
        model, reduced, full = self._routes(
            name, lambda model: model.extended_lagrangian(), monkeypatch)
        assert reduced.ok and full.ok
        assert reduced.bracket_residuals() == full.bracket_residuals() == {}
        moved = sorted(full.derivation.components, key=lambda g: g.key)
        assert full.squared == tuple(g.name for g in moved)
        # the representatives: every generator of the first algebra
        # direction of each orbit; abelian has no map, so all of them
        first = TestAlgebraOrbits._first_of_orbit(model)
        direction = {gen: r for table in (model.field, model.antifield)
                     for r, row in enumerate(table) for gen in row}
        direction.update((gen, r) for table in (model.ghost, model.noether_antifield)
                         for r, gen in enumerate(table))
        assert reduced.squared == tuple(g.name for g in moved if first[direction[g]])
        assert len(reduced.squared) < len(moved) or name == "abelian"

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21", "su2_euclidean"])
    def test_perturbed_rows_are_identical(self, name, monkeypatch):
        rng = random.Random(1406)
        for _ in range(2):
            _, reduced, full = self._routes(
                name, lambda model: _perturbed_solution(model, rng), monkeypatch)
            assert not full.ok
            self._same_failure(reduced, full)
            monkeypatch.undo()

    def test_invariant_breaking_is_caught_on_representatives(self, monkeypatch):
        # the mass term is fixed by every algebra map, so the proof holds,
        # and it breaks gauge invariance, so a representative fails and the
        # rest of the table follows
        def build(model):
            S = Lagrangian(model.extended_lagrangian().density
                           + mass_term_lagrangian(model).density)
            assert all(S.density.rename(*g) == S.density for g in model.algebra_maps())
            return S

        squared = []
        original = gvc.brst.nilpotency_residuals

        def counted(theta, gens=None):
            squared.append(len(gens))
            return original(theta, gens)

        monkeypatch.setattr(gvc.brst, "nilpotency_residuals", counted)
        _, reduced, full = self._routes("su2", build, monkeypatch)
        moved = len(reduced.derivation.components)
        assert squared == [10, moved - 10, moved]
        assert not full.ok
        self._same_failure(reduced, full)

    def test_failure_off_the_representatives_is_caught(self):
        L, pairs, g = orbit_only_failure()
        assert L.density.rename(*g) != L.density
        theta = master_derivation(L, pairs).components
        # unproved, the orbits of g would hide both failing rows
        assert master_equation_check(L, pairs, orbit_roots([g], theta)).ok
        reps = orbit_representatives(L.density, pairs, [g], theta)
        assert reps is None
        rep = master_equation_check(L, pairs, reps)
        assert not rep.ok
        assert rep.squared == ("u1", "u2", "ebar1", "ebar2", "c", "cbar")
        assert [name for name, p in rep.derivation_residuals.items() if p.terms] == \
            ["u2", "ebar2"]
        assert set(rep.bracket_residuals()) == {"ubar2", "e2"}

    def test_map_breaking_the_pairing_is_refused(self):
        # S holds none of u1, u2, ebar1 and ebar2, so swapping them alone
        # fixes it; but the map sends u1 to u2 and keeps u1's partner
        # ubar1, and taken as a symmetry it would hide both failing rows
        L, pairs, (gen_map, signs) = orbit_only_failure()
        half = {g: h for g, h in gen_map.items() if g.name in ("u1", "u2", "ebar1", "ebar2")}
        assert L.density.rename(half, signs) == L.density
        theta = master_derivation(L, pairs).components
        assert master_equation_check(L, pairs, orbit_roots([(half, signs)], theta)).ok
        reps = orbit_representatives(L.density, pairs, [(half, signs)], theta)
        assert reps is None
        rep = master_equation_check(L, pairs, reps)
        assert not rep.ok
        assert rep.squared == ("u1", "u2", "ebar1", "ebar2", "c", "cbar")

    @pytest.mark.parametrize("name", ["su2", "sl21"])
    def test_representatives_holding_no_generator_run_the_full_table(self, name, monkeypatch):
        # relabellings passed where representatives belong hold none of
        # the generators: the whole table is squared, and a failure shows
        model = _fresh(name)
        wrong = model.algebra_maps()
        for S in (model.extended_lagrangian(), _perturbed_solution(model, random.Random(7))):
            given, full = (master_equation_check(S, model.pairs(), reps) for reps in (wrong, None))
            assert given.squared == full.squared == tuple(
                g.name for g in sorted(full.derivation.components, key=lambda g: g.key))
            self._same_failure(given, full)
        evaluated = []

        def evaluate(gens):
            evaluated.append(len(gens))
            return {g.name: model.ctx.one() for g in gens}

        table = on_representatives(evaluate, model.ghost, {model.field[0][0]})
        assert evaluated == [len(model.ghost)] and len(table) == len(model.ghost)

    def test_a_perturbed_brst_operator_forces_the_full_route(self, monkeypatch):
        # s' = phi s phi^-1 for phi: c1 -> 2 c1 is nilpotent, and L + the
        # paired sum of s' is S under the anticanonical c1 -> 2 c1,
        # cbar1 -> cbar1 / 2, so it solves the master equation; L is
        # unchanged, but the algebra maps no longer fix S - L
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
            squared.append((theta, len(gens)))
            return original(theta, gens)

        monkeypatch.setattr(gvc.brst, "nilpotency_residuals", counted)
        (row,) = model.pipeline("master-equation", deterministic=True)
        assert row.ok
        assert model._fixes("L") and not model._fixes("S-L")
        assert model._representatives("master-equation") is None
        # s' is installed, not the model's own, so Theta_S itself is
        # squared, on every generator
        ((theta, count),) = squared
        S = model.extended_lagrangian()
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
    """Theta_S^2, the Noether rows and Koszul-Tate on one algebra direction
    per orbit of the algebra's signed automorphisms, against the full
    tables."""

    @staticmethod
    def _first_of_orbit(model):
        """Whether each algebra direction is the first of its orbit."""
        orbits = basis_orbits(model.algebra.dim, signed_automorphisms(model.algebra))
        return {r: r == min(o) for o in orbits for r in o}

    @pytest.mark.parametrize("name, count", [
        ("abelian", 0), ("su2", 2), ("osp12", 1), ("sl21", 2)])
    def test_maps_move_a_direction_with_one_sign(self, name, count, request):
        model = request.getfixturevalue(name)
        maps = model.algebra_maps()
        assert len(maps) == count
        S, L = model.extended_lagrangian().density, model.ym_lagrangian().density
        for (gen_map, signs), (pi, s) in zip(maps, signed_automorphisms(model.algebra)):
            for r in range(model.algebra.dim):
                for family in (model.field, model.antifield):
                    for mu, gen in enumerate(family[r]):
                        assert gen_map[gen] is family[pi[r]][mu]
                        assert signs.get(gen, 1) == s[r]
                for family in (model.ghost, model.noether_antifield):
                    assert gen_map[family[r]] is family[pi[r]]
                    assert signs.get(family[r], 1) == s[r]
            assert S.rename(gen_map, signs) == S
            assert L.rename(gen_map, signs) == L

    @pytest.mark.parametrize("name, squared", [
        ("abelian", 5), ("su2", 10), ("osp12", 18), ("sl21", 40)])
    def test_master_equation_on_one_direction_per_orbit(self, name, squared, request):
        model = request.getfixturevalue(name)
        S = model.extended_lagrangian()
        reduced = master_equation_check(S, model.pairs(),
                                        model._representatives("master-equation"))
        full = master_equation_check(S, model.pairs())
        assert reduced.ok and full.ok and len(reduced.squared) == squared
        first = self._first_of_orbit(model)
        algebra_index = {gen: r for family in (model.field, model.antifield)
                         for r, row in enumerate(family) for gen in row}
        for family in (model.ghost, model.noether_antifield):
            algebra_index.update((gen, r) for r, gen in enumerate(family))
        assert reduced.squared == tuple(g.name for g in sorted(
            full.derivation.components, key=lambda g: g.key) if first[algebra_index[g]])

    @pytest.mark.parametrize("name, rows", [
        ("abelian", ["cbar1"]), ("su2", ["cbar1"]), ("osp12", ["cbar1", "cbar2", "cbar4"]),
        ("sl21", ["cbar1", "cbar3", "cbar4", "cbar5"])])
    def test_rows_on_one_direction_per_orbit(self, name, rows, monkeypatch):
        model = (spec_model(parse_model(SL21_MODEL.read_text(encoding="utf-8")))
                 if name == "sl21" else preset_model(name))
        squared, applied = [], []
        original, original_rows = gvc.models.nilpotency_residuals, gvc.models.noether_residuals

        def counted(theta, gens=None):
            squared.append(gens)
            return original(theta, gens)

        def counted_rows(op, el, labels=None):
            applied.append(sorted(labels))
            return original_rows(op, el, labels)

        monkeypatch.setattr(gvc.models, "nilpotency_residuals", counted)
        monkeypatch.setattr(gvc.models, "noether_residuals", counted_rows)
        assert list(model._noether_residuals()) == rows
        assert all(r.ok for r in model.pipeline("koszul-tate", deterministic=True))
        # delta is squared on the antifields of one direction per orbit
        # alone, and the rows are the kept residuals, applied once
        first = self._first_of_orbit(model)
        (gens,) = squared
        assert [g.name for g in gens] == [
            z.name for r in range(model.algebra.dim) if first[r] for z in model.antifield[r]]
        assert applied == [rows]

    @pytest.mark.parametrize("name", ["su2", "sl21"])
    def test_order_of_the_maps_changes_nothing(self, name, request):
        # the algebra maps in either order, for the master equation and
        # for the rows: the same representatives and the same reduced tables
        model = request.getfixturevalue(name)
        pairs, maps = model.pairs(), model.algebra_maps()
        assert len(maps) == 2
        S = model.extended_lagrangian()
        theta = master_derivation(S, pairs).components
        orders = (maps, maps[::-1])
        reps = [orbit_representatives(S.density, pairs, order, theta) for order in orders]
        reports = [master_equation_check(S, pairs, r) for r in reps]
        assert reps[0] == reps[1] and len(reps[0]) < len(theta)
        assert reports[0].squared == tuple(g.name for g in sorted(reps[0], key=lambda g: g.key))
        assert list(reports[0].derivation_residuals.items()) == \
            list(reports[1].derivation_residuals.items())
        kt = model.koszul_tate()
        rows = [orbit_representatives(_rows_density(model, kt), pairs, order, kt.components)
                for order in orders]
        assert rows[0] == rows[1] == model._representatives("koszul-tate")
        assert len(rows[0]) < len(kt.components)
        for moved, evaluate in (
                (kt.components, lambda gens: nilpotency_residuals(kt, gens)),
                (model.noether_antifield, lambda gens: noether_residuals(
                    model.noether_operator(), model.generic_euler_lagrange(),
                    {g.name for g in gens}))):
            tables = [on_representatives(evaluate, moved, r) for r in rows]
            assert list(tables[0].items()) == list(tables[1].items())
            assert set(tables[0]) == {g.name for g in moved if g in rows[0]}

    def test_invariant_breaking_is_caught_on_representatives(self, monkeypatch):
        # the mass term is fixed by every algebra map, and it breaks gauge
        # invariance: a representative row fails, the rest of the rows
        # follow, and they are the unreduced ones (the master equation's
        # table: TestOrbitReduction's test of this name)
        model = _fresh("su2")
        L = Lagrangian(model.ym_lagrangian().density + mass_term_lagrangian(model).density)
        labels = []
        original_rows = gvc.models.noether_residuals

        def counted_rows(op, el, wanted=None):
            labels.append(sorted(wanted))
            return original_rows(op, el, wanted)

        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        monkeypatch.setattr(gvc.models, "noether_residuals", counted_rows)
        got = model._noether_residuals()
        assert labels == [["cbar1"], ["cbar2", "cbar3"]]
        want = noether_residuals(model.noether_operator(), euler_lagrange(L))
        assert all(not p.is_zero() for p in want.values())
        assert list(got.items()) == list(want.items())

    def test_algebra_breaking_term_runs_the_full_tables(self, monkeypatch):
        # the direction-1 strength square moves under the algebra maps; it
        # spoils the Noether rows of directions 2 and 3 only, so the
        # representative cbar1 alone would hide them
        model, reduced, full = TestOrbitReduction._routes("su2", lambda model: Lagrangian(
            model.extended_lagrangian().density + _direction_strength_square(model, 0)),
            monkeypatch)
        assert model._fixes("L") and not model._fixes("S-L")
        assert model._representatives("master-equation") is None
        assert not full.ok
        TestOrbitReduction._same_failure(reduced, full)
        monkeypatch.undo()
        # the rows, on a new model whose L holds the term
        model = _fresh("su2")
        L = Lagrangian(model.ym_lagrangian().density + _direction_strength_square(model, 0))
        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        kt = model.koszul_tate()
        assert orbit_representatives(L.density, model.pairs(), model.algebra_maps(),
                                     kt.components) is None
        assert not model._fixes("L")
        assert model._representatives("koszul-tate") is None
        want = noether_residuals(model.noether_operator(), euler_lagrange(L))
        assert want["cbar1"].is_zero() and not want["cbar2"].is_zero()
        assert list(model._noether_residuals().items()) == list(want.items())
        (row,) = model.pipeline("koszul-tate", deterministic=True)
        assert not row.ok
        assert row.line() == CheckResult.from_residuals(
            "koszul-tate", nilpotency_residuals(kt)).line()

    def test_a_lagrangian_breaking_the_maps_forces_the_full_table(self, monkeypatch):
        # L gains the direction-1 strength square, which the algebra maps
        # move: S - L is still P_s, which they keep, but the L proof fails,
        # so no representatives are passed and the row is the full table's
        model = _fresh("su2")
        L = Lagrangian(model.ym_lagrangian().density + _direction_strength_square(model, 0))
        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        line, parts, direct = TestMasterSplit._rows(model)
        assert model._fixes("S-L") and not model._fixes("L")
        assert parts == [(False, None)] and line == direct
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
        assert orbit_representatives(model.ym_lagrangian().density, model.pairs(),
                                     model.algebra_maps(), kt.components) is not None
        assert orbit_representatives(_rows_density(model, kt), model.pairs(),
                                     model.algebra_maps(), kt.components) is None
        assert model._fixes("L") and not model._fixes("rows")
        assert model._representatives("koszul-tate") is None
        want = noether_residuals(broken, model.generic_euler_lagrange())
        assert want["cbar1"].is_zero() and not want["cbar2"].is_zero()
        assert list(model._noether_residuals().items()) == list(want.items())
        (row,) = model.pipeline("koszul-tate", deterministic=True)
        assert not row.ok
        assert row.line() == CheckResult.from_residuals(
            "koszul-tate", nilpotency_residuals(kt)).line()

    def test_a_sign_on_one_member_of_a_pair_is_refused(self):
        # these signs fix S and keep each pair's signs equal; without u1's
        # sign S is still fixed, as u1 is not in it, but ubar1 is
        L, pairs, _ = orbit_only_failure()
        names = ("u1", "ubar1", "u2", "ubar2", "e2", "ebar2", "c", "cbar")
        signs = {L.ctx.generator(name): -1 for name in names}
        assert orbit_representatives(L.density, pairs, [({}, signs)], {}) == set()
        del signs[L.ctx.generator("u1")]
        assert L.density.rename({}, signs) == L.density
        assert orbit_representatives(L.density, pairs, [({}, signs)], {}) is None


    @pytest.mark.parametrize("name, squared", [
        ("abelian", 2), ("su2", 5), ("osp12", 9), ("sl21", 20)])
    def test_brst_square_on_one_direction_per_orbit(self, name, squared, monkeypatch):
        # the fields and ghosts of the first direction of each orbit; the
        # maps are proved on the paired sum of s alone
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
        if model.algebra_maps():
            assert model._fixes("brst")
        # s holds no L: the square alone proves nothing on it
        alone = _fresh(name)
        assert list(alone._brst_residuals()) == batches[0]
        assert ("fixes", alone.ym_lagrangian()) not in alone._memo

    @staticmethod
    def _brst_batches(model, monkeypatch):
        """The generator names of each batch the BRST square is taken on."""
        batches = []
        original = gvc.models.nilpotency_residuals

        def counted(theta, gens=None):
            if theta is model.brst_operator():
                batches.append([g.name for g in gens])
            return original(theta, gens)

        monkeypatch.setattr(gvc.models, "nilpotency_residuals", counted)
        return batches

    def test_a_ghost_sector_perturbation_forces_the_full_square(self, monkeypatch):
        # s(c2) doubled: L and the gauge part still keep every algebra map,
        # but the paired sum of s does not, so the square is taken on every
        # generator at once, and gauge-symmetry, which shares that proof,
        # on the whole derivation
        model = _fresh("su2")
        sector = model.ghost_sector()
        sector[model.ghost[1]] = sector[model.ghost[1]] * 2
        monkeypatch.setattr(model, "ghost_sector", lambda: sector)
        batches = self._brst_batches(model, monkeypatch)
        gauge, square = model.pipeline("brst", deterministic=True)
        assert model._fixes("L") and not model._fixes("brst")
        assert model._representatives("brst") is None is model._representatives("gauge")
        s = model.brst_operator()
        assert batches == [[g.name for g in sorted(s.components, key=lambda g: g.key)]]
        assert gauge.ok and not square.ok
        assert square.line() == CheckResult.from_residuals(
            "brst-nilpotency", nilpotency_residuals(s)).line()
        with pytest.raises(GvcError, match="not nilpotent"):
            model.extended_lagrangian()


    @staticmethod
    def _proved(monkeypatch):
        """The densities the orbit layer proves relabellings on, in order."""
        proved = []
        original = gvc.models.orbit_representatives

        def counted(density, pairs, maps, moved):
            proved.append(density)
            return original(density, pairs, maps, moved)

        monkeypatch.setattr(gvc.models, "orbit_representatives", counted)
        return proved

    def test_densities_installed_after_a_run_are_proved_again(self, monkeypatch):
        # master-equation proves every map on L and on S - L; an S or an L
        # installed afterwards that breaks the algebra maps is proved anew,
        # its table is taken whole, and its row is the unreduced route's
        def routes(install, pipeline):
            model, rows = _fresh("su2"), []
            for reduced in (True, False):
                if reduced:
                    assert model.pipeline("master-equation", deterministic=True)[0].ok
                else:
                    model = _fresh("su2")
                    monkeypatch.setattr(model, "_representatives", lambda check: None)
                density = install(model)
                del proved[:]
                rows.append(model.pipeline(pipeline, deterministic=True)[0])
                if reduced:
                    assert proved and all(p is density() for p in proved)
                    assert not model._fixes("L" if pipeline == "brst" else "S-L")
            assert not rows[0].ok and rows[0].line() == rows[1].line()
            return model

        def install_s(model):
            S = Lagrangian(model.extended_lagrangian().density
                           + _direction_strength_square(model, 0))
            monkeypatch.setattr(model, "extended_lagrangian", lambda: S)
            return model._s_minus_l

        def install_l(model):
            L = Lagrangian(model.ym_lagrangian().density + _direction_strength_square(model, 0))
            monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
            return lambda: L.density

        proved = self._proved(monkeypatch)
        routes(install_s, "master-equation")
        routes(install_l, "brst")

    def test_s_minus_l_of_the_proper_solution_is_the_paired_sum(self, monkeypatch):
        # S built here is L plus the paired sum P of s: S - L is P itself,
        # with no subtraction, and shares its proofs; an installed S
        # subtracts L and proves its own S - L once
        model = _fresh("su2")
        subtracted, proved = [], self._proved(monkeypatch)
        sub = Poly.__sub__
        monkeypatch.setattr(Poly, "__sub__", lambda p, q: subtracted.append(p) or sub(p, q))
        assert model.pipeline("master-equation", deterministic=True)[0].ok
        S, L, P = model.extended_lagrangian(), model.ym_lagrangian(), model._paired_sum("brst")
        assert model._s_minus_l() is P
        assert not any(p is S.density for p in subtracted)
        assert sorted(("P" if d is P else "L" if d is L.density else "?") for d in proved) == \
            ["L", "P"]
        installed = Lagrangian(S.density + model.ctx.zero())
        monkeypatch.setattr(model, "extended_lagrangian", lambda: installed)
        del proved[:]
        assert model.pipeline("master-equation", deterministic=True)[0].ok
        rest = model._s_minus_l()
        assert any(p is installed.density for p in subtracted)
        assert rest is not P and rest == P
        assert len(proved) == 1 and proved[0] is rest


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
