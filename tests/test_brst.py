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
                      paired_sum)
from gvc.grassmann import ExpansionLimitError, JetOrderError
from gvc.jets import iterated_derivative, total_derivative
from gvc.modelfile import parse_model, spec_model
from gvc.models import GaugeModel, Metric
from gvc.presets import preset_model, su2_algebra
from gvc.reporting import CheckResult
from gvc.superlie import signed_automorphisms

from util import (antifield_numbers, basis_orbits, even_part, field_generators, linear_jet_paths,
                  linear_jet_polys, make_context, mass_term_lagrangian, odd_part,
                  orbit_only_failure,
                  oracle_koszul_tate_apply, oracle_koszul_tate_residuals, random_poly,
                  random_vertical, shared_jet_cases, shared_jet_poly)

SL21_MODEL = Path(__file__).resolve().parent.parent / "bench" / "sl21.model"

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
        op = NoetherOperator(ctx, {"only": [(ctx.one(), su2.ghost[0], ())]})
        with pytest.raises(GvcError):
            noether_residuals(op, su2.generic_euler_lagrange())

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
        noe = noether_residuals(op, model.generic_euler_lagrange())
        assert noe == {g.name: res[g.name] for g in model.noether_antifield}

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
        s, res = brst_extend(abelian.gauge_operator(), {})
        assert all(p.is_zero() for p in res.values())

    def test_su2_quadratic_ghost_sector(self, su2):
        s, res = brst_extend(su2.gauge_operator(), su2.ghost_sector())
        assert all(p.is_zero() for p in res.values())

    def test_graded_ghost_sector(self, osp12):
        s, res = brst_extend(osp12.gauge_operator(), osp12.ghost_sector())
        assert all(p.is_zero() for p in res.values())

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
        s, _ = model.brst_operator()
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
        s, _ = request.getfixturevalue(name).brst_operator()
        for gen, comp in s.components.items():
            numbers = comp.ghost_numbers()
            assert numbers == {gen.ghost_number + 1}

    def test_square_vanishes_on_random_polynomials(self, su2):
        from gvc.jets import prolong_apply
        s, _ = su2.brst_operator()
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


class TestOrbitReduction:
    """Theta_S^2 on one generator per orbit of the direction swaps that
    fix S, against the full table of every generator."""

    @staticmethod
    def _routes(model, S):
        return (master_equation_check(S, model.pairs(), model.direction_swaps()),
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

    @pytest.mark.parametrize("name, swaps", [
        ("abelian", [(1, 0)]), ("osp12", []), ("su2", [(0, 2, 1, 3), (0, 1, 3, 2)]),
        ("su2_euclidean", [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)])])
    def test_swaps_of_directions_with_one_metric_sign(self, name, swaps, request):
        model = request.getfixturevalue(name)
        assert [tuple(perm) for _, perm, _ in model.direction_swaps()] == swaps
        for gen_map, perm, signs in model.direction_swaps():
            assert signs == {}
            for table in (model.field, model.antifield):
                for row in table:
                    for mu, gen in enumerate(row):
                        assert gen_map.get(gen, gen) is row[perm[mu]]
            assert len(gen_map) == 4 * model.algebra.dim

    @pytest.mark.parametrize("name", ["abelian", "su2", "osp12", "sl21", "su2_euclidean"])
    def test_same_verdicts_on_one_generator_per_orbit(self, name, request):
        model = request.getfixturevalue(name)
        reduced, full = self._routes(model, model.extended_lagrangian())
        assert reduced.ok and full.ok
        assert reduced.bracket_residuals() == full.bracket_residuals() == {}
        moved = sorted(full.derivation.components, key=lambda g: g.key)
        assert full.squared == tuple(g.name for g in moved)
        # the representatives: ghosts, their partners, and fields and
        # antifields of the first direction of each metric sign
        signs = model.metric.signs
        first = {signs.index(sign) for sign in signs}
        direction = {gen: mu for table in (model.field, model.antifield)
                     for row in table for mu, gen in enumerate(row)}
        assert reduced.squared == tuple(g.name for g in moved
                                        if direction.get(g, min(first)) in first)
        assert len(reduced.squared) < len(moved) or name == "osp12"

    @pytest.mark.parametrize("name", ["su2", "osp12", "sl21", "su2_euclidean"])
    def test_perturbed_rows_are_identical(self, name, request):
        model = request.getfixturevalue(name)
        rng = random.Random(1406)
        for _ in range(2):
            reduced, full = self._routes(model, _perturbed_solution(model, rng))
            assert not full.ok
            self._same_failure(reduced, full)

    def test_invariant_breaking_is_caught_on_representatives(self, su2, monkeypatch):
        # the mass term is fixed by every swap, so the proof holds, and it
        # breaks gauge invariance, so a representative fails and the rest
        # of the table follows
        S = Lagrangian(su2.extended_lagrangian().density + mass_term_lagrangian(su2).density)
        assert all(S.density.rename(*g) == S.density for g in su2.direction_swaps())
        squared = []
        original = gvc.brst.nilpotency_residuals

        def counted(theta, gens=None):
            squared.append(None if gens is None else len(gens))
            return original(theta, gens)

        monkeypatch.setattr(gvc.brst, "nilpotency_residuals", counted)
        reduced = master_equation_check(S, su2.pairs(), su2.direction_swaps())
        moved = len(reduced.derivation.components)
        assert squared == [18, moved - 18]
        monkeypatch.undo()
        full = master_equation_check(S, su2.pairs())
        assert not full.ok
        self._same_failure(reduced, full)

    def test_direction_three_term_forces_the_full_table(self, su2):
        # h_ij F^i_03 F^j_03 is gauge invariant, so S plus it still solves
        # the master equation; the swap (1 2) fixes it, (2 3) does not
        ctx = su2.ctx
        extra = ctx.zero()
        for i, j, h in su2.form_entries:
            extra += h * (su2.strength(i, 0, 3) * su2.strength(j, 0, 3))
        S = Lagrangian(su2.extended_lagrangian().density + extra)
        swap12, swap23 = su2.direction_swaps()
        assert S.density.rename(*swap12) == S.density
        assert S.density.rename(*swap23) != S.density
        reduced, full = self._routes(su2, S)
        assert reduced.ok and full.ok
        assert reduced.squared == full.squared

    def test_failure_off_the_representatives_is_caught(self):
        L, pairs, g = orbit_only_failure()
        assert L.density.rename(*g) != L.density
        rep = master_equation_check(L, pairs, [g])
        assert not rep.ok
        assert rep.squared == ("u1", "u2", "ebar1", "ebar2", "c", "cbar")
        assert [name for name, p in rep.derivation_residuals.items() if p.terms] == \
            ["u2", "ebar2"]
        assert set(rep.bracket_residuals()) == {"ubar2", "e2"}

    def test_map_breaking_the_pairing_is_refused(self):
        # S holds none of u1, u2, ebar1 and ebar2, so swapping them alone
        # fixes it; but the map sends u1 to u2 and keeps u1's partner
        # ubar1, and taken as a symmetry it would hide both failing rows
        L, pairs, (gen_map, perm, signs) = orbit_only_failure()
        half = {g: h for g, h in gen_map.items() if g.name in ("u1", "u2", "ebar1", "ebar2")}
        assert L.density.rename(half, perm, signs) == L.density
        rep = master_equation_check(L, pairs, [(half, perm, signs)])
        assert not rep.ok
        assert rep.squared == ("u1", "u2", "ebar1", "ebar2", "c", "cbar")

    def test_pipeline_passes_the_swaps(self, sl21, monkeypatch):
        reports = []
        original = gvc.models.master_equation_check

        def kept(L, pairs, symmetries=()):
            reports.append((symmetries, original(L, pairs, symmetries)))
            return reports[-1][1]

        monkeypatch.setattr(gvc.models, "master_equation_check", kept)
        (row,) = sl21.pipeline("master-equation", deterministic=True)
        assert row.ok
        ((symmetries, rep),) = reports
        assert symmetries == sl21.direction_swaps() + sl21.algebra_maps()
        assert len(rep.squared) == 24 < len(rep.derivation.components) == 80


def _direction_strength_square(model, r):
    """sum over lam < mu of g_lam g_mu F^r_lam,mu F^r_lam,mu, the strength
    density of algebra direction r alone.  On su2, c^r_ir = 0, so it is
    invariant under the gauge transformations along r but not along the
    other directions, and the algebra maps move it; the direction swaps
    fix it."""
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
        for (gen_map, perm, signs), (pi, s) in zip(maps, signed_automorphisms(model.algebra)):
            assert perm == list(range(model.metric.dim))
            for r in range(model.algebra.dim):
                for family in (model.field, model.antifield):
                    for mu, gen in enumerate(family[r]):
                        assert gen_map[gen] is family[pi[r]][mu]
                        assert signs.get(gen, 1) == s[r]
                for family in (model.ghost, model.noether_antifield):
                    assert gen_map[family[r]] is family[pi[r]]
                    assert signs.get(family[r], 1) == s[r]
            assert S.rename(gen_map, perm, signs) == S
            assert L.rename(gen_map, perm, signs) == L

    @pytest.mark.parametrize("name, squared", [
        ("abelian", 3), ("su2", 6), ("osp12", 18), ("sl21", 24)])
    def test_master_equation_on_one_direction_per_orbit(self, name, squared, request):
        model = request.getfixturevalue(name)
        S = model.extended_lagrangian()
        reduced = master_equation_check(S, model.pairs(),
                                        model.direction_swaps() + model.algebra_maps())
        full = master_equation_check(S, model.pairs())
        assert reduced.ok and full.ok and len(reduced.squared) == squared
        signs, first = model.metric.signs, self._first_of_orbit(model)
        algebra_index = {}
        for family in (model.field, model.antifield):
            for r, row in enumerate(family):
                for mu, gen in enumerate(row):
                    if signs.index(signs[mu]) == mu:
                        algebra_index[gen] = r
        for family in (model.ghost, model.noether_antifield):
            algebra_index.update((gen, r) for r, gen in enumerate(family))
        assert reduced.squared == tuple(g.name for g in sorted(
            full.derivation.components, key=lambda g: g.key)
            if g in algebra_index and first[algebra_index[g]])

    @pytest.mark.parametrize("name, rows", [
        ("abelian", ["cbar1"]), ("su2", ["cbar1"]), ("osp12", ["cbar1", "cbar2", "cbar4"]),
        ("sl21", ["cbar1", "cbar3", "cbar4", "cbar5"])])
    def test_rows_on_one_direction_per_orbit(self, name, rows, monkeypatch):
        model = (spec_model(parse_model(SL21_MODEL.read_text(encoding="utf-8")))
                 if name == "sl21" else preset_model(name))
        squared = []
        original = gvc.models.nilpotency_residuals

        def counted(theta, gens=None):
            squared.append(gens)
            return original(theta, gens)

        monkeypatch.setattr(gvc.models, "nilpotency_residuals", counted)
        assert list(model._noether_residuals()) == rows
        assert all(r.ok for r in model.pipeline("koszul-tate", deterministic=True))
        first = self._first_of_orbit(model)
        (gens,) = squared
        assert [g.name for g in gens] == [
            z.name for r in range(model.algebra.dim) if first[r]
            for z in model.antifield[r]] + rows

    @pytest.mark.parametrize("name", ["su2", "sl21"])
    def test_order_of_the_maps_changes_nothing(self, name, request):
        # the swaps before or after the algebra maps for the master
        # equation, and the algebra maps reversed for the rows: the same
        # representatives and the same reduced tables
        model = request.getfixturevalue(name)
        pairs, swaps, maps = model.pairs(), model.direction_swaps(), model.algebra_maps()
        assert len(swaps) == len(maps) == 2
        S = model.extended_lagrangian()
        theta = master_derivation(S, pairs).components
        orders = (swaps + maps, maps + swaps)
        reps = [orbit_representatives(S.density, pairs, order, theta) for order in orders]
        reports = [master_equation_check(S, pairs, order) for order in orders]
        assert reps[0] == reps[1] and len(reps[0]) < len(theta)
        assert reports[0].squared == tuple(g.name for g in sorted(reps[0], key=lambda g: g.key))
        assert list(reports[0].derivation_residuals.items()) == \
            list(reports[1].derivation_residuals.items())
        kt = model.koszul_tate()
        rows = [orbit_representatives(_rows_density(model, kt), pairs, order, kt.components)
                for order in (maps, maps[::-1])]
        assert rows[0] == rows[1] == model._row_representatives()
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
        # the mass term is fixed by every swap and every algebra map, and
        # it breaks gauge invariance: a representative fails, the rest of
        # each table follows, and the tables are the unreduced ones
        model = preset_model("su2")
        S = Lagrangian(model.extended_lagrangian().density + mass_term_lagrangian(model).density)
        symmetries = model.direction_swaps() + model.algebra_maps()
        squared = []
        original = gvc.brst.nilpotency_residuals

        def counted(theta, gens=None):
            squared.append(len(gens))
            return original(theta, gens)

        monkeypatch.setattr(gvc.brst, "nilpotency_residuals", counted)
        reduced = master_equation_check(S, model.pairs(), symmetries)
        moved = len(reduced.derivation.components)
        assert squared == [6, moved - 6]
        monkeypatch.undo()
        full = master_equation_check(S, model.pairs())
        assert not full.ok
        TestOrbitReduction._same_failure(reduced, full)
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
        # the direction-1 strength square keeps the swaps and moves under
        # the algebra maps; it spoils the Noether rows of directions 2 and
        # 3 only, so the representative cbar1 alone would hide them
        model = preset_model("su2")
        extra = _direction_strength_square(model, 0)
        S = Lagrangian(model.extended_lagrangian().density + extra)
        assert all(S.density.rename(*g) == S.density for g in model.direction_swaps())
        reduced = master_equation_check(S, model.pairs(),
                                        model.direction_swaps() + model.algebra_maps())
        full = master_equation_check(S, model.pairs())
        assert not full.ok
        TestOrbitReduction._same_failure(reduced, full)
        L = Lagrangian(model.ym_lagrangian().density + extra)
        monkeypatch.setattr(model, "ym_lagrangian", lambda validate=True: L)
        kt = model.koszul_tate()
        assert orbit_representatives(L.density, model.pairs(), model.algebra_maps(),
                                     kt.components) is None
        assert model._row_representatives() is None
        want = noether_residuals(model.noether_operator(), euler_lagrange(L))
        assert want["cbar1"].is_zero() and not want["cbar2"].is_zero()
        assert list(model._noether_residuals().items()) == list(want.items())
        (row,) = model.pipeline("koszul-tate", deterministic=True)
        assert not row.ok
        assert row.line() == CheckResult.from_residuals(
            "koszul-tate", nilpotency_residuals(kt)).line()

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
        assert model._row_representatives() is None
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
        assert orbit_representatives(L.density, pairs, [({}, [0], signs)], {}) == set()
        del signs[L.ctx.generator("u1")]
        assert L.density.rename({}, [0], signs) == L.density
        assert orbit_representatives(L.density, pairs, [({}, [0], signs)], {}) is None


class TestProperSolution:
    def test_abelian_display(self, abelian):
        ctx = abelian.ctx
        s, _ = abelian.brst_operator()
        got = proper_solution(abelian.ym_lagrangian(), s, abelian.pairs())
        want = abelian.ym_lagrangian().density
        for mu in range(2):
            want = want + ctx.var(abelian.ghost[0], mu) \
                * ctx.var(abelian.antifield[0][mu])
        assert got.density == want

    def test_su2_display(self, su2):
        ctx = su2.ctx
        alg = su2.algebra
        s, _ = su2.brst_operator()
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
        s, _ = osp12.brst_operator()
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
