"""Turnkey Yang-Mills models over a Lie (super)algebra.

Builds the generator roster (gauge fields, ghosts, antifields, degree-two
antifields and gauge parameters, each field with the parity of its algebra
direction), the one field-antifield pairing, the strength polynomials, the
quadratic Lagrangian, two routes to the field equations (compared on one
field per orbit), the Noether rows, the Koszul-Tate, gauge and BRST
derivations, the extended density solving the master equation, and the
invariance conditions that single the Lagrangian out.

The invariance conditions and the gauge Lie derivatives are taken in the
Utiyama split coordinates: phi rewrites each first jet of a field by the
strength and symmetric coordinates (Fs, Ss), and the model's own
Lagrangian becomes 1/4 h g g Fs Fs.  A Lie derivative is first taken there,
by the derivation conjugated through phi; a nonzero or failed result is
taken again in jets, whose Form is the row.
"""

import time
from fractions import Fraction

from .grassmann import (DEFAULT_MAX_JET_ORDER, DEFAULT_TERM_LIMIT, Context, EVEN, ODD,
                        ExpansionLimitError, GvcError, Poly, accumulate, add_product)
from .superlie import check_invariant_form, check_structure, signed_automorphisms
from .jets import ContactDerivation, add_total_derivative, prolong_apply
from .bicomplex import (
    EulerLagrange,
    Form,
    Lagrangian,
    conservation_residual,
    euler_lagrange,
    lepage_equivalent,
    noether_current,
    omega_pair,
    superpotential_residual,
    volume,
)
from .brst import (
    NoetherOperator,
    brst_extend,
    koszul_tate,
    master_equation_check,
    nilpotency_residuals,
    noether_residuals,
    on_representatives,
    orbit_representatives,
    orbit_roots,
    paired_sum,
    proper_solution,
)
from .reporting import CheckResult, Report


class Metric:
    """Constant diagonal metric with entries +-1, so its inverse is itself
    and the volume factor is one."""

    __slots__ = ("signs",)

    def __init__(self, signs):
        signs = tuple(int(s) for s in signs)
        if not signs or any(s not in (1, -1) for s in signs):
            raise GvcError("metric entries must be +1 or -1")
        self.signs = signs

    @classmethod
    def from_signature(cls, text):
        table = {"+": 1, "-": -1}
        try:
            return cls(tuple(table[ch] for ch in text.strip()))
        except KeyError:
            raise GvcError("metric signature must be a string of + and -")

    @property
    def dim(self):
        return len(self.signs)

    def signature(self):
        return "".join("+" if s == 1 else "-" for s in self.signs)


def model_header(parities, signature):
    """Report header of a model: algebra flavour, dimension and metric."""
    flavor = "even" if all(p == EVEN for p in parities) else "graded"
    return "%s dim %d metric %s" % (flavor, len(signature), signature)


def _validation_row(check, rep):
    return CheckResult(check, rep.ok, len(rep.violations),
                       "-" if rep.ok else rep.describe())


def validation_parts(algebra, structure, invariant_form):
    """The validate-algebra checks as (check name, fn) parts; `structure`
    and `invariant_form` return the algebra's two validation reports.
    Needs no model, so a broken algebra still gets one row per check."""
    parts = [("algebra-structure", lambda n: _validation_row(n, structure()))]
    if algebra.has_form:
        parts.append(("invariant-form", lambda n: _validation_row(n, invariant_form())))
    return parts


def run_parts(parts, deterministic=False):
    """Run (check name, fn) parts in order; a GvcError other than the
    expansion limit becomes a failed row."""
    results = []
    for check_name, fn in parts:
        t0 = time.monotonic()
        try:
            entry = fn(check_name)
        except ExpansionLimitError:
            raise
        except GvcError as exc:
            entry = CheckResult(check_name, False, witness=str(exc))
        entry.seconds = None if deterministic else time.monotonic() - t0
        results.append(entry)
    return results


def _add(out, p, c=1):
    """out += c * p in place for a polynomial p and a nonzero int or
    Fraction c; returns `out`, whose denominator `finish` reduces."""
    num, den = (c, 1) if type(c) is int else (c.numerator, c.denominator)
    return accumulate(out, ((m, num * n) for m, n in p.terms.items()), den * p.den)


def _held(m, gens):
    """The generators of `gens` with a jet among the monomial m's factors,
    once per factor."""
    ev, od = m
    return [v.gen for v, _ in ev if v.gen in gens] + [v.gen for v in od if v.gen in gens]


def _carrying(p, gens):
    """The terms of p with a factor that is a jet of one of `gens`."""
    return Poly(p.ctx, {m: c for m, c in p.terms.items() if _held(m, gens)}, p.den).finish()


def _once(store, key, build):
    """store[key], built by `build()` on first use."""
    if key not in store:
        store[key] = build()
    return store[key]


class GaugeModel:
    """A Yang-Mills system over a validated Lie (super)algebra.

    The generator roster, split coordinates included, and the field-antifield
    pairing are fixed at construction, which ends by freezing the context,
    and so are the algebra's graded constants and form entries.  Each derived
    object that several checks use (the validation reports, the strength and
    momentum per direction pair, the Lagrangian, the field equations, which
    Theta_S reuses, the Noether rows and residuals, the gauge, parameter and
    BRST operators and the BRST square, the parts of the gauge and parameter
    derivations by algebra direction and their Lie derivatives, the Lepage
    form, the algebra maps, the orbit layer's proofs, each once per
    density, S and S - L, and phi(L) with each first jet's image) is built
    on first use and kept.  What L, S, s or a gauge derivation yields (the
    field equations, Koszul-Tate, the Noether residuals, s itself, the
    parts and their Lie derivatives, the Lepage form, S itself, the BRST
    square, the orbit layer's proofs, S - L and phi(L)) is kept with its
    source, so one installed later is built, proved and split anew.
    """

    # Checks whose formulas are proved for even algebras only; a model
    # with an odd direction runs its pipelines without them.
    EVEN_ONLY_CHECKS = ("parameter-symmetry", "current-conservation", "superpotential",
                        "utiyama-contraction")

    def __init__(self, algebra, metric, max_jet_order=DEFAULT_MAX_JET_ORDER,
                 term_limit=DEFAULT_TERM_LIMIT):
        self.structure = check_structure(algebra)
        if not self.structure.ok:
            raise GvcError("algebra fails validation: %s" % self.structure.describe())
        self.algebra = algebra
        self.metric = metric
        self.all_even = all(p == EVEN for p in algebra.parities)
        ctx = Context(metric.dim, max_jet_order=max_jet_order, term_limit=term_limit)
        self.ctx = ctx
        m, n = algebra.dim, metric.dim
        self.constants = algebra.graded_constants()
        self.form_entries = algebra.graded_form()
        # per algebra index r, the entries holding r where a builder looks
        self._constants_by_r = [[e for e in self.constants if e[0] == r] for r in range(m)]
        self._constants_by_i = [[e for e in self.constants if e[1] == r] for r in range(m)]
        self._form_by_i = [[e for e in self.form_entries if e[0] == r] for r in range(m)]
        kinds = ["even-field" if p == EVEN else "odd-field" for p in algebra.parities]
        self.field = [[ctx.add_generator(
            "a%d_%d" % (r + 1, mu), kinds[r], algebra.parities[r],
        ) for mu in range(n)] for r in range(m)]
        self.ghost = [ctx.add_generator(
            "c%d" % (r + 1), "ghost", (algebra.parities[r] + 1) % 2,
            ghost_number=1, antifield_number=-1,
        ) for r in range(m)]
        self.antifield = [[ctx.add_generator(
            "abar%d_%d" % (r + 1, mu), "antifield", (algebra.parities[r] + 1) % 2,
            ghost_number=-1, antifield_number=1,
        ) for mu in range(n)] for r in range(m)]
        self.noether_antifield = [ctx.add_generator(
            "cbar%d" % (r + 1), "noether-antifield", algebra.parities[r],
            ghost_number=-2, antifield_number=2,
        ) for r in range(m)]
        self.parameter = [ctx.add_generator("xi%d" % (r + 1), kinds[r], algebra.parities[r])
                          for r in range(m)]
        # strength and symmetric split coordinates of the invariance conditions
        # and of the gauge Lie derivatives; _unsplit names each one's preimage
        self.aux_strength = {}
        self.aux_sym = {}
        self._unsplit = {}
        for r in range(m):
            for lam in range(n):
                for mu in range(lam, n):
                    if mu > lam:
                        gen = self.aux_strength[(r, lam, mu)] = ctx.add_generator(
                            "Fs%d_%d%d" % (r + 1, lam, mu), kinds[r], algebra.parities[r])
                        self._unsplit[gen] = (True, r, lam, mu)
                    gen = self.aux_sym[(r, lam, mu)] = ctx.add_generator(
                        "Ss%d_%d%d" % (r + 1, lam, mu), kinds[r], algebra.parities[r])
                    self._unsplit[gen] = (False, r, lam, mu)
        self._field_at = {gen: (r, mu) for r in range(m) for mu, gen in enumerate(self.field[r])}
        # each field to its antifield, each ghost to its degree-two antifield
        self._pairs = {self.field[r][mu]: self.antifield[r][mu]
                       for r in range(m) for mu in range(n)}
        self._pairs.update(zip(self.ghost, self.noether_antifield))
        self._memo = {}
        ctx.freeze()

    def _once(self, key, build):
        return _once(self._memo, key, build)

    def algebra_maps(self):
        """The algebra's signed automorphisms e_r -> s_r e_pi(r), found on first
        use, as relabellings (gen_map, signs) moving the field, antifield,
        ghost, degree-two antifield and parameter of r to s_r times pi(r)'s."""
        return self._once("algebra-maps", self._algebra_relabellings)

    def _algebra_relabellings(self):
        m = self.algebra.dim
        by_r = [self.field[r] + self.antifield[r]
                + [self.ghost[r], self.noether_antifield[r], self.parameter[r]]
                for r in range(m)]
        return [({gen: image for r in range(m) for gen, image in zip(by_r[r], by_r[pi[r]])},
                 {gen: -1 for r in range(m) if signs[r] < 0 for gen in by_r[r]})
                for pi, signs in signed_automorphisms(self.algebra)]

    def form_report(self):
        """Validation report of the invariant form."""
        return self._once("form-report", lambda: check_invariant_form(self.algebra))

    # -- strength and splitting -----------------------------------------

    def _quadratic_twist(self, r, lam, mu):
        """The algebra-quadratic part of the split, c^r_ij a^i_lam a^j_mu."""
        return self._once(("twist", r, lam, mu), lambda: self._twist_sum(r, lam, mu))

    def _twist_sum(self, r, lam, mu):
        ctx = self.ctx
        out = ctx.zero()
        for _, i, j, c in self._constants_by_r[r]:
            _add(out, ctx.product(c, (ctx.jet(self.field[i][lam]),
                                      ctx.jet(self.field[j][mu]))))
        return out.finish()

    def strength(self, r, lam, mu):
        """Antisymmetric half of the split first jets (the curvature), built for
        lam < mu: graded antisymmetric constants give F_mu,lam = -F_lam,mu, F_lam,lam = 0."""
        ctx = self.ctx
        return self._once(("strength", r, lam, mu), lambda: (
            ctx.var(self.field[r][mu], lam) - ctx.var(self.field[r][lam], mu)
            + self._quadratic_twist(r, lam, mu) if lam < mu
            else -self.strength(r, mu, lam) if lam > mu else ctx.zero()))

    # -- Lagrangians ------------------------------------------------------

    def ym_lagrangian(self, validate=True):
        """Quadratic strength Lagrangian for the stored invariant form."""
        if not self.algebra.has_form:
            raise GvcError("the quadratic Lagrangian needs an invariant form")
        if validate and not self.form_report().ok:
            raise GvcError("invariant form fails validation: %s"
                           % self.form_report().describe())
        return self._once("lagrangian", lambda: Lagrangian(self._strength_density(self.strength)))

    def _strength_density(self, strength):
        """1/4 h_ij g_lam g_beta F^i_lam,beta F^j_lam,beta over lam != beta,
        with F^r_lam,beta = strength(r, lam, beta) asked for lam < beta.
        F is antisymmetric in (lam, beta), so each form entry is h_ij/2
        times one table summed over lam < beta with sign g_lam g_beta."""
        ctx = self.ctx
        n = self.metric.dim
        signs = self.metric.signs
        density = ctx.zero()
        for i, j, h in self.form_entries:
            table = ctx.zero()
            for lam in range(n):
                for beta in range(lam + 1, n):
                    add_product(table, strength(i, lam, beta),
                                strength(j, lam, beta), signs[lam] * signs[beta])
            _add(density, table, Fraction(h) / 2)
        return density.finish()

    # -- field equations ----------------------------------------------------

    def momentum(self, r, mu, kappa):
        """dL/d(jet) in closed form: the metric-contracted strength, antisymmetric like it."""
        return self._once(("momentum", r, mu, kappa), lambda: (
            self._momentum(r, mu, kappa) if mu < kappa
            else -self.momentum(r, kappa, mu) if mu > kappa else self.ctx.zero()))

    def _momentum(self, r, mu, kappa):
        out = self.ctx.zero()
        sign = self.metric.signs[mu] * self.metric.signs[kappa]
        for _, j, h in self._form_by_i[r]:
            add_product(out, self.ctx.scalar(h), self.strength(j, mu, kappa), sign)
        return out.finish()

    def closed_euler_lagrange(self, fields=None):
        """Field equations assembled from the closed expression: total
        derivative of the momentum plus the algebra-twisted momentum,
        each component summed in one table; on `fields` alone when given."""
        ctx = self.ctx
        n = self.metric.dim
        comps = {}
        for r, row in enumerate(self.field):
            for mu in (mu for mu in range(n) if fields is None or row[mu] in fields):
                acc = ctx.zero()
                for kappa in range(n):
                    pi = self.momentum(r, mu, kappa)
                    if not pi.is_zero():
                        add_total_derivative(acc, kappa, pi)
                    for i, _, fld, c in self._constants_by_i[r]:
                        pii = self.momentum(i, mu, kappa)
                        if not pii.is_zero():
                            add_product(acc, c * ctx.var(self.field[fld][kappa]), pii)
                if acc.terms:
                    comps[row[mu]] = acc.finish()
        return EulerLagrange(ctx, comps)

    def generic_euler_lagrange(self):
        L = self.ym_lagrangian()
        return self._once(("euler-lagrange", L), lambda: euler_lagrange(L))

    # -- Noether structure ----------------------------------------------------

    def noether_operator(self):
        """Rows annihilating the field equations: the algebra-twisted
        divergence, one row per algebra direction."""
        return self._once("noether-operator", self._noether_rows)

    def _noether_rows(self):
        ctx = self.ctx
        m, n = self.algebra.dim, self.metric.dim
        rows = {j: [] for j in range(m)}
        for r, j, i, c in self.constants:
            for lam in range(n):
                rows[j].append((c * ctx.var(self.field[i][lam]), self.field[r][lam], ()))
        for j in range(m):
            for lam in range(n):
                rows[j].append((ctx.one(), self.field[j][lam], (lam,)))
        return NoetherOperator(ctx, {self.noether_antifield[j].name: rows[j]
                                     for j in range(m)})

    def _noether_residuals(self):
        return self._once(("noether-residuals", self.ym_lagrangian()), lambda: on_representatives(
            lambda gens: noether_residuals(self.noether_operator(),
                                           self.generic_euler_lagrange(),
                                           {g.name for g in gens}),
            self.noether_antifield, self._representatives("koszul-tate")))

    def koszul_tate(self):
        return self._once(("koszul-tate", self.ym_lagrangian()), lambda: koszul_tate(
            self.noether_operator(), self.generic_euler_lagrange(), self._pairs))

    # -- orbit proofs -------------------------------------------------------------

    def _source(self, key):
        """What the density of a proof key is kept with: L for "L", S for
        "S-L", else the derivation of the `_paired_sum` of `key`."""
        return {"L": self.ym_lagrangian, "S-L": self.extended_lagrangian,
                "brst": self.brst_operator, "parameter": self.parameter_symmetry,
                "rows": self.koszul_tate}[key]()

    def _paired_sum(self, key):
        """The paired sum of the BRST operator ("brst") or the parameter symmetry
        against the antifields, or of the Noether rows against the ghosts,
        kept with that derivation."""
        theta = self._source(key)

        def build():
            if key == "rows":
                ghosts = dict(zip(self.noether_antifield, self.ghost))
                return paired_sum(self.ctx, {z: theta.components[z] for z in ghosts
                                             if z in theta.components}, ghosts)
            return paired_sum(self.ctx, theta.components, self._pairs)

        return self._once(("paired-sum", theta), build)

    def _s_minus_l(self):
        """S - L of the extended density S, kept with S for its proof and
        Theta_S: the paired sum of s itself when S is the proper solution
        built here, L plus that sum; an installed S subtracts L."""
        S = self.extended_lagrangian()
        return self._once(("S-L", S), lambda: (
            self._paired_sum("brst") if self._proper(S)
            else S.density - self.ym_lagrangian().density))

    def _fixes(self, key):
        """Whether each algebra map keeps the pairing and fixes the density
        `key` (L, S - L or a `_paired_sum`), once per model and density
        (`_source`); S - L of the proper solution built here is s's paired
        sum and shares its proof."""
        source = self._source(key)

        def prove():
            if key == "S-L" and self._proper(source):
                return self._fixes("brst")
            density = (source.density if key == "L" else
                       self._s_minus_l() if key == "S-L" else self._paired_sum(key))
            return orbit_representatives(density, self._pairs, self.algebra_maps(),
                                         ()) is not None

        return self._once(("fixes", source), prove)

    def _representatives(self, check):
        """One generator per orbit of those `check` evaluates under the
        algebra maps, once each map fixes each density named, kept with
        those densities' sources; None without a map, if a proof fails or
        if a symmetry check's residuals do not split by source.  Keeping the
        pairing, a map fixing L commutes with the field equations (the
        closed route's too: it keeps c, h and the metric), one fixing a
        derivation's paired sum with it; s holds no L, and its gauge part
        pairs with other partners."""
        fields = [g for row in self.field for g in row]
        antifields = [g for row in self.antifield for g in row]
        gens, keys = {
            "euler-lagrange": (fields, ("L",)),
            "master-equation": (fields + antifields + self.ghost + self.noether_antifield,
                                ("L", "S-L")),
            "koszul-tate": (antifields + self.noether_antifield, ("L", "rows")),
            "parameter": (self.parameter, ("L", "parameter")),
            "gauge": (self.ghost, ("L", "brst")),
            "brst": (fields + self.ghost, ("brst",))}[check]
        maps = self.algebra_maps()
        if not maps:
            return None

        def splits():
            theta, sources = self._symmetry(check)
            held, L = set(sources), self.ym_lagrangian().density
            return held.isdisjoint(v.gen for v in L.variables()) and all(
                len(_held(m, held)) == 1 for p in theta.components.values() for m in p.terms)

        def prove():
            if (check not in ("parameter", "gauge") or splits()) \
                    and all(self._fixes(key) for key in keys):
                return orbit_roots(maps, gens)
            return None

        return self._once(("representatives", check) + tuple(map(self._source, keys)), prove)

    # -- symmetries -------------------------------------------------------------

    def _gauge_components(self, sources):
        """Shared shape of the gauge transformation: the derivative of the
        source plus the algebra twist, for ghosts or parameter fields."""
        ctx = self.ctx
        n = self.metric.dim
        comps = {self.field[r][mu]: ctx.var(sources[r], mu)
                 for r in range(self.algebra.dim) for mu in range(n)}
        for r, j, i, c in self.constants:
            for mu in range(n):
                _add(comps[self.field[r][mu]],
                     ctx.product(-c, (ctx.jet(sources[j]), ctx.jet(self.field[i][mu]))))
        return {gen: comp.finish() for gen, comp in comps.items()}

    def gauge_operator(self):
        """Odd gauge symmetry with ghosts in the parameter slot."""
        return self._once("gauge-operator", lambda: ContactDerivation(
            self.ctx, self._gauge_components(self.ghost), ODD))

    def parameter_symmetry(self):
        """Even gauge symmetry with parameter fields in the ghosts' slot."""
        return self._once("parameter-symmetry", lambda: ContactDerivation(
            self.ctx, self._gauge_components(self.parameter), EVEN))

    def _symmetry(self, kind):
        """The gauge derivation of `kind`, "gauge" (ghosts in the source
        slot) or "parameter", and its sources, one per algebra direction."""
        if kind == "gauge":
            return self.gauge_operator(), self.ghost
        return self.parameter_symmetry(), self.parameter

    def _part(self, kind, directions):
        """The part of the derivation of `kind` whose terms carry the source
        of one of `directions`, kept; all of it for every direction.  Each
        term of the model's components carries one source jet, sources[q]
        of direction q, so the derivation is the sum of the parts of a
        partition of the directions; the part of q alone moves a^q_mu by
        D_mu sources[q] and a^r_mu by -c^r_qi sources[q] a^i_mu."""
        theta, sources = self._symmetry(kind)

        def build():
            if len(directions) == len(sources):
                return theta
            batch = {sources[q] for q in directions}
            return ContactDerivation(self.ctx, {gen: _carrying(comp, batch) for gen, comp
                                                in theta.components.items()}, theta.parity)

        return self._once(("part", theta, directions), build)

    def _by_direction(self, kind, residual):
        """The residual of the derivation of `kind`, where residual(directions)
        is the Form of its part with those directions' sources (`_part`).
        With `_representatives`, each term of a residual carries one source
        jet, so the parts of two directions share no term, and a map that
        fixes L and the derivation's paired sum sends q's part and residual
        onto pi(q)'s (U and W, built from c and h, follow).  So the part of
        one direction per orbit goes first (`on_representatives`), and the
        table, split by source, is summed back into one Form; otherwise the
        whole derivation's is taken at once."""
        sources = self._symmetry(kind)[1]
        reps = self._representatives(kind)
        if reps is None:
            return residual(tuple(range(len(sources))))
        index = {src: q for q, src in enumerate(sources)}

        def evaluate(gens):
            form = residual(tuple(index[g] for g in gens))
            return {g.name: Form(self.ctx, {w: _carrying(f, (g,)) for w, f in form.terms.items()})
                    for g in gens}

        return sum(on_representatives(evaluate, sources, reps).values(), Form.zero(self.ctx))

    def lie_derivative(self, theta):
        """L_theta L of the Lagrangian, a density.  Zero when the split
        route (`_split_lie`) gives zero; otherwise, and if that route does
        not apply or raises, the prolonged derivation applied to L's
        polynomial, times the volume form, so a failure reads as in jets."""
        L = self.ym_lagrangian()
        try:
            split = self._split_lie(theta, L)
        except GvcError:
            split = None
        if split is not None and split.is_zero():
            return Form.zero(self.ctx)
        return volume(self.ctx).times_poly(prolong_apply(theta, L.density))

    def _lie(self, kind, directions):
        """L_theta L for the part of `directions` (`_part`), kept with the
        part and L: a parameter part's is also its current's precondition."""
        part = self._part(kind, directions)
        return self._once(("lie", part, self.ym_lagrangian()),
                          lambda: self.lie_derivative(part))

    def parameter_lie_derivative(self):
        """L_theta L for the parameter symmetry and the Lagrangian."""
        return self._whole_lie("parameter")

    def _whole_lie(self, kind):
        """L_theta L of the whole derivation of `kind`, kept with it and L;
        the gauge operator's is s's on L, which holds fields alone."""
        return self._once(("whole-lie", self._symmetry(kind)[0], self.ym_lagrangian()),
                          lambda: self._by_direction(kind, lambda qs: self._lie(kind, qs)))

    def ghost_sector(self):
        """Quadratic ghost components completing the gauge operator."""
        ctx = self.ctx
        gamma = {}
        for r, i, j, c in self.constants:
            sign = Fraction(1, 2) if self.algebra.parities[i] == ODD else Fraction(-1, 2)
            _add(gamma.setdefault(self.ghost[r], ctx.zero()),
                 ctx.product(sign * c, (ctx.jet(self.ghost[i]), ctx.jet(self.ghost[j]))))
        return {gen: acc.finish() for gen, acc in gamma.items() if acc.terms}

    def brst_operator(self):
        """The BRST derivation s: the gauge operator and the ghost sector,
        kept with the gauge operator."""
        u = self.gauge_operator()
        return self._once(("brst-operator", u), lambda: brst_extend(u, self.ghost_sector()))

    def _brst_residuals(self):
        """s^2 on the generators s moves, on one per orbit first."""
        return self._once(("brst-residuals", self.brst_operator()), lambda: on_representatives(
            lambda gens: nilpotency_residuals(self.brst_operator(), gens),
            self.brst_operator().components, self._representatives("brst")))

    def pairs(self):
        """Field-antifield pairing of the extended algebra: each field to
        its antifield and each ghost to its degree-two antifield."""
        return self._pairs

    def extended_lagrangian(self):
        L, s = self.ym_lagrangian(), self.brst_operator()
        return self._once(("extended-lagrangian", L, s), lambda: proper_solution(
            L, s, self._pairs, self._brst_residuals(), self._paired_sum("brst")))

    def _proper(self, S):
        """Whether S is the proper solution built here for L and s."""
        return S is self._memo.get(("extended-lagrangian", self.ym_lagrangian(),
                                    self.brst_operator()))

    # -- currents --------------------------------------------------------------

    def lepage_form(self):
        """The Lepage form Xi_L of the Lagrangian, which every current
        contracts."""
        L = self.ym_lagrangian()
        return self._once(("lepage-form", L), lambda: lepage_equivalent(L))

    def _chosen(self, directions):
        """`directions`, or every algebra direction when None."""
        return tuple(range(self.algebra.dim)) if directions is None else directions

    def current(self, directions=None):
        """The Noether current -h0(theta | Xi_L) of the parameter symmetry's
        part with the sources of `directions` (all when None), whose own
        L_theta L is its exact-symmetry precondition."""
        directions = self._chosen(directions)
        return noether_current(self._part("parameter", directions), self.ym_lagrangian(),
                               lie=self._lie("parameter", directions),
                               lepage=self.lepage_form())

    def superpotential(self, directions=None):
        """The codegree-two form whose horizontal differential carries the
        off-shell part of the current, or of the part of `directions`."""
        ctx = self.ctx
        n = self.metric.dim
        table = {}
        for nu in range(n):
            for mu in range(nu + 1, n):
                # omega_pair is one word with coefficient +-1
                ((word, sign),) = omega_pair(ctx, nu, mu).terms.items()
                comp = table[word] = ctx.zero()
                for r in self._chosen(directions):
                    add_product(comp, ctx.var(self.parameter[r]), self.momentum(r, nu, mu),
                                sign.constant_term())
        return Form(ctx, {w: comp.finish() for w, comp in table.items()})

    def superpotential_rows(self, directions=None):
        ctx = self.ctx
        rows = []
        for r in self._chosen(directions):
            for mu in range(self.metric.dim):
                rows.append((ctx.var(self.parameter[r]), self.field[r][mu], (), mu))
        return rows

    # -- invariance conditions -------------------------------------------------

    def _jet_image(self, v):
        """phi(v) for the first jet v = a^r_mu;lam, kept: the mean of the
        two split halves for the canonical index order lam <= mu; the
        swapped order needs the quadratic twist restored, since the
        symmetric half is symmetric only up to it."""
        def build():
            (r, mu), (lam,) = self._field_at[v.gen], v.index
            key, ctx = (r, min(lam, mu), max(lam, mu)), self.ctx
            (sym, _), = ctx.var(self.aux_sym[key]).terms.items()
            halves = {sym: 1}
            if lam != mu:
                (fs, _), = ctx.var(self.aux_strength[key]).terms.items()
                halves[fs] = 1 if lam < mu else -1
            repl = Poly(ctx, halves, 2)
            if lam > mu:
                _add(repl, self._quadratic_twist(r, mu, lam))
            return repl.finish()

        return self._once(("phi", v), build)

    def split_coordinates(self, density):
        """Rewrite first jets in the strength/symmetric coordinates: phi,
        which sends each first jet of a field to `_jet_image` and keeps
        every other variable."""
        return density.substitute({v: self._jet_image(v) for v in density.variables()
                                   if len(v.index) == 1 and v.gen in self._field_at})

    def _split(self, L):
        """phi(L) for a first-order density L, kept with L.  phi is a ring
        map with phi(F^r_lam,mu) = Fs^r_lam,mu, so the model's own strength
        density is built factor-wise from the strength coordinates; any
        other L is rewritten by `split_coordinates`."""
        def build():
            if L is self._memo.get("lagrangian"):
                var, Fs = self.ctx.var, self.aux_strength
                return self._strength_density(lambda r, lam, mu: var(Fs[(r, lam, mu)]))
            if L.density.max_jet_order() > 1:
                raise GvcError("invariance conditions apply to first-order densities")
            return self.split_coordinates(L.density)

        return self._once(("split", L), build)

    def _preimage(self, gen):
        """phi^-1 of a split coordinate: the strength, or the symmetric half
        a^r_mu;lam + a^r_lam;mu - c^r_ij a^i_lam a^j_mu."""
        strength, r, lam, mu = self._unsplit[gen]
        if strength:
            return self.strength(r, lam, mu)
        ctx = self.ctx
        return (ctx.var(self.field[r][mu], lam) + ctx.var(self.field[r][lam], mu)
                - self._quadratic_twist(r, lam, mu))

    def _split_lie(self, theta, L):
        """theta~(phi(L)), where theta~ = phi theta phi^-1 is the derivation
        conjugated into the split coordinates, taken on the order-0 split
        and moved generators phi(L) holds: its value on y is
        phi(theta(phi^-1(y))).  phi is an even ring map, invertible on the
        densities free of split coordinates, so this is phi(theta(L)), zero
        exactly when theta(L) is.  None where that does not hold: L or a
        component of theta holds a split coordinate, or phi(L) a jet of
        order one or more of a generator theta~ moves."""
        image, moved, values = self._split(L), theta.components, {}
        held = list(moved.values()) + ([] if L is self._memo.get("lagrangian") else [L.density])
        if any(v.gen in self._unsplit for p in held for v in p.variables()):
            return None
        for v in image.variables():
            gen = v.gen
            if gen in self._unsplit or gen in moved:
                if v.index:
                    return None
                values[gen] = self.split_coordinates(prolong_apply(theta, self._preimage(gen))
                                                     if gen in self._unsplit else moved[gen])
        return prolong_apply(ContactDerivation(self.ctx, values, theta.parity), image)

    def invariance_conditions(self, L=None):
        """Residual tables for the three gauge-invariance conditions of a
        first-order density, in the split coordinates (`_split`): its
        partials along the symmetric halves, along the undifferentiated
        fields, and the contraction, all zero for an invariant density.

        The contraction row of direction q is, with left partials,
            sum over r, p and lam < mu of
            (-1)^{|p||q|} c^r_pq F^p_lam,mu dL/dF^r_lam,mu,
        the coefficient of xi^q in the variation of L along a constant
        parameter xi, under which F^r moves by c^r_pq F^p xi^q: bringing
        xi^q left past F^p gives the sign, which is -1 only for odd p and
        odd q.  Every model computes all three tables; `EVEN_ONLY_CHECKS`
        alone keeps the contraction row out of graded reports.
        """
        if L is None:
            L = self.ym_lagrangian()
        ctx = self.ctx
        partial = dict(self._split(L).partials())

        def d(gen):
            return partial.get(ctx.jet(gen), ctx.zero())

        m, n = self.algebra.dim, self.metric.dim
        parities = self.algebra.parities
        sym_res = {"S%d_%d%d" % (r + 1, lam, mu): d(gen)
                   for (r, lam, mu), gen in sorted(self.aux_sym.items())}
        field_res = {"a%d_%d" % (r + 1, mu): d(self.field[r][mu])
                     for r in range(m) for mu in range(n)}
        contraction_res = [ctx.zero() for _ in range(m)]
        for r, p, q, c in self.constants:
            sign = -1 if parities[p] and parities[q] else 1
            for lam in range(n):
                for mu in range(lam + 1, n):
                    dpoly = partial.get(ctx.jet(self.aux_strength[(r, lam, mu)]))
                    if dpoly is not None:
                        add_product(contraction_res[q], ctx.product(
                            c, (ctx.jet(self.aux_strength[(p, lam, mu)]),)), dpoly, sign)
        contraction_res = {"q%d" % (q + 1): res.finish()
                           for q, res in enumerate(contraction_res)}
        return sym_res, field_res, contraction_res

    # -- end-to-end -------------------------------------------------------------

    def header(self):
        return model_header(self.algebra.parities, self.metric.signature())

    def pipeline(self, name, deterministic=False):
        """Run one named check pipeline; precondition failures become
        failed entries rather than exceptions."""
        if name not in self.PIPELINES:
            raise GvcError("unknown pipeline %r" % (name,))
        if name != "validate-algebra":
            try:
                self.ym_lagrangian()
            except ExpansionLimitError:
                raise
            except GvcError as exc:
                return [CheckResult(name, False, witness=str(exc))]
        parts = self._PIPELINE_PARTS[name](self)
        if not self.all_even:
            parts = [part for part in parts if part[0] not in self.EVEN_ONLY_CHECKS]
        return run_parts(parts, deterministic)

    # Each pipeline's parts: (check name, fn(check name) -> CheckResult).

    def _validate_algebra_parts(self):
        return validation_parts(self.algebra, lambda: self.structure, self.form_report)

    def _euler_lagrange_parts(self):
        def residuals(gens):
            generic, closed = self.generic_euler_lagrange(), self.closed_euler_lagrange(gens)
            return {g.name: generic.component(g) - closed.component(g) for g in gens}

        return [("euler-lagrange-two-path", lambda n: CheckResult.from_residuals(
            n, on_representatives(residuals, [g for row in self.field for g in row],
                                  self._representatives("euler-lagrange"))))]

    def _noether_parts(self):
        run = {}  # each part's current, shared by this run's last two checks only

        def current(directions):
            return _once(run, directions, lambda: self.current(directions))

        def by_direction(check, residual):
            return CheckResult.from_form(check, self._by_direction("parameter", residual))

        return [
            ("parameter-symmetry", lambda n: CheckResult.from_form(
                n, self.parameter_lie_derivative())),
            ("noether-identities", lambda n: CheckResult.from_residuals(
                n, self._noether_residuals())),
            ("current-conservation", lambda n: by_direction(n, lambda qs: conservation_residual(
                self._part("parameter", qs), current(qs), self.generic_euler_lagrange()))),
            ("superpotential", lambda n: by_direction(n, lambda qs: superpotential_residual(
                current(qs), self.generic_euler_lagrange(), self.superpotential_rows(qs),
                self.superpotential(qs)))),
        ]

    def _koszul_tate_parts(self):
        def kt_check(check):
            # on a degree-two antifield, delta^2 is its row's kept residual (`koszul_tate`)
            kt, antifields = self.koszul_tate(), [g for row in self.antifield for g in row]
            squares = on_representatives(lambda gens: nilpotency_residuals(kt, gens),
                                         antifields, self._representatives("koszul-tate"))
            return CheckResult.from_residuals(check, {**squares, **self._noether_residuals()})

        return [("koszul-tate", kt_check)]

    def _brst_parts(self):
        return [("gauge-symmetry", lambda n: CheckResult.from_form(n, self._whole_lie("gauge"))),
                ("brst-nilpotency", lambda n: CheckResult.from_residuals(
                    n, self._brst_residuals()))]

    def _by_part(self):
        """Whether Theta_S^2 is Theta_P^2 for P = S - L (`master_equation_check`
        with `part`): S is the proper solution built here with the model's own
        s, built from its own gauge operator, so antifield-free on fields,
        and whose L_s L, gauge-symmetry's, is zero; and the jets the direct
        square forms, one order above the field equations' (at most twice
        L's), are in bound, as Theta_P^2 forms none of them."""
        bound = self.ctx.max_jet_order
        return (self._proper(self.extended_lagrangian())
                and self.brst_operator() is self._memo.get(
                    ("brst-operator", self._memo.get("gauge-operator")))
                and (bound is None or 2 * self.ym_lagrangian().density.max_jet_order() < bound)
                and self._whole_lie("gauge").is_zero())

    def _master_equation_parts(self):
        def master(check):
            if any(not p.is_zero() for p in self._brst_residuals().values()):
                return CheckResult(check, False, witness="no nilpotent extension")
            rep = master_equation_check(self.extended_lagrangian(), self._pairs,
                                        self._representatives("master-equation"),
                                        (self.generic_euler_lagrange().components,
                                         self._s_minus_l()), self._by_part())
            if not rep.ok:
                return CheckResult.from_residuals(check, rep.bracket_residuals())
            # The derivation moves z by the variational derivative along
            # zbar and zbar by the one along z; the density is even, so its
            # left and right variational derivatives vanish together.  A
            # nontrivial solution couples both members of some pair.
            moved = rep.derivation.components
            if any(z in moved and zbar in moved for z, zbar in self.pairs().items()):
                return CheckResult(check, True)
            return CheckResult(check, False, witness="solution is trivial")

        return [("master-equation", master)]

    def _utiyama_parts(self):
        kinds = ("utiyama-strength-dependence", "utiyama-field-independence",
                 "utiyama-contraction")
        run = {}  # the three residual tables, computed once per run

        def utiyama(kind):
            tables = _once(run, "tables",
                           lambda: dict(zip(kinds, self.invariance_conditions())))
            return CheckResult.from_residuals(kind, tables[kind])

        return [(kind, utiyama) for kind in kinds]

    _PIPELINE_PARTS = {
        "validate-algebra": _validate_algebra_parts,
        "euler-lagrange": _euler_lagrange_parts,
        "noether": _noether_parts,
        "koszul-tate": _koszul_tate_parts,
        "brst": _brst_parts,
        "master-equation": _master_equation_parts,
        "utiyama": _utiyama_parts,
    }
    PIPELINES = tuple(_PIPELINE_PARTS)

    def euler_lagrange_notes(self):
        """Rendered field equations, one line per generator."""
        generic = self.generic_euler_lagrange()
        return ["el %s = %s" % (g.name, generic.component(g).render())
                for g in generic.generators()]

    def full_verification(self, deterministic=False, pipelines=None):
        results = []
        for name in pipelines or self.PIPELINES:
            results.extend(self.pipeline(name, deterministic))
        return Report(self.header(), results)

