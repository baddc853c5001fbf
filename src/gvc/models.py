"""Turnkey Yang-Mills models over a Lie (super)algebra.

Builds the full generator roster (gauge fields, ghosts, antifields,
degree-two antifields and gauge parameters, each field with the parity
of its algebra direction) and the one field-antifield pairing, the
strength polynomials, the quadratic Lagrangian, both routes to the
field equations, the Noether rows, the Koszul-Tate, gauge and BRST
derivations, the extended density solving the master equation, and the
invariance conditions that single the Lagrangian out.
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
    """out += c * p in place for a polynomial p and a nonzero scalar c;
    returns `out`, whose denominator `finish` reduces."""
    c = Fraction(c)
    return accumulate(out, ((m, c.numerator * n) for m, n in p.terms.items()),
                      c.denominator * p.den)


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

    The generator roster, split coordinates included, the
    field-antifield pairing and the direction swaps the metric admits
    are fixed at construction, which ends by freezing the context, and
    so are the algebra's graded constants and form entries.  Each
    derived object that several checks use (the validation reports, the
    Lagrangian, the field equations, the Noether rows and residuals, the
    gauge, parameter and BRST operators, the parts of the gauge and
    parameter derivations by algebra direction and their Lie derivatives,
    the Lepage form, the algebra maps, their proofs on L, on the rows and
    on the directions, and the extended density) is built on first use
    and kept.
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
        self.aux_strength = {}
        self.aux_sym = {}
        for r in range(m):
            for lam in range(n):
                for mu in range(lam, n):
                    if mu > lam:
                        self.aux_strength[(r, lam, mu)] = ctx.add_generator(
                            "Fs%d_%d%d" % (r + 1, lam, mu), kinds[r], algebra.parities[r])
                    self.aux_sym[(r, lam, mu)] = ctx.add_generator(
                        "Ss%d_%d%d" % (r + 1, lam, mu), kinds[r], algebra.parities[r])
        # each field to its antifield, each ghost to its degree-two antifield
        self._pairs = {self.field[r][mu]: self.antifield[r][mu]
                       for r in range(m) for mu in range(n)}
        self._pairs.update(zip(self.ghost, self.noether_antifield))
        self._memo = {}
        ctx.freeze()

    def _once(self, key, build):
        return _once(self._memo, key, build)

    def direction_swaps(self):
        """The swaps of directions adjacent within one metric sign class,
        which generate every direction permutation the metric admits, as
        relabellings (gen_map, perm, {}) of fields and antifields."""
        return self._once("direction-swaps", self._swap_relabellings)

    def _swap_relabellings(self):
        n, swaps = self.metric.dim, []
        for sign in (1, -1):
            dirs = [mu for mu in range(n) if self.metric.signs[mu] == sign]
            for lam, mu in zip(dirs, dirs[1:]):
                perm = list(range(n))
                perm[lam], perm[mu] = mu, lam
                swaps.append(({row[nu]: row[perm[nu]] for row in self.field + self.antifield
                               for nu in (lam, mu)}, perm, {}))
        return swaps

    def algebra_maps(self):
        """The algebra's signed automorphisms e_r -> s_r e_pi(r), found on first
        use, as relabellings (gen_map, perm, signs) moving the field,
        antifield, ghost, degree-two antifield and parameter of r to s_r
        times pi(r)'s."""
        return self._once("algebra-maps", self._algebra_relabellings)

    def _algebra_relabellings(self):
        n, m = self.metric.dim, self.algebra.dim
        by_r = [self.field[r] + self.antifield[r]
                + [self.ghost[r], self.noether_antifield[r], self.parameter[r]]
                for r in range(m)]
        return [({gen: image for r in range(m) for gen, image in zip(by_r[r], by_r[pi[r]])},
                 list(range(n)), {gen: -1 for r in range(m) if signs[r] < 0 for gen in by_r[r]})
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
        """Antisymmetric half of the split first jets (the curvature)."""
        ctx = self.ctx
        return self._once(("strength", r, lam, mu), lambda: (
            ctx.var(self.field[r][mu], lam)
            - ctx.var(self.field[r][lam], mu)
            + self._quadratic_twist(r, lam, mu)))

    # -- Lagrangians ------------------------------------------------------

    def ym_lagrangian(self, validate=True):
        """Quadratic strength Lagrangian for the stored invariant form."""
        if not self.algebra.has_form:
            raise GvcError("the quadratic Lagrangian needs an invariant form")
        if validate and not self.form_report().ok:
            raise GvcError("invariant form fails validation: %s"
                           % self.form_report().describe())
        return self._once("lagrangian", self._strength_density)

    def _strength_density(self):
        """1/4 h_ij g_lam g_beta F^i_lam,beta F^j_lam,beta over lam != beta.
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
                    add_product(table, self.strength(i, lam, beta),
                                self.strength(j, lam, beta), signs[lam] * signs[beta])
            _add(density, table, Fraction(h) / 2)
        return Lagrangian(density.finish())

    # -- field equations ----------------------------------------------------

    def momentum(self, r, mu, kappa):
        """dL/d(jet) in closed form: the metric-contracted strength."""
        return self._once(("momentum", r, mu, kappa), lambda: self._momentum(r, mu, kappa))

    def _momentum(self, r, mu, kappa):
        out = self.ctx.zero()
        sign = self.metric.signs[mu] * self.metric.signs[kappa]
        for _, j, h in self._form_by_i[r]:
            add_product(out, self.ctx.scalar(h), self.strength(j, mu, kappa), sign)
        return out.finish()

    def closed_euler_lagrange(self):
        """Field equations assembled from the closed expression: total
        derivative of the momentum plus the algebra-twisted momentum,
        each component summed in one table."""
        ctx = self.ctx
        m, n = self.algebra.dim, self.metric.dim
        comps = {}
        for r in range(m):
            for mu in range(n):
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
                    comps[self.field[r][mu]] = acc.finish()
        return EulerLagrange(ctx, comps)

    def generic_euler_lagrange(self):
        return self._once("euler-lagrange", lambda: euler_lagrange(self.ym_lagrangian()))

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
        return self._once("noether-residuals", lambda: on_representatives(
            lambda gens: noether_residuals(self.noether_operator(),
                                           self.generic_euler_lagrange(),
                                           {g.name for g in gens}),
            self.noether_antifield, self._row_representatives()))

    def koszul_tate(self):
        return self._once("koszul-tate", lambda: koszul_tate(
            self.noether_operator(), self.generic_euler_lagrange(), self._pairs))

    def _invariant_maps(self):
        """The algebra maps, once each is proved to keep the pairing and fix
        L (one rename of L each, once per model); [] if a proof fails."""
        def prove():
            maps = self.algebra_maps()
            fixed = maps and orbit_representatives(
                self.ym_lagrangian().density, self._pairs, maps, ()) is not None
            return maps if fixed else []

        return self._once("invariant-maps", prove)

    def _row_representatives(self):
        """One generator per orbit of those Koszul-Tate moves under the maps
        of `_invariant_maps`, once each is also proved to carry each Noether
        row delta(cbar_j) onto s_j times its image's (it fixes the sum of
        delta(cbar_j) c_j); None without such maps or if a proof fails."""
        def prove():
            kt = self.koszul_tate().components
            ghosts = dict(zip(self.noether_antifield, self.ghost))
            return orbit_representatives(
                paired_sum(self.ctx, {z: kt[z] for z in ghosts if z in kt}, ghosts), self._pairs,
                self._invariant_maps(), kt)

        return self._once("row-representatives",
                          lambda: prove() if self._invariant_maps() else None)

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
        def build():
            theta, sources = self._symmetry(kind)
            if len(directions) == len(sources):
                return theta
            batch = {sources[q] for q in directions}
            return ContactDerivation(self.ctx, {gen: _carrying(comp, batch) for gen, comp
                                                in theta.components.items()}, theta.parity)

        return self._once(("part", kind, directions), build)

    def _direction_representatives(self, kind):
        """One source per orbit of the maps of `_invariant_maps`, once each is
        also proved to carry every component theta(a) onto s times its
        image's (it fixes the sum of theta(a) abar); None without such
        maps, if a proof fails, if L holds a source or if a term of theta
        holds other than one source jet."""
        def prove():
            theta, sources = self._symmetry(kind)
            source_set = set(sources)
            linear = self._invariant_maps() and source_set.isdisjoint(
                v.gen for v in self.ym_lagrangian().density.variables()) and all(
                len(_held(m, source_set)) == 1 for comp in theta.components.values()
                for m in comp.terms)
            return orbit_representatives(
                paired_sum(self.ctx, theta.components, self._pairs), self._pairs,
                self._invariant_maps(), sources) if linear else None

        return self._once(("direction-representatives", kind), prove)

    def _by_direction(self, kind, residual):
        """The residual of the derivation of `kind`, where residual(directions)
        is the Form of its part with those directions' sources (`_part`).
        When `_direction_representatives` holds, every term of a residual of
        the symmetry checks carries one source jet, so the parts of two
        directions share no term and a sum vanishes exactly when each part
        does; a map that fixes L and carries the derivation's components
        onto s times their images' sends the part of q to the part of pi(q)
        and its residual to the image of q's (the superpotential U and the
        rows W of a part are built from c and h, which every algebra map
        keeps, and follow the same way).  So the part of one direction
        per orbit goes first (`on_representatives`), the rest only if it
        fails, and the table, split by source, is summed back into one
        Form; otherwise the whole derivation's is taken at once."""
        sources = self._symmetry(kind)[1]
        reps = self._direction_representatives(kind)
        if reps is None:
            return residual(tuple(range(len(sources))))
        index = {src: q for q, src in enumerate(sources)}

        def evaluate(gens):
            form = residual(tuple(index[g] for g in gens))
            return {g.name: Form(self.ctx, {w: _carrying(f, (g,)) for w, f in form.terms.items()})
                    for g in gens}

        return sum(on_representatives(evaluate, sources, reps).values(), Form.zero(self.ctx))

    def lie_derivative(self, theta):
        """L_theta L of the Lagrangian, a density: the prolonged derivation
        applied to L's polynomial, times the volume form."""
        return volume(self.ctx).times_poly(prolong_apply(theta, self.ym_lagrangian().density))

    def _lie(self, kind, directions):
        """L_theta L for the part of `directions` (`_part`), kept: a parameter
        part's is also its current's precondition."""
        return self._once(("lie", kind, directions),
                          lambda: self.lie_derivative(self._part(kind, directions)))

    def parameter_lie_derivative(self):
        """L_theta L for the parameter symmetry and the Lagrangian."""
        return self._once("parameter-lie-derivative", lambda: self._by_direction(
            "parameter", lambda qs: self._lie("parameter", qs)))

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
        """The BRST derivation and its nilpotency residuals."""
        return self._once("brst-operator", lambda: brst_extend(
            self.gauge_operator(), self.ghost_sector()))

    def pairs(self):
        """Field-antifield pairing of the extended algebra: each field to
        its antifield and each ghost to its degree-two antifield."""
        return self._pairs

    def extended_lagrangian(self):
        s, residuals = self.brst_operator()
        return self._once("extended-lagrangian", lambda: proper_solution(
            self.ym_lagrangian(), s, self.pairs(), residuals=residuals))

    # -- currents --------------------------------------------------------------

    def lepage_form(self):
        """The Lepage form Xi_L of the Lagrangian, which every current
        contracts."""
        return self._once("lepage-form", lambda: lepage_equivalent(self.ym_lagrangian()))

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

    def split_coordinates(self, density):
        """Rewrite first jets in the strength/symmetric coordinates.

        For the canonical index order the jet is the mean of the two split
        halves; the swapped order needs the quadratic twist restored, since
        the symmetric half is symmetric only up to it.
        """
        ctx = self.ctx
        half = Fraction(1, 2)
        mapping = {}
        for r in range(self.algebra.dim):
            for mu in range(self.metric.dim):
                for lam in range(self.metric.dim):
                    key = (r, min(lam, mu), max(lam, mu))
                    repl = _add(ctx.zero(), ctx.var(self.aux_sym[key]), half)
                    if lam != mu:
                        _add(repl, ctx.var(self.aux_strength[key]), half if lam < mu else -half)
                    if lam > mu:
                        _add(repl, self._quadratic_twist(r, mu, lam))
                    mapping[ctx.jet(self.field[r][mu], (lam,))] = repl.finish()
        return density.substitute(mapping)

    def invariance_conditions(self, L=None):
        """Residual tables for the three gauge-invariance conditions of a
        first-order density, in the split coordinates: its partials along
        the symmetric halves, along the undifferentiated fields, and the
        contraction, all zero for an invariant density.

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
        if L.density.max_jet_order() > 1:
            raise GvcError("invariance conditions apply to first-order densities")
        ctx = self.ctx
        partial = dict(self.split_coordinates(L.density).partials())

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
        def two_path(check):
            generic = self.generic_euler_lagrange()
            closed = self.closed_euler_lagrange()
            gens = set(generic.components) | set(closed.components)
            residuals = {g.name: generic.component(g) - closed.component(g)
                         for g in gens}
            return CheckResult.from_residuals(check, residuals)

        return [("euler-lagrange-two-path", two_path)]

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
            # Each row is labelled by its degree-two antifield, where the
            # Koszul-Tate residual is the row's; every other one vanishes.
            kt = self.koszul_tate()
            kt_res = on_representatives(lambda gens: nilpotency_residuals(kt, gens),
                                        kt.components, self._row_representatives())
            noe_res = self._noether_residuals()
            zero = self.ctx.zero()
            if any(p != noe_res.get(name, zero) for name, p in kt_res.items()):
                return CheckResult(check, False,
                                   witness="disagrees with the identity rows")
            return CheckResult.from_residuals(check, kt_res)

        return [("koszul-tate", kt_check)]

    def _brst_parts(self):
        return [("gauge-symmetry", lambda n: CheckResult.from_form(
                    n, self._by_direction("gauge", lambda qs: self._lie("gauge", qs)))),
                ("brst-nilpotency", lambda n: CheckResult.from_residuals(
                    n, self.brst_operator()[1]))]

    def _master_equation_parts(self):
        def master(check):
            _, s_res = self.brst_operator()
            if any(not p.is_zero() for p in s_res.values()):
                return CheckResult(check, False, witness="no nilpotent extension")
            extended = self.extended_lagrangian()
            rep = master_equation_check(extended, self.pairs(),
                                        self.direction_swaps() + self.algebra_maps())
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

