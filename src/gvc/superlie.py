"""Lie superalgebra data: structure constants, brackets and invariant forms.

Structure constants are stored sparsely on canonical index pairs
(i <= j under the basis order) together with the graded antisymmetry
rule, so inconsistent duplicate entries are impossible by construction.
"""

import math
from fractions import Fraction

from .grassmann import EVEN, ODD, GvcError, ParityError


class LieSuperalgebra:
    """Basis labels with parities, structure constants and an optional
    graded-symmetric invariant bilinear form."""

    def __init__(self, labels, parities):
        if len(labels) != len(set(labels)):
            raise GvcError("duplicate basis labels")
        if len(parities) != len(labels):
            raise GvcError("one parity per basis label required")
        for p in parities:
            if p not in (EVEN, ODD):
                raise ParityError("parities must be 0 or 1")
        self.labels = list(labels)
        self.parities = list(parities)
        self.dim = len(labels)
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._c = {}      # canonical (r, i, j) with i <= j -> Fraction
        self._h = {}      # canonical (i, j) with i <= j -> Fraction
        self.has_form = False

    def index(self, label):
        if isinstance(label, int):
            if not 0 <= label < self.dim:
                raise GvcError("basis index %r out of range" % (label,))
            return label
        try:
            return self._index[label]
        except KeyError:
            raise GvcError("unknown basis label %r" % (label,))

    def parity(self, i):
        return self.parities[self.index(i)]

    def _swap_sign(self, i, j):
        """(-1)^{[i][j]}: h_ji = sign h_ij and c^r_ji = -sign c^r_ij."""
        return -1 if self.parities[i] and self.parities[j] else 1

    # -- structure constants -------------------------------------------

    def set_constant(self, r, i, j, value):
        """Record c^r_ij; the graded-antisymmetric mirror is implied.  A
        stored entry is never changed: another value, zero included, raises."""
        r, i, j = self.index(r), self.index(i), self.index(j)
        value = Fraction(value)
        if i == j and self.parities[i] == EVEN and value != 0:
            raise GvcError("c^r_ii must vanish for an even index i")
        if i <= j:
            key, val = (r, i, j), value
        else:
            key, val = (r, j, i), -self._swap_sign(i, j) * value
        old = self._c.get(key)
        if old is not None and old != val:
            raise GvcError(
                "inconsistent duplicate structure constant for %r" % (key,)
            )
        if val != 0:
            self._c[key] = val

    def constant(self, r, i, j):
        """c^r_ij with the graded antisymmetry rule applied (a point
        lookup; sums over the constants walk `graded_constants`)."""
        r, i, j = self.index(r), self.index(i), self.index(j)
        if i <= j:
            base = self._c.get((r, i, j), Fraction(0))
            if i == j and self.parities[i] == EVEN:
                return Fraction(0)
            return base
        return -self._swap_sign(i, j) * self._c.get((r, j, i), Fraction(0))

    def stored_constants(self):
        """Canonical nonzero entries as (r, i, j, value), i <= j."""
        return sorted((r, i, j, v) for (r, i, j), v in self._c.items())

    def graded_constants(self):
        """Every nonzero c^r_ij over ordered index pairs as (r, i, j, value),
        sorted: each stored entry with its graded mirror c^r_ji, even
        diagonals excluded.  Each value equals `constant(r, i, j)`."""
        out = []
        for (r, i, j), c in self._c.items():
            if i != j:
                out.append((r, i, j, c))
                out.append((r, j, i, -self._swap_sign(i, j) * c))
            elif self.parities[i] == ODD:
                out.append((r, i, j, c))
        out.sort()
        return out

    # -- bilinear form ---------------------------------------------------

    def set_form(self, i, j, value):
        """Record h_ij; graded symmetry h_ji = (-1)^{[i][j]} h_ij is implied.
        A stored entry is never changed: another value, zero included, raises."""
        i, j = self.index(i), self.index(j)
        value = Fraction(value)
        if self.parities[i] != self.parities[j] and value != 0:
            raise GvcError("the invariant form must pair equal parities")
        if i == j and self.parities[i] == ODD and value != 0:
            raise GvcError("h_ii must vanish for an odd index i")
        if i <= j:
            key, val = (i, j), value
        else:
            key, val = (j, i), self._swap_sign(i, j) * value
        old = self._h.get(key)
        if old is not None and old != val:
            raise GvcError("inconsistent duplicate form entry for %r" % (key,))
        if val != 0:
            self._h[key] = val
            self.has_form = True

    def form(self, i, j):
        """h_ij with the graded symmetry rule applied (a point lookup)."""
        i, j = self.index(i), self.index(j)
        if i <= j:
            return self._h.get((i, j), Fraction(0))
        return self._swap_sign(i, j) * self._h.get((j, i), Fraction(0))

    def graded_form(self):
        """Every nonzero h_ij over ordered index pairs as (i, j, value),
        sorted, graded mirrors included; each value equals `form(i, j)`."""
        out = []
        for (i, j), h in self._h.items():
            out.append((i, j, h))
            if i != j:
                out.append((j, i, self._swap_sign(i, j) * h))
        out.sort()
        return out


def _scaled(entries):
    """Entries (..., value) with each value an int over one common
    denominator: sums and zero tests over them need no Fraction."""
    den = math.lcm(*(e[-1].denominator for e in entries))
    return [e[:-1] + (e[-1].numerator * (den // e[-1].denominator),) for e in entries]


def check_structure(alg):
    """Validate parity consistency, graded antisymmetry and super-Jacobi.

    Antisymmetry and the even-diagonal rule hold by construction of the
    sparse storage, so the report covers parity consistency and every
    Jacobi instance, identified by its index triple.  The Jacobi totals
        sum_j (-1)^{[i][b]} c^r_ij c^j_ab + (cyclic in i, a, b)
    are accumulated from products of stored nonzero constants only:
    c^r_zj c^j_xy, with sign (-1)^{[z][y]}, enters the totals of the
    triples (z, x, y), (y, z, x) and (x, y, z).  Violations are listed in
    (i, a, b, r) order.
    """
    violations = []
    for (r, i, j), v in sorted(alg._c.items()):
        if v == 0:
            continue
        if alg.parities[r] != (alg.parities[i] + alg.parities[j]) % 2:
            violations.append(("parity", (r, i, j)))
    par = alg.parities
    consts = _scaled(alg.graded_constants())
    ending_in = {}  # j -> [(z, r, c^r_zj), ...]
    for r, z, j, c in consts:
        ending_in.setdefault(j, []).append((z, r, c))
    totals = {}
    for j, x, y, c2 in consts:
        for z, r, c1 in ending_in.get(j, ()):
            v = c1 * c2
            if par[z] and par[y]:
                v = -v
            for key in ((z, x, y, r), (y, z, x, r), (x, y, z, r)):
                totals[key] = totals.get(key, 0) + v
    for i, a, b, r in sorted(k for k, v in totals.items() if v != 0):
        violations.append(("jacobi", (r, (i, a, b))))
    return ValidationReport(violations)


def check_invariant_form(alg):
    """Validate graded symmetry (structural) and ad-invariance of the form.

    Ad-invariance is checked as
        sum_m [ h_mj c^m_ri + (-1)^{[r][i]} h_im c^m_rj ] = 0
    for all r, i, j, the identity satisfied by the trace form of any
    faithful representation; on even indices it is the classical one.
    The totals are accumulated from products of stored nonzero form
    entries and constants only; violations are listed in (r, i, j) order.
    """
    if not alg.has_form:
        raise GvcError("no invariant form recorded")
    violations = []
    n = alg.dim
    par = alg.parities
    # even block must be nondegenerate
    ev = [i for i in range(n) if par[i] == EVEN]
    sub = [[alg.form(i, j) for j in ev] for i in ev]
    if ev and _det(sub) == 0:
        violations.append(("singular-even-block", ()))
    row, col = {}, {}  # m -> [(j, h_mj)], m -> [(i, h_im)]
    for i, j, h in _scaled(alg.graded_form()):
        row.setdefault(i, []).append((j, h))
        col.setdefault(j, []).append((i, h))
    totals = {}
    for m, r, k, c in _scaled(alg.graded_constants()):
        # k plays i in h_mj c^m_ri, and j in (-1)^{[r][i]} h_im c^m_rj
        for j, h in row.get(m, ()):
            totals[(r, k, j)] = totals.get((r, k, j), 0) + h * c
        for i, h in col.get(m, ()):
            t = h * c if not (par[r] and par[i]) else -(h * c)
            totals[(r, i, k)] = totals.get((r, i, k), 0) + t
    for key in sorted(k for k, v in totals.items() if v != 0):
        violations.append(("invariance", key))
    return ValidationReport(violations)


def signed_automorphisms(alg):
    """Parity-preserving signed permutations e_i -> s_i e_pi(i) of the basis
    with c^pi(r)_pi(i)pi(j) = s_r s_i s_j c^r_ij and h_pi(i)pi(j) = s_i s_j h_ij,
    as (pi, s): a short list with the orbits of the group of all of them,
    found from the constants and form alone.  For each pair i < j of roots
    of the orbits of the maps so far (`orbit_roots`) whose profiles (parity,
    positions and magnitudes of entries) agree, a map sending i to j is
    sought by backtracking, nearest to i first, cut at the first nonzero
    entry mapped wrongly (mapping those into themselves keeps the zeros).
    The search is exhaustive and the maps form a group, so where i or j is
    no root and they lie in two orbits, no map sends i to j: one would have
    merged their orbits at an earlier pair."""
    m, par = alg.dim, alg.parities
    consts = {(r, i, j): c for r, i, j, c in _scaled(alg.graded_constants())}
    form = {(i, j): h for i, j, h in _scaled(alg.graded_form())}
    touching = [[] for _ in range(m)]  # k -> [(indices, value, table)]
    for table in (consts, form):
        for key, val in table.items():
            for k in set(key):
                touching[k].append((key, val, table))
    profiles = [(par[k], tuple(sorted((tuple(x == k for x in key), abs(val))
                                      for key, val, _ in touching[k]))) for k in range(m)]
    kind = [profiles.index(p) for p in profiles]

    def search(i, j):
        # the indices in breadth-first order from i over shared entries
        order, at = [i], 0
        while len(order) < m:
            if at == len(order):
                order.append(next(k for k in range(m) if k not in order))
            for key, _, _ in touching[order[at]]:
                order.extend(x for x in set(key) if x not in order)
            at += 1
        pi, s, used = [None] * m, [0] * m, [False] * m

        def fits(k):
            for key, val, table in touching[k]:
                image, sign = [], val
                for x in key:
                    if pi[x] is None:
                        break
                    image.append(pi[x])
                    sign *= s[x]
                else:
                    if table.get(tuple(image)) != sign:
                        return False
            return True

        def extend(depth):
            if depth == m:
                return True
            k = order[depth]
            for t in ([j] if depth == 0 else range(m)):
                if used[t] or kind[t] != kind[k]:
                    continue
                used[t], pi[k] = True, t
                for s[k] in (1, -1):
                    if fits(k) and extend(depth + 1):
                        return True
                used[t], pi[k] = False, None
            return False

        return (tuple(pi), tuple(s)) if extend(0) else None

    maps, roots = [], orbit_roots([], m)
    for i in range(m):
        for j in range(i + 1, m):
            if i in roots and j in roots and kind[i] == kind[j]:
                found = search(i, j)
                if found:
                    maps.append(found)
                    roots = orbit_roots(maps, m)
    return maps


def orbit_roots(maps, m):
    """The smallest index of each orbit of range(m) under the permutations
    pi of the signed automorphisms (pi, s) `maps`, in increasing order."""
    orbit = list(range(m))
    for pi, _ in maps:
        for k, t in enumerate(pi):
            a, b = sorted((orbit[k], orbit[t]))
            orbit = [a if o == b else o for o in orbit]
    return tuple(k for k in range(m) if orbit[k] == k)


def _det(rows):
    n = len(rows)
    a = [row[:] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for row in range(col, n):
            if a[row][col] != 0:
                pivot = row
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = Fraction(1) / a[col][col]
        for row in range(col + 1, n):
            if a[row][col] != 0:
                f = a[row][col] * inv
                a[row] = [x - f * y for x, y in zip(a[row], a[col])]
    return det


class ValidationReport:
    """List of violated identities; empty means pass."""

    def __init__(self, violations):
        self.violations = violations

    @property
    def ok(self):
        return not self.violations

    def __bool__(self):
        return self.ok

    def describe(self):
        if self.ok:
            return "pass"
        return "; ".join("%s%r" % (kind, data) for kind, data in self.violations)


def bracket(alg, u, v):
    """Superbracket of coefficient vectors: [u, v]^r = sum c^r_ij u^i v^j.

    Both arguments must be parity-homogeneous: nonzero coefficients only
    on basis elements of one parity.
    """
    u = _vector(alg, u)
    v = _vector(alg, v)
    _homogeneous_parity(alg, u)
    _homogeneous_parity(alg, v)
    out = [Fraction(0)] * alg.dim
    for r, i, j, c in alg.graded_constants():
        out[r] += c * u[i] * v[j]
    return out


def _vector(alg, u):
    if isinstance(u, dict):
        out = [Fraction(0)] * alg.dim
        for lab, c in u.items():
            out[alg.index(lab)] = Fraction(c)
        return out
    out = [Fraction(c) for c in u]
    if len(out) != alg.dim:
        raise GvcError("coefficient vector has wrong length")
    return out


def _homogeneous_parity(alg, u):
    ps = {alg.parities[i] for i, c in enumerate(u) if c != 0}
    if len(ps) > 1:
        raise ParityError("coefficient vector mixes parities")
    return ps.pop() if ps else EVEN
