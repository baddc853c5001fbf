"""Structure-constant validation, brackets and invariant forms."""

import importlib.util
import os
import random
from fractions import Fraction

import pytest

from gvc import EVEN, GvcError, LieSuperalgebra, ODD, ParityError, bracket
from gvc.superlie import check_invariant_form, check_structure, orbit_roots, signed_automorphisms
from gvc.modelfile import parse_model, spec_algebra
from gvc.presets import osp12_algebra

from util import (abelian_algebra, basis_orbits, brute_force_automorphisms,
                  dense_form_violations, dense_structure_violations, perturb_algebra,
                  random_superalgebra, su2_algebra, supermatrix_model_text)

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench")


def brute_force_jacobi(alg):
    """Independent oracle: the full super-Jacobi sum over every triple."""
    bad = []
    n = alg.dim
    par = alg.parities
    for i in range(n):
        for a in range(n):
            for b in range(n):
                for r in range(n):
                    total = Fraction(0)
                    for j in range(n):
                        total += ((-1) ** (par[i] * par[b])) * alg.constant(r, i, j) * alg.constant(j, a, b)
                        total += ((-1) ** (par[a] * par[i])) * alg.constant(r, a, j) * alg.constant(j, b, i)
                        total += ((-1) ** (par[b] * par[a])) * alg.constant(r, b, j) * alg.constant(j, i, a)
                    if total != 0:
                        bad.append((r, (i, a, b)))
    return bad


class TestStructure:
    def test_abelian_passes(self):
        alg = LieSuperalgebra(["g1", "g2"], [EVEN, ODD])
        assert check_structure(alg).ok

    def test_su2_passes_brute_force(self):
        alg = su2_algebra()
        assert brute_force_jacobi(alg) == []
        assert check_structure(alg).ok

    def test_rescaled_constant_still_satisfies_jacobi(self):
        # scaling one cyclic constant only rescales the basis; the brute
        # force confirms the bracket axioms still hold (the defect is
        # caught later, when the diagonal form stops being invariant)
        alg = LieSuperalgebra(["e1", "e2", "e3"], [EVEN] * 3)
        alg.set_constant("e1", "e2", "e3", 2)  # was 1
        alg.set_constant("e2", "e3", "e1", 1)
        alg.set_constant("e3", "e1", "e2", 1)
        assert brute_force_jacobi(alg) == []
        assert check_structure(alg).ok
        for lab in alg.labels:
            alg.set_form(lab, lab, 1)
        assert not check_invariant_form(alg).ok

    def test_extra_constant_fails_with_triple(self):
        alg = su2_algebra()
        alg.set_constant("e2", "e1", "e2", 1)
        rep = check_structure(alg)
        assert not rep.ok
        kinds = {kind for kind, _ in rep.violations}
        assert kinds == {"jacobi"}
        assert set(rep.violations) == set(
            ("jacobi", item) for item in brute_force_jacobi(alg))

    def test_osp12_passes(self):
        alg = osp12_algebra()
        assert brute_force_jacobi(alg) == []
        assert check_structure(alg).ok

    def test_even_diagonal_rejected(self):
        alg = LieSuperalgebra(["e1", "e2"], [EVEN, EVEN])
        with pytest.raises(GvcError):
            alg.set_constant("e1", "e2", "e2", 1)

    def test_odd_diagonal_allowed(self):
        alg = LieSuperalgebra(["e", "x"], [EVEN, ODD])
        alg.set_constant("e", "x", "x", 2)
        assert alg.constant("e", "x", "x") == 2

    def test_mirror_entry_consistency(self):
        alg = LieSuperalgebra(["e1", "e2", "e3"], [EVEN] * 3)
        alg.set_constant("e1", "e2", "e3", 1)
        alg.set_constant("e1", "e3", "e2", -1)  # consistent mirror
        with pytest.raises(GvcError):
            alg.set_constant("e1", "e3", "e2", 1)  # inconsistent duplicate

    def test_a_constant_set_back_to_zero_raises_and_stays(self):
        # a stored entry is never changed, to zero included; a zero on a new
        # entry stores nothing
        alg = LieSuperalgebra(["e1", "e2", "e3"], [EVEN] * 3)
        alg.set_constant("e1", "e2", "e3", 1)
        with pytest.raises(GvcError, match="inconsistent duplicate structure constant"):
            alg.set_constant("e1", "e3", "e2", 0)
        alg.set_constant("e2", "e3", "e1", 0)
        assert alg.stored_constants() == [(0, 1, 2, Fraction(1))]

    def test_a_form_entry_set_back_to_zero_raises_and_stays(self):
        alg = LieSuperalgebra(["e1", "e2"], [EVEN] * 2)
        alg.set_form("e2", "e2", 0)
        assert not alg.has_form and alg.graded_form() == []
        alg.set_form("e1", "e1", 1)
        with pytest.raises(GvcError, match="inconsistent duplicate form entry"):
            alg.set_form("e1", "e1", 0)
        assert alg.has_form and alg.graded_form() == [(0, 0, Fraction(1))]

    def test_parity_violation_reported(self):
        alg = LieSuperalgebra(["e", "f", "x"], [EVEN, EVEN, ODD])
        alg.set_constant("x", "e", "f", 1)  # [x] != [e]+[f]
        rep = check_structure(alg)
        assert ("parity", (2, 0, 1)) in rep.violations

    def test_duplicate_labels_rejected(self):
        with pytest.raises(GvcError):
            LieSuperalgebra(["e", "e"], [EVEN, EVEN])


class TestBracket:
    def test_su2_basis_bracket(self):
        alg = su2_algebra()
        got = bracket(alg, {"e1": 1}, {"e2": 1})
        assert got == [Fraction(0), Fraction(0), Fraction(1)]

    def test_even_self_bracket_vanishes(self):
        alg = su2_algebra()
        u = {"e1": 2, "e2": -3}
        assert bracket(alg, u, u) == [Fraction(0)] * 3

    def test_abelian_bracket_vanishes(self):
        alg = abelian_algebra()
        assert bracket(alg, [1], [5]) == [Fraction(0)]

    def test_odd_self_bracket_survives(self):
        alg = osp12_algebra()
        got = bracket(alg, {"x": 1}, {"x": 1})
        assert got[alg.index("f")] == 2

    def test_wrong_length_vector_rejected(self):
        alg = su2_algebra()
        for u, v in (([1, 0], {"e1": 1}), ({"e1": 1}, [1, 0, 0, 0])):
            with pytest.raises(GvcError, match="coefficient vector has wrong length"):
                bracket(alg, u, v)

    def test_mixed_parity_vector_rejected(self):
        alg = osp12_algebra()
        with pytest.raises(ParityError):
            bracket(alg, {"h": 1, "x": 1}, {"h": 1})

    def test_bracket_level_jacobi_matches_validation(self):
        rng = random.Random(31)
        for alg in (su2_algebra(), osp12_algebra()):
            par = alg.parities
            n = alg.dim
            for _ in range(20):
                def random_homogeneous():
                    p = rng.choice(sorted(set(par)))
                    return p, [Fraction(rng.randint(-2, 2)) if par[i] == p else Fraction(0)
                               for i in range(n)]

                pu, u = random_homogeneous()
                pv, v = random_homogeneous()
                pw, w = random_homogeneous()
                total = [Fraction(0)] * n
                for (a, pa), (b, pb), (c, pc) in (
                        ((u, pu), (v, pv), (w, pw)),
                        ((v, pv), (w, pw), (u, pu)),
                        ((w, pw), (u, pu), (v, pv))):
                    sign = (-1) ** (pa * pc)
                    inner = bracket(alg, b, c)
                    outer = bracket(alg, a, inner)
                    total = [t + sign * o for t, o in zip(total, outer)]
                assert all(t == 0 for t in total)

    def test_even_part_closes(self):
        for alg in (su2_algebra(), osp12_algebra()):
            for i in range(alg.dim):
                for j in range(alg.dim):
                    if alg.parities[i] == EVEN and alg.parities[j] == EVEN:
                        for r in range(alg.dim):
                            if alg.constant(r, i, j) != 0:
                                assert alg.parities[r] == EVEN


class TestInvariantForm:
    def test_su2_delta_passes(self):
        assert check_invariant_form(su2_algebra()).ok

    def test_abelian_any_symmetric_passes(self):
        alg = LieSuperalgebra(["e1", "e2"], [EVEN, EVEN])
        alg.set_form("e1", "e1", 3)
        alg.set_form("e1", "e2", 1)
        alg.set_form("e2", "e2", 5)
        assert check_invariant_form(alg).ok

    def test_su2_wrong_diagonal_fails(self):
        alg = LieSuperalgebra(["e1", "e2", "e3"], [EVEN] * 3)
        alg.set_constant("e1", "e2", "e3", 1)
        alg.set_constant("e2", "e3", "e1", 1)
        alg.set_constant("e3", "e1", "e2", 1)
        alg.set_form("e1", "e1", 1)
        alg.set_form("e2", "e2", 1)
        alg.set_form("e3", "e3", 2)
        rep = check_invariant_form(alg)
        assert not rep.ok
        assert any(kind == "invariance" for kind, _ in rep.violations)

    def test_osp12_supertrace_form_passes(self):
        assert check_invariant_form(osp12_algebra()).ok

    def test_missing_form_raises(self):
        alg = LieSuperalgebra(["e1"], [EVEN])
        with pytest.raises(GvcError):
            check_invariant_form(alg)

    def test_singular_even_block_reported(self):
        alg = LieSuperalgebra(["e1", "e2"], [EVEN, EVEN])
        alg.set_form("e1", "e2", 1)
        alg.set_form("e1", "e1", 1)
        alg.set_form("e2", "e2", 1)
        # make it singular: h = [[1,1],[1,1]]
        rep = check_invariant_form(alg)
        assert ("singular-even-block", ()) in rep.violations

    def test_mixed_parity_pairing_rejected(self):
        alg = osp12_algebra()
        with pytest.raises(GvcError):
            alg.set_form("h", "x", 1)

    def test_odd_block_antisymmetry(self):
        alg = osp12_algebra()
        assert alg.form("x", "y") == -alg.form("y", "x")
        assert alg.form("e", "f") == alg.form("f", "e")



def _bench_algebra(name):
    with open(os.path.join(BENCH, name), encoding="utf-8") as handle:
        return spec_algebra(parse_model(handle.read()))


def _dense_entries(alg):
    """The nonzero c^r_ij and h_ij over every index tuple, from the point
    lookups `constant` and `form`."""
    n = alg.dim
    consts = [(r, i, j, alg.constant(r, i, j))
              for r in range(n) for i in range(n) for j in range(n)]
    form = [(i, j, alg.form(i, j)) for i in range(n) for j in range(n)]
    return [e for e in consts if e[-1]], [e for e in form if e[-1]]


def _assert_matches_dense(alg):
    assert (alg.graded_constants(), alg.graded_form()) == _dense_entries(alg)
    assert check_structure(alg).violations == dense_structure_violations(alg)
    if alg.has_form:
        assert check_invariant_form(alg).violations == dense_form_violations(alg)
    else:
        with pytest.raises(GvcError):
            check_invariant_form(alg)


class TestSparseMatchesDense:
    """The sparse validators give the dense loops' violation lists, in
    the dense loops' order, so `describe()` text is unchanged."""

    def test_random_superalgebras(self):
        rng = random.Random(2024)
        kinds = set()
        for _ in range(200):
            alg = random_superalgebra(rng)
            _assert_matches_dense(alg)
            kinds.update(kind for kind, _ in check_structure(alg).violations)
            if alg.has_form:
                kinds.update(kind for kind, _ in check_invariant_form(alg).violations)
        assert kinds == {"parity", "jacobi", "invariance", "singular-even-block"}

    @pytest.mark.parametrize("build", [abelian_algebra, su2_algebra, osp12_algebra])
    def test_perturbed_presets(self, build):
        rng = random.Random(build.__name__)
        _assert_matches_dense(build())
        for _ in range(20):
            alg = perturb_algebra(rng, build(), constants=rng.randint(0, 2),
                                  form_entries=rng.randint(0, 2))
            _assert_matches_dense(alg)

    @pytest.mark.parametrize("name", ["sl3.model", "sl21.model"])
    def test_stress_algebras(self, name):
        alg = _bench_algebra(name)
        assert check_structure(alg).ok and check_invariant_form(alg).ok
        _assert_matches_dense(alg)
        alg = perturb_algebra(random.Random(name), alg, constants=1, form_entries=1)
        assert not (check_structure(alg).ok and check_invariant_form(alg).ok)
        _assert_matches_dense(alg)



def _stress_models():
    spec = importlib.util.spec_from_file_location(
        "stress_models", os.path.join(BENCH, "stress_models.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSignedAutomorphisms:
    """The search for signed basis permutations that keep the constants
    and the form, against enumeration of the whole group."""

    @staticmethod
    def _algebra(name):
        if name.endswith(".model"):
            return _bench_algebra(name)
        return {"abelian": abelian_algebra, "su2": su2_algebra, "osp12": osp12_algebra}[name]()

    @pytest.mark.parametrize("name, orbit_sizes", [
        ("abelian", [1]), ("su2", [3]), ("osp12", [1, 2, 2]),
        ("sl21.model", [1, 1, 2, 4]), ("sl3.model", [2, 2, 4])])
    def test_orbits_are_those_of_the_whole_group(self, name, orbit_sizes):
        alg = self._algebra(name)
        maps = signed_automorphisms(alg)
        group = brute_force_automorphisms(alg)
        assert set(maps) <= set(group)
        orbits = basis_orbits(alg.dim, maps)
        assert orbits == basis_orbits(alg.dim, group)
        assert sorted(len(o) for o in orbits) == orbit_sizes
        # each kept map merges orbits of the ones before it
        for k in range(len(maps)):
            assert len(basis_orbits(alg.dim, maps[:k + 1])) < len(basis_orbits(alg.dim, maps[:k]))

    @pytest.mark.parametrize("name", ["abelian", "su2", "osp12", "sl3.model", "sl21.model",
                                      "sl31"])
    def test_orbit_roots_are_the_smallest_of_each_orbit(self, name):
        # the smallest index of each orbit, in increasing order, whatever
        # the order of the maps; sl(3|1) has 15 directions, where the
        # smallest index and the smallest generator name part ways
        alg = spec_algebra(parse_model(supermatrix_model_text((0, 0, 0, 1)))) \
            if name == "sl31" else self._algebra(name)
        maps = signed_automorphisms(alg)
        want = tuple(sorted(min(o) for o in basis_orbits(alg.dim, maps)))
        assert orbit_roots(maps, alg.dim) == orbit_roots(maps[::-1], alg.dim) == want
        assert orbit_roots([], alg.dim) == tuple(range(alg.dim))

    @staticmethod
    def _signature(alg):
        """The orbit partition without labels: per orbit, its size and the
        sorted magnitudes of the constants and form entries that hold each
        member, with the positions it takes."""
        def profile(k):
            rows = [(key.index(k), abs(v)) for table in (alg.graded_constants(),
                                                        alg.graded_form())
                    for *key, v in table if k in key]
            return tuple(sorted(rows))

        return sorted((len(o), sorted(profile(k) for k in o))
                      for o in basis_orbits(alg.dim, signed_automorphisms(alg)))

    @pytest.mark.parametrize("name", ["sl3.model", "sl21.model"])
    def test_orbits_survive_relabelling(self, name):
        relabel = _stress_models().relabel
        with open(os.path.join(BENCH, name), encoding="utf-8") as handle:
            text = handle.read()
        want = self._signature(spec_algebra(parse_model(text)))
        for seed in range(1, 6):
            alg = spec_algebra(parse_model(relabel(text, seed)))
            assert alg.labels != _bench_algebra(name).labels
            assert self._signature(alg) == want

    def test_no_map_without_a_symmetry(self):
        # the magnitudes agree, but h_11 = 1 and h_22 = -1 cannot be
        # exchanged by any sign; the same holds across two copies of su2
        alg = LieSuperalgebra(["e1", "e2"], [EVEN, EVEN])
        alg.set_form("e1", "e1", 1)
        alg.set_form("e2", "e2", -1)
        assert signed_automorphisms(alg) == []
        alg = LieSuperalgebra(["a1", "a2", "a3", "b1", "b2", "b3"], [EVEN] * 6)
        for copy, h in (("a", 1), ("b", -1)):
            for r, i, j in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
                alg.set_constant("%s%d" % (copy, r), "%s%d" % (copy, i), "%s%d" % (copy, j), 1)
            for r in (1, 2, 3):
                alg.set_form("%s%d" % (copy, r), "%s%d" % (copy, r), h)
        assert basis_orbits(6, signed_automorphisms(alg)) == {
            frozenset({0, 1, 2}), frozenset({3, 4, 5})}
