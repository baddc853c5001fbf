"""Stress model files for the benchmark, built from 3x3 matrix representations.

    python3 bench/stress_models.py          # rewrite bench/sl3.model and bench/sl21.model

sl(3) uses the Chevalley basis (off-diagonal E_ij, H1 = E11-E22,
H2 = E22-E33) with the trace form; its constants are integers.  sl(2|1)
uses the supermatrix basis on a (2|1)-graded space, index 2 odd (even
E01, E10, H1 = E00-E11, H2 = E00+E11+2E22; odd F02, F12, F20, F21) with
the supertrace form; its constants include +-1/2.  Every constant is the
coordinate of an exact Fraction supercommutator [X, Y] = XY - (-1)^{|X||Y|} YX
in the basis, so the files carry no hand-typed numbers.

`relabel` renames the generators and shuffles their declaration order
from a seed: the algebra and the amount of work stay the same, only the
variable order the engine sees changes.
"""

import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
PIPELINES = ("validate-algebra", "euler-lagrange", "noether", "koszul-tate",
             "brst", "master-equation", "utiyama")


def unit(i, j):
    m = [[Fraction(0)] * 3 for _ in range(3)]
    m[i][j] = Fraction(1)
    return m


def combo(*terms):
    """Sum of coefficient * matrix pairs."""
    out = [[Fraction(0)] * 3 for _ in range(3)]
    for c, m in terms:
        for i in range(3):
            for j in range(3):
                out[i][j] += c * m[i][j]
    return out


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def coordinates(basis, m):
    """Exact coordinates of matrix `m` in the list of basis matrices."""
    n = len(basis)
    rows = [[b[i][j] for b in basis] + [m[i][j]] for i in range(3) for j in range(3)]
    pivots = []
    for col in range(n):
        piv = next((r for r in range(len(pivots), len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            raise ValueError("basis matrices are linearly dependent")
        k = len(pivots)
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [x / rows[k][col] for x in rows[k]]
        for r in range(len(rows)):
            if r != k and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[k])]
        pivots.append(col)
    if any(row[n] != 0 for row in rows[n:]):
        raise ValueError("matrix lies outside the span of the basis")
    return [rows[k][n] for k in range(n)]


def model_text(labels, mats, degree):
    """Model file for the algebra spanned by `mats`; `degree[i]` is the
    Z2-degree of row/column i of the representation space."""
    parity = [None] * len(mats)
    for k, m in enumerate(mats):
        degs = {(degree[i] + degree[j]) % 2 for i in range(3) for j in range(3) if m[i][j]}
        if len(degs) != 1:
            raise ValueError("basis matrix %s is not homogeneous" % labels[k])
        parity[k] = degs.pop()

    def supertrace(m):
        return sum(-m[i][i] if degree[i] else m[i][i] for i in range(3))

    out = ["[model]", "dimension = 4", "metric = +---", "max_jet_order = 3", "",
           "[algebra]"]
    out.extend("generator %s parity %d" % (lab, p) for lab, p in zip(labels, parity))
    n = len(mats)
    for i in range(n):
        for j in range(i, n):
            sign = -1 if parity[i] and parity[j] else 1
            br = combo((1, matmul(mats[i], mats[j])), (-sign, matmul(mats[j], mats[i])))
            for r, c in enumerate(coordinates(mats, br)):
                if c:
                    out.append("c %s %s %s = %s" % (labels[r], labels[i], labels[j], c))
    out.extend(["", "[form]"])
    for i in range(n):
        for j in range(i, n):
            h = supertrace(matmul(mats[i], mats[j]))
            if h:
                out.append("h %s %s = %s" % (labels[i], labels[j], h))
    out.extend(["", "[checks]"])
    out.extend(PIPELINES)
    return "\n".join(out) + "\n"


def sl3_text():
    labels, mats = ["H1", "H2"], [combo((1, unit(0, 0)), (-1, unit(1, 1))),
                                  combo((1, unit(1, 1)), (-1, unit(2, 2)))]
    for i in range(3):
        for j in range(3):
            if i != j:
                labels.append("E%d%d" % (i + 1, j + 1))
                mats.append(unit(i, j))
    return model_text(labels, mats, (0, 0, 0))


def sl21_text():
    labels = ["E01", "E10", "H1", "H2", "F02", "F12", "F20", "F21"]
    mats = [unit(0, 1), unit(1, 0),
            combo((1, unit(0, 0)), (-1, unit(1, 1))),
            combo((1, unit(0, 0)), (1, unit(1, 1)), (2, unit(2, 2))),
            unit(0, 2), unit(1, 2), unit(2, 0), unit(2, 1)]
    return model_text(labels, mats, (0, 0, 1))


STRESS_MODELS = {"sl3.model": sl3_text, "sl21.model": sl21_text}


def relabel(text, seed):
    """Rename the generators and shuffle the declaration order of the
    generators, structure constants and form entries of a model file."""
    rng = random.Random(seed)
    lines = text.splitlines()
    gen_at = [k for k, ln in enumerate(lines) if ln.startswith("generator ")]
    c_at = [k for k, ln in enumerate(lines) if ln.startswith("c ")]
    h_at = [k for k, ln in enumerate(lines) if ln.startswith("h ")]
    names = [lines[k].split()[1] for k in gen_at]
    fresh = rng.sample(range(10, 100), len(names))
    rename = {old: "g%d" % new for old, new in zip(names, fresh)}

    label_fields = {"generator": (1,), "c": (1, 2, 3), "h": (1, 2)}

    def renamed(line):
        fields = line.split()
        for pos in label_fields[fields[0]]:
            fields[pos] = rename[fields[pos]]
        return " ".join(fields)

    out = list(lines)
    for slots in (gen_at, c_at, h_at):
        moved = [renamed(lines[k]) for k in slots]
        rng.shuffle(moved)
        for k, line in zip(slots, moved):
            out[k] = line
    return "\n".join(out) + "\n"


def main():
    for name, build in STRESS_MODELS.items():
        path = os.path.join(HERE, name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(build())
        print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
