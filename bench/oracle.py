"""An independent route to the constant c, for checking the program's output.

For a quadratic Lie algebra (g, B) with Killing form K, Kostant's residual
D^2 - Omega_g (x) 1 is the scalar

    c = (1/24) sum_ij (B^-1)_ij K_ij        (the "strange formula"),

and for a quadratic subalgebra h the relative constant is c_g - c_h, where
c_h is the same formula for (h, B|h).  Everything here works on plain
bracket tables and lists of Fractions.  It shares no code with the program:
K comes from its own trace loop, B^-1 and coordinates in h from its own
Gauss-Jordan elimination, and no Clifford, PBW, tensor or Killing-form code
of the package is imported.

A bracket table maps (i, j), i < j, to the coordinate vector of [e_i, e_j].
"""

from __future__ import annotations

from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def bracket_vector(n: int, table: dict, i: int, j: int) -> list[Fraction]:
    if i < j:
        return [Fraction(c) for c in table.get((i, j), (ZERO,) * n)]
    if i > j:
        return [-Fraction(c) for c in table.get((j, i), (ZERO,) * n)]
    return [ZERO] * n


def killing_matrix(n: int, table: dict) -> list[list[Fraction]]:
    """K_ij = trace(ad e_i ad e_j), with (ad e_i)[r][s] = coefficient of e_r in [e_i, e_s]."""
    ad = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for s in range(n):
            for r, c in enumerate(bracket_vector(n, table, i, s)):
                ad[i][r][s] = c
    return [
        [sum((ad[i][r][s] * ad[j][s][r] for r in range(n) for s in range(n)), ZERO) for j in range(n)]
        for i in range(n)
    ]


def _eliminate(rows: list[list[Fraction]], cols: int) -> list[list[Fraction]]:
    """Gauss-Jordan on the first `cols` columns, in place; ValueError when one has no pivot."""
    for col in range(cols):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            raise ValueError(f"no pivot in column {col}: the columns are dependent")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        rows[col] = [x / p for x in rows[col]]
        for r in range(len(rows)):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return rows


def inverse(mat: list[list[Fraction]]) -> list[list[Fraction]]:
    """Exact inverse; ValueError when singular."""
    n = len(mat)
    rows = [[Fraction(x) for x in row] + [ONE if c == r else ZERO for c in range(n)] for r, row in enumerate(mat)]
    return [row[n:] for row in _eliminate(rows, n)]


def absolute_c(n: int, table: dict, form: list[list[Fraction]]) -> Fraction:
    """c for h = 0."""
    binv = inverse(form)
    k = killing_matrix(n, table)
    return sum((binv[i][j] * k[i][j] for i in range(n) for j in range(n)), ZERO) / 24


def _coordinates(basis: list[list[Fraction]], target: list[Fraction]) -> list[Fraction]:
    """x with sum_a x_a basis[a] = target; ValueError when target leaves the span."""
    k, n = len(basis), len(target)
    rows = _eliminate([[basis[a][r] for a in range(k)] + [target[r]] for r in range(n)], k)
    if any(rows[i][k] for i in range(k, n)):
        raise ValueError("bracket leaves the subalgebra")
    return [rows[i][k] for i in range(k)]


def subalgebra_data(n: int, table: dict, form, vectors) -> tuple[int, dict, list[list[Fraction]]]:
    """(k, bracket table, Gram matrix) of h = span(vectors) in the basis `vectors`."""
    vecs = [[Fraction(c) for c in v] for v in vectors]
    k = len(vecs)

    def bracket(x, y):
        out = [ZERO] * n
        for i in range(n):
            if x[i]:
                for j in range(n):
                    if y[j] and i != j:
                        f = x[i] * y[j]
                        for r, c in enumerate(bracket_vector(n, table, i, j)):
                            if c:
                                out[r] += f * c
        return out

    def pair(x, y):
        return sum((x[i] * form[i][j] * y[j] for i in range(n) for j in range(n) if x[i] and y[j]), ZERO)

    h_table = {}
    for a in range(k):
        for b in range(a + 1, k):
            coords = _coordinates(vecs, bracket(vecs[a], vecs[b]))
            if any(coords):
                h_table[(a, b)] = tuple(coords)
    gram = [[pair(vecs[a], vecs[b]) for b in range(k)] for a in range(k)]
    return k, h_table, gram


def relative_c(n: int, table: dict, form, vectors) -> dict[str, Fraction]:
    """c_g, c_h and c_rel = c_g - c_h for the pair (g, span(vectors))."""
    c_g = absolute_c(n, table, form)
    k, h_table, gram = subalgebra_data(n, table, form, vectors)
    c_h = absolute_c(k, h_table, gram)
    return {"c_g": c_g, "c_h": c_h, "c_rel": c_g - c_h}
