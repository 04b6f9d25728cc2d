"""Exact dense linear algebra over rational scalars.

Every scalar is a `fractions.Fraction`, so results are exact and canonical.
All determinant-derived quantities are taken on the same integer rows: the
matrix is scaled to integers once (each row by the lcm of its denominators)
and reduced by one fraction-free elimination (Bareiss 1968) with diagonal
pivots in a Markowitz order (Markowitz 1957). For a matrix equal to its
transpose, which the kernel finds from the scaled rows whatever the graph
kind, it updates the upper triangle only, keeps one level (the pivot at which
a row was last current) per row, and where the pivot rows allow it takes two
steps per pass (Bareiss's two-step method) with the same pivots and pivot
rows as single steps; a zero pivot restarts it on full rows, where a zero
pivot swaps in a lower row. On full rows each entry keeps its own level, so
a step visits only the columns where the pivot row is nonzero, in the rows
with a nonzero in the pivot column: on a directed det at n = 128 that is 19%
of the entries a row-level rule visits. The kernels are functions of
those rows and their multipliers, so `forest` runs them on rows built
straight from an arc list, and the SquareMatrix methods on the rows of their
entries. Determinants and cofactors are entries of the eliminated rows; the
inverse and the adjugate, singular or not, are solved from the pivot rows
(and, unless symmetric, the pivot columns) by fraction-free back
substitution, with no identity block carried along. Polynomials in x are
interpolated exactly, in Newton form, through the kernel's values at integer
shifts x = 0, 1, 2, ....
"""

from __future__ import annotations

import numbers
import re
from fractions import Fraction
from itertools import combinations, compress
from math import lcm, prod
from operator import itemgetter
from typing import Iterable, Sequence

__all__ = [
    "SingularMatrixError",
    "SquareMatrix",
    "Polynomial",
    "as_rational",
]

class SingularMatrixError(ZeroDivisionError):
    """An exact inverse was requested for a matrix with zero determinant."""


# The one grammar for numbers given as text: graph-file tokens, CLI flags and
# as_rational strings. Digits are ASCII, "_" is refused, and each digit run is
# capped at 4300 digits (CPython's default int/str limit, which cli.main lifts);
# so is the value of a decimal exponent, or a 10-character token like
# "1e1000000" would spell a million-digit number.
_DIGITS = "[0-9]{1,4300}"
_MAX_EXPONENT = 4300
_INTEGER = re.compile(rf"[-+]?{_DIGITS}")
_RATIONAL = re.compile(
    rf"[-+]?(?:{_DIGITS}/{_DIGITS}|(?:{_DIGITS}(?:\.[0-9]{{0,4300}})?|\.{_DIGITS})(?:[eE](?P<exp>[-+]?{_DIGITS}))?)"
)


def _literal(text: str, integer: bool = False):
    """The int (if `integer`) or Fraction that `text` spells; ValueError outside the grammar."""
    match = (_INTEGER if integer else _RATIONAL).fullmatch(text)
    if match and abs(int(match.groupdict().get("exp") or 0)) <= _MAX_EXPONENT:
        try:
            return int(text) if integer else Fraction(text)
        except ZeroDivisionError:  # "1/0"
            pass
    raise ValueError(f"{text!r} is not {'an integer' if integer else 'a rational literal'}")


def _is_bool(value) -> bool:
    """Whether value is a bool or a numpy bool (numpy.bool_, to which numpy 1.x
    still gives an __index__), without importing numpy."""
    return type(value).__name__ in ("bool", "bool_")


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and strings in the literal grammar ("3", "1/2", "0.25").

    Other strings raise ValueError. Inexact reals are refused, floats and
    numpy's floats of every width alike (a numbers.Real that is not a
    numbers.Rational): a binary float is almost never the number the caller
    wrote down, and silently converting one would poison exact results. Bools,
    numpy's too, are refused: True as a weight, lambda or entry is always a
    mistake. A numpy integer becomes a Fraction of Python ints, as one of
    fixed width would overflow silently in the kernels (a Fraction is taken as
    it is).
    """
    if type(value) is Fraction:
        return value
    if _is_bool(value):
        raise TypeError(f"refusing bool {value!r}; pass an int, Fraction or string")
    if isinstance(value, str):
        return _literal(value)
    if not isinstance(value, numbers.Rational) and isinstance(value, numbers.Real):
        raise TypeError(
            f"refusing inexact float {value!r}; pass an int, Fraction or string"
        )
    value = Fraction(value)
    if type(value.numerator) is not int:
        value = Fraction(int(value.numerator), int(value.denominator))
    return value


def _integer_rows(entries) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, and those row multipliers."""
    rows, mults = [], []
    for row in entries:
        mult = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (mult // x.denominator) for x in row])
        mults.append(mult)
    return rows, mults


def _symmetric(rows: list[list[int]], mults: list[int], pattern: list[set[int]]) -> bool:
    """Whether B_rc * d_c == B_cr * d_r at every nonzero (r, c) of the scaled rows
    B = D * M, pattern[r] the nonzero columns of row r: whether M equals its
    transpose. Stops at the first mismatch."""
    for r, cols in enumerate(pattern):
        row, dr = rows[r], mults[r]
        for c in cols:
            if rows[c][r] * dr != row[c] * mults[c]:
                return False
    return True


def _pivot_order(rows: list[list[int]], mults: list[int], last: tuple[int, ...]) -> tuple[list[int], bool]:
    """(order, symmetric): a greedy Markowitz order (Markowitz 1957) of diagonal
    pivots on the nonzero pattern of the scaled rows B = D * M, ending with the
    indices of `last`, and whether M equals its transpose, which holds when
    B_rc * d_c == B_cr * d_r at every nonzero of B (D = diag(mults)).

    Each step takes, of the indices not yet ordered and not in `last`, one whose
    pivot has the least Markowitz cost (r - 1) * (c - 1), r and c the nonzeros
    of its row and column, pivot included (the lowest index on a tie). Its
    elimination fills each row with a nonzero in its column with its row's
    pattern. On a symmetric pattern the cost is the square of the degree, so
    this is the greedy minimum-degree order (Tinney & Walker 1967) and the
    fill joins the neighbours into a clique; for a symmetric M the column
    patterns are the row patterns and are not kept twice. The diagonal does not
    change the order or the symmetry, so one call serves every shift M + x*I.

    The row patterns are a compress over each row's n entries; the column
    patterns are built from them in one pass over the nonzeros, and the greedy
    pick is a min over the indices not yet ordered.
    """
    n = len(rows)
    out = [set(compress(range(n), row)) for row in rows]
    symmetric = _symmetric(rows, mults, out)
    if symmetric:
        into = out
    else:
        into = [set() for _ in range(n)]
        for r, cols in enumerate(out):
            for c in cols:
                into[c].add(r)
    for r in range(n):
        out[r].discard(r)
        into[r].discard(r)
    cost = [len(a) * len(b) for a, b in zip(out, into)]
    left = [v for v in range(n) if v not in last]
    order = []
    while left:
        v = min(left, key=cost.__getitem__)
        left.remove(v)
        order.append(v)
        cols, below = out[v], into[v]
        for u in below:
            joined = out[u]
            joined |= cols
            joined.discard(u)
            joined.discard(v)
            cost[u] = len(joined) * len(into[u])
        if not symmetric:
            for c in cols:
                joined = into[c]
                joined |= below
                joined.discard(c)
                joined.discard(v)
                cost[c] = len(out[c]) * len(joined)
    return order + list(last), symmetric


def _forward(rows: list[list[int]], mults: list[int], order: list[int], symmetric: bool, steps: int, shift: int = 0):
    """The first `steps` steps of Bareiss elimination with diagonal pivots on the
    scaled rows B = D * (W + shift * I) of a matrix W, D = diag(mults), rows and
    columns permuted by `order`. `rows` is left unchanged: the permuted rows
    and row scales are gathered by one itemgetter of the order, though the
    copy still holds all n**2 entries.

    Returns the step k at which it stopped, p_k = 0 with column k zero in rows
    k..steps, so column k of the leading (steps + 1)-block depends on columns
    0..k-1 (after a symmetric run's restart, the restarted run's k); or (b, d,
    pivots, level, swaps): b the permuted rows, eliminated in place; d the
    permuted row scales; pivots = [1, p_0, ..., p_(steps-1)]; level[steps] the
    pivot at which row `steps` is stored, so that from column `steps` on its
    up-to-date value is stored * p_(steps-1) // level[steps]. Row k < steps of b
    holds, from column k on, the pivot row U_k as it stood at step k, so U_kk =
    p_k. On full rows, column k below row k holds the pivot column L_rk, up to
    date. Rows past `steps` are not updated.

    Lazy levels: an entry whose step would only multiply it by p_k and divide
    it by p_(k-1) is left as stored, with its level t, the pivot at which it
    was last current. Its up-to-date value is stored * p_(k-1) // t, taken when
    it is next used, and a later update divides by t instead of p_(k-1), still
    exact by Sylvester's identity. A pivot row is brought up to date when its
    step comes. On full rows (_full_rows) each entry has its own level: step k
    visits only the columns where pivot row k is nonzero, in the rows with a
    nonzero in column k, and a swap moves the levels with the rows. On a
    seed-1 directed forest_det at n = 128, a level per row would visit 23,745
    entries, 62% of them to multiply a zero by a zero pivot-row entry and 18%
    only to rescale a nonzero; per-entry levels visit the 4,625 (19%) that
    update. The symmetric route keeps one level per row, level[r], and skips a
    row whose pivot-column entry is zero: there a single step updates 56% of
    the entries it visits (seed-1 undirected det, n = 128).

    For a `symmetric` W only the upper triangle is updated, and swaps is None:
    every stage entry is a minor of B, and B_rk * d_k = B_kr * d_r, so entry
    (r, k) of a row below the pivot is rk[r] * d_r // d_k, read from the pivot
    row; for a lazy row its stored value is rk[r] * d_r * level[r] // (d_k *
    p_(k-1)). Where row k has a nonzero in column k + 1, k + 1 < steps and at
    least 10 rows remain from k to the last row updated, _paired takes steps k
    and k + 1 in one pass (three products and one division per entry, not four
    and two), with the pivots and pivot rows of two single steps; a zero
    p_(k+1) falls back to step k alone. On smaller runs, verify's and the
    small polynomial shifts, a pass costs more than it saves. A zero pivot
    restarts the run on full rows, which take single steps only. On full rows,
    a zero pivot p_k swaps in, negated, the first row r, k < r <= steps, with
    a nonzero in column k, and (k, r) joins swaps. The result then describes
    P * B, P the signed permutation of the swaps; det P = 1, so det(P * B) =
    det B and adj B = adj(P * B) * P.
    """
    n = len(rows)
    if n > 1:
        pick = itemgetter(*order)
        b = [list(pick(row)) for row in pick(rows)]
        d = list(pick(mults))
    else:  # the order is [] or [0], and itemgetter of one key returns the item
        b = [list(row) for row in rows]
        d = list(mults)
    if shift:
        for k, row in enumerate(b):
            row[k] += shift * d[k]
    if not symmetric:
        return _full_rows(b, d, steps)
    end = min(steps + 1, n)
    level = [1] * n
    pivots = [1]
    prev = 1
    k = 0
    while k < steps:
        rk = b[k]
        if not rk[k]:
            # column k below the pivot is zero exactly where row k right of it is
            return _forward(rows, mults, order, False, steps, shift) if any(rk[k + 1:end]) else k
        if level[k] != prev:
            t = level[k]
            rk[k:] = [x * prev // t for x in rk[k:]]
        pivot = rk[k]
        second = k + 1 < steps and end - k >= 10 and rk[k + 1] and _paired(b, d, level, k, end, prev)
        if second:
            pivots += (pivot, second)
            prev = second
            k += 2
            continue
        dk = d[k] * prev
        for r in compress(range(k + 1, end), rk[k + 1:end]):
            row, t = b[r], level[r]
            f = rk[r] * d[r] * t // dk
            row[r:] = [(a * pivot - f * x) // t for a, x in zip(row[r:], rk[r:])]
            level[r] = pivot
        pivots.append(pivot)
        prev = pivot
        k += 1
    return b, d, pivots, level, None


def _full_rows(b: list[list[int]], d: list[int], steps: int):
    """_forward on the full rows b, already permuted and shifted, with
    levels[r][c] the level of b[r][c]. Step k brings pivot row k up to date
    from column k on. In each row r with a nonzero L_rk, brought up to date in
    column k, each column c where U_kc is nonzero becomes (a * p_k - L_rk *
    U_kc) // p_(k-1) at level p_k, a its entry up to date. Row `steps` is
    brought up to date at the end, so every row through `steps` is current at
    the pivot before its step and the returned level is pivots itself. A row's
    levels share one list of ones until its first update.
    """
    n = len(b)
    end = min(steps + 1, n)
    ones = [1] * n
    levels = [ones] * end
    pivots = [1]
    swaps = []
    prev = 1
    for k in range(steps):
        rk = b[k]
        if not rk[k]:
            for r in range(k + 1, end):
                if b[r][k]:
                    break
            else:
                return k
            b[k], b[r] = [-x for x in b[r]], rk
            rk = b[k]
            levels[k], levels[r] = levels[r], levels[k]
            swaps.append((k, r))
        cols = [c for c, x in enumerate(rk[k:], k) if x]
        if k:  # at step 0 every level is 1 = p_(-1)
            lk = levels[k]
            for c in cols:
                # a level is the pivot object itself, so `is` finds a current
                # entry; an equal pivot of another step rescales by 1, also exact
                t = lk[c]
                if t is not prev:
                    rk[c] = rk[c] * prev // t
        pivot = rk[k]
        del cols[0]  # the pivot
        for r in range(k + 1, end):
            row = b[r]
            f = row[k]
            if f:
                lr = levels[r]
                if lr is ones:  # the row's first update
                    lr = levels[r] = [1] * n
                t = lr[k]
                if t is not prev:
                    f = row[k] = f * prev // t
                for c in cols:
                    t = lr[c]
                    row[c] = ((row[c] if t is prev else row[c] * prev // t) * pivot - f * rk[c]) // prev
                    lr[c] = pivot
        pivots.append(pivot)
        prev = pivot
    if n:  # row `steps`, up to date from column `steps` on
        row, lr = b[steps], levels[steps]
        for c in range(steps, n):
            t = lr[c]
            if t is not prev:
                row[c] = row[c] * prev // t
    return b, d, pivots, pivots, swaps


def _paired(b: list[list[int]], d: list[int], level: list[int], k: int, end: int, prev: int) -> int:
    """Steps k and k + 1 of _forward's symmetric route in one pass (Bareiss's
    two-step method), pivot row k up to date and p_(k-1) = prev. Returns
    p_(k+1) = c0 = (a00 * a11 - a01 * a10) // prev, with a00, a01, a10, a11 the
    leading 2-by-2 block of rows k and k + 1 (a10 read from the pivot row); if
    c0 is 0, only row k + 1 has been brought up to date.

    By Sylvester's identity a row i >= k + 2 becomes (a_ij * c0 + u * c1_j +
    v * c2_j) // t at its level t, u and v its entries in columns k and k + 1
    (read from the pivot rows), with the 2-by-2 minors c1_j = (a01 * a_(k+1)j
    - a11 * a_kj) // prev and c2_j = (a10 * a_kj - a00 * a_(k+1)j) // prev.
    Row k + 1 is left as [c0, -c2_j, ...], the pivot row step k would leave.
    """
    r0, r1 = b[k], b[k + 1]
    t = level[k + 1]
    if t != prev:
        r1[k + 1:] = [x * prev // t for x in r1[k + 1:]]
        level[k + 1] = prev
    a00, a01, a11 = r0[k], r0[k + 1], r1[k + 1]
    a10 = a01 * d[k + 1] // d[k]
    c0 = (a00 * a11 - a01 * a10) // prev
    if not c0:
        return 0
    c1 = [(a01 * y - a11 * x) // prev for x, y in zip(r0[k + 2:], r1[k + 2:])]
    c2 = [(a10 * x - a00 * y) // prev for x, y in zip(r0[k + 2:], r1[k + 2:])]
    d0, d1 = d[k] * prev, d[k + 1] * prev
    for i in range(k + 2, end):
        if r0[i] or r1[i]:
            row, t, j = b[i], level[i], i - k - 2
            u, v = r0[i] * d[i] * t // d0, r1[i] * d[i] * t // d1
            row[i:] = [(a * c0 + u * x + v * y) // t for a, x, y in zip(row[i:], c1[j:], c2[j:])]
            level[i] = c0
    r1[k + 1:] = [c0, *(-y for y in c2)]
    level[k + 1] = a00
    return c0


def _diagonal(rows: list[list[int]], mults: list[int], pair: tuple[int, int] | None = None, shifts: Iterable[int] = (0,)) -> list[int]:
    """det B if pair is None, else the signed minor (-1)**(i+j) * det(B without
    row i and column j) for pair = (i, j), of the scaled rows B = D * (W + x * I)
    of a matrix W, D = diag(mults), at each shift x. `rows` is left unchanged.

    One _pivot_order, for every shift, puts j and then i last (i alone if
    i == j). det B is the last diagonal entry after n - 1 steps of _forward,
    and a diagonal cofactor the last diagonal entry of the leading
    (n - 1)-block after n - 2. For i != j, n - 2 steps leave det B[P + j, P + i]
    (rows P and j, columns P and i, P the other indices) in entry
    (n - 2, n - 1), and the signed minor is its negation.
    """
    n = len(rows)
    i, j = pair or (None, None)
    off_diagonal = i != j
    last = (j, i) if off_diagonal else () if pair is None else (i,)
    size = n if pair is None else n - 1
    if size == 0:
        return [1 for _ in shifts]
    order, symmetric = _pivot_order(rows, mults, last)
    r = size - 1
    values = []
    for x in shifts:
        run = _forward(rows, mults, order, symmetric, r, shift=x)
        if isinstance(run, int):  # stopped: the block is singular
            values.append(0)
            continue
        b, _, pivots, level, _ = run
        entry = b[r][r + off_diagonal] * pivots[-1] // level[r]
        values.append(-entry if off_diagonal else entry)
    return values


def _substituted(coeffs: list[tuple[int, int]], rows: list[list[int]], k: int, p: int) -> list[int]:
    """-(sum of c * rows[j][k + 1:] over (j, c) in coeffs) // p, entry by entry."""
    acc = None
    for j, c in coeffs:
        tail = rows[j][k + 1:]
        acc = [c * y for y in tail] if acc is None else [a + c * y for a, y in zip(acc, tail)]
    return [0] * (len(rows) - k - 1) if acc is None else [-a // p for a in acc]


def _adjugate_lu(b: list[list[int]], d: list[int], pivots: list[int], det: int, symmetric: bool) -> list[list[int]]:
    """X = adj B of the permuted scaled rows B = D * W, det B = det, after
    _forward's n - 1 steps, by fraction-free back substitution (Nakos, Turner &
    Williams 1997).

    With L the pivot columns and U the pivot rows, B = L * diag(p_(k-1) * p_k)**-1
    * U, so U * X = det * diag(p_(k-1) * p_k) * L**-1, which is lower
    triangular with det * p_(k-1) on the diagonal. Row k of X is solved
    upward from the rows below it:

        p_k * X_kc = -sum(U_kj * X_jc for j > k)              (c > k)
        p_k * X_kk = det * p_(k-1) - sum(U_kj * X_jk for j > k)

    p_(n-1) would be det, so the corner X_(n-1,n-1) = det * p_(n-2) / det is
    set to p_(n-2), and every division is by one of p_0, ..., p_(n-2), nonzero
    in a completed run. Only det involves the corner entry t of B, linearly,
    so X is a polynomial in t equal to adj B wherever det != 0: also at 0.

    X is an integer matrix, so every division is exact. Column k below the
    diagonal is filled in before X_kk: for a `symmetric` W, adj B = adj W *
    adj D with adj W symmetric, so X_jk = X_kj * d_j // d_k and only the
    upper triangle is solved (Takahashi, Fagan & Chin 1973); otherwise
    X * L = det * U**-1 * diag(p_(k-1) * p_k), which is upper triangular,
    gives p_k * X_jk = -sum(X_ji * L_ik for i > k) from the columns of X.
    """
    n = len(b)
    x = [[0] * n for _ in range(n)]
    xt = x if symmetric else [[0] * n for _ in range(n)]  # xt[c] is column c of X
    if n:
        x[-1][-1] = xt[-1][-1] = pivots[-1]
    for k in range(n - 2, -1, -1):
        p, uk = pivots[k + 1], b[k]
        right = [(j, uk[j]) for j in range(k + 1, n) if uk[j]]
        row = x[k][k + 1:] = _substituted(right, x, k, p)
        if symmetric:
            dk = d[k]
            col = [y * dj // dk for y, dj in zip(row, d[k + 1:])]
        else:
            col = xt[k][k + 1:] = _substituted([(j, b[j][k]) for j in range(k + 1, n) if b[j][k]], xt, k, p)
            for xj, y in zip(xt[k + 1:], row):
                xj[k] = y
        for xj, y in zip(x[k + 1:], col):
            xj[k] = y
        x[k][k] = xt[k][k] = (det * pivots[k] - sum(u * x[j][k] for j, u in right)) // p
    return x


def _adjugate_run(rows: list[list[int]], mults: list[int], order: list[int], symmetric: bool, shift: int):
    """(det B, adj B) of the scaled rows B of M + shift*I in `order`, or the step
    at which _forward stopped. _adjugate_lu's X = adj(P B') of the permuted rows
    B' goes back through adj B' = X * P, swap by swap, then to index order."""
    n = len(rows)
    run = _forward(rows, mults, order, symmetric, n - 1, shift=shift)
    if isinstance(run, int):
        return run
    b, d, pivots, level, swaps = run
    det = b[-1][-1] * pivots[-1] // level[-1] if n else 1
    adj = _adjugate_lu(b, d, pivots, det, swaps is None)
    for k, r in reversed(swaps or ()):
        for row in adj:
            row[k], row[r] = row[r], -row[k]
    place = sorted(range(n), key=order.__getitem__)  # order[place[v]] == v
    return det, [list(map(adj[v].__getitem__, place)) for v in place]


def _adjugates(rows: list[list[int]], mults: list[int], shifts: Iterable[int]):
    """adj B of the scaled rows B of M + x*I at each shift x, singular or not.
    A run that stops at step k found column order[k] dependent on those before
    it, and reruns once with order[k] pivoted last. If that stops too, a second
    column is dependent: rank B <= n - 2 and adj B = 0."""
    order, symmetric = _pivot_order(rows, mults, ())
    for x in shifts:
        run = _adjugate_run(rows, mults, order, symmetric, x)
        if isinstance(run, int):
            run = _adjugate_run(rows, mults, [*order[:run], *order[run + 1:], order[run]], symmetric, x)
        yield [[0] * len(rows) for _ in rows] if isinstance(run, int) else run[1]


def _newton(nodes: Sequence[int], values: list[int]) -> list[int]:
    """The coefficients, constant term first, of the p with p(nodes[k]) = values[k],
    from its Newton form. The nodes are distinct integers and p has integer
    coefficients (a determinant of integer rows shifted by integer multiples of
    x), so every divided difference is an integer and each // exact."""
    newton, diffs = [], values
    for k in range(1, len(values) + 1):
        newton.append(diffs[0])
        diffs = [(b - a) // (y - x) for a, b, x, y in zip(diffs, diffs[1:], nodes, nodes[k:])]
    coeffs: list[int] = []
    for node, c in zip(reversed(nodes), reversed(newton)):  # coeffs * (x - node) + c
        coeffs = [c, *coeffs]
        for e in range(len(coeffs) - 1):
            coeffs[e] -= node * coeffs[e + 1]
    return coeffs


def _interpolated(nodes: Sequence[int], values: list[int], scale: int) -> tuple[Fraction, ...]:
    """The coefficients of the p with p(nodes[k]) = values[k] / scale; _newton's, over scale."""
    return tuple(Fraction(c, scale) for c in _newton(nodes, values))


def _cofactor_grid(rows: list[list[int]], mults: list[int]) -> tuple[list[list[list[int]]], list[list[list[int]]]]:
    """(grid, adjs): adjs[x] = adj B of the scaled rows B of M + x*I at x = 0, 1,
    ..., n - 1, singular or not; grid[i][j] the coefficients of the (i, j) cofactor
    of x*I + M times prod(mults) // mults[i], interpolated through each X_ji."""
    nodes = range(len(rows))
    adjs = list(_adjugates(rows, mults, nodes))
    return [[_newton(nodes, [a[j][i] for a in adjs]) for j in nodes] for i in nodes], adjs


def _in_range(index: int, n: int) -> bool:
    if _is_bool(index):  # an int subclass (numpy's is not), but never an index
        raise TypeError(f"index {index!r} is a bool, not an integer")
    return 0 <= index < n


def _check_index(n: int, i: int, j: int) -> None:
    if not (_in_range(i, n) and _in_range(j, n)):
        raise IndexError(f"cofactor index ({i}, {j}) out of range for n={n}")


# The kernels below take the scaled rows and row multipliers of a matrix M, as
# _integer_rows makes them (and graphs._scaled_rows, straight from an arc list),
# leave them unchanged, and return exact results; each finds out from the rows,
# through _pivot_order, whether M equals its transpose.


def _det(rows: list[list[int]], mults: list[int]) -> Fraction:
    """det M; the empty matrix has determinant 1."""
    return Fraction(_diagonal(rows, mults)[0], prod(mults))


def _cofactor(rows: list[list[int]], mults: list[int], i: int, j: int) -> Fraction:
    """Signed minor (-1)**(i+j) * det(M without row i and column j)."""
    _check_index(len(rows), i, j)
    return Fraction(_diagonal(rows, mults, (i, j))[0], prod(mults) // mults[i])


def _unscaled(x: list[list[int]], mults: list[int], den: int) -> "SquareMatrix":
    """The matrix with entry (r, c) = x_rc * d_c / den, for X an adjugate of the
    scaled rows B = D * M: adj B = adj M * adj D, so den = det D gives adj M and
    den = det B gives M**-1. Where the numerators x_rc * d_c and x_cr * d_r are
    equal, one Fraction is made and shared between (r, c) and (c, r): at every
    pair when M is symmetric, as then its adjugate and inverse are."""
    n = len(x)
    q = [[None] * n for _ in range(n)]
    for r, row in enumerate(x):
        for c in range(r, n):
            a, b = row[c] * mults[c], x[c][r] * mults[r]
            q[r][c] = Fraction(a, den)
            q[c][r] = q[r][c] if a == b else Fraction(b, den)
    return SquareMatrix._of(tuple(map(tuple, q)))


def _inverse(rows: list[list[int]], mults: list[int]) -> "SquareMatrix":
    """M**-1 = adj(B) * D / det(B), B = D * M the scaled rows, with adj B from one
    _adjugate_run. Raises SingularMatrixError when the run stops or det == 0."""
    run = _adjugate_run(rows, mults, *_pivot_order(rows, mults, ()), 0)
    if isinstance(run, int) or not run[0]:
        raise SingularMatrixError("matrix is singular")
    det, adj = run
    return _unscaled(adj, mults, det)


def _char_poly(rows: list[list[int]], mults: list[int]) -> "Polynomial":
    """det(x*I + M), interpolated through the n + 1 determinants at x = 0, 1, ..., n
    of the scaled rows with x times the row scale added to the diagonal. When
    every row of M sums to zero (every graph matrix), M * 1 = 0, so the value 0
    at x = 0 is known, and only x = 1, ..., n are eliminated."""
    nodes = range(len(rows) + 1)
    known = bool(rows) and not any(map(sum, rows))
    values = [0] * known + _diagonal(rows, mults, shifts=nodes[known:])
    return Polynomial(_interpolated(nodes, values, prod(mults)))


def _cofactor_poly(rows: list[list[int]], mults: list[int], i: int, j: int) -> "Polynomial":
    """The (i, j) cofactor of x*I + M, interpolated through its values at
    x = 0, 1, ..., n - 1, each shift taken like _char_poly's."""
    n = len(rows)
    _check_index(n, i, j)
    values = _diagonal(rows, mults, (i, j), range(n))
    return Polynomial(_interpolated(range(n), values, prod(mults) // mults[i]))


class _Value:
    """Base of the immutable value types. A subclass names its fields in
    __slots__, in constructor order, and its __init__ validates them and sets
    them with object.__setattr__. Values are equal when they are of the same
    type with equal fields, hash and print over those fields, and refuse
    assignment."""

    __slots__ = ()

    @classmethod
    def _of(cls, *fields):
        """The value of fields that are already valid, such as the square rows of
        Fractions a kernel has built or a validated graph's Arcs, without __init__'s checks."""
        value = object.__new__(cls)
        for name, field in zip(cls.__slots__, fields):
            object.__setattr__(value, name, field)
        return value

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since assignment is refused
        return type(self), self._key()


class SquareMatrix(_Value):
    """Immutable dense n-by-n matrix of exact rationals (n = 0 permitted)."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[tuple[Fraction, ...], ...]) -> None:
        rows = tuple(tuple(as_rational(x) for x in row) for row in entries)
        for row in rows:
            if len(row) != len(rows):
                raise ValueError(f"matrix is not square: {len(row)} != {len(rows)}")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __neg__(self) -> "SquareMatrix":
        return SquareMatrix(tuple(tuple(-a for a in row) for row in self.entries))

    def __matmul__(self, other: "SquareMatrix") -> "SquareMatrix":
        self._same_size(other)
        cols = tuple(zip(*other.entries)) if other.n else ()
        return SquareMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix(tuple(zip(*self.entries))) if self.n else self

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.entries)

    def is_symmetric(self) -> bool:
        return self.entries == tuple(zip(*self.entries))

    def _same_size(self, other: "SquareMatrix") -> None:
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    # -- determinant and friends -------------------------------------------

    def det(self) -> Fraction:
        """Exact determinant; the empty matrix has determinant 1."""
        return _det(*_integer_rows(self.entries))

    def cofactor(self, i: int, j: int) -> Fraction:
        """Signed minor (-1)**(i+j) * det(self without row i and column j).

        A 1-by-1 matrix has cofactor 1 (the minor is the empty matrix).
        """
        return _cofactor(*_integer_rows(self.entries), i, j)

    def adjugate(self) -> "SquareMatrix":
        """Transposed cofactor matrix; satisfies self @ adjugate == det * I.

        adj B of the scaled rows B = D * self, singular or not, comes from one
        forward elimination and back substitution, whose corner is the leading
        (n - 1)-minor; a run that stops at a dependent column is run once more
        with that column pivoted last (see _adjugates).
        """
        if self.n == 0:
            raise ValueError("adjugate is undefined for the empty matrix")
        rows, mults = _integer_rows(self.entries)
        (adj,) = _adjugates(rows, mults, (0,))
        return _unscaled(adj, mults, prod(mults))

    def inverse(self) -> "SquareMatrix":
        """Exact inverse from one fraction-free forward elimination of the scaled
        rows with diagonal pivots (a row swap at a zero pivot) and a
        fraction-free back substitution; raises SingularMatrixError when det == 0."""
        return _inverse(*_integer_rows(self.entries))

    def delete_rows_cols(self, indices: Iterable[int]) -> "SquareMatrix":
        """Submatrix with the given rows AND columns removed, survivor order kept."""
        indices = tuple(indices)
        for r in indices:  # each one, as a set keeps only the first of 1 and True
            if not _in_range(r, self.n):
                raise IndexError(f"index {r} out of range for n={self.n}")
        removed = set(indices)
        kept = [i for i in range(self.n) if i not in removed]
        return SquareMatrix._of(tuple(tuple(self.entries[r][c] for c in kept) for r in kept))

    def char_poly(self) -> Polynomial:
        """Coefficients of det(x*I + self), constant term first; leading coefficient 1.

        principal_minor_sum is the independent subset-minor route to the same
        coefficients.
        """
        return _char_poly(*_integer_rows(self.entries))

    def cofactor_poly(self, i: int, j: int) -> Polynomial:
        """Cofactor of (i, j) in lambda*I + self as n coefficients, constant term
        first; for i != j the top coefficient is 0."""
        return _cofactor_poly(*_integer_rows(self.entries), i, j)

    def principal_minor_sum(self, k: int) -> Fraction:
        """Sum of det(self with every size-k index subset deleted).

        Equals coefficient k of char_poly(); k = n gives the empty-matrix
        convention det = 1.
        """
        n = self.n
        if not (0 <= k <= n):
            raise ValueError(f"k={k} out of range 0..{n}")
        return sum((self.delete_rows_cols(gone).det() for gone in combinations(range(n), k)), Fraction(0))


class Polynomial(_Value):
    """Coefficient sequence, low degree first: coeffs[k] multiplies x**k.

    Trailing zeros are kept; the declared degree is always len(coeffs) - 1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[Fraction, ...]) -> None:
        if len(coeffs) == 0:
            raise ValueError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(as_rational(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x) -> Fraction:
        """Horner's rule on integers: with x = p/q and every coefficient over the
        common denominator d, q**degree * d * value is an integer."""
        point = as_rational(x)
        p, q = point.numerator, point.denominator
        d = lcm(*(c.denominator for c in self.coeffs))
        acc, qk = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * p + c.numerator * (d // c.denominator) * qk
            qk *= q
        return Fraction(acc, d * qk // q)
