"""Exact dense linear algebra over rational scalars.

Every scalar is a `fractions.Fraction`, so results are exact and canonical.
All determinant-derived quantities share one integer kernel: the matrix is
scaled to integers once (each row by the lcm of its denominators) and reduced
by fraction-free Bareiss elimination (Bareiss 1968), forward for determinants
and cofactors, and as Gauss-Jordan on [A | I] for the inverse and adjugate.
Polynomials in x are interpolated exactly, in Newton form, through the
kernel's values at integer shifts x = 0, 1, 2, ..., singular shifts skipped
where an adjugate is needed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, islice
from math import lcm, prod
from operator import itemgetter
from typing import Iterable, Sequence

__all__ = [
    "Rational",
    "SingularMatrixError",
    "SquareMatrix",
    "Polynomial",
    "as_rational",
]

# All exact scalars in this package are plain fractions.
Rational = Fraction


class SingularMatrixError(ZeroDivisionError):
    """An exact inverse was requested for a matrix with zero determinant."""


# The one grammar for numbers given as text: graph-file tokens, CLI flags and
# as_rational strings. Digits are ASCII, "_" is refused, and each digit run is
# capped at 4300 digits (CPython's default int/str limit, which cli.main lifts).
_DIGITS = "[0-9]{1,4300}"
_INTEGER = re.compile(rf"[-+]?{_DIGITS}")
_RATIONAL = re.compile(
    rf"[-+]?(?:{_DIGITS}/{_DIGITS}|(?:{_DIGITS}(?:\.[0-9]{{0,4300}})?|\.{_DIGITS})(?:[eE][-+]?{_DIGITS})?)"
)


def _literal(text: str, integer: bool = False):
    """The int (if `integer`) or Fraction that `text` spells; ValueError outside the grammar."""
    if (_INTEGER if integer else _RATIONAL).fullmatch(text):
        try:
            return int(text) if integer else Fraction(text)
        except ZeroDivisionError:  # "1/0"
            pass
    raise ValueError(f"{text!r} is not {'an integer' if integer else 'a rational literal'}")


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and strings in the literal grammar ("3", "1/2", "0.25").

    Other strings raise ValueError. Floats are refused: a binary float is
    almost never the number the caller wrote down, and silently converting
    one would poison exact results.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            f"refusing inexact float {value!r}; pass an int, Fraction or string"
        )
    if isinstance(value, str):
        return _literal(value)
    return Fraction(value)


def _integer_rows(entries) -> tuple[list[list[int]], list[int]]:
    """Each row times the lcm of its denominators, and those row multipliers."""
    rows, mults = [], []
    for row in entries:
        mult = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (mult // x.denominator) for x in row])
        mults.append(mult)
    return rows, mults


def _bareiss(rows: list[list[int]], jordan: bool = False) -> int:
    """Determinant of the leading square block B of integer `rows`, eliminated in place.

    Fraction-free elimination: with p_k the pivot of step k (p_-1 = 1), step k
    sets entry (i, j) to (a[i][j] * p_k - a[i][k] * a[k][j]) // p_(k-1); the
    division is exact by Sylvester's identity. Rows below the pivot are
    cleared, and in `jordan` mode rows above it too, which leaves
    det * B**-1 * T in place of the trailing columns T. A zero pivot row is
    swapped with a lower row, negated to keep the sign. Returns 0 when B is
    singular.

    Sparsity is exploited in two ways that change no result:

    - Order. Rows and the columns of B are first permuted in place by one
      permutation, fewest nonzeros first, which leaves det B unchanged; in
      `jordan` mode the rows are put back in their original order at the end.
    - Lazy rows. A row with a zero in the pivot column is not touched at that
      step; level[i] holds the pivot of the step that last updated row i, so
      its up-to-date value is stored * p_(k-1) // level[i]. Updating it later
      divides by level[i] instead of p_(k-1). The pivot row is brought up to
      date when its step comes, and then counts as updated at that step.
      `jordan` mode brings every row's trailing block up to date at the end.

    Entries up to the pivot column go stale, and in forward mode the rows
    are left permuted.
    """
    n = len(rows)
    order = sorted(range(n), key=[row.count(0) for row in rows].__getitem__, reverse=True)
    permuted = order != list(range(n))
    if permuted:
        get = itemgetter(*order)
        rows[:] = get(rows)
        for row in rows:
            row[:n] = get(row)
    level = [1] * n
    prev = 1
    for k in range(n):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if rows[r][k] != 0), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = [-x for x in rows[swap]], rows[k]
            level[k], level[swap] = level[swap], level[k]
        rk = rows[k]
        if level[k] != prev:
            t = level[k]
            rk[k:] = [x * prev // t for x in rk[k:]]
        pivot = rk[k]
        tail = rk[k + 1:]
        for i in range(n) if jordan else range(k + 1, n):
            ri = rows[i]
            f = ri[k]
            if f and i != k:
                t = level[i]
                ri[k + 1:] = [(a * pivot - f * b) // t for a, b in zip(ri[k + 1:], tail)]
                level[i] = pivot
        level[k] = pivot
        prev = pivot
    if jordan:
        for row, t in zip(rows, level):
            if t != prev:
                row[n:] = [x * prev // t for x in row[n:]]
        if permuted:
            rows[:] = [row for _, row in sorted(zip(order, rows))]
    return prev


def _signed_minor(rows: list[list[int]], i: int, j: int) -> int:
    """(-1)**(i+j) * det(rows without row i and column j), by _bareiss."""
    minor = [row[:j] + row[j + 1:] for r, row in enumerate(rows) if r != i]
    return -_bareiss(minor) if (i + j) % 2 else _bareiss(minor)


def _shifted(rows: list[list[int]], mults: list[int], x: int) -> list[list[int]]:
    """Scaled rows of M + x*I, given the scaled rows of M and their multipliers."""
    shifted = [row[:] for row in rows]
    for r, mult in enumerate(mults):
        shifted[r][r] += x * mult
    return shifted


def _nonsingular(rows: list[list[int]], mults: list[int], shifts: Iterable[int]):
    """(x, det, adj) for each shift x at which the scaled rows B of M + x*I are nonsingular,
    from one Gauss-Jordan elimination of [B | I] per shift (det B * B**-1 = adj B)."""
    n = len(rows)
    for x in shifts:
        aug = [row + [int(r == c) for c in range(n)] for r, row in enumerate(_shifted(rows, mults, x))]
        d = _bareiss(aug, jordan=True)
        if d:
            yield x, d, [row[n:] for row in aug]


def _interpolated(nodes: Sequence[int], values: list[int], scale: int, terms=None) -> tuple[Fraction, ...]:
    """The lowest `terms` (default all) coefficients, constant term first, of the
    p with p(nodes[k]) = values[k] / scale, from its Newton form; terms=1 is
    Horner's rule for p(0). The nodes are distinct integers and scale * p must
    have integer coefficients (a determinant of integer rows shifted by integer
    multiples of x), so every divided difference is an integer and each // exact.
    """
    newton, diffs = [], values
    for k in range(1, len(values) + 1):
        newton.append(diffs[0])
        diffs = [(b - a) // (y - x) for a, b, x, y in zip(diffs, diffs[1:], nodes, nodes[k:])]
    coeffs: list[int] = []
    for node, c in zip(reversed(nodes), reversed(newton)):  # coeffs * (x - node) + c
        coeffs = [c, *coeffs[:terms]]
        for e in range(len(coeffs) - 1):
            coeffs[e] -= node * coeffs[e + 1]
    return tuple(Fraction(c, scale) for c in coeffs[:terms])


@dataclass(frozen=True)
class SquareMatrix:
    """Immutable dense n-by-n matrix of exact rationals (n = 0 permitted)."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(as_rational(x) for x in row) for row in self.entries)
        for row in rows:
            if len(row) != len(rows):
                raise ValueError(f"matrix is not square: {len(row)} != {len(rows)}")
        object.__setattr__(self, "entries", rows)

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        return cls(tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    @classmethod
    def zeros(cls, n: int) -> "SquareMatrix":
        zero = Fraction(0)
        return cls(tuple((zero,) * n for _ in range(n)))

    @property
    def n(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other: "SquareMatrix") -> "SquareMatrix":
        self._same_size(other)
        return SquareMatrix(
            tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries))
        )

    def __sub__(self, other: "SquareMatrix") -> "SquareMatrix":
        self._same_size(other)
        return SquareMatrix(
            tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries))
        )

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

    def scaled(self, factor) -> "SquareMatrix":
        c = as_rational(factor)
        return SquareMatrix(tuple(tuple(c * a for a in row) for row in self.entries))

    def transpose(self) -> "SquareMatrix":
        return SquareMatrix(tuple(zip(*self.entries))) if self.n else self

    def trace(self) -> Fraction:
        return sum((self.entries[i][i] for i in range(self.n)), Fraction(0))

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.entries)

    def is_symmetric(self) -> bool:
        return self.entries == self.transpose().entries

    def _same_size(self, other: "SquareMatrix") -> None:
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    # -- determinant and friends -------------------------------------------

    def det(self) -> Fraction:
        """Exact determinant; the empty matrix has determinant 1."""
        rows, mults = _integer_rows(self.entries)
        return Fraction(_bareiss(rows), prod(mults))

    def cofactor(self, i: int, j: int) -> Fraction:
        """Signed minor (-1)**(i+j) * det(self without row i and column j).

        A 1-by-1 matrix has cofactor 1 (the minor is the empty matrix).
        """
        self._check_index(i, j)
        rows, mults = _integer_rows(self.entries)
        return Fraction(_signed_minor(rows, i, j), prod(mults) // mults[i])

    def adjugate(self) -> "SquareMatrix":
        """Transposed cofactor matrix; satisfies self @ adjugate == det * I.

        One Gauss-Jordan elimination of the scaled rows B gives adj B if det B
        != 0. Otherwise each entry of adj(B + x*D), D the row scales, is an
        integer polynomial of degree below n, taken at the first n shifts
        x = 1, 2, ... with det(B + x*D) != 0 (at most n are skipped: that
        determinant has degree n) and interpolated back to x = 0.
        """
        n = self.n
        if n == 0:
            raise ValueError("adjugate is undefined for the empty matrix")
        rows, mults = _integer_rows(self.entries)
        scales = [prod(mults) // m for m in mults]
        found = _nonsingular(rows, mults, count())
        shift, d, adj = next(found)
        if not shift:
            return SquareMatrix(tuple(tuple(Fraction(a, s) for a, s in zip(row, scales)) for row in adj))
        nodes, _, adjs = zip((shift, d, adj), *islice(found, n - 1))
        return SquareMatrix(tuple(
            tuple(_interpolated(nodes, [a[i][j] for a in adjs], s, terms=1)[0] for j, s in enumerate(scales))
            for i in range(n)
        ))

    def inverse(self) -> "SquareMatrix":
        """Exact inverse by fraction-free Gauss-Jordan elimination of [A | I].

        A is the row-scaled integer matrix. Elimination leaves det(A) * A**-1
        in the right block, which is divided by det(A) once per entry and
        multiplied by the column's row scale (self**-1 = A**-1 * diag(scales)).
        Raises SingularMatrixError when det == 0.
        """
        rows, mults = _integer_rows(self.entries)
        for _, d, adj in _nonsingular(rows, mults, (0,)):
            return SquareMatrix(
                tuple(tuple(Fraction(x * m, d) for x, m in zip(row, mults)) for row in adj)
            )
        raise SingularMatrixError("matrix is singular")

    def delete_rows_cols(self, indices: Iterable[int]) -> "SquareMatrix":
        """Submatrix with the given rows AND columns removed, survivor order kept."""
        removed = set(indices)
        for r in removed:
            if not (0 <= r < self.n):
                raise IndexError(f"index {r} out of range for n={self.n}")
        kept = [i for i in range(self.n) if i not in removed]
        return SquareMatrix(
            tuple(tuple(self.entries[r][c] for c in kept) for r in kept)
        )

    def char_poly(self) -> Polynomial:
        """Coefficients of det(x*I + self), constant term first; leading coefficient 1.

        Interpolated exactly through the n + 1 determinants at x = 0, 1, ..., n,
        each taken on the scaled integer rows with x times the row scale added
        to the diagonal. principal_minor_sum is the independent subset-minor
        route to the same coefficients.
        """
        rows, mults = _integer_rows(self.entries)
        values = [_bareiss(_shifted(rows, mults, x)) for x in range(self.n + 1)]
        return Polynomial(_interpolated(range(self.n + 1), values, prod(mults)))

    def cofactor_poly(self, i: int, j: int) -> Polynomial:
        """Cofactor of (i, j) in lambda*I + self as n coefficients, constant term first.

        Interpolated exactly through the cofactors at lambda = 0, 1, ..., n-1,
        computed like char_poly's nodes. For i != j the top coefficient is 0.
        """
        self._check_index(i, j)
        rows, mults = _integer_rows(self.entries)
        values = [_signed_minor(_shifted(rows, mults, x), i, j) for x in range(self.n)]
        return Polynomial(_interpolated(range(self.n), values, prod(mults) // mults[i]))

    def _cofactor_polys(self) -> list[list[Polynomial]]:
        """The grid [i][j] = cofactor_poly(i, j), interpolated through the adjugates of
        the scaled rows at the first n shifts x = 0, 1, ... where det(self + x*I) != 0."""
        rows, mults = _integer_rows(self.entries)
        found = list(islice(_nonsingular(rows, mults, count()), self.n))
        nodes, scale = [x for x, _, _ in found], prod(mults)
        return [
            [Polynomial(_interpolated(nodes, [a[j][i] for _, _, a in found], scale // m)) for j in range(self.n)]
            for i, m in enumerate(mults)
        ]

    def _check_index(self, i: int, j: int) -> None:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexError(f"cofactor index ({i}, {j}) out of range for n={self.n}")

    def principal_minor_sum(self, k: int) -> Fraction:
        """Sum of det(self with every size-k index subset deleted).

        Equals coefficient k of char_poly(); k = n gives the empty-matrix
        convention det = 1.
        """
        n = self.n
        if not (0 <= k <= n):
            raise ValueError(f"k={k} out of range 0..{n}")
        total = Fraction(0)
        for gone in combinations(range(n), k):
            total += self.delete_rows_cols(gone).det()
        return total


@dataclass(frozen=True)
class Polynomial:
    """Coefficient sequence, low degree first: coeffs[k] multiplies x**k.

    Trailing zeros are kept; the declared degree is always len(coeffs) - 1.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(as_rational(c) for c in self.coeffs))

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
