"""Shift-space primitives.

One-sided subshifts of finite type over the alphabet {1, ..., m}, with the
beta-adic metric d(x, y) = sum_j |x_j - y_j| / beta^j.  All symbol data is
1-based to match the usual alphabet convention; transition matrices are 0/1
numpy arrays indexed from 0 (symbol s occupies row/column s-1).
Every count the lab takes, here the n of `count_admissible` and
`admissible_words`, obeys one rule, `integer_count`: an integer of any
integer type at or above its floor passes, and a bool, a float (3.0 too), a
string or a smaller value raises InputError naming the parameter.
`perron` takes one eigen-solve per call from numpy, so no module here
loads `scipy.linalg`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError, InvariantError


@dataclass(frozen=True)
class ShiftSpace:
    """A topologically mixing SFT: alphabet size, 0/1 transition matrix, metric base."""

    alphabet_size: int
    transition: np.ndarray
    beta: float

    def __post_init__(self):
        m = self.alphabet_size
        if m < 2:
            raise InvariantError(f"alphabet_size must be >= 2, got {m}",
                                 module="sofic", operation="ShiftSpace")
        if not 1.0 < self.beta < np.inf:
            raise InvariantError(f"beta must be finite and > 1, got {self.beta}",
                                 module="sofic", operation="ShiftSpace")
        t = np.asarray(self.transition, dtype=np.int8)
        if t.shape != (m, m):
            raise InvariantError(f"transition must be {m}x{m}, got {t.shape}",
                                 module="sofic", operation="ShiftSpace")
        if not np.isin(t, (0, 1)).all():
            raise InvariantError("transition entries must be 0 or 1",
                                 module="sofic", operation="ShiftSpace")
        dead = ~t.any(axis=1) | ~t.any(axis=0)
        if dead.any():
            raise InvariantError(f"symbol {dead.argmax() + 1} has no successor "
                                 "or no predecessor (dead symbol)",
                                 module="sofic", operation="ShiftSpace")
        t.setflags(write=False)
        object.__setattr__(self, "transition", t)
        if not self._is_primitive():
            raise InvariantError(
                "transition matrix is not primitive (SFT not topologically mixing)",
                module="sofic", operation="ShiftSpace")

    def _is_primitive(self):
        # Wielandt bound: a primitive m x m matrix has a positive power with
        # exponent at most (m-1)^2 + 1, and with no zero column every higher
        # power is positive too; squaring reaches a power past the bound.
        p = self.transition.astype(np.int64)
        for _ in range(((self.m - 1) ** 2).bit_length()):
            p = np.minimum(p @ p, 1)
        return bool(p.all())

    @property
    def m(self):
        return self.alphabet_size

    def allows(self, a, b):
        """Whether symbol b may follow symbol a."""
        return bool(self.transition[a - 1, b - 1])

    def metric_tail_bound(self, depth):
        """Upper bound on the metric mass beyond the given depth."""
        return (self.m - 1) * self.beta ** (-depth) / (self.beta - 1.0)

    def __eq__(self, other):
        """Equal alphabet size, transitions and beta."""
        return self is other or (isinstance(other, ShiftSpace)
                                 and self.to_json() == other.to_json())

    def to_json(self):
        return {"m": self.alphabet_size,
                "beta": float(self.beta),
                "transition": self.transition.astype(int).tolist()}

    @classmethod
    def full_shift(cls, m, beta=2.0):
        return cls(alphabet_size=m, transition=np.ones((m, m), dtype=np.int8), beta=beta)

    @classmethod
    def golden_mean(cls, beta=2.0):
        return cls(alphabet_size=2, transition=np.array([[1, 1], [1, 0]], dtype=np.int8),
                   beta=beta)


@dataclass(frozen=True)
class PointPrefix:
    """A finite, trusted prefix of a point of the shift space.

    Its builder (a seeded chain sample, a scheduled block orbit) materializes
    the symbols up to usable_depth; all downstream measure operations take
    an explicit depth budget and fail loudly past it.
    """

    symbols: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.symbols, dtype=np.int16)
        s.setflags(write=False)
        object.__setattr__(self, "symbols", s)

    @property
    def usable_depth(self):
        return int(self.symbols.shape[0])


def symbol_array(word, m, module, operation):
    """A word or an array of words as an integer array; raises InputError,
    tagged with the caller's module and operation, naming the first symbol
    that is not an integer or lies outside the alphabet 1..m.  A bool is no
    symbol, though numpy reads True as 1, and neither is 2.7, which a cast
    would truncate to 2.  An integer array is taken as it is; any other
    input is checked symbol by symbol."""
    w = np.asarray(word)
    if w.dtype.kind not in "iu" or not isinstance(word, np.ndarray):
        for c in np.asarray(word, dtype=object).flat:
            integral = isinstance(c, numbers.Integral) or (
                isinstance(c, numbers.Real) and float(c).is_integer())
            if isinstance(c, (bool, np.bool_)) or not integral:
                raise InputError(f"symbol {c!r} is not an integer",
                                 module=module, operation=operation)
        if w.dtype.kind not in "iu":
            w = w.astype(np.int64)
    if w.size and (w.min() < 1 or w.max() > m):
        bad = w.flat[((w < 1) | (w > m)).argmax()]
        raise InputError(f"symbol {bad} outside alphabet 1..{m}",
                         module=module, operation=operation)
    return w


def integer_count(value, name, module, operation, floor=1):
    """int(value) for an integer of any integer type at least `floor`, else
    InputError naming the parameter, tagged with the caller's module and
    operation: for a bool, a float (3.0 too), a string or a smaller value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}",
                         module=module, operation=operation)
    if value < floor:
        raise InputError(f"{name} must be >= {floor}, got {int(value)}",
                         module=module, operation=operation)
    return int(value)


def is_admissible(word, space):
    """True iff every adjacent symbol pair of the word is allowed; raises
    InputError naming the first symbol outside the alphabet."""
    w = symbol_array(word, space.m, "sofic", "is_admissible")
    return bool(space.transition[w[:-1] - 1, w[1:] - 1].all())


def connector(u, v, space):
    """Shortest bridge word omega with u omega v admissible.

    Ties at the minimal length are broken lexicographically.  Only the last
    symbol a of u and the first b of v matter.  One reverse breadth-first
    search from b gives each symbol's distance to b; the bridge then steps
    from a to the smallest successor one step closer, until it reaches a
    symbol that b may follow.
    """
    if not (len(u) and len(v)):
        raise InputError("connector requires nonempty words",
                         module="sofic", operation="connector")
    a, b = symbol_array((u[-1], v[0]), space.m, "sofic", "connector").tolist()
    t = space.transition.astype(bool)
    # dist[c]: fewest arcs from symbol c to b, 0 while unknown
    dist = np.zeros(space.m, dtype=np.int64)
    reach = t[:, b - 1]
    while not dist[a - 1]:
        new = reach & (dist == 0)
        if not new.any():
            raise InvariantError(
                f"no bridge between symbols {a} and {b}; space should have "
                "been rejected as non-primitive",
                module="sofic", operation="connector")
        dist[new] = dist.max() + 1
        reach = t[:, new].any(axis=1)
    bridge = [a]
    for _ in range(dist[a - 1] - 1):
        closer = t[bridge[-1] - 1] & (dist == dist[bridge[-1] - 1] - 1)
        bridge.append(int(np.flatnonzero(closer)[0]) + 1)
    return tuple(bridge[1:])


def perron(a):
    """(lam, right) of a nonnegative irreducible matrix from one numpy
    `eig(a)`: lam the eigenvalue of largest real part, right its vector
    normalised to sum 1.  A left vector of a is the right vector of
    `perron(a.T)`.  Raises InvariantError when lam is not real or the vector
    is not finite and of one sign, which a reducible or negative input can
    cause."""
    w, v = np.linalg.eig(np.asarray(a, dtype=np.float64))
    k = int(np.argmax(w.real))
    with np.errstate(divide="ignore", invalid="ignore"):
        right = v[:, k].real / v[:, k].real.sum()
    if w[k].imag or not (np.isfinite(right).all() and (right >= 0).all()):
        raise InvariantError(
            f"Perron vector for eigenvalue {w[k]} is not finite and of one "
            "sign (is the matrix irreducible?)",
            module="sofic", operation="perron")
    return float(w[k].real), right


def topological_entropy(space):
    """log of the Perron eigenvalue of the transition matrix."""
    return float(np.log(perron(space.transition)[0]))


def count_admissible(space, n):
    """Number of admissible words of length n (exact, arbitrary precision)."""
    n = integer_count(n, "n", "sofic", "count_admissible")
    m = space.m
    t = [[int(space.transition[i, j]) for j in range(m)] for i in range(m)]
    # row vector of ones times transition^(n-1), all in Python ints: no overflow
    row = [1] * m
    for _ in range(n - 1):
        row = [sum(row[i] * t[i][j] for i in range(m)) for j in range(m)]
    return sum(row)


def admissible_words(space, n):
    """All admissible words of length n, lexicographically ordered."""
    n = integer_count(n, "n", "sofic", "admissible_words")
    words = np.arange(1, space.m + 1)[:, None]
    for _ in range(n - 1):
        # row-major nonzero: each word's successors in increasing order
        rows, nxt = np.nonzero(space.transition[words[:, -1] - 1])
        words = np.column_stack([words[rows], nxt + 1])
    return [tuple(w) for w in words.tolist()]
