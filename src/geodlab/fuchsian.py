"""Cocompact Fuchsian surface groups: enumeration and the length spectrum.

The Bolza group is arithmetic.  Every element is (a, b) = (alpha, beta*gamma)
with alpha and gamma in Z[zeta8], zeta = exp(i pi/4), and beta =
sqrt(2 + 2 sqrt 2), whose square lies in Z[zeta8] (Aurich, Bogomolny &
Steiner, Physica D 48, 1991).  So an element is a row of 8 integers, the
coefficients of alpha and gamma on 1, zeta, zeta^2, zeta^3, and products,
equality, conjugacy and length ties are integer operations.  Floats are only
views for the geometry: ``Ball.a``, ``Ball.b``, displacements and axes.

The orbit ball is a breadth-first search over the Cayley graph, pruned by a
proven bound, one integer product per letter and level, deduplicated through
sorted 64-bit row hashes with a full-row check on every hash hit.  Each level
is expanded in blocks of ``BFS_BLOCK_ROWS`` frontier rows that keep only the
candidates within the cutoff, so memory follows the stored rows.  Conjugacy
classes are labelled on the elements whose axis meets the inscribed disk of
the octagon F, joined by exact conjugation, and cross-validated against an
independent cyclic-word canonicalization on small lengths.  That searches
relator substitutions through one move table per relator, (k, u,
inverse(v)) for every rotation u v, matched with ``bytes.find``; a build
searches each distinct start word once.  The table is columnar; each
class's axis is that of the rotation of its canonical word of least exact
displacement, multiplied out in one batch, so a built table and its reload
agree bit for bit.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

import numpy as np

from . import hypgeom as hg
from .errors import (
    BadSurfaceError, CanonicalizationError, OutOfRangeError,
    PartialEnumerationError, SpectrumInconsistencyError,
)

LETTER_NAMES = "aAbBcCdDeEfF"  # letter 2k = generator k, 2k+1 = its inverse


# ---------------------------------------------------------------------------
# exact arithmetic: an element (alpha, gamma) is a row of 8 integers

SQRT2 = math.sqrt(2.0)
BETA = math.sqrt(2.0 + 2.0 * SQRT2)
BETA2 = np.array([2, 2, 0, -2])          # beta^2 = 2 + 2 sqrt 2, sqrt 2 = zeta - zeta^3
# the regular octagon F: inradius half the generator displacement, cosh =
# 1 + sqrt 2; circumradius by the triangle (apothem, half-side, vertex)
INRADIUS = math.acosh(1.0 + SQRT2)
CIRCUMRADIUS = math.atanh(math.tanh(INRADIUS) / math.cos(math.pi / 8.0))
IDENTITY = np.array([1, 0, 0, 0, 0, 0, 0, 0])
# odd multipliers of the row hash; any collision is caught by a row check
_HASH = np.array([-1595899065556913669, 4494335611049888189, -1672097382897533453,
                  2661394185906659235, 3411693142509005041, -1004565349755026245,
                  -572938594420973863, -1173684208904758251])


# zeta^i * y is y shifted i places, negated where it wraps (zeta^4 = -1)
_SHIFT = (np.arange(4)[None, :] - np.arange(4)[:, None]) % 4
_WRAP = np.where(np.arange(4)[None, :] < np.arange(4)[:, None], -1, 1)


def _zmul(x, y):
    """Product in Z[zeta8] over the last axis."""
    return (x[..., None, :] @ (y[..., _SHIFT] * _WRAP))[..., 0, :]


def _zconj(x):
    """Complex conjugate in Z[zeta8]: zeta -> zeta^-1 = -zeta^3."""
    return np.stack([x[..., 0], -x[..., 3], -x[..., 2], -x[..., 1]], axis=-1)


def ring_compose(u, v):
    """Matrix product of elements given as integer rows (..., 8)."""
    a1, g1, a2, g2 = u[..., :4], u[..., 4:], v[..., :4], v[..., 4:]
    return np.concatenate([_zmul(a1, a2) + _zmul(BETA2, _zmul(g1, _zconj(g2))),
                           _zmul(a1, g2) + _zmul(g1, _zconj(a2))], axis=-1)


def ring_to_ab(rows):
    """Float (a, b) of integer rows."""
    h = math.sqrt(0.5)

    def value(c):
        return (c[..., 0] + (c[..., 1] - c[..., 3]) * h) \
            + 1j * (c[..., 2] + (c[..., 1] + c[..., 3]) * h)
    return value(rows[..., :4]), BETA * value(rows[..., 4:])


def ring_trace(rows):
    """Signed trace 2 Re(alpha) = m + n sqrt 2, m = 2 c0, n = c1 - c3."""
    return 2 * rows[..., 0] + (rows[..., 1] - rows[..., 3]) * SQRT2


def trace_length(tr):
    """Translation length of elements of trace tr (0 for |tr| <= 2)."""
    return 2.0 * np.arccosh(np.maximum(np.abs(tr), 2.0) / 2.0)


def _right_matrices(ring):
    """(n, 8, 8) integer matrices R with row @ R[l] = row * letter l."""
    return ring_compose(np.eye(8, dtype=np.int64), ring[:, None, :])


def _letter_products(rows, letters, right):
    """Integer row i times letter letters[i], one matrix product per letter;
    ``right`` is ``_right_matrices(ring)``."""
    out = np.empty((len(rows), 8), dtype=np.int64)
    for k, r in enumerate(right):
        sel = letters == k
        out[sel] = rows[sel] @ r
    return out


def _inverse_rows(rows):
    """Inverse (conj(alpha), -gamma) of each unit-determinant row."""
    return np.concatenate([_zconj(rows[..., :4]), -rows[..., 4:]], axis=-1)


def _conjugation_matrices(rows):
    """(n, 8, 8) integer matrices C with g @ C[k] = rows[k] g rows[k]^-1."""
    left = ring_compose(rows[:, None, :], np.eye(8, dtype=np.int64))
    return ring_compose(left, _inverse_rows(rows)[:, None, :])


def least_displacement(rows, group):
    """Position in ``rows`` of each group's element of least displacement,
    the first on ties; ``group`` labels the rows 0, 1, ...

    Displacement grows with |alpha|^2 = p + q sqrt 2 (integers p, q), and
    sqrt 2 -> -sqrt 2 sends det = |alpha|^2 - (2 + 2 sqrt 2)|gamma|^2 = 1 to
    |alpha'|^2 + (2 sqrt 2 - 2)|gamma'|^2 = 1.  So 0 <= p - q sqrt 2 <= 1,
    and p + q sqrt 2 = 2p - (p - q sqrt 2) orders exactly as (p, q).
    """
    absq = _zmul(rows[:, :4], _zconj(rows[:, :4]))
    order = np.lexsort((absq[:, 1], absq[:, 0], group))
    return order[np.r_[0, np.nonzero(np.diff(group[order]))[0] + 1]]


def _row_hash(rows):
    return rows.astype(np.int64, copy=False) @ _HASH     # wraps modulo 2^64


def ordered_searchsorted(a, v, side="left"):
    """``np.searchsorted(a, v, side)``, probed in ascending order of v: the
    same positions, but the binary searches walk ``a`` in order instead of
    at random."""
    o = np.argsort(v)
    out = np.empty(len(v), dtype=np.intp)
    out[o] = np.searchsorted(a, v[o], side=side)
    return out


def _first_copies(rows, h):
    """Sorted indices of the first copy of each distinct row."""
    keep, todo = [], np.arange(len(rows))
    while len(todo):
        _, first, inv = np.unique(h[todo], return_index=True, return_inverse=True)
        head = todo[first]
        keep.append(head)
        todo = todo[(rows[todo] != rows[head[inv]]).any(axis=1)]
    return np.sort(np.concatenate(keep)) if keep else todo


class _RowIndex:
    """Exact index of stored integer rows.

    Rows are found through their sorted 64-bit hashes; every hash hit is
    confirmed by comparing the full row, so a collision never merges two
    elements.
    """

    def __init__(self, rows):
        self.rows = rows
        self.hash = _row_hash(rows)
        self.order = np.argsort(self.hash, kind="stable")
        self.hash = self.hash[self.order]

    def find(self, q, h=None):
        """Stored position of each row of q, or -1."""
        h = _row_hash(q) if h is None else h
        at = ordered_searchsorted(self.hash, h)
        out = np.full(len(q), -1, dtype=np.int64)
        todo = np.arange(len(q))
        while len(todo):
            live = at[todo] < len(self.hash)
            todo = todo[live]
            todo = todo[self.hash[at[todo]] == h[todo]]
            pos = self.order[at[todo]]
            hit = (self.rows[pos] == q[todo]).all(axis=1)
            out[todo[hit]] = pos[hit]
            todo = todo[~hit]
            at[todo] += 1
        return out

    def add_new(self, q):
        """Store the rows of q not yet stored, first copy of each; return
        their indices in q, in order."""
        h = _row_hash(q)
        new = _first_copies(q, h)
        new = new[self.find(q[new], h[new]) < 0]
        base = len(self.rows)
        self.rows = np.concatenate([self.rows, q[new]])
        hn = h[new]
        o = np.argsort(hn, kind="stable")
        at = np.searchsorted(self.hash, hn[o])
        self.hash = np.insert(self.hash, at, hn[o])
        self.order = np.insert(self.order, at, base + o)
        return new


# ---------------------------------------------------------------------------
# surface model

@dataclass(frozen=True)
class SurfaceModel:
    """A cocompact surface group given by generator matrices and a relator.

    Letters are indexed 0..4g-1; the inverse of letter i is i XOR 1.
    ``ring`` holds each letter exactly as its integer row (alpha, gamma).
    """

    name: str
    gen_a: np.ndarray          # (4g,) complex
    gen_b: np.ndarray          # (4g,) complex
    ring: np.ndarray           # (4g, 8) integer
    relator: tuple[int, ...]
    entropy_h: float
    domain_diameter: float     # diameter bound of the Dirichlet domain

    @property
    def n_letters(self) -> int:
        return len(self.gen_a)

    @property
    def domain_radius(self) -> float:
        return 0.5 * self.domain_diameter

    def generator(self, letter: int) -> hg.Isometry:
        return hg.Isometry(complex(self.gen_a[letter]), complex(self.gen_b[letter]))

    def eval_word(self, word) -> tuple[complex, complex]:
        a, b = 1 + 0j, 0j
        for l in word:
            a, b = hg.compose_ab(a, b, self.gen_a[l], self.gen_b[l])
        return a, b


def bolza() -> SurfaceModel:
    """Genus-2 Bolza surface: regular octagon, curvature -1, entropy 1.

    The four generators are rotations by k*pi/4 of the matrix with diagonal
    1+sqrt(2) and off-diagonal sqrt(2+2*sqrt(2)): alpha = 1 + zeta - zeta^3
    and gamma = zeta^k, negated for the inverse.
    """
    a0 = 1.0 + SQRT2
    ga = np.zeros(8, dtype=complex)
    gb = np.zeros(8, dtype=complex)
    ring = np.zeros((8, 8), dtype=np.int64)
    for k in range(4):
        phase = np.exp(1j * k * math.pi / 4.0)
        ga[2 * k], gb[2 * k] = a0, BETA * phase
        ga[2 * k + 1], gb[2 * k + 1] = a0, -BETA * phase
        ring[2 * k:2 * k + 2, :4] = (1, 1, 0, -1)
        ring[2 * k:2 * k + 2, 4 + k] = (1, -1)
    # g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3 closes to the identity
    relator = (0, 3, 4, 7, 1, 2, 5, 6)
    return _validated(SurfaceModel(
        name="bolza", gen_a=ga, gen_b=gb, ring=ring, relator=relator,
        entropy_h=1.0, domain_diameter=2.0 * CIRCUMRADIUS))


def _validated(s: SurfaceModel) -> SurfaceModel:
    if s.entropy_h <= 0:
        raise BadSurfaceError("entropy must be positive")
    if s.n_letters % 2 or s.n_letters < 4:
        raise BadSurfaceError("need an even number of letters (generators + inverses)")
    a, b = ring_to_ab(s.ring)
    if max(np.abs(a - s.gen_a).max(), np.abs(b - s.gen_b).max()) > 1e-12:
        raise BadSurfaceError("generator matrices differ from their ring form")
    g = s.ring[0::2]
    if not np.array_equal(s.ring[1::2], _inverse_rows(g)):
        raise BadSurfaceError("letter 2k+1 is not the inverse of letter 2k")
    if (np.abs(ring_trace(g)) <= 2.0).any():
        raise BadSurfaceError("a generator is not hyperbolic")
    right = _right_matrices(s.ring)
    if not (right[0::2] @ right[1::2] == np.eye(8)).all():
        raise BadSurfaceError("a generator does not have unit determinant")
    if not np.array_equal(reduce(np.matmul, right[list(s.relator)], IDENTITY), IDENTITY):
        raise BadSurfaceError("relator does not close to the identity")
    return s


# ---------------------------------------------------------------------------
# word utilities

def inverse_word(word):
    return tuple(l ^ 1 for l in reversed(word))


# byte translation tables: letter index <-> its name, 0xff for anything else
_NAME_OF = bytes(LETTER_NAMES, "ascii").ljust(256, b"\xff")
_LETTER_OF = bytes(LETTER_NAMES.find(chr(c)) % 256 for c in range(256))


def word_to_str(word):
    return bytes(word).translate(_NAME_OF).decode("ascii")


def str_to_word(s):
    word = s.encode("ascii", "replace").translate(_LETTER_OF)
    if 0xff in word:
        raise ValueError(f"unknown letter in {s!r}")
    return tuple(word)


# ---------------------------------------------------------------------------
# ball enumeration

class Ball:
    """All group elements with displacement <= radius, with word recovery.

    Storage covers the pruned search region (displacement <= radius +
    DEFAULT_C_PRUNE); ``inside`` masks the contractual ball.  ``rows`` holds
    each element exactly, ``a`` and ``b`` are its float view, formed on first
    use (a spectrum build never reads them).  Words are recovered by climbing
    parent pointers.
    """

    def __init__(self, surface, radius, index, disp, parent, letter):
        self.surface = surface
        self.radius = radius
        self._index = index
        self.rows = index.rows
        self.disp = disp
        self.parent = parent
        self.letter = letter
        self.inside = disp <= radius
        self._by_trace = None

    @cached_property
    def _ab(self):
        return ring_to_ab(self.rows)

    a = property(lambda self: self._ab[0])
    b = property(lambda self: self._ab[1])

    @property
    def size(self) -> int:
        return int(self.inside.sum())

    def count(self, r) -> int:
        if r > self.radius + 1e-12:
            raise OutOfRangeError(f"radius {r} beyond ball cutoff {self.radius}")
        return int((self.disp <= r).sum())

    def word_of(self, i) -> tuple[int, ...]:
        out = []
        while i > 0:
            out.append(int(self.letter[i]))
            i = int(self.parent[i])
        return tuple(reversed(out))

    def find(self, rows):
        """Stored position of each integer row, or -1."""
        return self._index.find(rows)

    def contains_matrix(self, a, b) -> bool:
        """Whether +-(a, b) is a stored element, to relative accuracy 1e-9."""
        if self._by_trace is None:
            order = np.argsort(np.abs(self.a.real))
            self._by_trace = order, np.abs(self.a.real[order])
        order, key = self._by_trace
        tol = 1e-9 * (abs(a) + abs(b))
        lo, hi = np.searchsorted(key, [abs(a.real) - tol, abs(a.real) + tol])
        i = order[lo:hi]
        err = np.minimum(np.abs(self.a[i] - a) + np.abs(self.b[i] - b),
                         np.abs(self.a[i] + a) + np.abs(self.b[i] + b))
        return bool((err <= tol).any())


DEFAULT_HARD_CAP = 16.0
FLOAT_PAD = 1e-9           # slack against float rounding at a proven cutoff
DEFAULT_C_PRUNE = CIRCUMRADIUS - INRADIUS + FLOAT_PAD   # see enumerate_ball
BFS_BLOCK_ROWS = 1 << 14   # frontier rows expanded at once within a BFS level
MAX_BALL_ELEMENTS = 30_000_000   # stored rows after which a BFS gives up


def enumerate_ball(surface: SurfaceModel, R: float) -> Ball:
    """The elements g with d(o, go) <= R: a BFS over the Cayley graph cut to
    displacement R + DEFAULT_C_PRUNE, deduplicated by exact element.

    The BFS stores the identity's component of the cut graph, which holds
    g: walk the tiles that [o, go] crosses, consecutive ones differing by a
    letter (at a vertex, go round it).  A point p of [o, go] in a tile
    gamma F != gF has d(p, go) >= rho = INRADIUS, as the open rho-disk about
    go lies in gF; so d(o, gamma o) <= d(o, p) + r_c <= R - rho + r_c, r_c
    = CIRCUMRADIUS.  The slack is FLOAT_PAD, against float rounding.
    """
    if R > DEFAULT_HARD_CAP:
        raise OutOfRangeError(
            f"R = {R} exceeds the hard cap {DEFAULT_HARD_CAP}")
    parts = _orbit_bfs(surface, R + DEFAULT_C_PRUNE, c_prune=DEFAULT_C_PRUNE)
    return Ball(surface, R, *parts)


def brute_force_ball(surface: SurfaceModel, max_word_len: int) -> Ball:
    """Exhaustive word search without displacement pruning (test oracle)."""
    index, d, parent, letter = _orbit_bfs(surface, math.inf, max_levels=max_word_len)
    return Ball(surface, float(d.max()), index, d, parent, letter)


def _orbit_bfs(surface, cutoff, *, max_levels=math.inf, c_prune=0.0):
    """Level-by-level BFS over reduced words, deduplicated by exact element.

    Each level extends the previous level's new elements by every letter
    but the backtrack, drops those with displacement above ``cutoff`` (from
    the float view, before any integer product is formed) and keeps the
    first of each element not seen before.  The frontier is expanded
    ``BFS_BLOCK_ROWS`` rows at a time and only the kept candidates of each
    block are held, in the order a single block would give.  Stops when a
    level adds nothing, after ``max_levels`` levels, or raises
    PartialEnumerationError past ``MAX_BALL_ELEMENTS`` rows.  Returns (index,
    disp, parent, letter) with the identity at position 0.
    """
    ga, gb = surface.gen_a, np.conj(surface.gen_b)
    right = _right_matrices(surface.ring)
    backtrack = np.arange(surface.n_letters) ^ 1
    index = _RowIndex(IDENTITY[None, :].astype(np.int32))
    d_parts = [np.array([0.0])]
    p_parts = [np.array([-1], dtype=np.int64)]
    l_parts = [np.array([-1], dtype=np.int8)]
    total = 1

    fr = index.rows
    fi = np.array([0], dtype=np.int64)
    fl = np.array([-1], dtype=np.int8)

    level = 0
    while len(fr) and level < max_levels:
        level += 1
        # expand frontier by all letters, skipping the immediate backtrack
        src, let, disp, prod = [], [], [], []
        wide = False
        for i in range(0, len(fr), BFS_BLOCK_ROWS):
            br = fr[i:i + BFS_BLOCK_ROWS]
            fa, fb = ring_to_ab(br)
            d = hg.displacement_ab(fa[:, None] * ga + fb[:, None] * gb, 0.0)
            s, l = np.nonzero((d <= cutoff)
                              & (fl[i:i + BFS_BLOCK_ROWS, None] != backtrack))
            p = _letter_products(br[s], l, right)
            wide = wide or (len(p) and np.abs(p).max() >= 2**31)
            src.append(s + i)
            let.append(l.astype(np.int8))
            disp.append(d[s, l])
            prod.append(p.astype(np.int32))
        src, let, disp = (np.concatenate(x) for x in (src, let, disp))
        if not len(src):
            break
        if wide:
            raise PartialEnumerationError("integer coefficients exceed int32",
                                          max(float(disp.min()) - c_prune, 0.0))
        prod = np.concatenate(prod)
        new = index.add_new(prod)
        if not len(new):
            break
        d_parts.append(disp[new])
        p_parts.append(fi[src[new]])
        l_parts.append(let[new])
        total += len(new)
        if total > MAX_BALL_ELEMENTS:
            raise PartialEnumerationError(
                f"element budget {MAX_BALL_ELEMENTS} exceeded",
                max(float(disp[new].min()) - c_prune, 0.0))
        fr, fl = prod[new], let[new]
        fi = np.arange(total - len(new), total, dtype=np.int64)

    return (index, np.concatenate(d_parts), np.concatenate(p_parts),
            np.concatenate(l_parts))


# ---------------------------------------------------------------------------
# cyclic-word canonicalization (Dehn reduction for the surface relator)

@lru_cache(maxsize=None)
def _relator_moves(relator):
    """Move table of a relator: (k, len(r), u as bytes, inverse(v)) for
    every rotation r = u v of the relator and of its inverse, k = len(u) >= 1,
    in rotation order and then ascending k."""
    rots = set()
    for base in (relator, inverse_word(relator)):
        n = len(base)
        for i in range(n):
            rots.add(base[i:] + base[:i])
    return tuple((k, len(rot), bytes(rot[:k]), inverse_word(rot[k:]))
                 for rot in rots for k in range(1, len(rot)))


@lru_cache(maxsize=None)
def _live_moves(relator, n, max_len):
    """The (k, u, inverse(v)) of the move table that apply to a cyclic word
    of length n with nominal result length n - 2k + len(r) <= max_len."""
    return tuple((k, u, repl) for k, rl, u, repl in _relator_moves(relator)
                 if k <= n and n - 2 * k + rl <= max_len)


@lru_cache(maxsize=None)
def _dehn_moves(relator):
    """The (u, inverse(v)) of the move table with u longer than half r."""
    take = len(relator) // 2 + 1
    return tuple((u, repl) for k, rl, u, repl in _relator_moves(relator)
                 if k == take)


def _free_reduce(word):
    out = []
    for l in word:
        if out and out[-1] == l ^ 1:
            out.pop()
        else:
            out.append(l)
    return tuple(out)


def _cyclic_reduce(word):
    w = list(_free_reduce(word))
    while len(w) >= 2 and w[0] == w[-1] ^ 1:
        w = w[1:-1]
    return tuple(w)


def _dehn_step(word, relator):
    """One rewrite: replace a long relator subword by its shorter complement.

    Looks for cyclic subwords strictly longer than half the relator, the
    first in table order and then position; returns the rewritten cyclic
    word or None if none applies.
    """
    n = len(word)
    if n <= len(relator) // 2:
        return None
    doubled = word + word
    text = bytes(doubled)
    for u, repl in _dehn_moves(relator):
        # u = rot[:take] equals inverse(rot[take:]) in the group
        i = text.find(u)
        if 0 <= i < n:
            return _cyclic_reduce(repl + doubled[i + len(u):i + n])
    return None


def dehn_cyclic_reduce(word, surface):
    """Cyclically reduce, then shrink with Dehn rewrites to a fixpoint."""
    w = _cyclic_reduce(word)
    budget = max(10 * len(word), 40)
    for _ in range(budget):
        nxt = _dehn_step(w, surface.relator)
        if nxt is None:
            return w
        w = nxt
    raise CanonicalizationError(f"rewrite budget exhausted for word {word_to_str(word)}")


def _min_rotation(word):
    if not word:
        return word
    return min(word[i:] + word[:i] for i in range(len(word)))


def _substitution_moves(word, relator, max_len):
    """Cyclic words obtained by one relator substitution.

    For every relator rotation r = u v, every cyclic occurrence of u may be
    replaced by inverse(v); only results of nominal length <= max_len are
    produced (callers re-filter on the Dehn-reduced length, which can be
    shorter than nominal).  Moves run in ``_relator_moves`` table order and
    occurrences in ascending position.
    """
    n = len(word)
    doubled = word + word
    text = bytes(doubled)
    out = set()
    for k, u, repl in _live_moves(relator, n, max_len):
        i = text.find(u)
        while 0 <= i < n:
            out.add(_cyclic_reduce(repl + doubled[i + k:i + n]))
            i = text.find(u, i + 1)
    return out


CLASS_SLACK = 2            # letters a class search may exceed the shortest by
CLASS_STATES = 200_000     # cyclic words a class search may visit


def _start_word(word, surface):
    """Least rotation of the Dehn-cyclic-reduced word, where the search of
    ``canonical_class`` starts; its result depends on nothing else."""
    return _min_rotation(dehn_cyclic_reduce(tuple(word), surface))


def canonical_class(word, surface):
    """Canonical cyclic word of the conjugacy class of ``word``.

    Conjugation acts on cyclic words by relator substitutions.  The class is
    explored by breadth-first search over raw cyclic words (free reduction
    only, in rotation-minimal form) through words at most ``CLASS_SLACK``
    longer than the current minimum; the substitution moves are symmetric on
    raw words, whereas eager Dehn reduction is not confluent and can
    disconnect the search.  Returns the lexicographically least rotation of the
    shortest words found; ``_cross_validate_words`` checks it on builds.
    """
    return _class_search(_start_word(word, surface), surface)


def _class_search(w0, surface):
    """The search of ``canonical_class`` from its start word w0."""
    if not w0:
        raise CanonicalizationError("trivial word has no conjugacy class")
    best_len = len(w0)
    seen = {w0}
    queue = [w0]
    while queue:
        cur = queue.pop()
        if len(cur) > best_len + CLASS_SLACK:
            continue
        for raw in _substitution_moves(cur, surface.relator,
                                       best_len + CLASS_SLACK):
            nxt = _min_rotation(_cyclic_reduce(raw))
            if not nxt or nxt in seen or len(nxt) > best_len + CLASS_SLACK:
                continue
            seen.add(nxt)
            queue.append(nxt)
            if len(nxt) < best_len:
                best_len = len(nxt)
            if len(seen) > CLASS_STATES:
                raise CanonicalizationError("state budget exhausted")
    return min(w for w in seen if len(w) == best_len)


# ---------------------------------------------------------------------------
# conjugacy classes, labelled on the axes through the inscribed disk

def _canonical_of(surface, ball, i, memo):
    """``canonical_class`` of stored element i's word, searched once per
    start word w0: ``memo`` maps each w0 to its result."""
    w0 = _start_word(ball.word_of(i), surface)
    if w0 not in memo:
        memo[w0] = _class_search(w0, surface)
    return memo[w0]


def _near_axes(ball, max_length):
    """Ball positions of S, ascending: the hyperbolic elements of length <=
    max_length whose axis passes within INRADIUS of o.

    cosh^2 d(o, axis) = 4|b|^2 / (t^2 - 4), t = m + n sqrt 2, |b|^2 = (2 + 2
    sqrt 2)|gamma|^2: 4|b|^2 <= (3 + 2 sqrt 2)(t^2 - 4) is a sign in Z[sqrt 2],
    so the lines of the tiling's 1-skeleton, at exactly INRADIUS, are members.
    """
    length = trace_length(ring_trace(ball.rows))
    node = np.nonzero((length > 0.0) & (length <= max_length))[0]
    r = ball.rows[node].astype(np.int64)
    m, n = 2 * r[:, 0], r[:, 1] - r[:, 3]
    g = r[:, 4:]                                # |gamma|^2 = p + q sqrt 2
    p, q = (g * g).sum(1), (g[:, :3] * g[:, 1:]).sum(1) - g[:, 0] * g[:, 3]
    u, v = m * m + 2 * n * n - 4, 2 * m * n              # t^2 - 4 = u + v sqrt 2
    x, y = 3 * u + 4 * v - 8 * p - 16 * q, 2 * u + 3 * v - 8 * p - 8 * q
    return node[np.where(x >= 0, (y >= 0) | (x * x >= 2 * y * y),
                         (y > 0) & (2 * y * y >= x * x))]


def conjugacy_classes(surface, ball: Ball, max_length, memo=None):
    """Group the elements of S (see ``_near_axes``) into conjugacy classes.

    Edges join g to delta^-1 g delta in S for the 104 delta with 0 < d(o,
    delta o) <= 4 INRADIUS, which connect each class (see ``build_spectrum``);
    minimum labels spread over them, with pointer jumping, until they settle.
    A class's member of least displacement, first stored on ties, represents
    it; ``memo`` holds the canonical words of one build (``_canonical_of``).
    Returns (words, class_of, reps): each class's canonical word, each stored
    element's class (-1 outside S), and each representative's ball position.
    """
    node = _near_axes(ball, max_length)
    rows = ball.rows[node].astype(np.int64)
    index = _RowIndex(rows)
    steps = np.nonzero(ball.disp <= 4.0 * INRADIUS + FLOAT_PAD)[0][1:]  # skip the identity
    # delta^-1 reverses the edges of delta: look up one of each pair
    steps = steps[steps < ball.find(_inverse_rows(ball.rows[steps]))]
    edges = []
    for c in _conjugation_matrices(ball.rows[steps].astype(np.int64)):
        j = index.find(rows @ c)
        edges.append(np.stack([np.nonzero(j >= 0)[0], j[j >= 0]]))
    src, dst = np.concatenate(edges + [e[::-1] for e in edges], axis=1)
    lab, prev = np.arange(len(node)), None
    while not np.array_equal(lab, prev):
        prev, lab = lab, lab.copy()
        np.minimum.at(lab, src, prev[dst])
        lab = lab[lab]
    cid = np.unique(lab, return_inverse=True)[1]
    class_of = np.full(len(ball.rows), -1, dtype=np.int64)
    class_of[node] = cid
    reps = node[least_displacement(rows, cid)]
    memo = {} if memo is None else memo
    words = [_canonical_of(surface, ball, int(i), memo) for i in reps]
    if len(set(words)) != len(words):
        raise SpectrumInconsistencyError("two conjugation components share a canonical word")
    return words, class_of, reps


def _mark_iterates(ball, reps, class_of, max_length):
    """Primitive flag of each class: False where the class holds r^k,
    k >= 2, for a class representative r.

    r^k shares the axis of r, so whenever its length is within max_length
    it lies in S; a missing power means an incomplete ball.
    """
    primitive = np.ones(len(reps), dtype=bool)
    base = ball.rows[reps].astype(np.int64)
    power = base
    while len(power):
        power = ring_compose(power, base)
        live = trace_length(ring_trace(power)) <= max_length
        power, base = power[live], base[live]
        hit = ball.find(power)
        cid = np.where(hit >= 0, class_of[hit], -1)
        if (cid < 0).any():
            raise SpectrumInconsistencyError(
                f"{int((cid < 0).sum())} class powers missing from the classes")
        primitive[cid] = False
    return primitive


# ---------------------------------------------------------------------------
# spectrum table

def least_rotation_rows(surface, words):
    """Integer row of each word's cyclic rotation of least displacement, the
    first on ties, multiplied out letter by letter in one batch per word
    length."""
    right = _right_matrices(surface.ring)
    out = np.empty((len(words), 8), dtype=np.int64)
    for n in set(map(len, words)):
        idx = [i for i, w in enumerate(words) if len(w) == n]
        rot = np.array([words[i] for i in idx])[:, (np.arange(n)[:, None] + np.arange(n)) % n]
        rot = rot.reshape(-1, n)                             # (m n, n)
        prod = surface.ring[rot[:, 0]]
        for j in range(1, n):
            if np.abs(prod).max() >= 1 << 56:    # a letter product grows < 2^6
                raise SpectrumInconsistencyError(f"words of length {n} exceed int64")
            prod = _letter_products(prod, rot[:, j], right)
        out[idx] = prod[least_displacement(prod, np.repeat(np.arange(len(idx)), n))]
    return out


class SpectrumRow(NamedTuple):
    """One oriented class of a spectrum table."""

    canonical_word: tuple[int, ...]
    trace_abs: float
    length: float
    primitive: bool
    group_id: int              # multiplicity bucket: classes of equal length

    @property
    def word_str(self) -> str:
        return word_to_str(self.canonical_word)


@dataclass
class SpectrumTable:
    """Oriented classes with length <= cutoff, made by ``from_rows``: rows
    sorted by (length, word), their ``length`` array, ``axes`` on first use."""

    surface: SurfaceModel = field(repr=False, compare=False)
    cutoff: float
    classes: tuple[SpectrumRow, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.length = np.array([c.length for c in self.classes], dtype=float)

    @classmethod
    def from_rows(cls, surface, cutoff, rows, meta):
        """Table of rows (canonical word, |trace|, length, primitive)."""
        classes = []
        for word, tr, ell, prim in sorted(rows, key=lambda r: (r[2], word_to_str(r[0]))):
            gid = classes[-1].group_id + (ell != classes[-1].length) if classes else 0
            classes.append(SpectrumRow(word, tr, ell, prim, gid))
        return cls(surface, cutoff, tuple(classes), meta)

    @cached_property
    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(attracting, repelling) axis endpoints of every class: the fixed
        points of its canonical word's least-displacement rotation."""
        rows = least_rotation_rows(self.surface,
                                   [c.canonical_word for c in self.classes])
        return hg.axis_endpoints_ab(*ring_to_ab(rows))

    def count_P(self, t) -> int:
        """Number of oriented classes with length <= t."""
        if t > self.cutoff + 1e-12:
            raise OutOfRangeError(f"t = {t} beyond table cutoff {self.cutoff}")
        return int(np.searchsorted(self.length, t, side="right"))

    def count_window(self, t, eps) -> int:
        """Number of classes with length in (t - eps, t + eps]."""
        if t + eps > self.cutoff + 1e-12:
            raise OutOfRangeError(f"t + eps = {t + eps} beyond cutoff {self.cutoff}")
        lo, hi = np.searchsorted(self.length, [t - eps, t + eps], side="right")
        return int(hi - lo)

    def systole(self) -> float:
        return self.classes[0].length if self.classes else math.inf

    # -- persistence ------------------------------------------------------

    def save(self, csv_path, meta_path=None):
        with open(csv_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["canonical_word", "trace_abs", "length",
                        "primitive", "multiplicity_group_id"])
            for c in self.classes:
                w.writerow([c.word_str, repr(c.trace_abs), repr(c.length),
                            int(c.primitive), c.group_id])
        if meta_path is not None:
            with open(meta_path, "w") as f:
                json.dump({"surface": self.surface.name, "cutoff": self.cutoff,
                           **self.meta}, f, indent=2, sort_keys=True)
                f.write("\n")

    @classmethod
    def load(cls, csv_path, meta_path):
        """Reload a saved table; the meta must name the Bolza surface."""
        with open(meta_path) as f:
            meta = json.load(f)
        surface = bolza()
        if meta.pop("surface", None) != surface.name or "cutoff" not in meta:
            raise SpectrumInconsistencyError(
                f"{meta_path} names no Bolza surface and cutoff")
        cutoff = float(meta.pop("cutoff"))
        with open(csv_path, newline="") as f:
            r = csv.reader(f)
            header = next(r, None)
            if not header or header[0] != "canonical_word":
                raise SpectrumInconsistencyError(
                    f"{csv_path} is not a spectrum table (header {header!r})")
            try:            # "?" fails an empty word as a bad letter would
                rows = [(str_to_word(w or "?"), float(tr), float(ell),
                         bool(int(p))) for w, tr, ell, p, _ in r]
            except ValueError as e:
                raise SpectrumInconsistencyError(
                    f"{csv_path} line {r.line_num}: not a table row ({e})") from e
        return cls.from_rows(surface, cutoff, rows, meta)


SPECTRUM_MARGIN = 2.0 * math.log(1.0 + SQRT2)   # 2 ln cosh(INRADIUS)
# bump whenever a code change alters what a built table holds
SPECTRUM_SCHEMA = 3


def spectrum_meta(R) -> dict:
    """Everything a table built to length R depends on; saved as its meta."""
    return {"schema": SPECTRUM_SCHEMA, "R": R, "margin": SPECTRUM_MARGIN,
            "c_prune": DEFAULT_C_PRUNE}


def build_spectrum(surface: SurfaceModel, R: float, *,
                   cross_validate_to: float = 8.0,
                   ball: Ball | None = None) -> SpectrumTable:
    """Build the oriented length spectrum up to length R, from a ball of
    radius max(R + SPECTRUM_MARGIN, 4 rho), rho = INRADIUS.

    Every class meets S (see ``_near_axes``), and so does its member of least
    displacement, whose axis is its nearest to o: the closed disks D(gamma
    o, rho) touch each side of the tiling at its midpoint, as do those of
    the tile across, so without the open disks and the midpoints H^2 falls
    into bounded pieces, one about each vertex, and no geodesic lies in one.
    A member of S has sinh(d/2) <= cosh rho sinh(l/2), so d <= l +
    SPECTRUM_MARGIN, with no slack (the extended sides of F attain rho).
    Take the disks that axis(g) meets, in order along it: the gap between
    two consecutive ones lies in one vertex piece, within rho of its vertex
    (the half-side of F: cosh = cosh r_c / cosh rho = 1 + sqrt 2).  So their
    centres gamma_i o are at most 4 rho apart, and the steps delta = gamma_i^-1
    gamma_(i+1) of ``conjugacy_classes`` (slack FLOAT_PAD) join the class in S.

    Class geometry comes from each canonical word's least-displacement
    rotation, one batch for the whole table: a build computes it at once, a
    table reloaded from its CSV on first use, with the same bits.
    """
    if R + SPECTRUM_MARGIN > DEFAULT_HARD_CAP:
        raise OutOfRangeError(f"R = {R} exceeds the largest spectrum radius "
                              f"{DEFAULT_HARD_CAP - SPECTRUM_MARGIN}")
    if ball is None:
        ball = enumerate_ball(surface, max(R + SPECTRUM_MARGIN, 4.0 * INRADIUS))
    memo = {}      # canonical words of this build, by start word
    words, class_of, reps = conjugacy_classes(surface, ball, R, memo)
    primitive = _mark_iterates(ball, reps, class_of, R)
    tr = np.abs(ring_trace(ball.rows[reps]))
    ell = trace_length(tr)
    if cross_validate_to > 0:
        _cross_validate_words(surface, ball, ell, class_of,
                              min(cross_validate_to, R), memo)
    rows = zip(words, tr.tolist(), ell.tolist(), primitive.tolist())
    table = SpectrumTable.from_rows(surface, R, rows, spectrum_meta(R))
    table.axes  # noqa: B018  (the build pays for its own geometry)
    return table


def _cross_validate_words(surface, ball, lengths, class_of, up_to, memo):
    """Check the conjugation partition of S against canonical cyclic words:
    each element's own word is canonicalized, searched through the build's
    ``memo`` (see ``_canonical_of``)."""
    by_word: dict[tuple, set[int]] = {}
    by_class: dict[int, set[int]] = {}
    for i in np.nonzero(ball.inside & (class_of >= 0))[0].tolist():
        cid = int(class_of[i])
        if lengths[cid] > up_to:
            continue
        w = _canonical_of(surface, ball, i, memo)
        by_word.setdefault(w, set()).add(i)
        by_class.setdefault(cid, set()).add(i)
    parts_word = {frozenset(v) for v in by_word.values()}
    parts_class = {frozenset(v) for v in by_class.values()}
    if parts_word != parts_class:
        raise SpectrumInconsistencyError(
            f"word/conjugation partitions disagree below length {up_to}: "
            f"{len(parts_word - parts_class)} word-only vs "
            f"{len(parts_class - parts_word)} conjugation-only groups")
