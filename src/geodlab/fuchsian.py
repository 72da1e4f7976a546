"""Cocompact Fuchsian surface groups: enumeration and the length spectrum.

The workhorse is a pruned breadth-first search over the Cayley graph with
matrix deduplication on a quantized grid.  Matrices are *not* rescaled to
unit determinant during the search: the determinant drifts by less than
1e-8 over desk-scale radii, while rescaling computes |a|^2 - |b|^2 with
catastrophic cancellation and injects noise larger than the dedup grid.

Conjugacy classes are built by a conjugation walk (breadth-first search by
single-generator conjugation, bounded displacement), cross-validated against
an independent cyclic-word canonicalization pipeline on small lengths.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import hypgeom as hg
from .errors import (
    BadSurfaceError, CanonicalizationError, OutOfRangeError,
    PartialEnumerationError, SpectrumInconsistencyError,
)

GRID = 1e-6          # dedup quantization grid for matrix entries
BOUNDARY_BAND = 2e-3  # fraction of a cell treated as a boundary case
LETTER_NAMES = "aAbBcCdDeEfF"  # letter 2k = generator k, 2k+1 = its inverse


# ---------------------------------------------------------------------------
# surface model

@dataclass(frozen=True)
class SurfaceModel:
    """A cocompact surface group given by generator matrices and a relator.

    Letters are indexed 0..4g-1; the inverse of letter i is i XOR 1.
    """

    name: str
    gen_a: np.ndarray          # (4g,) complex
    gen_b: np.ndarray          # (4g,) complex
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
    1+sqrt(2) and off-diagonal sqrt(2+2*sqrt(2)).
    """
    s2 = math.sqrt(2.0)
    a0 = 1.0 + s2
    b0 = math.sqrt(2.0 + 2.0 * s2)
    ga = np.zeros(8, dtype=complex)
    gb = np.zeros(8, dtype=complex)
    for k in range(4):
        phase = np.exp(1j * k * math.pi / 4.0)
        ga[2 * k], gb[2 * k] = a0, b0 * phase
        ga[2 * k + 1], gb[2 * k + 1] = a0, -b0 * phase
    # g0 g1^-1 g2 g3^-1 g0^-1 g1 g2^-1 g3 closes to the identity
    relator = (0, 3, 4, 7, 1, 2, 5, 6)
    # Dirichlet octagon: inradius = half the generator displacement,
    # circumradius from the right triangle (apothem, half-side, vertex)
    inradius = math.acosh(1.0 + s2)
    circum = math.atanh(math.tanh(inradius) / math.cos(math.pi / 8.0))
    return _validated(SurfaceModel(
        name="bolza", gen_a=ga, gen_b=gb, relator=relator,
        entropy_h=1.0, domain_diameter=2.0 * circum))


def _validated(s: SurfaceModel) -> SurfaceModel:
    if s.entropy_h <= 0:
        raise BadSurfaceError("entropy must be positive")
    if s.n_letters % 2 or s.n_letters < 4:
        raise BadSurfaceError("need an even number of letters (generators + inverses)")
    for i in range(0, s.n_letters, 2):
        ai, bi = hg.inverse_ab(s.gen_a[i], s.gen_b[i])
        if abs(ai - s.gen_a[i + 1]) > 1e-9 or abs(bi - s.gen_b[i + 1]) > 1e-9:
            raise BadSurfaceError(f"letter {i + 1} is not the inverse of letter {i}")
        if abs(2 * s.gen_a[i].real) <= 2.0 + 1e-9:
            raise BadSurfaceError(f"generator {i // 2} is not hyperbolic")
        det = abs(s.gen_a[i]) ** 2 - abs(s.gen_b[i]) ** 2
        if abs(det - 1.0) > 1e-9:
            raise BadSurfaceError(f"generator {i // 2} does not have unit determinant")
    ra, rb = s.eval_word(s.relator)
    if min(abs(ra - 1) + abs(rb), abs(ra + 1) + abs(rb)) > 1e-8:
        raise BadSurfaceError("relator does not close to +-identity")
    return s


PRESETS = {"bolza": bolza}


def load_surface(config) -> SurfaceModel:
    """Build and validate a surface from a preset name or a config mapping."""
    if isinstance(config, str):
        try:
            return PRESETS[config]()
        except KeyError:
            raise BadSurfaceError(f"unknown surface preset {config!r}") from None
    gens = config["generators"]  # list of [re_a, im_a, re_b, im_b] per generator
    ga, gb = [], []
    for g in gens:
        a = complex(g[0], g[1])
        b = complex(g[2], g[3])
        ga += [a, complex(a.real, -a.imag)]
        gb += [b, -b]
    return _validated(SurfaceModel(
        name=str(config.get("name", "custom")),
        gen_a=np.array(ga), gen_b=np.array(gb),
        relator=tuple(int(x) for x in config["relator"]),
        entropy_h=float(config["entropy_h"]),
        domain_diameter=float(config["domain_diameter"])))


# ---------------------------------------------------------------------------
# word utilities

def inverse_word(word):
    return tuple(l ^ 1 for l in reversed(word))


def word_to_str(word):
    return "".join(LETTER_NAMES[l] for l in word)


def str_to_word(s):
    return tuple(LETTER_NAMES.index(c) for c in s)


# ---------------------------------------------------------------------------
# quantized matrix index

def _quantize(a, b):
    """Sign-normalized integer cell keys plus in-cell offsets.

    Sign normalization uses Re(a) > 0, which is unambiguous for the elements
    of a torsion-free cocompact group (|trace| >= 2).
    """
    a = np.atleast_1d(np.asarray(a, complex))
    b = np.atleast_1d(np.asarray(b, complex))
    s = np.where(a.real < 0, -1.0, 1.0)
    m = np.stack([a.real * s, a.imag * s, b.real * s, b.imag * s], axis=1) / GRID
    k = np.floor(m + 0.5).astype(np.int64)
    frac = m - k
    return k, frac


class MatrixIndex:
    """Dictionary of group elements keyed by quantized matrix entries.

    Candidate lookups probe neighboring cells in the coordinates that fall
    within the boundary band, so float twins that straddle a cell boundary
    are still identified.
    """

    def __init__(self):
        self._map: dict[bytes, int] = {}

    def __len__(self):
        return len(self._map)

    def find(self, krow, frow) -> int | None:
        hit = self._map.get(krow.tobytes())
        if hit is not None:
            return hit
        coords = np.nonzero(np.abs(np.abs(frow) - 0.5) < BOUNDARY_BAND)[0]
        for mask in range(1, 1 << len(coords)):
            kk = krow.copy()
            for j, c in enumerate(coords):
                if mask >> j & 1:
                    kk[c] += 1 if frow[c] > 0 else -1
            hit = self._map.get(kk.tobytes())
            if hit is not None:
                return hit
        return None

    def find_wide(self, krow) -> int | None:
        """Probe the full 3^4 neighborhood (used for reconstructed matrices)."""
        for d0 in (0, -1, 1):
            for d1 in (0, -1, 1):
                for d2 in (0, -1, 1):
                    for d3 in (0, -1, 1):
                        kk = krow + np.array([d0, d1, d2, d3], dtype=np.int64)
                        hit = self._map.get(kk.tobytes())
                        if hit is not None:
                            return hit
        return None

    def insert(self, krow, value):
        self._map[krow.tobytes()] = value

    def insert_new(self, k, frac, base) -> list[int]:
        """Insert the rows not already present; return their positions.

        Rows clear of the cell-boundary band only need the exact key probe,
        so the byte keys are sliced out of one buffer and hit the dict
        directly; the neighbor search runs only on the banded minority.
        """
        band = (np.abs(np.abs(frac) - 0.5) < BOUNDARY_BAND).any(axis=1)
        buf = np.ascontiguousarray(k).tobytes()
        kmap = self._map
        new: list[int] = []
        for i in range(len(k)):
            key = buf[32 * i:32 * i + 32]
            if key in kmap:
                continue
            if band[i] and self.find(k[i], frac[i]) is not None:
                continue
            kmap[key] = base + len(new)
            new.append(i)
        return new

    def find_matrix(self, a, b) -> int | None:
        k, f = _quantize(a, b)
        return self.find(k[0], f[0])


# ---------------------------------------------------------------------------
# ball enumeration

@dataclass
class GroupElement:
    matrix: hg.Isometry
    word: tuple[int, ...]
    displacement: float


class Ball:
    """All group elements with displacement <= radius, with word recovery.

    Storage covers the pruned search region (displacement <= radius +
    c_prune); ``inside`` masks the contractual ball.  Words are recovered by
    climbing parent pointers.
    """

    def __init__(self, surface, radius, c_prune, a, b, disp, parent, letter, index):
        self.surface = surface
        self.radius = radius
        self.c_prune = c_prune
        self.a = a
        self.b = b
        self.disp = disp
        self.parent = parent
        self.letter = letter
        self.index = index       # MatrixIndex over all stored elements
        self.inside = disp <= radius

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

    def element(self, i) -> GroupElement:
        a, b = hg.normalize_ab(self.a[i], self.b[i])
        return GroupElement(hg.Isometry(complex(a), complex(b)),
                            self.word_of(i), float(self.disp[i]))

    def elements(self):
        for i in np.nonzero(self.inside)[0]:
            yield self.element(int(i))

    def contains_matrix(self, a, b) -> bool:
        return self.index.find_matrix(a, b) is not None


DEFAULT_HARD_CAP = 16.0
# Completeness margin for the BFS pruning: prefixes of a shortlex word for an
# element of displacement <= R fellow-travel the geodesic [o, g o].  The
# default is validated against unpruned exhaustive search (see tests) and by
# prune-stability; it is far cheaper than the worst-case bound through the
# full Dirichlet diameter.
DEFAULT_C_PRUNE = 2.0


def enumerate_ball(surface: SurfaceModel, R: float, *, c_prune: float = DEFAULT_C_PRUNE,
                   hard_cap: float = DEFAULT_HARD_CAP,
                   max_elements: int = 30_000_000) -> Ball:
    """Pruned BFS over the Cayley graph, deduplicated by matrix."""
    if R > hard_cap:
        raise OutOfRangeError(f"R = {R} exceeds the hard cap {hard_cap}")
    *parts, index = _orbit_bfs(surface, R + c_prune, max_elements=max_elements,
                               c_prune=c_prune)
    return Ball(surface, R, c_prune, *parts, index)


def brute_force_ball(surface: SurfaceModel, max_word_len: int) -> Ball:
    """Exhaustive word search without displacement pruning (test oracle)."""
    a, b, d, parent, letter, index = _orbit_bfs(surface, math.inf,
                                                max_levels=max_word_len)
    return Ball(surface, float(d.max()), 0.0, a, b, d, parent, letter, index)


def _orbit_bfs(surface, cutoff, *, max_levels=math.inf, max_elements=math.inf,
               c_prune=0.0):
    """Level-by-level BFS over reduced words, deduplicated by matrix.

    Each level extends the previous level's new elements by every letter
    but the backtrack, drops those with displacement above ``cutoff`` and
    keeps the first of each matrix not seen before.  Stops when a level adds
    nothing or after ``max_levels`` levels.  Returns (a, b, disp, parent,
    letter, index) with the identity at position 0.
    """
    nl = surface.n_letters
    ga, gb = surface.gen_a, surface.gen_b

    a_parts = [np.array([1 + 0j])]
    b_parts = [np.array([0j])]
    d_parts = [np.array([0.0])]
    p_parts = [np.array([-1], dtype=np.int64)]
    l_parts = [np.array([-1], dtype=np.int8)]
    index = MatrixIndex()
    k0, _ = _quantize(np.array([1 + 0j]), np.array([0j]))
    index.insert(k0[0], 0)
    total = 1

    fa = np.array([1 + 0j])
    fb = np.array([0j])
    fi = np.array([0], dtype=np.int64)
    fl = np.array([-1], dtype=np.int8)

    level = 0
    while len(fa) and level < max_levels:
        level += 1
        # expand frontier by all letters, skipping the immediate backtrack
        na = (fa[:, None] * ga[None, :] + fb[:, None] * np.conj(gb)[None, :]).ravel()
        nb = (fa[:, None] * gb[None, :] + fb[:, None] * np.conj(ga)[None, :]).ravel()
        src = np.repeat(fi, nl)
        let = np.tile(np.arange(nl, dtype=np.int8), len(fa))
        back = np.repeat(fl, nl) == (let ^ 1)
        disp = hg.displacement_ab(na, nb)
        keep = (disp <= cutoff) & ~back
        na, nb, src, let, disp = na[keep], nb[keep], src[keep], let[keep], disp[keep]
        if not len(na):
            break
        k, frac = _quantize(na, nb)
        _, first = np.unique(k, axis=0, return_index=True)
        first.sort()
        na, nb, src, let, disp = na[first], nb[first], src[first], let[first], disp[first]
        k, frac = k[first], frac[first]

        new = index.insert_new(k, frac, total)
        if not new:
            break
        new = np.array(new)
        na, nb, src, let, disp = na[new], nb[new], src[new], let[new], disp[new]
        a_parts.append(na)
        b_parts.append(nb)
        d_parts.append(disp)
        p_parts.append(src)
        l_parts.append(let)
        total += len(na)
        if total > max_elements:
            raise PartialEnumerationError(
                f"element budget {max_elements} exceeded",
                max(float(disp.min()) - c_prune, 0.0))
        fa, fb, fl = na, nb, let
        fi = np.arange(total - len(na), total, dtype=np.int64)

    return (np.concatenate(a_parts), np.concatenate(b_parts),
            np.concatenate(d_parts), np.concatenate(p_parts),
            np.concatenate(l_parts), index)


# ---------------------------------------------------------------------------
# cyclic-word canonicalization (Dehn reduction for the surface relator)

def _relator_rotations(surface):
    rots = set()
    for base in (surface.relator, inverse_word(surface.relator)):
        n = len(base)
        for i in range(n):
            rots.add(base[i:] + base[:i])
    return tuple(rots)


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


def _dehn_step(word, rotations, half):
    """One rewrite: replace a long relator subword by its shorter complement.

    Looks for cyclic subwords strictly longer than half the relator; returns
    the rewritten cyclic word or None if none applies.
    """
    n = len(word)
    if n == 0:
        return None
    doubled = word + word
    for rot in rotations:
        rl = len(rot)
        take = half + 1
        if n < take:
            continue
        for i in range(n):
            if doubled[i:i + take] == rot[:take]:
                # word contains rot[:take]; rot = rot[:take] * rot[take:]
                # so rot[:take] = inverse(rot[take:]) in the group
                repl = inverse_word(rot[take:])
                rest = doubled[i + take:i + n]
                return _cyclic_reduce(repl + rest)
    return None


def dehn_cyclic_reduce(word, surface):
    """Cyclically reduce, then shrink with Dehn rewrites to a fixpoint."""
    rotations = _relator_rotations(surface)
    half = len(surface.relator) // 2
    w = _cyclic_reduce(word)
    budget = max(10 * len(word), 40)
    for _ in range(budget):
        nxt = _dehn_step(w, rotations, half)
        if nxt is None:
            return w
        w = nxt
    raise CanonicalizationError(f"rewrite budget exhausted for word {word_to_str(word)}")


def _min_rotation(word):
    if not word:
        return word
    return min(word[i:] + word[:i] for i in range(len(word)))


def _substitution_moves(word, rotations, max_len):
    """Cyclic words obtained by one relator substitution.

    For every relator rotation r = u v, every cyclic occurrence of u may be
    replaced by inverse(v); only results of nominal length <= max_len are
    produced (callers re-filter on the Dehn-reduced length, which can be
    shorter than nominal).
    """
    n = len(word)
    doubled = word + word
    out = set()
    for rot in rotations:
        rl = len(rot)
        for k in range(1, rl):
            if k > n or n - 2 * k + rl > max_len:
                continue
            u = rot[:k]
            repl = inverse_word(rot[k:])
            for i in range(n):
                if doubled[i:i + k] == u:
                    out.add(_cyclic_reduce(repl + doubled[i + k:i + n]))
    return out


def canonical_class(word, surface, *, slack=2, max_states=200_000):
    """Canonical cyclic word of the conjugacy class of ``word``.

    Conjugation acts on cyclic words by relator substitutions.  The class is
    explored by breadth-first search over raw cyclic words (free reduction
    only, in rotation-minimal form) through words at most ``slack`` longer
    than the current minimum; the substitution moves are symmetric on raw
    words, whereas eager Dehn reduction is not confluent and can disconnect
    the search.  Returns the lexicographically least rotation of the
    shortest words found.  Idempotent and conjugation invariant on
    desk-scale words; validated against the axis pipeline.
    """
    w0 = _min_rotation(dehn_cyclic_reduce(tuple(word), surface))
    if not w0:
        raise CanonicalizationError("trivial word has no conjugacy class")
    rotations = _relator_rotations(surface)
    best_len = len(w0)
    seen = {w0}
    queue = [w0]
    while queue:
        cur = queue.pop()
        if len(cur) > best_len + slack:
            continue
        for raw in _substitution_moves(cur, rotations, best_len + slack):
            nxt = _min_rotation(_cyclic_reduce(raw))
            if not nxt or nxt in seen or len(nxt) > best_len + slack:
                continue
            seen.add(nxt)
            queue.append(nxt)
            if len(nxt) < best_len:
                best_len = len(nxt)
            if len(seen) > max_states:
                raise CanonicalizationError("state budget exhausted")
    return min(w for w in seen if len(w) == best_len)


# ---------------------------------------------------------------------------
# conjugacy classes via conjugation walk

@dataclass
class GeodesicClass:
    canonical_word: tuple[int, ...]
    trace_abs: float
    length: float
    primitive: bool
    axis: tuple[hg.BoundaryPoint, hg.BoundaryPoint]  # attracting, repelling
    rep_a: complex
    rep_b: complex
    members: int = 1           # ball elements in this class (diagnostic)
    group_id: int = -1         # multiplicity bucket after length-tie merging

    @property
    def word_str(self) -> str:
        return word_to_str(self.canonical_word)


def _conjugation_orbit(surface, a0, b0, cap, index_limit=2_000_000):
    """All conjugates of (a0, b0) with displacement <= cap, by BFS."""
    nl = surface.n_letters
    ga, gb = surface.gen_a, surface.gen_b
    gai, gbi = np.conj(ga), -gb  # inverses (letter l inverse is l^1, but direct)
    seen = MatrixIndex()
    k, f = _quantize(a0, b0)
    seen.insert(k[0], 0)
    out_a = [complex(a0)]
    out_b = [complex(b0)]
    frontier = [(complex(a0), complex(b0))]
    while frontier:
        nxt = []
        for (a, b) in frontier:
            for l in range(nl):
                # g_l * M * g_l^-1
                ta, tb = hg.compose_ab(ga[l], gb[l], a, b)
                ca, cb = hg.compose_ab(ta, tb, ga[l ^ 1], gb[l ^ 1])
                if abs(ca) > 1.0:
                    d = 2.0 * math.acosh(abs(ca))
                else:
                    d = 0.0
                if d > cap:
                    continue
                kk, ff = _quantize(ca, cb)
                if seen.find(kk[0], ff[0]) is not None:
                    continue
                seen.insert(kk[0], len(out_a))
                out_a.append(complex(ca))
                out_b.append(complex(cb))
                nxt.append((ca, cb))
                if len(out_a) > index_limit:
                    raise MemoryError("conjugation orbit exploded")
        frontier = nxt
    return np.array(out_a), np.array(out_b)


DEFAULT_WALK_SLACK = 2.5


def conjugacy_classes(surface, ball: Ball, max_length, *, walk_slack=DEFAULT_WALK_SLACK):
    """Group ball elements with translation length <= max_length into classes.

    Returns (classes, class_of) where class_of maps ball element index ->
    class index (only for grouped elements).
    """
    tr = np.abs(2.0 * ball.a.real)
    # determinant drift correction for the trace (matrices are unnormalized)
    det = np.abs(ball.a) ** 2 - np.abs(ball.b) ** 2
    tr = tr / np.sqrt(det)
    length = 2.0 * np.arccosh(np.maximum(tr, 2.0) / 2.0)
    cand = np.nonzero((tr > 2.0 + 1e-9) & (length <= max_length) & ball.inside)[0]
    order = cand[np.argsort(ball.disp[cand], kind="stable")]

    classes: list[GeodesicClass] = []
    class_of: dict[int, int] = {}
    cap_base = ball.radius + walk_slack

    for i in order:
        i = int(i)
        if i in class_of:
            continue
        a0, b0 = ball.a[i], ball.b[i]
        oa, ob = _conjugation_orbit(surface, a0, b0, cap_base)
        cid = len(classes)
        members = 0
        best = None  # (disp, quantized tuple, a, b, ball index)
        for j in range(len(oa)):
            hit = ball.index.find_matrix(oa[j], ob[j])
            if hit is None or not ball.inside[hit]:
                continue
            if hit in class_of:
                continue  # defensive; distinct classes never share elements
            class_of[hit] = cid
            members += 1
            k, _ = _quantize(oa[j], ob[j])
            key = (round(float(ball.disp[hit]) / GRID), tuple(k[0]))
            if best is None or key < best[0]:
                best = (key, complex(oa[j]), complex(ob[j]), hit)
        _, ra, rb, rep_idx = best
        ra, rb = hg.normalize_ab(ra, rb)
        att, rep = hg.axis_endpoints_ab(ra, rb)
        ell = float(length[i])
        classes.append(GeodesicClass(
            canonical_word=(), trace_abs=float(tr[i]), length=ell,
            primitive=True, axis=(hg.BoundaryPoint(complex(att)),
                                  hg.BoundaryPoint(complex(rep))),
            rep_a=complex(ra), rep_b=complex(rb), members=members))
        classes[-1].canonical_word = canonical_class(ball.word_of(rep_idx), surface)
    return classes, class_of


def element_with_axis(att, rep, length):
    """Hyperbolic isometry with prescribed oriented axis and translation length."""
    lam = math.exp(0.5 * length)
    S = np.array([[att, rep], [1.0, 1.0]], dtype=complex)
    D = np.array([[lam, 0.0], [0.0, 1.0 / lam]], dtype=complex)
    M = S @ D @ np.linalg.inv(S)
    M = M / np.sqrt(np.linalg.det(M))
    a, b = M[0, 0], M[0, 1]
    if a.real < 0:
        a, b = -a, -b
    return a, b


def _mark_iterates(classes, ball):
    """Flag non-primitive classes by reconstructing candidate k-th roots."""
    if not classes:
        return
    min_len = min(c.length for c in classes)
    for c in classes:
        kmax = int(c.length / min_len + 1e-9)
        for k in range(2, kmax + 1):
            ra, rb = element_with_axis(c.axis[0].u, c.axis[1].u, c.length / k)
            kk, _ = _quantize(ra, rb)
            hit = ball.index.find_wide(kk[0])
            if hit is None:
                continue
            # verify the reconstruction actually matches the stored element
            if abs(ball.a[hit] - ra) < 1e-4 and abs(ball.b[hit] - rb) < 1e-4:
                c.primitive = False
                break


# ---------------------------------------------------------------------------
# spectrum table

TIE_TOL = 1e-6


@dataclass
class SpectrumTable:
    """Sorted table of oriented conjugacy classes with length <= cutoff."""

    surface_name: str
    cutoff: float
    classes: list[GeodesicClass]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.classes.sort(key=lambda c: (c.length, c.word_str))
        gid = -1
        last = None
        for c in self.classes:
            if last is None or c.length - last > TIE_TOL:
                gid += 1
                last = c.length
            c.group_id = gid

    @property
    def lengths(self):
        return np.array([c.length for c in self.classes])

    def count_P(self, t, *, primitive_only=False) -> int:
        """Number of oriented classes with length <= t."""
        if t > self.cutoff + 1e-12:
            raise OutOfRangeError(f"t = {t} beyond table cutoff {self.cutoff}")
        return sum(1 for c in self.classes
                   if c.length <= t and (c.primitive or not primitive_only))

    def count_window(self, t, eps, *, primitive_only=False) -> int:
        """Number of classes with length in (t - eps, t + eps]."""
        if t + eps > self.cutoff + 1e-12:
            raise OutOfRangeError(f"t + eps = {t + eps} beyond cutoff {self.cutoff}")
        return sum(1 for c in self.classes
                   if t - eps < c.length <= t + eps
                   and (c.primitive or not primitive_only))

    def systole(self) -> float:
        return self.classes[0].length if self.classes else math.inf

    # -- persistence ------------------------------------------------------

    def save(self, csv_path, meta_path=None):
        rows = sorted(self.classes, key=lambda c: (c.length, c.word_str))
        with open(csv_path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["canonical_word", "trace_abs", "length",
                        "primitive", "multiplicity_group_id"])
            for c in rows:
                w.writerow([c.word_str, repr(c.trace_abs), repr(c.length),
                            int(c.primitive), c.group_id])
        if meta_path is not None:
            with open(meta_path, "w") as f:
                json.dump({"surface": self.surface_name, "cutoff": self.cutoff,
                           **self.meta}, f, indent=2, sort_keys=True)
                f.write("\n")

    @classmethod
    def load(cls, csv_path, meta_path=None):
        meta = {}
        if meta_path is not None:
            with open(meta_path) as f:
                meta = json.load(f)
        classes = []
        with open(csv_path, newline="") as f:
            r = csv.reader(f)
            header = next(r, None)
            if not header or header[0] != "canonical_word":
                raise SpectrumInconsistencyError(
                    f"{csv_path} is not a spectrum table (header {header!r})")
            for row in r:
                classes.append(GeodesicClass(
                    canonical_word=str_to_word(row[0]),
                    trace_abs=float(row[1]), length=float(row[2]),
                    primitive=bool(int(row[3])), axis=None,
                    rep_a=0j, rep_b=0j, group_id=int(row[4])))
        surface_name = meta.get("surface", "unknown")
        if surface_name in PRESETS:
            # rebuild representatives and axes from the canonical words so a
            # loaded table supports geodesic realization, not just counting
            surface = load_surface(surface_name)
            for c in classes:
                a, b = hg.normalize_ab(*surface.eval_word(c.canonical_word))
                att, rep = hg.axis_endpoints_ab(a, b)
                c.rep_a, c.rep_b = complex(a), complex(b)
                c.axis = (hg.BoundaryPoint(complex(att)),
                          hg.BoundaryPoint(complex(rep)))
        cutoff = float(meta.get("cutoff", max((c.length for c in classes), default=0.0)))
        table = cls(surface_name, cutoff, classes, {k: v for k, v in meta.items()
                                                    if k not in ("surface", "cutoff")})
        return table


DEFAULT_SPECTRUM_MARGIN = 2.0
# bump whenever a code change alters what a built table holds
SPECTRUM_SCHEMA = 1


def spectrum_meta(R, *, margin=DEFAULT_SPECTRUM_MARGIN, c_prune=DEFAULT_C_PRUNE,
                  walk_slack=DEFAULT_WALK_SLACK) -> dict:
    """Everything a table built to length R depends on; saved as its meta."""
    return {"schema": SPECTRUM_SCHEMA, "R": R, "margin": margin,
            "c_prune": c_prune, "walk_slack": walk_slack, "tie_tol": TIE_TOL,
            "grid": GRID}


def build_spectrum(surface: SurfaceModel, R: float, *,
                   margin: float = DEFAULT_SPECTRUM_MARGIN,
                   c_prune: float = DEFAULT_C_PRUNE,
                   cross_validate_to: float = 8.0,
                   ball: Ball | None = None,
                   walk_slack: float = DEFAULT_WALK_SLACK) -> SpectrumTable:
    """Build the oriented length spectrum up to length R.

    Any class of length l has a representative whose axis meets the
    Dirichlet domain, hence displacement <= 2 acosh(cosh(l/2) cosh(r)) with
    r the domain circumradius; ``margin`` covers that overhead.
    """
    if ball is None:
        ball = enumerate_ball(surface, R + margin, c_prune=c_prune)
    classes, class_of = conjugacy_classes(surface, ball, R, walk_slack=walk_slack)
    _mark_iterates(classes, ball)
    if cross_validate_to > 0:
        _cross_validate_words(surface, ball, classes, class_of,
                              min(cross_validate_to, R))
    return SpectrumTable(surface.name, R, classes, spectrum_meta(
        R, margin=margin, c_prune=c_prune, walk_slack=walk_slack))


def _cross_validate_words(surface, ball, classes, class_of, up_to):
    """Check the walk-based partition against canonical cyclic words."""
    by_word: dict[tuple, set[int]] = {}
    by_walk: dict[int, set[int]] = {}
    for i, cid in class_of.items():
        if classes[cid].length > up_to:
            continue
        w = canonical_class(ball.word_of(i), surface)
        by_word.setdefault(w, set()).add(i)
        by_walk.setdefault(cid, set()).add(i)
    parts_word = {frozenset(v) for v in by_word.values()}
    parts_walk = {frozenset(v) for v in by_walk.values()}
    if parts_word != parts_walk:
        bad_w = parts_word - parts_walk
        bad_k = parts_walk - parts_word
        raise SpectrumInconsistencyError(
            f"word/axis partitions disagree below length {up_to}: "
            f"{len(bad_w)} word-only vs {len(bad_k)} walk-only groups")
    # every class must have internally consistent traces
    for cid, idxs in by_walk.items():
        trs = [2 * abs(ball.a[i].real) / math.sqrt(abs(ball.a[i]) ** 2
                                                   - abs(ball.b[i]) ** 2)
               for i in idxs]
        if max(trs) - min(trs) > 1e-6:
            raise SpectrumInconsistencyError(
                f"trace scatter {max(trs) - min(trs)} within class {cid}")
