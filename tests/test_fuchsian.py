import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from geodlab import fuchsian as fu
from geodlab import hypgeom as hg
from geodlab.errors import (BadSurfaceError, OutOfRangeError,
                            PartialEnumerationError,
                            SpectrumInconsistencyError)


@pytest.fixture(scope="module")
def bolza():
    return fu.bolza()


@pytest.fixture(scope="module")
def ball10(bolza):
    return fu.enumerate_ball(bolza, 10.0)


@pytest.fixture(scope="module")
def spectrum6(bolza):
    return fu.build_spectrum(bolza, 6.0)


@pytest.fixture(scope="module")
def spectrum8(bolza):
    return fu.build_spectrum(bolza, 8.0)


@pytest.fixture(scope="module")
def spectrum10(bolza):
    # build_spectrum raises SpectrumInconsistencyError if the conjugation
    # partition disagrees with canonical cyclic words below length 10
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fu, "CROSS_VALIDATE_TO", 10.0)
        return fu.build_spectrum(bolza, 10.0)


ELL = 2.0 * math.acosh(1.0 + math.sqrt(2.0))  # Bolza generator length
INRADIUS = math.acosh(1.0 + math.sqrt(2.0))   # of the Dirichlet octagon


def least_displacement_oracle(surface, word):
    """Float matrix of the cyclic rotation of ``word`` with the least
    displacement, the first within 1e-9 on ties."""
    mats = [hg.normalize_ab(*surface.eval_word(word[i:] + word[:i]))
            for i in range(len(word))]
    disp = [float(hg.displacement_ab(a, b)) for a, b in mats]
    return mats[next(i for i, d in enumerate(disp) if d <= min(disp) + 1e-9)]


class TestSurfaceModel:
    def test_relator_closes(self, bolza):
        a, b = bolza.eval_word(bolza.relator)
        assert min(abs(a - 1) + abs(b), abs(a + 1) + abs(b)) < 1e-8

    def test_generator_traces(self, bolza):
        for l in range(8):
            g = bolza.generator(l)
            assert abs(abs(g.trace) - 2 * (1 + math.sqrt(2))) < 1e-12
            assert abs(fu.trace_length(g.trace) - ELL) < 1e-9

    def test_letter_inverses(self, bolza):
        for l in range(0, 8, 2):
            g = bolza.generator(l) @ bolza.generator(l + 1)
            assert abs(g.a - 1) < 1e-10 and abs(g.b) < 1e-10

    def test_bad_surface_rejected(self, bolza):
        with pytest.raises(BadSurfaceError):
            fu._validated(dataclasses.replace(bolza, relator=(0, 2, 4, 6)))
        swapped = bolza.ring[[1, 0, 2, 3, 4, 5, 6, 7]]
        with pytest.raises(BadSurfaceError):
            fu._validated(dataclasses.replace(bolza, ring=swapped))
        scaled = bolza.ring * np.array([1, 1, 1, 1, 2, 2, 2, 2])  # det != 1
        with pytest.raises(BadSurfaceError, match="determinant"):
            fu._validated(dataclasses.replace(bolza, ring=scaled,
                                              gen_b=2 * bolza.gen_b))


class TestEnumerateBall:
    def test_radius_zero_is_identity(self, bolza):
        b = fu.enumerate_ball(bolza, 0.0)
        assert b.size == 1
        (i,) = np.nonzero(b.inside)[0]
        assert b.word_of(int(i)) == () and b.disp[i] == 0.0

    def test_radius_3p1_generators_only(self, bolza):
        b = fu.enumerate_ball(bolza, 3.1)
        inside = np.nonzero(b.inside)[0]
        words = sorted(b.word_of(int(i)) for i in inside)
        assert words == [()] + [(l,) for l in range(8)]
        for i in inside:
            if b.word_of(int(i)):
                assert abs(b.disp[i] - ELL) < 1e-9

    def test_matches_brute_force_at_R6(self, bolza):
        pruned = fu.enumerate_ball(bolza, 6.0)
        brute = fu.brute_force_ball(bolza, 8)
        keep = brute.disp <= 6.0
        assert pruned.size == int(keep.sum())
        for i in np.nonzero(keep)[0]:
            assert pruned.contains_matrix(brute.a[i], brute.b[i])

    def test_element_budget_stops_the_bfs(self, bolza, monkeypatch):
        # past MAX_BALL_ELEMENTS stored rows the BFS gives up, and names a
        # radius short of the one asked for as fully enumerated
        monkeypatch.setattr(fu, "MAX_BALL_ELEMENTS", 20)
        with pytest.raises(PartialEnumerationError) as err:
            fu.enumerate_ball(bolza, 5.0)
        assert 0.0 <= err.value.completed_radius < 5.0

    def test_hash_collisions_do_not_merge_elements(self, bolza, monkeypatch):
        # a hash of the first coefficient alone collides all the time; the
        # full-row check must still give the same ball and classes; an R = 4
        # build needs the ball to 4 INRADIUS
        exact = fu.enumerate_ball(bolza, 4.0 * fu.INRADIUS)
        monkeypatch.setattr(fu, "_HASH", np.array([1, 0, 0, 0, 0, 0, 0, 0]))
        weak = fu.enumerate_ball(bolza, 4.0 * fu.INRADIUS)
        assert np.array_equal(weak.rows, exact.rows)
        assert np.array_equal(weak.parent, exact.parent)
        assert len(fu.build_spectrum(bolza, 4.0, ball=weak).classes) == 24

    def test_find_equals_a_dict_on_shuffled_queries(self, bolza, monkeypatch):
        # sorted probes under a hash that collides all the time: shuffled
        # queries with repeats and rows never stored find what a dict finds
        monkeypatch.setattr(fu, "_HASH", np.array([1, 0, 0, 0, 0, 0, 0, 0]))
        stored = fu.enumerate_ball(bolza, 5.0).rows
        wider = fu.enumerate_ball(bolza, 6.0).rows
        index = fu._RowIndex(stored)
        rng = np.random.default_rng(3)
        q = wider[rng.integers(0, len(wider), 3 * len(wider))]
        ref = {tuple(r): i for i, r in enumerate(stored.tolist())}
        want = [ref.get(tuple(r), -1) for r in q.tolist()]
        assert -1 in want and len(set(want)) < len(want)
        assert index.find(q).tolist() == want

    def test_growth_slope_near_entropy(self, bolza):
        ball = fu.enumerate_ball(bolza, 13.0)
        rs = np.arange(8.0, 13.0 + 1e-9)
        logs = np.log([ball.count(r) for r in rs])
        slope = np.polyfit(rs, logs, 1)[0]
        assert 0.9 < slope < 1.1

    def test_prune_stability(self, bolza, monkeypatch):
        # the proven pruning margin r_c - rho, without its float pad, and
        # wider ones give the same ball
        sizes = set()
        for c in (fu.CIRCUMRADIUS - fu.INRADIUS, 1.0, 2.0, 3.0):
            monkeypatch.setattr(fu, "DEFAULT_C_PRUNE", c)
            sizes.add(fu.enumerate_ball(bolza, 8.0).size)
        assert len(sizes) == 1

    def test_words_evaluate_to_matrices(self, bolza, ball10):
        r = np.random.default_rng(7)
        idx = r.choice(np.nonzero(ball10.inside)[0], size=50, replace=False)
        for i in idx:
            a, b = bolza.eval_word(ball10.word_of(int(i)))
            an, bn = hg.normalize_ab(a, b)
            en, fn = hg.normalize_ab(ball10.a[i], ball10.b[i])
            assert abs(an - en) < 1e-8 and abs(bn - fn) < 1e-8

    def test_displacement_key_orders_as_integer_pairs(self, ball10):
        # |alpha|^2 = p + q sqrt 2 with its Galois conjugate p - q sqrt 2 in
        # [0, 1], so least_displacement may order (p, q) lexicographically
        absq = fu._zmul(ball10.rows[:, :4], fu._zconj(ball10.rows[:, :4]))
        assert (absq[:, 2] == 0).all() and (absq[:, 3] == -absq[:, 1]).all()
        gap = absq[:, 0] - absq[:, 1] * math.sqrt(2.0)
        assert gap.min() >= -1e-9 and gap.max() <= 1.0 + 1e-9
        group = np.zeros(len(ball10.rows), dtype=np.int64)
        disp = hg.displacement_ab(ball10.a, ball10.b)
        i = fu.least_displacement(ball10.rows[1:], group[1:]) + 1
        assert disp[i] == np.sort(disp[1:])[0]

    def test_count_monotone_and_range_guard(self, ball10):
        counts = [ball10.count(r) for r in np.linspace(0, 10, 21)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        with pytest.raises(OutOfRangeError):
            ball10.count(11.0)

    def test_hard_cap(self, bolza):
        with pytest.raises(OutOfRangeError):
            fu.enumerate_ball(bolza, 17.0)

    @pytest.mark.parametrize("build", [
        lambda s: fu.enumerate_ball(s, 8.0),
        lambda s: fu.brute_force_ball(s, 5),
    ], ids=["enumerate_R8", "brute_force_5"])
    def test_blocked_levels_equal_one_block(self, bolza, build, monkeypatch):
        # a level expanded in blocks of 7 frontier rows keeps the same
        # candidates in the same order as one block over the whole level
        monkeypatch.setattr(fu, "BFS_BLOCK_ROWS", 1 << 40)
        whole = build(bolza)
        monkeypatch.setattr(fu, "BFS_BLOCK_ROWS", 7)
        blocked = build(bolza)
        for name in ("rows", "disp", "parent", "letter"):
            x, y = getattr(whole, name), getattr(blocked, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

    def test_peak_memory_follows_the_stored_rows(self, bolza):
        # the candidates of a level (all letters of every frontier row) are
        # never held at once, so the peak stays near the arrays kept
        fu.enumerate_ball(bolza, 3.0)
        tracemalloc.start()
        try:
            ball = fu.enumerate_ball(bolza, 12.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = sum(x.nbytes for x in (ball.rows, ball._index.hash,
                                      ball._index.order, ball.disp,
                                      ball.parent, ball.letter))
        assert peak < 2.2 * kept, peak / kept


class TestCanonicalClass:
    def test_rotation_invariance(self, bolza):
        w = fu.str_to_word("abCd")
        forms = {fu.canonical_class(w[i:] + w[:i], bolza) for i in range(4)}
        assert len(forms) == 1

    def test_idempotent(self, bolza):
        for s in ("a", "abC", "aCdaCd", "BcDbA"):
            c = fu.canonical_class(fu.str_to_word(s), bolza)
            assert fu.canonical_class(c, bolza) == c

    def test_random_conjugate_pairs(self, bolza):
        r = np.random.default_rng(42)
        n_checked = 0
        while n_checked < 500:
            w = tuple(r.integers(0, 8, size=r.integers(1, 7)))
            u = tuple(r.integers(0, 8, size=r.integers(0, 5)))
            w = fu._cyclic_reduce(w)
            if not w:
                continue
            a1, b1 = bolza.eval_word(w)
            if abs(2 * a1.real) <= 2.0 + 1e-9:
                continue  # trivial-in-group or elliptic candidates are out of scope
            conj = u + w + fu.inverse_word(u)
            c1 = fu.canonical_class(w, bolza)
            c2 = fu.canonical_class(conj, bolza)
            assert c1 == c2
            a2, b2 = bolza.eval_word(conj)
            # raw traces: Re(a) is accurate even when |a|^2 - |b|^2 is
            # cancellation noise at large entry scale
            t1, t2 = abs(2 * a1.real), abs(2 * a2.real)
            assert abs(t1 - t2) < 1e-7 * max(1.0, t1)
            n_checked += 1

    def test_relator_rotations_are_trivial(self, bolza):
        # the relator itself reduces to the empty cyclic word
        assert fu.dehn_cyclic_reduce(bolza.relator, bolza) == ()

    def test_move_table_equals_the_nested_search(self, bolza, spectrum8):
        # oracle: every relator rotation, every k, every position, by slices
        rots = set()
        for base in (bolza.relator, fu.inverse_word(bolza.relator)):
            for i in range(len(base)):
                rots.add(base[i:] + base[:i])
        rots = tuple(rots)

        def moves(word, max_len):
            n, doubled, out = len(word), word + word, set()
            for rot in rots:
                for k in range(1, len(rot)):
                    if k > n or n - 2 * k + len(rot) > max_len:
                        continue
                    repl = fu.inverse_word(rot[k:])
                    for i in range(n):
                        if doubled[i:i + k] == rot[:k]:
                            out.add(fu._cyclic_reduce(repl + doubled[i + k:i + n]))
            return out

        def dehn(word):
            w = fu._cyclic_reduce(word)
            take = len(bolza.relator) // 2 + 1
            while True:
                n, doubled = len(w), w + w
                hit = next(((i, rot) for rot in rots if n >= take
                            for i in range(n) if doubled[i:i + take] == rot[:take]),
                           None)
                if hit is None:
                    return w
                i, rot = hit
                w = fu._cyclic_reduce(fu.inverse_word(rot[take:])
                                      + doubled[i + take:i + n])

        r = np.random.default_rng(3)
        words = [c.canonical_word for c in spectrum8.classes]
        words += [fu.inverse_word(w) for w in words]
        while len(words) < 2 * len(spectrum8.classes) + 2000:
            w = [int(r.integers(8))]
            for _ in range(int(r.integers(0, 14))):
                w.append(int(r.choice([l for l in range(8) if l != w[-1] ^ 1])))
            words.append(tuple(w))
        for w in words:
            for max_len in (len(w), len(w) + 2, len(w) + 4):
                got = fu._substitution_moves(w, bolza.relator, max_len)
                assert list(got) == list(moves(w, max_len)), (w, max_len)
            assert fu.dehn_cyclic_reduce(w, bolza) == dehn(w), w


class TestSpectrum:
    def test_systole_and_multiplicity(self, bolza):
        tab = fu.build_spectrum(bolza, 3.1)
        assert abs(tab.systole() - ELL) < 1e-9
        assert all(abs(c.length - ELL) < 1e-9 for c in tab.classes)
        # brute-force multiplicity oracle: group short words by trace + axis
        brute = fu.brute_force_ball(bolza, 4)
        det = np.abs(brute.a) ** 2 - np.abs(brute.b) ** 2
        tr = 2 * np.abs(brute.a.real) / np.sqrt(det)
        sel = np.nonzero((tr > 2 + 1e-9)
                         & (2 * np.arccosh(tr / 2) <= 3.1))[0]
        axes = set()
        for i in sel:
            a, b = hg.normalize_ab(brute.a[i], brute.b[i])
            att, rep = hg.axis_endpoints_ab(a, b)
            axes.add((round(float(np.angle(att)), 6), round(float(np.angle(rep)), 6),
                      round(float(tr[i]), 6)))
        # oriented classes in the deck group <-> distinct (oriented axis, trace)
        # orbits under conjugation; within displacement 3.1 every class member
        # has the same axis only up to conjugation, so count orbits instead
        assert len(tab.classes) == 24
        assert tab.count_P(ELL + 0.01) == 24

    def test_word_vs_axis_partition_at_R10(self, spectrum10):
        assert len(spectrum10.classes) == 2588

    def test_classes_equal_components_of_all_eight_conjugations(self, bolza):
        # oracle: the components of single-letter conjugation over every
        # stored element of length <= 6, all eight letters looked up and
        # labelled in plain Python; on S they are the classes, one to one
        ball = fu.enumerate_ball(bolza, 8.0)
        words, class_of, _ = fu.conjugacy_classes(bolza, ball, 6.0)
        length = fu.trace_length(fu.ring_trace(ball.rows))
        node = np.nonzero((length > 0.0) & (length <= 6.0))[0].tolist()
        conj = fu._conjugation_matrices(bolza.ring)
        found = [ball.find(ball.rows[node] @ c).tolist() for c in conj]
        for l in range(0, 8, 2):
            # conjugation by l^-1 undoes l: the odd column is the inverse
            back = dict(zip(node, found[l ^ 1]))
            assert all(back[j] == i for i, j in zip(node, found[l]) if j >= 0)
            assert found[l].count(-1) == found[l ^ 1].count(-1)
        edges = {i: set() for i in node}
        for col in found:
            for i, j in zip(node, col):
                if j >= 0:
                    edges[i].add(j)
                    edges[j].add(i)
        label = {}
        for i in node:                        # ascending ball position
            if i in label:
                continue
            label[i], stack = i, [i]
            while stack:
                for m in edges[stack.pop()] - label.keys():
                    label[m] = i
                    stack.append(m)
        near = fu._near_axes(ball, 6.0).tolist()
        assert np.nonzero(class_of >= 0)[0].tolist() == near
        pairs = {(label[i], int(class_of[i])) for i in near}
        assert len({c for _, c in pairs}) == len(words) == 96
        assert len({k for k, _ in pairs}) == len(pairs) == 96

    def test_near_axes_equal_the_float_distance(self, bolza):
        # oracle: the axis with endpoints a half-gap alpha apart passes at
        # cosh d = 1 / sin(alpha) from o; the exact test admits the ties
        ball = fu.enumerate_ball(bolza, 10.0 + fu.SPECTRUM_MARGIN)
        length = fu.trace_length(fu.ring_trace(ball.rows))
        hyp = np.nonzero((length > 0.0) & (length <= 10.0))[0]
        xi, eta = hg.axis_endpoints_ab(*fu.ring_to_ab(ball.rows[hyp]))
        d = np.arccosh(1.0 / np.sin(0.5 * np.abs(np.angle(xi / eta))))
        near = np.isin(hyp, fu._near_axes(ball, 10.0))
        tie = np.abs(d - INRADIUS) <= 1e-9
        assert np.array_equal(near[~tie], d[~tie] < INRADIUS)
        assert int(tie.sum()) == 48 and near[tie].all()
        assert int(near.sum()) == 8120

    def test_one_canonical_search_per_start_word_and_build(self, bolza,
                                                         monkeypatch):
        # a build canonicalizes every member of S (all are below the
        # cross-validation length here); the searches are one per distinct
        # start word, and a second build searches them all again
        ball = fu.enumerate_ball(bolza, 6.0 + fu.SPECTRUM_MARGIN)
        members = fu._near_axes(ball, 6.0)
        starts = {fu._start_word(ball.word_of(int(i)), bolza) for i in members}
        searched = []
        search = fu._class_search

        def counted(w0, surface, *args):
            searched.append(w0)
            return search(w0, surface, *args)

        monkeypatch.setattr(fu, "_class_search", counted)
        first = fu.build_spectrum(bolza, 6.0)
        assert sorted(searched) == sorted(starts)
        assert len(starts) < len(members)
        searched.clear()
        assert fu.build_spectrum(bolza, 6.0) == first
        assert len(searched) == len(starts)

    @pytest.mark.parametrize("name", ["spectrum8", "spectrum10"])
    def test_iterates_match_primitive_lengths(self, name, request):
        # lengths-only oracle: each non-primitive class is p^k for exactly
        # one primitive class p and k >= 2, of length L/k
        tab = request.getfixturevalue(name)
        lengths = np.array([c.length for c in tab.classes])
        iterate = np.array([not c.primitive for c in tab.classes])
        prim = lengths[~iterate]
        for L in np.unique(lengths):
            roots = sum(int(np.sum(np.abs(prim - L / k) < 1e-9))
                        for k in range(2, int(L / prim.min() + 1e-9) + 1))
            assert int(iterate[np.abs(lengths - L) < 1e-9].sum()) == roots, L
        for c in tab.classes:
            w, n = c.canonical_word, len(c.canonical_word)
            if any(n % d == 0 and w == w[:d] * (n // d) for d in range(1, n)):
                assert not c.primitive, c.word_str

    @pytest.mark.parametrize("name, groups", [("spectrum8", 9), ("spectrum10", 26)])
    def test_traces_are_integers_of_Z_sqrt2(self, name, groups, request):
        # lengths-only oracle: 2 cosh(l/2) = m + n sqrt 2 with integers m, n
        # and Galois conjugate |m - n sqrt 2| <= 2; one tie group per trace
        tab = request.getfixturevalue(name)
        r2 = math.sqrt(2.0)
        traces = set()
        for c in tab.classes:
            x = 2.0 * math.cosh(c.length / 2.0)
            found = []
            for n in range(math.floor((x - 2.0) / (2.0 * r2)),
                           math.ceil((x + 2.0) / (2.0 * r2)) + 1):
                m = round(x - n * r2)
                if abs(x - m - n * r2) < 1e-6 and abs(m - n * r2) <= 2.0:
                    found.append((m, n))
            assert len(found) == 1, c.word_str
            traces.add(found[0])
        assert len(traces) == len({c.group_id for c in tab.classes}) == groups

    def test_iterate_lengths_are_multiples(self, spectrum6):
        prim = [c.length for c in spectrum6.classes if c.primitive]
        for c in spectrum6.classes:
            if not c.primitive:
                assert any(abs(c.length - k * p) < 1e-6
                           for p in prim for k in range(2, 3))

    def test_squares_of_generators_marked_iterate(self, bolza):
        tab = fu.build_spectrum(bolza, 2 * ELL + 0.05)
        sq = [c for c in tab.classes if abs(c.length - 2 * ELL) < 1e-9
              and not c.primitive]
        assert len(sq) >= 8  # squares of the 8 oriented generator classes

    def test_counting_monotone(self, spectrum6):
        ts = np.linspace(3.0, 6.0, 13)
        counts = [spectrum6.count_P(t) for t in ts]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        with pytest.raises(OutOfRangeError):
            spectrum6.count_P(6.5)

    def test_window_counts(self, spectrum6):
        sys_mult = spectrum6.count_P(spectrum6.systole() + 0.01)
        assert spectrum6.count_window(spectrum6.systole(), 0.01) == sys_mult
        total = spectrum6.count_P(6.0)
        assert spectrum6.count_window(4.5, 1.5) == total

    def test_trace_length_consistency(self, spectrum6):
        for c in spectrum6.classes:
            assert abs(2 * math.acosh(c.trace_abs / 2) - c.length) < 1e-9

    def test_axis_endpoints_fixed_by_representative(self, bolza, spectrum6):
        # oracle: the float matrix of every rotation of the canonical word
        att, rep = spectrum6.axes
        for i, c in enumerate(spectrum6.classes):
            a, b = least_displacement_oracle(bolza, c.canonical_word)
            want_att, want_rep = hg.axis_endpoints_ab(a, b)
            assert abs(att[i] - want_att) < 1e-9, c.word_str
            assert abs(rep[i] - want_rep) < 1e-9, c.word_str
            for u in (att[i], rep[i]):
                assert abs(hg.mobius_boundary_z(a, b, u) - u) < 1e-8

    def test_axes_pass_within_the_inradius(self, spectrum10):
        # the geodesic with endpoints a half-gap alpha apart passes at
        # cosh d = 1 / sin(alpha) from the origin
        xi, eta = spectrum10.axes
        d = np.arccosh(1.0 / np.sin(0.5 * np.abs(np.angle(xi / eta))))
        assert d.max() <= INRADIUS + 1e-9, d.max()

    def test_save_load_round_trip(self, spectrum6, tmp_path):
        csvp = tmp_path / "spec.csv"
        jsonp = tmp_path / "spec.json"
        spectrum6.save(csvp, jsonp)
        tab2 = fu.SpectrumTable.load(csvp, jsonp)
        assert tab2.surface.name == spectrum6.surface.name
        assert tab2.cutoff == spectrum6.cutoff
        assert len(tab2.classes) == len(spectrum6.classes)
        for c1, c2 in zip(spectrum6.classes, tab2.classes):
            assert c1.word_str == c2.word_str
            assert c1.length == c2.length
            assert c1.primitive == c2.primitive
            assert c1.group_id == c2.group_id

    @pytest.mark.parametrize("name", ["spectrum6", "spectrum8"])
    def test_reload_equals_build(self, name, request, tmp_path):
        # representatives and axes come from the canonical words on both
        # paths, so every field of every class survives the round trip
        built = request.getfixturevalue(name)
        built.save(tmp_path / "spec.csv", tmp_path / "spec.json")
        loaded = fu.SpectrumTable.load(tmp_path / "spec.csv", tmp_path / "spec.json")
        assert loaded == built

    def test_geometry_on_first_use(self, bolza, spectrum6, tmp_path, monkeypatch):
        # loading a table computes no geometry; its first read of the axes
        # runs one batch of exact products, evaluates no float word matrix,
        # and gives the built table's axes bit for bit
        batch = fu.least_rotation_rows
        calls = []

        def counted(surface, words):
            calls.append(len(words))
            return batch(surface, words)

        def no_eval(surface, word):
            raise AssertionError("eval_word on the table path")

        spectrum6.save(tmp_path / "spec.csv", tmp_path / "spec.json")
        monkeypatch.setattr(fu, "least_rotation_rows", counted)
        monkeypatch.setattr(fu.SurfaceModel, "eval_word", no_eval)
        fu.build_spectrum(bolza, 4.0)
        calls.clear()
        loaded = fu.SpectrumTable.load(tmp_path / "spec.csv", tmp_path / "spec.json")
        assert calls == []
        for got, built in zip(loaded.axes, spectrum6.axes):
            assert got.dtype == built.dtype and got.tobytes() == built.tobytes()
        assert calls == [len(loaded.classes)]
        assert loaded == spectrum6

    def test_worst_case_margin_gives_the_same_classes(self, bolza,
                                                      monkeypatch):
        # 3.575 exceeds l + 2 ln cosh(circumradius) = l + 3.526 for every l,
        # the margin a representative meeting the domain is sure to need,
        # and the pruning 2 exceeds r_c - rho
        default = fu.build_spectrum(bolza, 9.0)
        monkeypatch.setattr(fu, "DEFAULT_C_PRUNE", 2.0)
        wide = fu.build_spectrum(bolza, 9.0,
                                 ball=fu.enumerate_ball(bolza, 9.0 + 3.575))
        assert len(wide.classes) == len(default.classes)
        assert wide.classes == default.classes

    def test_a_build_enumerates_one_ball_of_the_proven_radius(self, bolza,
                                                              monkeypatch):
        radii = []
        enumerate_ball = fu.enumerate_ball

        def counted(surface, R):
            radii.append(R)
            return enumerate_ball(surface, R)

        monkeypatch.setattr(fu, "enumerate_ball", counted)
        fu.build_spectrum(bolza, 10.0)
        assert radii == [10.0 + 2.0 * math.log(1.0 + math.sqrt(2.0))]

    def test_a_given_ball_must_reach_the_proven_radius(self, bolza):
        # an R = 4 build needs the ball to 4 INRADIUS = 6.11
        with pytest.raises(OutOfRangeError):
            fu.build_spectrum(bolza, 4.0, ball=fu.enumerate_ball(bolza, 6.0))

    def test_radius_below_the_systole_gives_an_empty_table(self, bolza,
                                                           tmp_path):
        table = fu.build_spectrum(bolza, 2.0)
        assert table.classes == () and table.systole() == math.inf
        table.save(tmp_path / "spec.csv", tmp_path / "spec.json")
        loaded = fu.SpectrumTable.load(tmp_path / "spec.csv",
                                       tmp_path / "spec.json")
        assert loaded == table and loaded.count_P(2.0) == 0
        assert all(len(end) == 0 for end in loaded.axes)

    def test_load_rejects_a_file_that_is_not_a_table(self, tmp_path):
        bad = tmp_path / "bad.csv"
        meta = tmp_path / "bad.json"
        meta.write_text(json.dumps({"surface": "bolza", "cutoff": 3.0}))
        header = "canonical_word,trace_abs,length,primitive,multiplicity_group_id\n"
        for text in ("word,length\naB,3.0\n", header + "abc,3.0\n",
                     header + "aZ,1,2,0,0\n", header + "aB,x,2,0,0\n",
                     header + "aB,1,2,0,0\naé,1,2,0,0\n"):
            bad.write_text(text, encoding="utf-8")
            with pytest.raises(SpectrumInconsistencyError):
                fu.SpectrumTable.load(bad, meta)
        # the line number of an unknown or non-ASCII letter is reported
        with pytest.raises(SpectrumInconsistencyError, match="line 3"):
            fu.SpectrumTable.load(bad, meta)
        bad.write_text(header + "aZ,1,2,0,0\n")
        with pytest.raises(SpectrumInconsistencyError, match="line 2"):
            fu.SpectrumTable.load(bad, meta)

    def test_load_rejects_an_unknown_surface(self, spectrum6, tmp_path):
        csvp, jsonp = tmp_path / "spec.csv", tmp_path / "spec.json"
        spectrum6.save(csvp, jsonp)
        jsonp.write_text(json.dumps({"surface": "klein", "cutoff": 6.0}))
        with pytest.raises(SpectrumInconsistencyError):
            fu.SpectrumTable.load(csvp, jsonp)

    def test_geodesics_pass_within_the_inradius_of_an_orbit_point(self, bolza):
        # the covering behind build_spectrum's margin, checked on the
        # orbit alone: random geodesics whose closest point to o lies within
        # the circumradius, and the pencil of lines through a vertex of F from
        # the direction of o to that of the next octagon centre, whose middle
        # line (an edge of F extended) passes at exactly the inradius
        ball = fu.enumerate_ball(bolza, 7.0)
        orbit = (ball.b / np.conj(ball.a))[ball.inside]
        assert len(orbit) == 265

        def nearest(z, theta):
            ia, ib = hg.inverse_ab(*hg.carrier_ab(z, theta))
            out = []
            for k in range(0, len(z), 2000):
                # each geodesic moved onto the real diameter
                w = hg.mobius_apply_z(ia[k:k + 2000, None], ib[k:k + 2000, None], orbit)
                out.append(np.arcsinh(2.0 * np.abs(w.imag)
                                      / (1.0 - np.abs(w) ** 2)).min(axis=1))
            return np.concatenate(out)

        rng = np.random.default_rng(11)
        r = rng.uniform(0.0, fu.CIRCUMRADIUS, 20_000)
        phi = rng.uniform(0.0, 2.0 * math.pi, 20_000)
        foot = np.tanh(0.5 * r) * np.exp(1j * phi)
        assert nearest(foot, phi + 0.5 * math.pi).max() <= INRADIUS + 1e-9
        vertex = math.tanh(0.5 * fu.CIRCUMRADIUS) * np.exp(1j * math.pi / 8.0)
        pencil = nearest(np.full(13, vertex),
                         math.pi * (1.0 + 1.0 / 8.0 + np.arange(13) / 48.0))
        assert abs(pencil.max() - INRADIUS) < 1e-9

    def test_oriented_inverse_pairing(self, bolza, spectrum6):
        # the class of the inverse word has the same length; lengths pair up
        words = {c.word_str: c.length for c in spectrum6.classes}
        for c in spectrum6.classes[:30]:
            inv = fu.canonical_class(fu.inverse_word(c.canonical_word), bolza)
            assert fu.word_to_str(inv) in words
            assert abs(words[fu.word_to_str(inv)] - c.length) < 1e-9
