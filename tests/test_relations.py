"""Finite relational structures: hom search, rigidity, witness sets."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import acceptance, phi, plane, product, relations
from rigidlab.errors import NoWitnessExists
from rigidlab.relations import (
    RelStruct,
    WitnessSet,
    brute_force_homs,
    check_witness,
    enumerate_homs,
    find_min_witness,
    is_rigid,
    remark1_check,
)


def random_struct(rng: random.Random, n_max: int = 4) -> RelStruct:
    n = rng.randint(1, n_max)
    pairs = tuple(
        (i, j) for i in range(n) for j in range(n) if rng.random() < 0.35
    )
    return RelStruct(n, pairs)


@st.composite
def structs(draw, n_max=4):
    n = draw(st.integers(1, n_max))
    pool = [(i, j) for i in range(n) for j in range(n)]
    pairs = draw(st.sets(st.sampled_from(pool)))
    return RelStruct(n, tuple(pairs))


def reference_homs(src, dst, pin=None, limit=None):
    """enumerate_homs with its earlier AC-3 queue, popped last in first out
    over every variable with an arc: (maps, nodes, truncated)."""
    pin = dict(pin) if pin else {}
    n = src.n
    full = (1 << dst.n) - 1
    loop_mask, tables = dst._masks
    kind = {}
    domains = [full] * n
    for i, j in src.pairs:
        if i == j:
            domains[i] &= loop_mask
        else:
            kind[i, j] = kind.get((i, j), 0) | 1
            kind[j, i] = kind.get((j, i), 0) | 2
    for i, a in pin.items():
        domains[i] &= 1 << a
    arcs = [[] for _ in range(n)]
    for (u, v), k in sorted(kind.items()):
        arcs[u].append((v, k) + tables[k])
    queue = [v for v in range(n) if arcs[v]]
    queued = [bool(arcs[v]) for v in range(n)]
    while queue:
        v = queue.pop()
        queued[v] = False
        dv = domains[v]
        supports = [-1] * 4
        for u, k, masks, full_or in arcs[v]:
            support = supports[k]
            if support < 0:
                support = supports[k] = relations._support(masks, full_or, dv, full)
            du = domains[u]
            nu = du & support
            if nu != du:
                if not nu:
                    return (), 0, False
                domains[u] = nu
                if not queued[u]:
                    queued[u] = True
                    queue.append(u)

    maps = []
    nodes = 0
    truncated = False
    assignment = [-1] * n

    def search():
        nonlocal nodes, truncated
        var = -1
        best = dst.n + 1
        for i in range(n):
            if assignment[i] < 0:
                size = domains[i].bit_count()
                if size < best:
                    var, best = i, size
        if var < 0:
            maps.append(tuple(assignment))
            if limit is not None and len(maps) >= limit:
                truncated = True
            return
        rest = domains[var]
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            nodes += 1
            assignment[var] = a
            saved = []
            for w, _, masks, _ in arcs[var]:
                allowed = masks[a]
                b = assignment[w]
                if b >= 0:
                    if not allowed >> b & 1:
                        break
                    continue
                dw = domains[w]
                nw = dw & allowed
                if not nw:
                    break
                if nw != dw:
                    saved.append((w, dw))
                    domains[w] = nw
            else:
                search()
            for w, dw in saved:
                domains[w] = dw
            assignment[var] = -1
            if truncated:
                return

    if all(domains):
        search()
    return tuple(sorted(maps)), nodes, truncated


def reference_min_witness(s, x, y, budget=4096):
    """find_min_witness as a plain smallest-first scan that searches every
    candidate: (subset, minimal, checks_used)."""
    checks = 0

    def valid(subset):
        nonlocal checks
        checks += 1
        return check_witness(s, WitnessSet(subset, x, y)).valid

    if not valid(tuple(range(s.n))):
        raise NoWitnessExists("full universe fails")
    others = [i for i in range(s.n) if i != x]
    for size in range(s.n):
        for rest in combinations(others, size):
            if checks >= budget:
                break
            if valid((x,) + rest):
                return tuple(sorted((x,) + rest)), True, checks
    kept = list(range(s.n))
    for i in others:
        trial = [v for v in kept if v != i]
        if valid(trial):
            kept = trial
    return tuple(kept), False, checks


class TestRelStruct:
    def test_pairs_sorted_and_deduped(self):
        s = RelStruct(3, ((2, 1), (0, 1), (2, 1)))
        assert s.pairs == ((0, 1), (2, 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            RelStruct(2, ((0, 2),))

    def test_restrict(self):
        s = RelStruct(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
        sub = s.restrict((1, 2, 3))
        assert sub.n == 3
        assert sub.pairs == ((0, 1), (1, 2))


class TestEnumerateHoms:
    def test_cycle3_endomorphisms(self):
        c3 = RelStruct(3, ((0, 1), (1, 2), (2, 0)))
        maps = enumerate_homs(c3, c3).maps
        assert maps == ((0, 1, 2), (1, 2, 0), (2, 0, 1))

    def test_pin_restricts(self):
        c3 = RelStruct(3, ((0, 1), (1, 2), (2, 0)))
        maps = enumerate_homs(c3, c3, pin={0: 1}).maps
        assert maps == ((1, 2, 0),)

    def test_limit_truncates(self):
        empty = RelStruct(3, ())
        res = enumerate_homs(empty, empty, limit=5)
        assert res.truncated and len(res.maps) == 5

    @pytest.mark.parametrize("limit", [0, -1])
    def test_limit_below_one_rejected(self, limit):
        c3 = RelStruct(3, ((0, 1), (1, 2), (2, 0)))
        with pytest.raises(ValueError, match="at least 1"):
            enumerate_homs(c3, c3, limit=limit)

    def test_empty_domain(self):
        res = enumerate_homs(RelStruct(0, ()), RelStruct(2, ()))
        assert res.maps == ((),)

    @given(structs(), structs())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, src, dst):
        fast = set(enumerate_homs(src, dst).maps)
        slow = set(brute_force_homs(src, dst))
        assert fast == slow

    @given(structs(), structs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_pin_and_limit_match_brute_force(self, src, dst, data):
        pin = data.draw(st.dictionaries(st.integers(0, src.n - 1),
                                        st.integers(0, dst.n - 1), max_size=2))
        limit = data.draw(st.none() | st.integers(1, 6))
        res = enumerate_homs(src, dst, pin=pin, limit=limit)
        oracle = brute_force_homs(src, dst, pin=pin)
        assert list(res.maps) == sorted(res.maps)
        if limit is None or len(oracle) < limit:
            assert not res.truncated
            assert res.maps == oracle
        else:
            assert res.truncated
            assert len(res.maps) == limit
            assert set(res.maps) <= set(oracle)

    @given(structs(n_max=5), structs(n_max=5), st.data())
    @settings(max_examples=100, deadline=None)
    def test_counts_invariant_under_relabelling(self, src, dst, data):
        def relabel(s, perm):
            return RelStruct(s.n, tuple((perm[i], perm[j]) for i, j in s.pairs))

        count = len(enumerate_homs(src, dst))
        p = data.draw(st.permutations(range(src.n)))
        q = data.draw(st.permutations(range(dst.n)))
        assert len(enumerate_homs(relabel(src, p), dst)) == count
        assert len(enumerate_homs(src, relabel(dst, q))) == count

    @given(structs())
    @settings(max_examples=80, deadline=None)
    def test_identity_always_an_endomorphism(self, s):
        maps = enumerate_homs(s, s).maps
        assert tuple(range(s.n)) in maps

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_queue_order_keeps_search(self, data):
        # AC-3 reaches the same domains in any queue order, so the search
        # tree of the earlier last-in-first-out queue must come back
        src, dst = data.draw(structs(n_max=8)), data.draw(structs(n_max=8))
        pin = data.draw(st.dictionaries(st.integers(0, src.n - 1),
                                        st.integers(0, dst.n - 1), max_size=3))
        # no limit only where at most 8 ** 4 maps can come back
        limits = st.integers(1, 64)
        limit = data.draw(limits if src.n > 4 else st.none() | limits)
        res = enumerate_homs(src, dst, pin=pin, limit=limit)
        assert (res.maps, res.nodes, res.truncated) == reference_homs(src, dst, pin, limit)


@pytest.fixture(scope="module")
def pinned_search_inputs():
    """name -> (src, dst, pin) for the pinned search counts below."""
    c3 = RelStruct(3, ((0, 1), (1, 2), (2, 0)))
    path = RelStruct(4, ((0, 1), (1, 2), (2, 3)))
    loops = RelStruct(3, ((0, 0), (0, 1), (1, 2), (2, 1)))
    out = {"c3": (c3, c3, None), "path-c3": (path, c3, None),
           "c3-loops": (c3, loops, None), "path-loops": (path, loops, None),
           "empty3": (RelStruct(3, ()), RelStruct(3, ()), None)}
    # the fiber checks of criterion 6's two case-2 witnesses
    ps, S, Z = acceptance._ball1_orientation_pair()
    i0, i1, _ = ps.triangle_indices()
    for name, x in (("crit6-center", ps[i0]), ("crit6-ring", ps[i1])):
        built = product.witness_case2(x, S, Z)
        out[name] = _fiber_check(built.product.structure, built.witness.subset,
                                 built.src, built.tgt)
    out["crit6-endo"] = (built.product.structure, built.product.structure, None)
    # the full-universe check of a minimize pool input at p0, and the
    # whole-fiber check of a pair with no witness
    ball2 = plane.lattice_ball(2)
    P = product.build_product(ball2, [phi.orientation_from_bits(ball2, b)
                                      for b in (138253369779, 18153949995)])
    out["pool-p0"] = _fiber_check(P.structure, range(P.structure.n),
                                  P.element(0, 0), P.element(0, 1))
    built = product.witness_case2(ball2[4], phi.orientation_from_bits(ball2, 357706255478),
                                  phi.orientation_from_bits(ball2, 494293321939))
    out["no-witness"] = _fiber_check(built.product.structure, built.witness.subset,
                                     built.src, built.tgt)
    # the same pair's full-universe check, which finds an endomorphism
    out["no-witness-full"] = _fiber_check(built.product.structure,
                                          range(built.product.structure.n),
                                          built.src, built.tgt)
    return out


def _fiber_check(s, subset, x, y):
    sub = tuple(subset)
    return s.restrict(sub), s, {sub.index(x): y}


class TestPinnedSearchCounts:
    """(len(maps), nodes, truncated) of enumerate_homs, recorded before AC-3
    shared one support per arc kind: the search tree must not change."""

    @pytest.mark.parametrize("name,limit,expected", [
        ("c3", 1, (1, 3, True)), ("c3", 2, (2, 6, True)),
        ("c3", 5, (3, 9, False)), ("c3", None, (3, 9, False)),
        ("path-c3", 1, (1, 4, True)), ("path-c3", 2, (2, 8, True)),
        ("path-c3", None, (3, 12, False)),
        ("c3-loops", 1, (1, 3, True)), ("c3-loops", 2, (1, 7, False)),
        ("path-loops", 1, (1, 4, True)), ("path-loops", 2, (2, 5, True)),
        ("path-loops", 5, (5, 14, True)), ("path-loops", None, (6, 18, False)),
        ("empty3", 1, (1, 3, True)), ("empty3", 5, (5, 8, True)),
        ("empty3", None, (27, 39, False)),
        ("crit6-center", 1, (0, 0, False)), ("crit6-center", None, (0, 0, False)),
        ("crit6-ring", 1, (0, 0, False)), ("crit6-ring", None, (0, 0, False)),
        ("crit6-endo", 1, (1, 23, True)), ("crit6-endo", None, (1, 40, False)),
        ("pool-p0", 1, (0, 0, False)),
        ("no-witness", 1, (1, 19, True)), ("no-witness", None, (2, 20, False)),
        ("no-witness-full", 1, (1, 47, True)), ("no-witness-full", 2, (2, 81, True)),
        ("no-witness-full", None, (2, 86, False)),
    ])
    def test_counts(self, name, limit, expected, pinned_search_inputs):
        src, dst, pin = pinned_search_inputs[name]
        res = enumerate_homs(src, dst, pin=pin, limit=limit)
        assert (len(res.maps), res.nodes, res.truncated) == expected

    def test_pinned_check_support_calls(self, pinned_search_inputs, monkeypatch):
        # AC-3 starts from the pinned variable, so the pool's full-universe
        # check wipes out after 13 supports; the last-in-first-out queue
        # over all 38 variables computed 291
        calls = []
        real = relations._support
        monkeypatch.setattr(relations, "_support",
                            lambda *args: calls.append(1) or real(*args))
        src, dst, pin = pinned_search_inputs["pool-p0"]
        assert not enumerate_homs(src, dst, pin=pin, limit=1).maps
        assert len(calls) <= 20


class TestRigid:
    def test_cycle_not_rigid(self):
        rep = is_rigid(RelStruct(3, ((0, 1), (1, 2), (2, 0))))
        assert not rep.rigid and rep.endo_count == 3

    def test_first_rigid_three_element_relation(self):
        """Scanning bitmasks over the nine ordered pairs in row-major order,
        the first rigid structure is mask 12: {(0,2), (1,0)}."""
        pool = [(i, j) for i in range(3) for j in range(3)]
        for mask in range(2 ** 9):
            pairs = tuple(pool[k] for k in range(9) if mask >> k & 1)
            if is_rigid(RelStruct(3, pairs)).rigid:
                assert mask == 12
                assert pairs == ((0, 2), (1, 0))
                return
        pytest.fail("no rigid relation found in the scan")

    def test_loop_forces_constant_endo(self):
        # a loop admits the constant map onto it, so never rigid for n >= 2
        s = RelStruct(2, ((0, 0),))
        rep = is_rigid(s)
        assert not rep.rigid


class TestWitness:
    def test_witness_set_requires_membership(self):
        with pytest.raises(ValueError):
            WitnessSet((0, 1), 2, 0)

    def test_check_witness_valid(self):
        s = RelStruct(3, ((0, 2), (1, 0)))
        res = check_witness(s, WitnessSet((0, 1, 2), 0, 1))
        assert res.valid

    def test_check_witness_counterexample(self):
        c3 = RelStruct(3, ((0, 1), (1, 2), (2, 0)))
        res = check_witness(c3, WitnessSet((0, 1, 2), 0, 1))
        assert not res.valid
        assert res.counterexample[0] == 1

    def test_find_min_witness_on_rigid(self):
        s = RelStruct(3, ((0, 2), (1, 0)))
        for x in range(3):
            for y in range(3):
                if x == y:
                    continue
                res = find_min_witness(s, x, y)
                assert res.minimal
                assert check_witness(s, res.witness).valid

    def test_no_witness_exists(self):
        c3 = RelStruct(3, ((0, 1), (1, 2), (2, 0)))
        with pytest.raises(NoWitnessExists):
            find_min_witness(c3, 0, 1)

    def test_budget_one_falls_back_to_deletion(self):
        # the full-universe check spends the only check, so the deletion
        # filter returns a valid witness that is not claimed minimal
        s = RelStruct(4, ((0, 2), (1, 0), (2, 3)))
        res = find_min_witness(s, 0, 1, budget=1)
        assert not res.minimal
        assert res.checks_used <= s.n
        assert check_witness(s, res.witness).valid

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        s = RelStruct(4, ((0, 2), (1, 0), (2, 3)))
        with pytest.raises(ValueError, match="at least 1"):
            find_min_witness(s, 0, 1, budget=budget)

    def test_budget_fallback_returns_valid_witness(self):
        # at x = p0 this product's smallest witness lies beyond the scan
        # budget, so the deletion filter shrinks the full universe instead
        ps = plane.lattice_ball(2)
        P = product.build_product(ps, [phi.orientation_from_bits(ps, 121525150946),
                                       phi.orientation_from_bits(ps, 187724881616)])
        s, x, y = P.structure, P.element(0, 0), P.element(0, 1)
        res = find_min_witness(s, x, y, budget=4096)
        assert not res.minimal
        assert 4096 < res.checks_used <= 4096 + s.n - 1
        assert check_witness(s, res.witness).valid
        for v in res.witness.subset:
            if v != x:
                rest = [u for u in res.witness.subset if u != v]
                assert not check_witness(s, WitnessSet(rest, x, y)).valid

    def test_finite_fragment_without_witness(self):
        # no subset of the fiber separates x under these two orientations
        # of lattice_ball(2): some endomorphism already maps x to its twin
        ps = plane.lattice_ball(2)
        S = phi.orientation_from_bits(ps, 357706255478)
        Z = phi.orientation_from_bits(ps, 494293321939)
        built = product.witness_case2(ps[4], S, Z)
        assert built.whole_fiber
        assert built.witness.subset == tuple(range(len(ps)))
        verdict = product.verify_product_witness(built.product, built.witness)
        assert not verdict.valid
        assert verdict.fiber_consistent
        assert verdict.counterexample[built.src] == built.tgt
        fibers = {built.product.fiber_of(e) for e in verdict.counterexample.values()}
        assert fibers == {1}
        with pytest.raises(NoWitnessExists):
            find_min_witness(built.product.structure, built.src, built.tgt)

    def test_same_element_rejected(self):
        with pytest.raises(ValueError):
            find_min_witness(RelStruct(2, ()), 1, 1)


class TestMinWitnessOracle:
    """find_min_witness decides disconnected candidates, and candidates a
    kept counterexample extends to, without a search; the plain scan that
    searches each one must give the same result."""

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_matches_plain_scan(self, data):
        n = data.draw(st.integers(2, 7))
        pool = [(i, j) for i in range(n) for j in range(n)]
        size = data.draw(st.integers(0, len(pool)))
        s = RelStruct(n, tuple(data.draw(st.sets(st.sampled_from(pool), max_size=size))))
        x = data.draw(st.integers(0, n - 1))
        y = data.draw(st.sampled_from([v for v in range(n) if v != x]))
        budget = data.draw(st.none() | st.integers(1, 40))
        kwargs = {} if budget is None else {"budget": budget}
        try:
            expected = reference_min_witness(s, x, y, **kwargs)
        except NoWitnessExists:
            with pytest.raises(NoWitnessExists):
                find_min_witness(s, x, y, **kwargs)
            return
        res = find_min_witness(s, x, y, **kwargs)
        assert (res.witness.subset, res.minimal, res.checks_used) == expected

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_plain_scan_dense(self, data):
        # larger and denser than above, so that small candidates fail often
        # and the extension rule decides many of them; loops stay rarer, as
        # a loop at y maps everything to y and leaves no witness at all
        n = data.draw(st.integers(3, 9))
        keep = data.draw(st.integers(3, 9))
        marks = data.draw(st.lists(st.integers(0, 9), min_size=n * n, max_size=n * n))
        s = RelStruct(n, tuple((i, j) for i in range(n) for j in range(n)
                               if marks[i * n + j] < (keep if i != j else 1)))
        x = data.draw(st.integers(0, n - 1))
        y = data.draw(st.sampled_from([v for v in range(n) if v != x]))
        budget = data.draw(st.none() | st.integers(1, 200))
        kwargs = {} if budget is None else {"budget": budget}
        try:
            expected = reference_min_witness(s, x, y, **kwargs)
        except NoWitnessExists:
            with pytest.raises(NoWitnessExists):
                find_min_witness(s, x, y, **kwargs)
            return
        res = find_min_witness(s, x, y, **kwargs)
        assert (res.witness.subset, res.minimal, res.checks_used) == expected

    def test_extended_candidate_counted_unsearched(self, monkeypatch):
        # (0,) fails by 0 -> 1; (1, 0) is a pair and so is (2, 1), so 1 -> 2
        # extends that map to {0, 1}, which is decided without a search;
        # {0, 2} admits no extension and is searched: a witness
        s = RelStruct(3, ((0, 2), (1, 0), (2, 0), (2, 1)))
        searched = []
        real = relations.check_witness
        monkeypatch.setattr(relations, "check_witness",
                            lambda *args: searched.append(args[1].subset) or real(*args))
        res = find_min_witness(s, 0, 1)
        assert (res.witness.subset, res.minimal, res.checks_used) == ((0, 2), True, 4)
        assert searched == [(0, 1, 2), (0,), (0, 2)]

    def test_disconnected_candidate_counted_unsearched(self, monkeypatch):
        # {0, 1} has no pair joining 0 and 1, so it is decided without a
        # search; {0, 2} is a witness, since no successor of 1 has a loop
        s = RelStruct(4, ((0, 2), (2, 2), (1, 3)))
        searched = []
        real = relations.check_witness
        monkeypatch.setattr(relations, "check_witness",
                            lambda *args: searched.append(args[1].subset) or real(*args))
        res = find_min_witness(s, 0, 1)
        assert (res.witness.subset, res.minimal, res.checks_used) == ((0, 2), True, 4)
        assert searched == [(0, 1, 2, 3), (0,), (0, 2)]

    @pytest.mark.parametrize("bits,expected", [
        # x = p0 in two inputs of bench/minimize_pool.json, with the
        # results of the plain scan: an origin input, and one whose scan
        # outruns the budget; last, the hom searches made, full universe
        # included, which were 127 and 212 before the extension rule
        ((138253369779, 18153949995), ((0, 3, 5, 6), True, 1964, 7)),
        ((121525150946, 187724881616), ((0, 3, 5, 14, 16), False, 4133, 43)),
    ])
    def test_checks_used_pinned(self, bits, expected, monkeypatch):
        ps = plane.lattice_ball(2)
        P = product.build_product(ps, [phi.orientation_from_bits(ps, b) for b in bits])
        s, x, y = P.structure, P.element(0, 0), P.element(0, 1)
        searched = []
        real = relations.check_witness
        monkeypatch.setattr(relations, "check_witness",
                            lambda *args: searched.append(1) or real(*args))
        res = find_min_witness(s, x, y)
        assert (res.witness.subset, res.minimal, res.checks_used, len(searched)) == expected

    @pytest.mark.parametrize("bits,xi,expected", [
        # more inputs of bench/minimize_pool.json, bits and x's point index
        # copied from it, with the results of the plain scan: three origin
        # inputs, three random ones and two whose scan outruns the budget
        ((63116184789, 94625185273), 0, ((0, 1, 2, 3), True, 706)),
        ((33550908543, 357632869863), 0, ((0, 4, 5, 6), True, 2492)),
        ((116846431808, 344586531391), 0, ((0, 1, 3, 5), True, 742)),
        ((63116184789, 94625185273), 9, ((1, 2, 8, 9), True, 1341)),
        ((18810312226, 373260849319), 18, ((6, 15, 18), True, 249)),
        ((472122706874, 142754519382), 9, ((9, 11), True, 13)),
        ((468004163866, 257631332903), 6, ((6, 15, 17, 18), False, 4133)),
        ((143722297303, 172487088839), 0, ((0, 4, 5, 6, 14, 16, 17), False, 4133)),
    ])
    def test_pool_results_pinned(self, bits, xi, expected):
        ps = plane.lattice_ball(2)
        P = product.build_product(ps, [phi.orientation_from_bits(ps, b) for b in bits])
        res = find_min_witness(P.structure, P.element(xi, 0), P.element(xi, 1))
        assert (res.witness.subset, res.minimal, res.checks_used) == expected


class TestRemark1:
    @given(structs())
    @settings(max_examples=100, deadline=None)
    def test_all_witnessed_implies_rigid(self, s):
        rep = remark1_check(s)
        if rep.all_pairs_witnessed:
            assert rep.rigid

    def test_reports_unwitnessed_pairs(self):
        c3 = RelStruct(3, ((0, 1), (1, 2), (2, 0)))
        rep = remark1_check(c3)
        assert not rep.all_pairs_witnessed
        assert (0, 1) in rep.unwitnessed_pairs
