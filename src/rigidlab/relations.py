"""Finite binary relational structures and a complete homomorphism engine.

The solver is a plain CSP backtracker: one variable per source element,
domains over target elements, constraints induced by the ordered pairs.
An initial arc-consistency pass plus forward checking keeps desk-scale
instances fast; results are canonically sorted so parallel or reordered
exploration cannot change observable output.

Each domain is a Python int whose bit a stands for target element a.
Every RelStruct indexes its pairs as successor and predecessor masks per
element, built once on first use and cached; both sides of a search
read them.  The source's masks give each variable's arcs, bit by bit in
ascending order, and restrict gathers an induced substructure's pairs
from them.  On the target side the two-way masks and the OR of each mask
list are cached as well.  Revising u against v is then D[u] &= OR of
M[b] over b in D[v] (the cached OR when D[v] is full), and forward
checking after v -> a is D[w] &= M[a].  That OR depends only on D[v] and
the arc kind, so AC-3 computes it once per kind for each variable it
pops.  Branching takes the unassigned variable with the fewest values,
ties to the lowest index, and tries values in ascending order.

AC-3 revises shrunk domains first.  Its queue holds the variables whose
domain the pin or a loop shrank, then every variable a revision shrinks,
first in first out; only when it is empty does the next variable that
still has a full domain come up, in index order.  A pin's contradiction
is thus found before the full domains are walked.  The order cannot
change a result.  Call a family of sub-domains arc-consistent when each
value of u has a support in D[v] for every arc between u and v; a union
of such families is one, so a largest, L, lies inside the starting
domains.  A revision drops only values without support in the current
domains, which by induction contain L, so it never drops a value of L.
Every variable with an arc is revised at least once, and again after
each time its domain shrinks, so when the queue empties every arc is
consistent: the domains are an arc-consistent family containing L,
hence L, in any order.  Without a wipeout the search thus starts from
the same domains and gives the same maps, nodes and truncated flag.  A
wipeout in one order means L has an empty domain, and then every order
either wipes out or leaves that domain empty, which skips the search:
no maps, not truncated, 0 nodes.

find_min_witness scans candidate witnesses smallest-first but meets
only the connected ones: it walks each size's prefixes in order and
draws the last element from those that join every component of the
prefix plus x.  A disconnected candidate is never built, yet counts one
check at its place in the order.  A met candidate is decided without a
search when a counterexample kept for it minus one element extends to it.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property, reduce
from itertools import combinations, product as iter_product
from operator import index, or_

from .errors import NoWitnessExists


@dataclass(frozen=True)
class RelStruct:
    """Binary relational structure on universe {0, ..., n-1}.

    The constructor sorts and deduplicates the pairs and checks them in
    range.  A producer whose pairs are already sorted, unique, in-range
    int tuples passes canonical=True, and the check is skipped.
    """

    n: int
    pairs: tuple  # sorted, deduplicated (i, j) tuples
    canonical: InitVar[bool] = False

    def __post_init__(self, canonical):
        if canonical:
            return
        if self.n < 0:
            raise ValueError(f"universe size must be at least 0, got {self.n}")
        pr = tuple(sorted({(int(i), int(j)) for i, j in self.pairs}))
        for i, j in pr:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"pair ({i},{j}) out of range for n={self.n}")
        object.__setattr__(self, "pairs", pr)

    @cached_property
    def _adjacency(self) -> tuple:
        """(loop_mask, succ, pred): bit a of loop_mask is set when (a, a)
        is a pair, bit j of succ[i] and bit i of pred[j] when (i, j) is."""
        succ = [0] * self.n
        pred = [0] * self.n
        loop_mask = 0
        for i, j in self.pairs:
            succ[i] |= 1 << j
            pred[j] |= 1 << i
            if i == j:
                loop_mask |= 1 << i
        return loop_mask, succ, pred

    @cached_property
    def _neighbours(self) -> list:
        """Per element v, the mask of elements sharing a pair with v, loops
        dropped."""
        _, succ, pred = self._adjacency
        return [(out | into) & ~(1 << v) for v, (out, into) in enumerate(zip(succ, pred))]

    @cached_property
    def _masks(self) -> tuple:
        """Target indexes for enumerate_homs, built on first search.

        Returns (loop_mask, tables): tables[1], [2], [3] hold the
        successor, predecessor and two-way masks per element, each with
        the OR of its masks.
        """
        loop_mask, succ, pred = self._adjacency
        both = list(map(int.__and__, succ, pred))
        tables = (None,) + tuple((m, _or_all(m)) for m in (succ, pred, both))
        return loop_mask, tables

    def restrict(self, indices) -> "RelStruct":
        """Induced substructure; element k is the k-th listed index.

        An index outside [0, n) or listed twice raises ValueError.  The
        full universe listed in order gives the structure itself.
        """
        idx = list(map(index, indices))
        pos = [-1] * self.n
        for k, v in enumerate(idx):
            if not 0 <= v < self.n:
                raise ValueError(f"index {v} out of range for n={self.n}")
            if pos[v] >= 0:
                raise ValueError(f"index {v} listed twice")
            pos[v] = k
        ordered = idx == sorted(idx)
        if ordered and len(idx) == self.n:
            return self
        # element k's successors inside idx, ascending: the pairs come out
        # sorted when positions follow the indices, and are sorted otherwise
        within = _or_all(map((1).__lshift__, idx))
        _, succ, _ = self._adjacency
        pairs = []
        for k, v in enumerate(idx):
            out = succ[v] & within
            while out:
                low = out & -out
                out ^= low
                pairs.append((k, pos[low.bit_length() - 1]))
        if not ordered:
            pairs.sort()
        return RelStruct(len(idx), tuple(pairs), canonical=True)


@dataclass(frozen=True)
class HomSearchResult:
    """Homomorphism list plus search metadata."""

    maps: tuple  # tuple of image vectors, each a tuple of ints
    truncated: bool
    nodes: int

    def __len__(self):
        return len(self.maps)

    def __iter__(self):
        return iter(self.maps)


def _or_all(masks) -> int:
    return reduce(or_, masks, 0)


def _bits(mask: int) -> tuple:
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


def _support(masks, full_or: int, domain: int, full: int) -> int:
    """OR of masks[b] over the bits b of domain; full_or when domain is full."""
    if domain == full:
        return full_or
    out = 0
    while domain:
        low = domain & -domain
        out |= masks[low.bit_length() - 1]
        domain ^= low
    return out


def enumerate_homs(src: RelStruct, dst: RelStruct, pin=None, limit=None) -> HomSearchResult:
    """All maps src -> dst carrying src.pairs into dst.pairs, extending pin.

    Deterministic: the map list is sorted by image vector.  When `limit`
    cuts the search short the result is flagged truncated instead of
    raising; a truncated list is still sorted but not complete.  A limit
    below 1 raises ValueError.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"hom limit must be at least 1, got {limit}")
    pin = dict(pin) if pin else {}
    for i, a in pin.items():
        if not (0 <= i < src.n and 0 <= a < dst.n):
            raise ValueError(f"pin {i}->{a} out of range")
    n = src.n
    full = (1 << dst.n) - 1
    loop_mask, tables = dst._masks

    src_loops, succ, pred = src._adjacency
    arcs = [None] * n

    def build_arcs(u: int) -> None:
        """Fill arcs[u], on first need: (v, kind, masks, OR of masks) by
        ascending v, kind bit 1 when (u, v) is a src pair and bit 2 when
        (v, u) is; masks then gives, per value a of u, the values v may
        take."""
        bit = 1 << u
        out, into = succ[u] & ~bit, pred[u] & ~bit
        row = []
        rest = out | into
        while rest:
            low = rest & -rest
            rest ^= low
            k = (1 if out & low else 0) | (2 if into & low else 0)
            row.append((low.bit_length() - 1, k) + tables[k])
        arcs[u] = row

    domains = [loop_mask if src_loops >> u & 1 else full for u in range(n)]
    for i, a in pin.items():
        domains[i] &= 1 << a

    # AC-3 over the variables with an arc.  A variable whose domain shrank
    # is revised before any that still waits with a full domain: the
    # shrunk ones are popped first in first out, and the waiting ones in
    # index order, each skipped once it has shrunk, since it then sits in
    # the shrunk queue.  domains[v] stays fixed while v's arcs are
    # revised, so each arc kind needs its support only once per pop
    linked = [v for v in range(n) if (succ[v] | pred[v]) & ~(1 << v)]
    queue = [v for v in linked if domains[v] != full]
    waiting = [v for v in linked if domains[v] == full]
    queued = [False] * n
    for v in queue:
        queued[v] = True
    head = wait = 0
    while True:
        if head < len(queue):
            v = queue[head]
            head += 1
            queued[v] = False
        else:
            while wait < len(waiting) and domains[waiting[wait]] != full:
                wait += 1
            if wait == len(waiting):
                break
            v = waiting[wait]
            wait += 1
        dv = domains[v]
        supports = [-1] * 4  # by arc kind, -1 until first needed
        if arcs[v] is None:
            build_arcs(v)
        for u, k, masks, full_or in arcs[v]:
            support = supports[k]
            if support < 0:
                support = supports[k] = _support(masks, full_or, dv, full)
            du = domains[u]
            nu = du & support
            if nu != du:
                if not nu:
                    return HomSearchResult((), False, 0)
                domains[u] = nu
                if not queued[u]:
                    queued[u] = True
                    queue.append(u)
    for u in range(n):
        if arcs[u] is None:
            build_arcs(u)

    maps = []
    nodes = 0
    truncated = False
    assignment = [-1] * n

    def search():
        nonlocal nodes, truncated
        # MRV, ties to the lowest index
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
    maps.sort()
    return HomSearchResult(tuple(maps), truncated, nodes)


def brute_force_homs(src: RelStruct, dst: RelStruct, pin=None) -> tuple:
    """Independent oracle: check every one of dst.n ** src.n maps."""
    pin = dict(pin) if pin else {}
    dst_pairs = set(dst.pairs)
    out = []
    for vec in iter_product(range(dst.n), repeat=src.n):
        if any(vec[i] != a for i, a in pin.items()):
            continue
        if all((vec[i], vec[j]) in dst_pairs for i, j in src.pairs):
            out.append(vec)
    return tuple(out)


def is_rigid(s: RelStruct) -> bool:
    """True when the only endomorphism is the identity.

    Decided one component at a time, pairs taken undirected and loops
    dropped: a map of s is a homomorphism iff its restriction to each
    component is (component_map's lemma), so End(s) is the product over
    the components C of Hom(C, s).  The inclusion of C is one map of C
    into s, and s is rigid iff it is the only one for every C: a search
    of C into s, not into C, since two disjoint copies of a rigid
    relation are not rigid.
    """
    left = (1 << s.n) - 1
    while left:
        piece = component(s._neighbours, (left & -left).bit_length() - 1, left)
        left ^= piece
        if len(enumerate_homs(s.restrict(_bits(piece)), s, limit=2).maps) != 1:
            return False
    return True


@dataclass(frozen=True)
class WitnessSet:
    """Candidate witness: subset of the universe with a pinned source x
    and forbidden target y."""

    subset: tuple
    x: int
    y: int

    def __post_init__(self):
        sub = tuple(sorted(set(int(i) for i in self.subset)))
        object.__setattr__(self, "subset", sub)
        if self.x not in sub:
            raise ValueError("witness subset must contain x")


@dataclass(frozen=True)
class WitnessCheck:
    valid: bool
    counterexample: dict = None  # original-index map when invalid

    def __bool__(self):
        return self.valid


def component_map(src: RelStruct, dst: RelStruct, within: int, x: int, y: int):
    """The first map into dst, with x -> y, of x's component within the
    bitmask `within`, as {element: image}; None when there is none.

    This is the one witness verdict.  Take the pairs of src inside W (the
    elements of `within`, plus x) as undirected edges, loops dropped, and
    let C be x's component.  The answer is one search:
    enumerate_homs(src restricted to C, dst, pin={x: y}, limit=1).

    - W is a witness exactly when C is.  Every pair of W lies inside one
      component, so a map of W is a homomorphism iff each restriction is
      (maps into a disjoint union: Hell and Nesetril, Graphs and
      Homomorphisms, ch. 1; independent subproblems: Dechter, Constraint
      Processing, 2003).  A map of W with x -> y restricts to one of C,
      and a map of C with x -> y, extended by the identity on the rest of
      W, is one of W: a counterexample fixes every element of W outside C.
    - When C is all of W, the search is the whole one: the same source,
      pin and first map.
    - When the target is a disjoint union of parts with no pair between
      them, as a product is of its fibers, every map of C with x -> y
      lands in y's part: each pair of C goes to a pair, which lies in one
      part, and C is connected.  So the search may be into y's part alone,
      and it finds the same first map: once x is pinned there, arc
      consistency leaves every variable of C only values in that part, so
      both searches start from the same domains, with the part's values
      in the same order.
    """
    points = _bits(component(src._neighbours, x, within))
    result = enumerate_homs(src.restrict(points), dst, pin={points.index(x): y}, limit=1)
    return dict(zip(points, result.maps[0])) if result.maps else None


def check_witness(s: RelStruct, w: WitnessSet) -> WitnessCheck:
    """Valid iff no map of w.subset into the universe with x -> y preserves
    the pairs lying inside the subset.  Judged by component_map: a
    counterexample moves x's component and fixes the rest of the subset.
    An element of the subset or a y outside the universe raises
    ValueError."""
    sub = w.subset
    # subset is sorted, so its ends bound it
    for e in (sub[0], sub[-1]):
        if not 0 <= e < s.n:
            raise ValueError(f"index {e} out of range for n={s.n}")
    if not 0 <= w.y < s.n:
        raise ValueError(f"target {w.y} out of range for n={s.n}")
    h = component_map(s, s, _or_all(map((1).__lshift__, sub)), w.x, w.y)
    if h is None:
        return WitnessCheck(True, None)
    return WitnessCheck(False, {e: h.get(e, e) for e in sub})


@dataclass(frozen=True)
class MinWitnessResult:
    witness: WitnessSet
    minimal: bool
    checks_used: int


def find_min_witness(s: RelStruct, x: int, y: int, budget: int = 4096) -> MinWitnessResult:
    """Smallest valid witness for (x, y) under an exhaustive-check budget.

    Subsets containing x are tried smallest-first.  If the budget dies
    before the scan finishes, a one-pass deletion filter shrinks the full
    universe, already checked valid, to an inclusion-minimal witness that
    is returned with minimal=False; this fallback may spend up to n-1
    checks beyond the budget, and checks_used counts them.
    NoWitnessExists is raised when even the full universe fails, i.e. some
    endomorphism already sends x to y.  An x or y outside [0, n), x == y,
    and a budget below 1 raise ValueError.

    A check is a hom search of a candidate, or a decision without one,
    and all count alike against the budget.  The candidates of size k are
    x plus each of combinations(others, k), in that order; the scan walks
    the prefixes P in combinations(others, k - 1) and, for each, the tail
    of elements above P's last one (all of `others` for an empty P), so
    (P, c) is check number checks + (tail elements below c) + 1, and a
    prefix adds the tail's size to checks.  A candidate is met only while
    the checks before it stay below the budget; once they reach it,
    checks == budget.

    Only connected candidates are met, each judged by component_map on
    its mask.  By component_map's lemma a disconnected W is a witness
    exactly when x's component C within it is.  C is a smaller connected
    candidate, so the smallest-first scan has already searched it, and
    the scan only goes on past a failed search: W is no witness.  W = P +
    x + c is connected exactly when c has a neighbour in every component
    of P + x, so the scan draws c from the tail elements that do,
    ascending, and skips the rest unbuilt.

    The extension rule reuses the counterexample h, a map of W - {v} with
    x -> y preserving its pairs, kept for each failed connected candidate
    one element smaller than W, for v in W other than x.  Let `allowed`
    be the elements a with (a, h(u)) a pair for every pair (v, u), u in
    W - {v}, with (h(u), a) a pair for every pair (u, v), and with (a, a)
    a pair if (v, v) is one.  Any a in `allowed` makes h + {v -> a} a map
    of W with x -> y: a pair of W either avoids v and lies in W - {v},
    or is one of the pairs just listed.  W is then no witness, and the
    extended map is kept for the next size.  Only a failing candidate can
    be decided this way, so every valid candidate is still searched, and
    the scan's verdicts, order and check count are those of searching
    every candidate.
    """
    for name, v in (("x", x), ("y", y)):
        if not 0 <= v < s.n:
            raise ValueError(f"witness element {name}={v} out of range for n={s.n}")
    if x == y:
        raise ValueError("witness search requires x != y")
    if budget < 1:
        raise ValueError(f"witness budget must be at least 1, got {budget}")
    checks = 1
    if not check_witness(s, WitnessSet(range(s.n), x, y)).valid:
        raise NoWitnessExists(f"an endomorphism maps {x} to {y}")

    # counterexamples of the failed connected candidates, by bitmask:
    # those one element smaller, and those of the size being scanned
    previous, current = {}, {}

    def met(rest, mask) -> bool:
        """Decide the connected candidate x + rest as check number checks + 1,
        keeping its counterexample when it fails; True when it is a witness."""
        nonlocal checks
        checks += 1
        h = _extend_counterexample(s, previous, rest, mask)
        if h is None:
            h = component_map(s, s, mask, x, y)  # the candidate is connected
            if h is None:
                return True
        current[mask] = h
        return False

    if checks < budget and met((), 1 << x):
        return MinWitnessResult(WitnessSet((x,), x, y), True, checks)
    nbrs = neighbours(s)
    others = [i for i in range(s.n) if i != x]
    above = ((1 << s.n) - 1) ^ 1 << x  # the tail of the empty prefix
    # the last candidate is the full universe, so the scan returns unless
    # the budget runs out; once it has, checks == budget and every later
    # prefix breaks at once
    for size in range(1, s.n):
        previous, current = current, {}
        for prefix in combinations(others, size - 1):
            if checks >= budget:
                break
            tail = above >> prefix[-1] + 1 << prefix[-1] + 1 if prefix else above
            if not tail:
                continue
            mask = 1 << x
            for v in prefix:
                mask |= 1 << v
            # c joins x + prefix + c into one piece iff it touches every
            # component of x + prefix
            joins, left = tail, mask
            while joins and left:
                piece = component(nbrs, (left & -left).bit_length() - 1, mask)
                left ^= piece
                touched = 0
                while piece:
                    low = piece & -piece
                    piece ^= low
                    touched |= nbrs[low.bit_length() - 1]
                joins &= touched
            # candidate (prefix, c) is check number base + (tail below c) + 1
            base = checks
            while joins:
                low = joins & -joins
                joins ^= low
                checks = base + (tail & low - 1).bit_count()
                if checks >= budget:
                    break
                if met(prefix + (low.bit_length() - 1,), mask | low):
                    subset = (x,) + prefix + (low.bit_length() - 1,)
                    return MinWitnessResult(WitnessSet(subset, x, y), True, checks)
            checks = min(base + tail.bit_count(), budget)

    # validity is monotone under growing the subset, so dropping each
    # element whose removal keeps the subset valid ends inclusion-minimal
    kept = list(range(s.n))
    for i in others:
        trial = [v for v in kept if v != i]
        checks += 1
        if check_witness(s, WitnessSet(trial, x, y)).valid:
            kept = trial
    return MinWitnessResult(WitnessSet(tuple(kept), x, y), False, checks)


def _extend_counterexample(s: RelStruct, known: dict, rest, mask: int):
    """A counterexample for the candidate `mask` made by giving one v of
    `rest` (the candidate without x) an image on top of the counterexample
    `known` holds for the candidate without v; None when there is none."""
    loop_mask, succ, pred = s._adjacency
    full = (1 << s.n) - 1
    for v in rest:
        h = known.get(mask ^ 1 << v)
        if h is None:
            continue
        bit = 1 << v
        # (v, u) needs a pair (a, h[u]) and (u, v) a pair (h[u], a)
        allowed = loop_mask if succ[v] & bit else full
        out, into = succ[v] & mask & ~bit, pred[v] & mask & ~bit
        while out and allowed:
            low = out & -out
            out ^= low
            allowed &= pred[h[low.bit_length() - 1]]
        while into and allowed:
            low = into & -into
            into ^= low
            allowed &= succ[h[low.bit_length() - 1]]
        if allowed:
            return {**h, v: (allowed & -allowed).bit_length() - 1}
    return None


def neighbours(s: RelStruct) -> list:
    """Per element v, the mask of elements sharing a pair with v, loops
    dropped, cached on the structure."""
    return s._neighbours


def component(nbrs, x: int, within: int) -> int:
    """Bitmask of x's component in the graph the neighbour masks `nbrs`
    induce on the elements of the bitmask `within`."""
    reach = frontier = 1 << x
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = nbrs[low.bit_length() - 1] & within & ~reach
        reach |= new
        frontier |= new
    return reach


@dataclass(frozen=True)
class Remark1Report:
    all_pairs_witnessed: bool
    rigid: bool
    unwitnessed_pairs: tuple


def remark1_check(s: RelStruct) -> Remark1Report:
    """Independently compute 'every ordered pair has a valid witness' and
    'the structure is rigid'.

    A witness for (x, y) exists iff the full universe is one, since any
    full endomorphism restricts to a counterexample on every subset.
    check_witness searches only x's component (component_map's lemma).
    """
    bad = []
    full = tuple(range(s.n))
    for x in range(s.n):
        for y in range(s.n):
            if x == y:
                continue
            if not check_witness(s, WitnessSet(full, x, y)).valid:
                bad.append((x, y))
    return Remark1Report(not bad, is_rigid(s), tuple(bad))
