"""Finite binary relational structures and a complete homomorphism engine.

The solver is a plain CSP backtracker: one variable per source element,
domains over target elements, constraints induced by the ordered pairs.
An initial arc-consistency pass plus forward checking keeps desk-scale
instances fast; results are canonically sorted so parallel or reordered
exploration cannot change observable output.

Each domain is a Python int whose bit a stands for target element a.
The target's successor, predecessor and two-way masks per element, with
the OR of each mask list, are built on its first search and cached on the
RelStruct.  Revising u against v is then D[u] &= OR of M[b] over b in
D[v] (the cached OR when D[v] is full), and forward checking after
v -> a is D[w] &= M[a].  That OR depends only on D[v] and the arc kind,
so AC-3 computes it once per kind for each variable it pops.  Branching
takes the unassigned variable with the fewest values, ties to the lowest
index, and tries values in ascending order.

AC-3's queue is first in first out.  It starts with the variables whose
domain the pin or a loop already shrank, then the rest, each group in
index order, so a pin's contradiction is found before near-full domains
are walked.  The order cannot change a result.  Call a family of
sub-domains arc-consistent when each value of u has a support in D[v]
for every arc between u and v; a union of such families is one, so a
largest, L, lies inside the starting domains.  A revision drops only
values without support in the current domains, which by induction
contain L, so it never drops a value of L.  Every variable with an arc
starts in the queue and is queued again whenever its domain shrinks, so
when the queue empties every arc is consistent: the domains are an
arc-consistent family containing L, hence L, in any order.  Without a
wipeout the search thus starts from the same domains and gives the same
maps, nodes and truncated flag.  A wipeout in one order means L has an
empty domain, and then every order either wipes out or leaves that
domain empty, which skips the search: no maps, not truncated, 0 nodes.

find_min_witness scans candidate witnesses smallest-first and decides a
candidate without a search when a rule proves it fails: the component
rule for a disconnected candidate, and the extension rule when a
counterexample kept for the candidate minus one element extends to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product as iter_product

from .errors import NoWitnessExists


@dataclass(frozen=True)
class RelStruct:
    """Binary relational structure on universe {0, ..., n-1}."""

    n: int
    pairs: tuple  # sorted, deduplicated (i, j) tuples
    labels: tuple = None

    def __post_init__(self):
        pr = tuple(sorted({(int(i), int(j)) for i, j in self.pairs}))
        for i, j in pr:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"pair ({i},{j}) out of range for n={self.n}")
        object.__setattr__(self, "pairs", pr)
        if self.labels is not None:
            lb = tuple(str(x) for x in self.labels)
            if len(lb) != self.n:
                raise ValueError("labels length must equal n")
            object.__setattr__(self, "labels", lb)

    @cached_property
    def pair_set(self) -> frozenset:
        return frozenset(self.pairs)

    @cached_property
    def _masks(self) -> tuple:
        """Target indexes for enumerate_homs, built on first search.

        Returns (loop_mask, tables): bit a of loop_mask is set when (a, a)
        is a pair; tables[1], [2], [3] hold the successor, predecessor and
        two-way masks per element, each with the OR of its masks.
        """
        succ = [0] * self.n
        pred = [0] * self.n
        for i, j in self.pairs:
            succ[i] |= 1 << j
            pred[j] |= 1 << i
        both = [s & p for s, p in zip(succ, pred)]
        loop_mask = _or_all(m & (1 << a) for a, m in enumerate(succ))
        tables = (None,) + tuple((m, _or_all(m)) for m in (succ, pred, both))
        return loop_mask, tables

    def has(self, i: int, j: int) -> bool:
        return (i, j) in self.pair_set

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else str(i)

    def restrict(self, indices) -> "RelStruct":
        """Induced substructure; element k is the k-th listed index."""
        idx = list(indices)
        pos = {v: k for k, v in enumerate(idx)}
        pr = [(pos[i], pos[j]) for (i, j) in self.pairs if i in pos and j in pos]
        lb = tuple(self.label(v) for v in idx) if self.labels else None
        return RelStruct(len(idx), tuple(pr), lb)


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
    out = 0
    for m in masks:
        out |= m
    return out


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

    # kind[(u, v)]: bit 1 when (u, v) is a src pair, bit 2 when (v, u) is;
    # tables[kind] then gives, per value a of u, the values v may take
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

    # AC-3 over variables, first in first out from the variables the pin
    # or a loop shrank: a shrunk domain re-revises its neighbours.
    # domains[v] stays fixed while v's arcs are revised, so each arc kind
    # needs its support only once per pop
    queue = ([v for v in range(n) if arcs[v] and domains[v] != full]
             + [v for v in range(n) if arcs[v] and domains[v] == full])
    queued = [bool(arcs[v]) for v in range(n)]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        queued[v] = False
        dv = domains[v]
        supports = [-1] * 4  # by arc kind, -1 until first needed
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
    out = []
    for vec in iter_product(range(dst.n), repeat=src.n):
        if any(vec[i] != a for i, a in pin.items()):
            continue
        if all((vec[i], vec[j]) in dst.pair_set for i, j in src.pairs):
            out.append(vec)
    return tuple(out)


@dataclass(frozen=True)
class RigidReport:
    rigid: bool
    endo_count: int

    def __bool__(self):
        return self.rigid


def is_rigid(s: RelStruct) -> RigidReport:
    """True when the only endomorphism is the identity."""
    result = enumerate_homs(s, s)
    identity = tuple(range(s.n))
    rigid = result.maps == (identity,)
    return RigidReport(rigid, len(result.maps))


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


def check_witness(s: RelStruct, w: WitnessSet) -> WitnessCheck:
    """Valid iff no map of w.subset into the universe with x -> y preserves
    the pairs lying inside the subset."""
    sub = w.subset
    induced = s.restrict(sub)
    pos = {v: k for k, v in enumerate(sub)}
    result = enumerate_homs(induced, s, pin={pos[w.x]: w.y}, limit=1)
    if not result.maps:
        return WitnessCheck(True, None)
    vec = result.maps[0]
    return WitnessCheck(False, {sub[k]: vec[k] for k in range(len(sub))})


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
    endomorphism already sends x to y.  A budget below 1 raises ValueError.

    A check is either a hom search of the candidate or a decision by the
    component rule or the extension rule, and all count alike against the
    budget.  The component rule:
    let W's induced pairs, taken as undirected edges without loops, split
    W into components, and let C be the one holding x.  Every pair of W
    lies inside one component, so a map of C with x -> y extended by the
    identity elsewhere preserves W's pairs, and a map of W restricts to
    one of C: W is a witness exactly when C is.  When W is disconnected,
    C is a smaller connected candidate containing x, so the smallest-first
    scan has already searched it, and the scan only goes on past a failed
    search.  A disconnected candidate is therefore no witness, and it is
    decided without a search.

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
    every connected candidate.
    """
    if x == y:
        raise ValueError("witness search requires x != y")
    if budget < 1:
        raise ValueError(f"witness budget must be at least 1, got {budget}")
    checks = 0

    def checked(subset) -> WitnessCheck:
        nonlocal checks
        checks += 1
        return check_witness(s, WitnessSet(subset, x, y))

    if not checked(tuple(range(s.n))).valid:
        raise NoWitnessExists(f"an endomorphism maps {x} to {y}")

    neighbours = _neighbours(s)
    others = [i for i in range(s.n) if i != x]
    # the last candidate is the full universe, so the scan returns unless
    # the budget runs out; once it has, every later candidate breaks at once
    current = {}
    for size in range(s.n):
        # counterexamples of the failed connected candidates, by bitmask:
        # those one element smaller, and those of this size
        previous, current = current, {}
        for rest in combinations(others, size):
            if checks >= budget:
                break
            subset = (x,) + rest
            mask = 0
            for v in subset:
                mask |= 1 << v
            if _component(neighbours, x, mask) != mask:
                checks += 1  # decided by the component rule: no witness
                continue
            h = _extend_counterexample(s, previous, rest, mask)
            if h is not None:
                checks += 1  # decided by the extension rule: no witness
            else:
                result = checked(subset)
                if result.valid:
                    return MinWitnessResult(WitnessSet(subset, x, y), True, checks)
                h = result.counterexample
            current[mask] = h

    # validity is monotone under growing the subset, so dropping each
    # element whose removal keeps the subset valid ends inclusion-minimal
    kept = list(range(s.n))
    for i in others:
        trial = [v for v in kept if v != i]
        if checked(tuple(trial)).valid:
            kept = trial
    return MinWitnessResult(WitnessSet(tuple(kept), x, y), False, checks)


def _extend_counterexample(s: RelStruct, known: dict, rest, mask: int):
    """A counterexample for the candidate `mask` made by giving one v of
    `rest` (the candidate without x) an image on top of the counterexample
    `known` holds for the candidate without v; None when there is none."""
    loop_mask, tables = s._masks
    succ, pred = tables[1][0], tables[2][0]
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


def _neighbours(s: RelStruct) -> list:
    """Per element v, the mask of elements sharing a pair with v, loops
    dropped, read off the structure's cached masks."""
    _, tables = s._masks
    return [(out | into) & ~(1 << v)
            for v, (out, into) in enumerate(zip(tables[1][0], tables[2][0]))]


def is_connected_within(s: RelStruct, subset) -> bool:
    """Whether the pairs inside `subset`, taken as undirected edges,
    connect it; the empty subset counts as connected."""
    mask = 0
    for v in subset:
        mask |= 1 << v
    if not mask:
        return True
    start = (mask & -mask).bit_length() - 1
    return _component(_neighbours(s), start, mask) == mask


def _component(neighbours, x: int, within: int) -> int:
    """Bitmask of x's component in the graph `neighbours` induces on the
    elements of the bitmask `within`."""
    reach = frontier = 1 << x
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = neighbours[low.bit_length() - 1] & within & ~reach
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
    """
    bad = []
    full = tuple(range(s.n))
    for x in range(s.n):
        for y in range(s.n):
            if x == y:
                continue
            if not check_witness(s, WitnessSet(full, x, y)).valid:
                bad.append((x, y))
    return Remark1Report(not bad, is_rigid(s).rigid, tuple(bad))
