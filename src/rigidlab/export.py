"""Serialization for point sets, structures, orientations, and reports.

Every writer is deterministic: JSON keys are sorted, sequences follow the
stored order, floats go through repr, and SVG coordinates are rounded to
four decimals.  Files are written atomically (temp file then rename) so a
crashed run never leaves a half-document behind.
"""

from __future__ import annotations

import json
import os
import tempfile
from fractions import Fraction

from .errors import UsageError
from .numeric import MAX_RADICAND, Point, QScalar, point_to_float
from .phi import Orientation
from .plane import PointSet, unit_graph
from .product import ProductStruct, find_conflict_edge
from .relations import RelStruct

SCHEMA_POINTSET = "rigidlab.pointset/1"
SCHEMA_RELSTRUCT = "rigidlab.relstruct/1"
SCHEMA_ORIENTATION = "rigidlab.orientation/1"
SCHEMA_PRODUCT = "rigidlab.product/1"
SCHEMA_REPORT = "rigidlab.report/1"


def scalar_to_json(s):
    if isinstance(s, QScalar):
        doc = {"a": str(s.a), "b": str(s.b)}
        if s.ext:
            # terms beyond Q(sqrt(3)) as [radicand, coefficient] pairs
            doc["ext"] = [[d, str(c)] for d, c in s.ext]
        return doc
    raise TypeError(f"not a serializable scalar: {s!r}")


def scalar_from_json(obj):
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise UsageError(f"a scalar is exact: an object with keys 'a' and 'b', got {obj!r}")
    ext = []
    for d, c in _pairs(obj.get("ext", []), "a scalar's 'ext'"):
        if type(d) is not int or not 1 <= d <= MAX_RADICAND:
            raise UsageError(f"ext radicand must be an integer in 1..{MAX_RADICAND}, got {d!r}")
        ext.append((d, _rational(c, "ext")))
    return QScalar(_rational(obj["a"], "a"), _rational(obj["b"], "b"), ext)


def _rational(value, key: str) -> Fraction:
    """A scalar coefficient: an integer or a string such as '-3/4'."""
    if type(value) in (int, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(f"a scalar's {key!r} must be a rational number, got {value!r}")


def pointset_to_json(ps: PointSet) -> dict:
    return {
        "schema": SCHEMA_POINTSET,
        "backend": ps.backend,
        "points": [[scalar_to_json(p.x), scalar_to_json(p.y)] for p in ps],
    }


def pointset_from_json(obj) -> PointSet:
    _expect_schema(obj, SCHEMA_POINTSET)
    points = _pairs(_field(obj, "points"), f"{obj['schema']} key 'points'")
    return PointSet([Point(scalar_from_json(x), scalar_from_json(y)) for x, y in points])


def relstruct_to_json(s: RelStruct) -> dict:
    return {
        "schema": SCHEMA_RELSTRUCT,
        "n": s.n,
        "pairs": [list(p) for p in s.pairs],
    }


def relstruct_from_json(obj) -> RelStruct:
    """A relstruct document; its optional `labels`, one name per element,
    are checked and then dropped, since no search reads a name."""
    _expect_schema(obj, SCHEMA_RELSTRUCT)
    n = _field(obj, "n")
    if type(n) is not int or n < 0:
        raise UsageError(f"{obj['schema']} key 'n' must be a count, got {n!r}")
    labels = obj.get("labels")
    if labels is not None and (not isinstance(labels, list) or len(labels) != n):
        raise UsageError(f"labels must list one name per element, n={n}")
    return RelStruct(n, _index_pairs(obj))


def orientation_to_json(o: Orientation) -> dict:
    return {
        "schema": SCHEMA_ORIENTATION,
        "base": pointset_to_json(o.base),
        "pairs": [list(p) for p in o.pairs],
    }


def orientation_from_json(obj) -> Orientation:
    _expect_schema(obj, SCHEMA_ORIENTATION)
    base = pointset_from_json(_field(obj, "base"))
    return Orientation(base, _index_pairs(obj))


def product_to_json(P: ProductStruct) -> dict:
    """Product structure as a relstruct document with structured labels.

    A family of two or more members also gets "first_conflict": the first
    unit edge its first two members orient oppositely, or None.
    """
    labels = [{"point": i, "member": s} for i, s in map(P.decode, range(P.structure.n))]
    members = P.family.members
    doc = {
        "schema": SCHEMA_PRODUCT,
        "base": pointset_to_json(P.base),
        "members": [[list(p) for p in m.pairs] for m in members],
        "structure": {
            "n": P.structure.n,
            "pairs": [list(p) for p in P.structure.pairs],
            "labels": labels,
        },
    }
    if len(members) >= 2:
        conflict = find_conflict_edge(members[0], members[1])
        doc["first_conflict"] = None if conflict is None else [conflict.ui, conflict.vi]
    return doc


def _expect_schema(obj, schema: str) -> None:
    found = obj.get("schema") if isinstance(obj, dict) else None
    if found != schema:
        raise UsageError(f"expected a {schema} document, found schema {found!r}")


def _field(obj: dict, key: str):
    if key not in obj:
        raise UsageError(f"{obj['schema']} document lacks the key {key!r}")
    return obj[key]


def _pairs(value, what: str) -> list:
    if not (isinstance(value, list)
            and all(isinstance(p, list) and len(p) == 2 for p in value)):
        raise UsageError(f"{what} must be a list of pairs, got {value!r}")
    return value


def _index_pairs(obj: dict) -> tuple:
    """The document's 'pairs': [i, j] lists of integers."""
    pairs = _pairs(_field(obj, "pairs"), f"{obj['schema']} key 'pairs'")
    if not all(type(i) is int for p in pairs for i in p):
        raise UsageError(f"{obj['schema']} key 'pairs' must hold integers, got {pairs!r}")
    return tuple(map(tuple, pairs))


def dumps_canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_json(doc, path: str) -> None:
    write_text_atomic(path, dumps_canonical(doc))


def load_json(path: str):
    """The JSON document in a file; an unreadable file or malformed JSON
    is a UsageError that names the file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise UsageError(f"{path} holds no JSON document: {exc}") from None


def _point_label(p) -> str:
    x, y = point_to_float(p)
    return f"({x:.3g},{y:.3g})"


def relstruct_to_dot(s: RelStruct, name: str = "R", labels=None) -> str:
    """DOT digraph; mutually related pairs collapse to one bold two-way arc.

    Element i is named labels[i], or i when no labels are given."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for i in range(s.n):
        lines.append(f'  v{i} [label="{labels[i] if labels else i}"];')
    pair_set = set(s.pairs)
    # the pairs are sorted, so a two-way pair meets (i, j), i < j, first
    for i, j in s.pairs:
        if i == j or (j, i) not in pair_set:
            lines.append(f"  v{i} -> v{j};")
        elif i < j:
            lines.append(f"  v{i} -> v{j} [dir=both, style=bold];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def orientation_to_dot(o: Orientation, name: str = "S") -> str:
    return relstruct_to_dot(o.relstruct(), name, [_point_label(p) for p in o.base])


def product_to_dot(P: ProductStruct) -> str:
    """Element (point i, member s) is named by the point and S{s}."""
    names = [_point_label(p) for p in P.base]
    labels = [f"{names[i]}|S{s}" for i, s in map(P.decode, range(P.structure.n))]
    return relstruct_to_dot(P.structure, "P", labels)


def unitgraph_to_dot(ps: PointSet, name: str = "U") -> str:
    lines = [f"graph {name} {{"]
    for i, p in enumerate(ps):
        lines.append(f'  v{i} [label="{_point_label(p)}"];')
    for i, j in unit_graph(ps):
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _svg_viewport(float_pts):
    xs = [p[0] for p in float_pts]
    ys = [p[1] for p in float_pts]
    pad = 0.6
    lo_x, hi_x = min(xs) - pad, max(xs) + pad
    lo_y, hi_y = min(ys) - pad, max(ys) + pad
    # the longer side of the drawing is 480 px
    scale = 480 / max(hi_x - lo_x, hi_y - lo_y)

    def to_screen(p):
        return ((p[0] - lo_x) * scale, (hi_y - p[1]) * scale)

    return to_screen, (hi_x - lo_x) * scale, (hi_y - lo_y) * scale


def pointset_to_svg(ps: PointSet, orientation: Orientation = None) -> str:
    """Deterministic SVG: unit edges and optional orientation arrows.

    Without an orientation the edges are unit_graph(ps).  With one, they
    are read off its pairs taken undirected, which the union clause makes
    exactly unit_graph(ps) in the same sorted order: every Orientation is
    admissible, checked when built from given pairs and by construction
    otherwise.  The orientation must therefore be over ps itself, or
    ValueError is raised.
    """
    if len(ps) == 0:
        raise UsageError("cannot draw an empty point set")
    if orientation is not None and orientation.base != ps:
        raise ValueError("orientation is over a different base than the point set")
    float_pts = [point_to_float(p) for p in ps]
    to_screen, w, h = _svg_viewport(float_pts)
    pos = [to_screen(p) for p in float_pts]

    def fmt(v: float) -> str:
        return f"{v + 0.0:.4f}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{fmt(w)}"'
        f' height="{fmt(h)}" viewBox="0 0 {fmt(w)} {fmt(h)}">',
        '<defs><marker id="arrow" viewBox="0 0 10 10" refX="8.5" refY="5"'
        ' markerWidth="6.5" markerHeight="6.5" orient="auto-start-reverse">'
        '<path d="M 0 0 L 10 5 L 0 10 z" fill="#444444"/></marker></defs>',
    ]

    def line(a, b, style):
        out.append(
            f'<line x1="{fmt(pos[a][0])}" y1="{fmt(pos[a][1])}"'
            f' x2="{fmt(pos[b][0])}" y2="{fmt(pos[b][1])}" {style}/>'
        )

    if orientation is None:
        for i, j in unit_graph(ps):
            line(i, j, 'stroke="#888888" stroke-width="1.5"')
    else:
        pair_set = set(orientation.pairs)
        for i, j in orientation.unit_edges():
            fwd, back = (i, j) in pair_set, (j, i) in pair_set
            if fwd and back:
                line(i, j, 'stroke="#444444" stroke-width="3"')
            elif fwd:
                line(i, j, 'stroke="#444444" stroke-width="1.5"'
                           ' marker-end="url(#arrow)"')
            elif back:
                line(j, i, 'stroke="#444444" stroke-width="1.5"'
                           ' marker-end="url(#arrow)"')

    for idx, (x, y) in enumerate(pos):
        out.append(
            f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="4" fill="#1f6feb"/>'
        )
        out.append(
            f'<text x="{fmt(x + 7)}" y="{fmt(y - 7)}" font-size="11"'
            f' font-family="sans-serif" fill="#24292f">{idx}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
