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
from .numeric import Point, QScalar
from .phi import Orientation
from .plane import PointSet, unit_graph
from .product import ProductStruct
from .relations import RelStruct

SCHEMA_POINTSET = "rigidlab.pointset/1"
SCHEMA_RELSTRUCT = "rigidlab.relstruct/1"
SCHEMA_ORIENTATION = "rigidlab.orientation/1"
SCHEMA_PRODUCT = "rigidlab.product/1"
SCHEMA_REPORT = "rigidlab.report/1"


def _frac_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def scalar_to_json(s):
    if isinstance(s, QScalar):
        doc = {"a": _frac_str(s.a), "b": _frac_str(s.b)}
        if s.ext:
            # terms beyond Q(sqrt(3)) as [radicand, coefficient] pairs
            doc["ext"] = [[d, _frac_str(c)] for d, c in s.ext]
        return doc
    raise TypeError(f"not a serializable scalar: {s!r}")


# radicands are factored by trial division, so those read from a document
# are held to a size that factors at once
MAX_RADICAND = 10**9


def scalar_from_json(obj):
    if not isinstance(obj, dict) or "a" not in obj:
        raise UsageError(f"a scalar is exact: an object with keys 'a' and 'b', got {obj!r}")
    ext = []
    for d, c in obj.get("ext", ()):
        if type(d) is not int or not 1 <= d <= MAX_RADICAND:
            raise UsageError(f"ext radicand must be an integer in 1..{MAX_RADICAND}, got {d!r}")
        ext.append((d, Fraction(c)))
    return QScalar(Fraction(obj["a"]), Fraction(obj["b"]), ext)


def pointset_to_json(ps: PointSet) -> dict:
    return {
        "schema": SCHEMA_POINTSET,
        "backend": ps.backend,
        "points": [[scalar_to_json(p.x), scalar_to_json(p.y)] for p in ps],
    }


def pointset_from_json(obj) -> PointSet:
    _expect_schema(obj, SCHEMA_POINTSET)
    points = [
        Point(scalar_from_json(x), scalar_from_json(y)) for x, y in obj["points"]
    ]
    return PointSet(points)


def relstruct_to_json(s: RelStruct) -> dict:
    doc = {
        "schema": SCHEMA_RELSTRUCT,
        "n": s.n,
        "pairs": [list(p) for p in s.pairs],
    }
    if s.labels is not None:
        doc["labels"] = list(s.labels)
    return doc


def relstruct_from_json(obj) -> RelStruct:
    _expect_schema(obj, SCHEMA_RELSTRUCT)
    labels = tuple(obj["labels"]) if "labels" in obj else None
    return RelStruct(
        int(obj["n"]),
        tuple((int(a), int(b)) for a, b in obj["pairs"]),
        labels,
    )


def orientation_to_json(o: Orientation) -> dict:
    return {
        "schema": SCHEMA_ORIENTATION,
        "base": pointset_to_json(o.base),
        "pairs": [list(p) for p in o.pairs],
    }


def orientation_from_json(obj) -> Orientation:
    _expect_schema(obj, SCHEMA_ORIENTATION)
    base = pointset_from_json(obj["base"])
    return Orientation(base, tuple((int(a), int(b)) for a, b in obj["pairs"]))


def product_to_json(P: ProductStruct) -> dict:
    """Product structure as a relstruct document with structured labels."""
    n = len(P.base)
    labels = [
        {"point": e % n, "member": e // n} for e in range(P.structure.n)
    ]
    return {
        "schema": SCHEMA_PRODUCT,
        "base": pointset_to_json(P.base),
        "members": [[list(p) for p in m.pairs] for m in P.family.members],
        "structure": {
            "n": P.structure.n,
            "pairs": [list(p) for p in P.structure.pairs],
            "labels": labels,
        },
    }


def _expect_schema(obj, schema: str) -> None:
    found = obj.get("schema") if isinstance(obj, dict) else None
    if found != schema:
        raise UsageError(f"expected a {schema} document, found schema {found!r}")


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
    with open(path) as fh:
        return json.load(fh)


def relstruct_to_dot(s: RelStruct, name: str = "R") -> str:
    """DOT digraph; mutually related pairs collapse to one bold two-way arc."""
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for i in range(s.n):
        label = s.labels[i] if s.labels else str(i)
        lines.append(f'  v{i} [label="{label}"];')
    pair_set = s.pair_set
    emitted = set()
    for i, j in s.pairs:
        if (i, j) in emitted:
            continue
        if i != j and (j, i) in pair_set:
            a, b = min(i, j), max(i, j)
            lines.append(f"  v{a} -> v{b} [dir=both, style=bold];")
            emitted.add((a, b))
            emitted.add((b, a))
        else:
            lines.append(f"  v{i} -> v{j};")
            emitted.add((i, j))
    lines.append("}")
    return "\n".join(lines) + "\n"


def orientation_to_dot(o: Orientation, name: str = "S") -> str:
    return relstruct_to_dot(o.relstruct(), name)


def unitgraph_to_dot(ps: PointSet, name: str = "U") -> str:
    lines = [f"graph {name} {{"]
    for i, p in enumerate(ps):
        fx, fy = p.to_float_pair()
        lines.append(f'  v{i} [label="({fx:.3g},{fy:.3g})"];')
    for i, j in unit_graph(ps).edges:
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


def pointset_to_svg(ps: PointSet, orientation: Orientation = None,
                    highlight=()) -> str:
    """Deterministic SVG: unit edges, optional orientation arrows and
    optional highlighted vertices."""
    if len(ps) == 0:
        raise UsageError("cannot draw an empty point set")
    float_pts = [p.to_float_pair() for p in ps]
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

    edges = unit_graph(ps).edges
    if orientation is None:
        for i, j in edges:
            line(i, j, 'stroke="#888888" stroke-width="1.5"')
    else:
        pair_set = orientation.pair_set
        for i, j in edges:
            fwd, back = (i, j) in pair_set, (j, i) in pair_set
            if fwd and back:
                line(i, j, 'stroke="#444444" stroke-width="3"')
            elif fwd:
                line(i, j, 'stroke="#444444" stroke-width="1.5"'
                           ' marker-end="url(#arrow)"')
            elif back:
                line(j, i, 'stroke="#444444" stroke-width="1.5"'
                           ' marker-end="url(#arrow)"')

    for idx in sorted(set(highlight)):
        x, y = pos[idx]
        out.append(
            f'<circle cx="{fmt(x)}" cy="{fmt(y)}" r="10" fill="none"'
            ' stroke="#e09f3e" stroke-width="2.5"/>'
        )

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
