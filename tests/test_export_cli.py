"""Serialization roundtrips, drawing output, and the CLI surface."""

import hashlib
import json
import os
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from rigidlab.bq import bq_certify, gadget
from rigidlab.cli import main
from rigidlab.errors import UsageError
from rigidlab.export import (
    dumps_canonical,
    load_json,
    orientation_from_json,
    orientation_to_dot,
    orientation_to_json,
    pointset_from_json,
    pointset_to_json,
    pointset_to_svg,
    product_to_json,
    relstruct_from_json,
    relstruct_to_dot,
    relstruct_to_json,
    save_json,
    scalar_from_json,
    scalar_to_json,
    unitgraph_to_dot,
    write_text_atomic,
)
from rigidlab.numeric import Point, QScalar, parse_scalar
from rigidlab.phi import orientation_from_bits
from rigidlab.plane import base_triangle, lattice_ball, lattice_point
from rigidlab.product import build_product
from rigidlab.relations import RelStruct


class TestJsonRoundtrip:
    def test_pointset_exact(self):
        ps = lattice_ball(1)
        doc = pointset_to_json(ps)
        assert doc["schema"] == "rigidlab.pointset/1"
        back = pointset_from_json(doc)
        assert back == ps

    def test_scalar_encoding(self):
        # Q(sqrt(3)) values keep the two-key form; further roots add "ext"
        assert scalar_to_json(QScalar(Fraction(1, 2), 3)) == {"a": "1/2", "b": "3"}
        q = QScalar(1, Fraction(-1, 12), ((11, Fraction(1, 4)), (33, 2)))
        doc = scalar_to_json(q)
        assert doc["ext"] == [[11, "1/4"], [33, "2"]]
        assert scalar_from_json(json.loads(json.dumps(doc))) == q

    def test_radicand_out_of_range(self):
        # radicands are factored by trial division; a 31-digit prime would hang
        for d in (0, -3, 10**30 + 57, "11", 2.0, True):
            with pytest.raises(UsageError):
                scalar_from_json({"a": "0", "b": "0", "ext": [[d, "1"]]})

    def test_pointset_spindle(self):
        ps = gadget("moser-spindle").points
        assert pointset_from_json(pointset_to_json(ps)) == ps

    def test_float_scalar_refused(self):
        # files hold exact scalars only; a {"value", "tol"} pair is no number
        with pytest.raises(UsageError):
            scalar_from_json({"value": 0.5, "tol": 1e-9})

    def test_relstruct(self):
        s = RelStruct(3, ((0, 1), (2, 0)))
        back = relstruct_from_json(relstruct_to_json(s))
        assert back == s

    def test_relstruct_labels_checked_then_dropped(self):
        doc = {**relstruct_to_json(RelStruct(3, ((0, 1),))), "labels": ["a", "b", "c"]}
        assert relstruct_from_json(doc) == RelStruct(3, ((0, 1),))
        with pytest.raises(UsageError, match="labels"):
            relstruct_from_json({**doc, "labels": ["a", "b"]})

    def test_missing_key_named(self):
        with pytest.raises(UsageError, match="'n'"):
            relstruct_from_json({"schema": "rigidlab.relstruct/1", "pairs": []})
        with pytest.raises(UsageError, match="'points'"):
            pointset_from_json({"schema": "rigidlab.pointset/1"})
        with pytest.raises(UsageError, match="'b'"):
            scalar_from_json({"a": "1"})

    def test_wrong_type_named(self):
        rel = {"schema": "rigidlab.relstruct/1", "n": 3, "pairs": []}
        for key, value in (("n", None), ("n", 2.5), ("n", "3"), ("n", -1), ("pairs", 5),
                           ("pairs", [[0, 1.9]]), ("pairs", [[0, 1, 2]])):
            with pytest.raises(UsageError, match=repr(key)):
                relstruct_from_json({**rel, key: value})
        with pytest.raises(UsageError, match="'points'"):
            pointset_from_json({"schema": "rigidlab.pointset/1", "points": [[0]]})
        for key, value in (("a", None), ("a", "1/0"), ("a", 0.5), ("b", "x"), ("ext", 5),
                           ("ext", [[11, None]])):
            with pytest.raises(UsageError, match=repr(key)):
                scalar_from_json({"a": "0", "b": "0", key: value})

    def test_unreadable_file_named(self, tmp_path):
        path = str(tmp_path / "absent.json")
        with pytest.raises(UsageError, match="absent.json"):
            load_json(path)
        write_text_atomic(path, "{")
        with pytest.raises(UsageError, match="absent.json"):
            load_json(path)

    def test_orientation(self):
        ps = lattice_ball(1)
        o = orientation_from_bits(ps, 137)
        back = orientation_from_json(orientation_to_json(o))
        assert back.pairs == o.pairs
        assert back.base == o.base

    def test_schema_mismatch(self):
        from rigidlab.errors import UsageError
        with pytest.raises(UsageError):
            pointset_from_json({"schema": "rigidlab.relstruct/1"})

    def test_json_via_file(self, tmp_path):
        path = str(tmp_path / "ball.json")
        save_json(pointset_to_json(lattice_ball(1)), path)
        assert pointset_from_json(load_json(path)) == lattice_ball(1)

    def test_product_document(self):
        ps = lattice_ball(1)
        P = build_product(
            ps, [orientation_from_bits(ps, 0), orientation_from_bits(ps, 1)]
        )
        doc = product_to_json(P)
        assert doc["schema"] == "rigidlab.product/1"
        assert doc["structure"]["n"] == 14
        assert doc["structure"]["labels"][0] == {"point": 0, "member": 0}
        assert doc["structure"]["labels"][13] == {"point": 6, "member": 1}


class TestDeterminism:
    def test_canonical_dumps_stable(self):
        doc = pointset_to_json(lattice_ball(2))
        assert dumps_canonical(doc) == dumps_canonical(json.loads(dumps_canonical(doc)))

    def test_svg_stable(self):
        ps = lattice_ball(1)
        o = orientation_from_bits(ps, 7)
        assert pointset_to_svg(ps, o) == pointset_to_svg(ps, o)

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = str(tmp_path / "x.json")
        write_text_atomic(path, "hello\n")
        assert open(path).read() == "hello\n"
        leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".part")]
        assert leftovers == []


class TestDot:
    def test_triangle_orientation_arcs(self):
        # four doubled pairs collapse to two bold two-way arcs; the forced
        # (p1, p2) pair stays a single arrow
        tri = base_triangle()
        dot = orientation_to_dot(orientation_from_bits(tri, 0))
        assert dot.count("dir=both") == 2
        assert dot.count("style=bold") == 2
        plain = [l for l in dot.splitlines()
                 if "->" in l and "dir=both" not in l]
        assert len(plain) == 1

    def test_relstruct_nodes(self):
        dot = relstruct_to_dot(RelStruct(3, ((0, 1),)))
        assert dot.count("[label=") == 3
        assert 'v2 [label="2"]' in dot
        named = relstruct_to_dot(RelStruct(3, ((0, 1),)), labels=["a", "b", "c"])
        assert 'v2 [label="c"]' in named

    def test_relstruct_loops_and_two_way_pinned(self):
        # loops stay single arcs; a two-way pair is one bold arc from its
        # lower end, at the place of that end's pair
        s = RelStruct(4, ((0, 0), (0, 1), (1, 0), (1, 2), (2, 2), (3, 1),
                          (2, 3), (3, 2), (3, 3)))
        assert relstruct_to_dot(s, name="L", labels=["a", "b", "c", "d"]) == (
            'digraph L {\n  rankdir=LR;\n  v0 [label="a"];\n  v1 [label="b"];\n'
            '  v2 [label="c"];\n  v3 [label="d"];\n  v0 -> v0;\n'
            '  v0 -> v1 [dir=both, style=bold];\n  v1 -> v2;\n  v2 -> v2;\n'
            '  v2 -> v3 [dir=both, style=bold];\n  v3 -> v1;\n  v3 -> v3;\n}\n')
        assert relstruct_to_dot(RelStruct(3, ((2, 0), (0, 2), (1, 1), (2, 1)))) == (
            'digraph R {\n  rankdir=LR;\n  v0 [label="0"];\n  v1 [label="1"];\n'
            '  v2 [label="2"];\n  v0 -> v2 [dir=both, style=bold];\n  v1 -> v1;\n'
            '  v2 -> v1;\n}\n')

    def test_unitgraph_undirected(self):
        dot = unitgraph_to_dot(base_triangle())
        assert dot.count(" -- ") == 3


class TestSvg:
    def test_has_edges_and_vertices(self):
        svg = pointset_to_svg(lattice_ball(1))
        assert svg.count("<circle") >= 7
        assert svg.count("<line") == 12

    def test_orientation_arrows(self):
        ps = lattice_ball(1)
        svg = pointset_to_svg(ps, orientation_from_bits(ps, 0))
        assert "marker-end" in svg

    # taken when the drawing called unit_graph for its edges; the edges
    # now come off the orientation's pairs and must draw the same bytes
    @pytest.mark.parametrize("bits, sha256", [
        (0, "fe43a0c5e175a3c0c889621fcb961c6911ba8a51961bde245491f68076712de3"),
        (1, "062fc8d348a2a77635750ee69af1707a5338dc3e7eb9fb50918771d416f511c3"),
        (5, "e0667d437416e0538b48702b02681e75bd08f10346eee9ec1faaa7a6e89a2db5"),
        (123456789,
         "e28d3afe92fc60383109fea73a9bc8705975f6b804347937f0f1477dc9cae168"),
        (388062927450,
         "e43515f119a28cdcdfdd7bbe2124d17d64e8fc06de980ef82f5dd90f62490254"),
        ((1 << 39) - 1,
         "3bea86d0e43ce5f0ffe98b23bb7489880a7e8bb48e755d949b181b42e080ce60"),
        (None, "d1284c101a24ebcfa0da823efec85a7d7b727592fbd33725f1e044a6ce4f50a0"),
    ])
    def test_ball2_bytes_pinned(self, bits, sha256):
        ps = lattice_ball(2)
        o = None if bits is None else orientation_from_bits(ps, bits)
        svg = pointset_to_svg(ps, o).encode()
        assert hashlib.sha256(svg).hexdigest() == sha256

    def test_orientation_over_another_base_rejected(self):
        o = orientation_from_bits(lattice_ball(2), 5)
        with pytest.raises(ValueError, match="different base"):
            pointset_to_svg(lattice_ball(1), o)


def _readme_tour():
    """(command, expected exit) for each line of README's CLI tour block;
    a line without an `# exit N` comment is expected to exit 0."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## CLI tour\n.*?```sh\n(.*?)```", text, re.S).group(1)
    out = []
    for line in block.splitlines():
        cmd = line.split("#", 1)[0].strip()
        if cmd:
            m = re.search(r"#\s*exit (\d+)", line)
            out.append((cmd, int(m.group(1)) if m else 0))
    return out


README_TOUR = _readme_tour()

# each subcommand with its required arguments, and the settings that
# invocation reads besides --out; a report's config echoes exactly these
SUBCOMMANDS = {
    "lattice": ("lattice --radius 1", {"format"}),
    "orient": ("orient --radius 1", {"format"}),
    "hom": ("hom --src c3.json --dst c3.json", {"hom_limit"}),
    "rigid": ("rigid --input c3.json", set()),
    "witness": ("witness --kind min --input c3.json --x 0 --y 1", set()),
    "certify": ("certify --gadget rhombus --x A --y D --epsilon r3", {"branch_limit"}),
    "product": ("product --radius 1 --member-bits 0", {"format"}),
    "verify-all": ("verify-all --out va", {"seed"}),
}
# documents a reader must refuse
MALFORMED = {
    "no_n.json": {"schema": "rigidlab.relstruct/1", "pairs": []},
    "short_labels.json": {"schema": "rigidlab.relstruct/1", "n": 3,
                          "pairs": [], "labels": ["a", "b"]},
    "no_b.json": {"schema": "rigidlab.pointset/1",
                  "points": [[{"a": "0"}, {"a": "0", "b": "0"}]]},
    "no_points.json": {"schema": "rigidlab.pointset/1", "backend": "exact"},
    "null_n.json": {"schema": "rigidlab.relstruct/1", "n": None, "pairs": []},
    "float_n.json": {"schema": "rigidlab.relstruct/1", "n": 2.5, "pairs": [[0, 1.9]]},
    "scalar_pairs.json": {"schema": "rigidlab.relstruct/1", "n": 3, "pairs": 5},
    "null_pair.json": {"schema": "rigidlab.relstruct/1", "n": 3, "pairs": [[0, None]]},
    "scalar_points.json": {"schema": "rigidlab.pointset/1", "points": 5},
    "null_a.json": {"schema": "rigidlab.pointset/1",
                    "points": [[{"a": None, "b": "0"}, {"a": "0", "b": "0"}]]},
    "zero_den.json": {"schema": "rigidlab.pointset/1",
                      "points": [[{"a": "1/0", "b": "0"}, {"a": "0", "b": "0"}]]},
    "scalar_ext.json": {"schema": "rigidlab.pointset/1",
                        "points": [[{"a": "0", "b": "0", "ext": 5}, {"a": "0", "b": "0"}]]},
}
UNDECLARED = [
    f"{argv} --{name.replace('_', '-')} {value}"
    for argv, declared in SUBCOMMANDS.values()
    for name, value in (("seed", "1"), ("branch_limit", "1"),
                        ("hom_limit", "1"), ("format", "svg"))
    if name not in declared
]


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    @pytest.mark.parametrize("argv", [
        "lattice --radius -1",
        "witness --kind case2 --radius 1 --s-bits 0 --z-bits 1 --x 5,0",
        "witness --kind case2 --radius 1 --s-bits 0 --z-bits 0 --x 0,0",
        "witness --kind case2 --radius 1 --s-bits 0 --z-bits 99999 --x 0,0",
        "certify --gadget chain --chain-n 0 --x A --y B --epsilon 1",
        "witness --kind case1 --x 0,0 --y 0,0",
        # refused before any search: not a spent budget (3) nor a
        # counterexample (2)
        "witness --kind case1 --x 1,0 --y 5,0 --branch-limit -1",
        "witness --kind case1 --x 2,0 --y 6,0 --branch-limit -1",
        "certify --gadget rhombus --x A --y D --epsilon 1 --branch-limit -1",
        "witness --kind case1 --x 2,0 --y 6,0 --epsilon -1",
        "certify --gadget rhombus --x A --y D --epsilon -1",
        # a '*' that joins no coefficient to a root is garbage, not 1
        "certify --gadget rhombus --x A --y D --epsilon *",
    ])
    def test_rejected_arguments_exit_usage(self, argv, capsys):
        assert self.run(*argv.split()) == 4
        assert capsys.readouterr().err.startswith("usage error: ")

    @pytest.mark.parametrize("argv", [
        # there is no float backend to ask for
        "lattice --radius 1 --backend float",
        "certify --gadget moser-spindle --x A --y D --epsilon 0 --backend float",
        "orient --radius 1 --tolerance 1e-6",
        "hom --src c3.json --dst c3.json --backend float",
        "rigid --input c3.json --backend float",
        "witness --kind min --input c3.json --x 0 --y 1 --backend float",
        "verify-all --out va --backend float",
        "hom --src c3.json --dst c3.json --hom-limit 0",
        "hom --src c3.json --dst c3.json --hom-limit -2",
        "witness --kind min --input c3.json --x 0 --y 1 --budget 0",
        # a flag is accepted only where it is read
        *UNDECLARED,
        "product --radius 1 --member-bits 0 --format svg",
        # each witness kind refuses the flags of the other two
        "witness --kind min --input c3.json --x 0 --y 1 --radius 9",
        "witness --kind min --input c3.json --x 0 --y 1 --epsilon 1",
        "witness --kind case1 --x 1,0 --y 5,0 --budget 9",
        "witness --kind case1 --x 1,0 --y 5,0 --s-bits 0",
        "witness --kind case2 --radius 1 --s-bits 0 --z-bits 1 --x 0,0 --y 1,0",
        "witness --kind case2 --radius 1 --s-bits 0 --z-bits 1 --x 0,0 --branch-limit 9",
        "witness --kind case2 --radius 1 --s-bits 0 --z-bits 1 --x 0,0 --input c3.json",
        # orient reads --seed and --count only when sampling
        "orient --radius 1 --mode count --seed 5 --count 9",
        "orient --radius 1 --mode count --seed 0",
        "orient --radius 1 --mode all --count 1",
        # a sample has at least one member
        "orient --radius 1 --mode sample --count 0",
        "orient --radius 1 --mode sample --count -2",
        "orient --radius 1 --mode sample --count 0 --format svg",
        # malformed documents
        "hom --src no_n.json --dst c3.json",
        "hom --src short_labels.json --dst c3.json",
        "certify --input no_b.json --x 0,0 --y 1,0 --epsilon 0",
        "orient --input no_points.json",
        "certify --input no_points.json --x 0,0 --y 1,0 --epsilon 0",
        "hom --src null_n.json --dst c3.json",
        "hom --src float_n.json --dst c3.json",
        "hom --src scalar_pairs.json --dst c3.json",
        "hom --src null_pair.json --dst c3.json",
        "orient --input scalar_points.json",
        "orient --input null_a.json",
        "orient --input zero_den.json",
        "orient --input scalar_ext.json",
        "rigid --input /nonexistent.json",
        "rigid --input c3.json/",
        # a flag is accepted only where it is read
        "certify --gadget rhombus --chain-n 9 --x A --y D --epsilon r3",
        "certify --input ball1.json --chain-n 2 --x 0,0 --y 1,0 --epsilon 0",
        "certify --gadget rhombus --input /nonexistent.json --x A --y D --epsilon r3",
        "certify --gadget rhombus --input ball1.json --x A --y D --epsilon r3",
        "orient --radius 5 --input ball1.json --mode count",
        "product --radius 1 --input ball1.json --member-bits 0",
    ])
    def test_refused_before_any_output(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        save_json(relstruct_to_json(RelStruct(3, ((0, 1), (1, 2), (2, 0)))), "c3.json")
        save_json(pointset_to_json(lattice_ball(1)), "ball1.json")
        for name, doc in MALFORMED.items():
            save_json(doc, name)
        assert self.run(*argv.split()) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ")
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == sorted(["c3.json", "ball1.json", *MALFORMED])

    @pytest.mark.parametrize("argv,sha256", [
        ("product --radius 1 --member-bits 0 --member-bits 5 --format dot",
         "4a944aecb012885a54950495fce031e4b24ee6eeabc8778c5f14d7dc44861166"),
        ("orient --radius 2 --mode sample --count 3 --seed 4 --format dot",
         "88cd665725ee866f023895c19e7c9a3c00a35c0a7f55f0793da2fef1f54219f3"),
    ])
    def test_dot_bytes_pinned(self, argv, sha256, capsys):
        assert self.run(*argv.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    # the README tour's certificates, byte for byte
    @pytest.mark.parametrize("argv,code,sha256", [
        ("certify --gadget rhombus --x A --y D --epsilon r3", 0,
         "5495b31837d18ebe1f3948b93a83403ca3be66ed8b4325a3a6e00d8231453d51"),
        # the fold's counterexample, as exact tokens
        ("certify --gadget rhombus --x A --y D --epsilon 1", 2,
         "0de5883443f363496567750e395203c38963add8f2082fd732a915a578a45d84"),
        ("certify --gadget moser-spindle --x A --y D --epsilon 0", 0,
         "e708d62aae7750270be9a2d26a30e265a188ae0205774da6a850ae4b5547b5b6"),
    ])
    def test_certify_bytes_pinned(self, argv, code, sha256, capsys):
        assert self.run(*argv.split()) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("kind,x,y,eps", [
        ("rhombus", "A", "D", "1"),
        # images with coordinates in Q(sqrt(3), sqrt(11), sqrt(33))
        ("moser-spindle", "B", "E", "0"),
    ])
    def test_certify_counterexample_reads_back(self, kind, x, y, eps, capsys):
        assert self.run("certify", "--gadget", kind, "--x", x, "--y", y, "--epsilon", eps) == 2
        doc = json.loads(capsys.readouterr().out)
        g = gadget(kind)
        rep = bq_certify(g.points, g.labeled_index(x), g.labeled_index(y), parse_scalar(eps))
        assert rep.counterexample is not None
        got = tuple(Point(parse_scalar(px), parse_scalar(py)) for px, py in doc["counterexample"])
        assert got == rep.counterexample

    def test_certify_epsilon_with_exponent(self, capsys):
        # 1e-3 parses as 1/1000, below the rhombus's sqrt(3) deviation
        assert self.run(*"certify --gadget rhombus --x A --y D --epsilon 1e-3".split()) == 2
        assert json.loads(capsys.readouterr().out)["certified"] is False

    @pytest.mark.parametrize("radius,sha256", [
        (0, "24c2493230c5da345dea7f5bb4e8663ca470693b0aa5c4787bc563a8516513ff"),
        (1, "115842600fce0b6498ad2a37e00d4017cd6c353e31ac278fd20806cd8739abfc"),
    ])
    def test_orient_all_bytes_pinned(self, radius, sha256, capsys):
        assert self.run("orient", "--radius", str(radius), "--mode", "all") == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    def test_orient_all_refuses_before_enumerating(self, capsys, monkeypatch):
        # lattice_ball(2) has 2**39 orientations; the refusal must come from
        # the count alone
        def never(ps):
            raise AssertionError("enumerated")

        monkeypatch.setattr("rigidlab.cli.all_orientations", never)
        assert self.run(*"orient --radius 2 --mode all".split()) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ")
        assert "--mode count" in captured.err and "--mode sample" in captured.err

    def test_orient_sample_refuses_above_cap(self, capsys, monkeypatch):
        # the cap of --mode all bounds --count too, before any sampling
        sampled = []

        def record(ps, seed, k):
            sampled.append(k)
            raise ValueError("sampled")

        monkeypatch.setattr("rigidlab.cli.sample_orientations", record)
        assert self.run(*"orient --radius 2 --mode sample --count 70000".split()) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and "65536" in captured.err
        assert sampled == []
        assert self.run(*"orient --radius 2 --mode sample --count 65536".split()) == 4
        assert capsys.readouterr().err == "usage error: sampled\n"
        assert sampled == [65536]

    def test_certify_chain_defaults_to_one_hop(self, capsys):
        # a chain of two or more hops folds, so certify offers only the one
        # that pins; --chain-n is no flag at all
        argv = "certify --gadget chain --x A --y B --epsilon 0".split()
        assert self.run(*argv) == 0
        assert self.run(*argv, "--chain-n", "2") == 4

    # minimize pool inputs at x = p0: one whose scan outruns the default
    # budget and falls back to the deletion filter, and one origin input
    # with a minimal witness of size 4
    @pytest.mark.parametrize("bits,sha256", [
        ((121525150946, 187724881616),
         "e51c957bffa9ea2d9abfd30f31f84d2154fefc9ef3e65e783a14631afdad361c"),
        ((138253369779, 18153949995),
         "6a181877192e46db9ea3052c5b65fbfca43963f879beb1a409ea2d73a9520f86"),
    ])
    def test_min_witness_bytes_pinned(self, bits, sha256, tmp_path, capsys):
        ps = lattice_ball(2)
        P = build_product(ps, [orientation_from_bits(ps, b) for b in bits])
        path = str(tmp_path / "rel.json")
        save_json(relstruct_to_json(P.structure), path)
        assert self.run("witness", "--kind", "min", "--input", path,
                        "--x", str(P.element(0, 0)), "--y", str(P.element(0, 1))) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256

    @pytest.mark.parametrize("cmd,code", README_TOUR,
                             ids=[cmd for cmd, _ in README_TOUR])
    def test_readme_tour(self, cmd, code, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_json(relstruct_to_json(RelStruct(3, ((0, 1), (1, 2), (2, 0)))), "cycle3.json")
        # a directed path: only its end stops (0) from following (1)
        save_json(relstruct_to_json(RelStruct(3, ((0, 1), (1, 2)))), "rel.json")
        argv = shlex.split(cmd)
        assert argv[0] == "rigidlab"
        assert self.run(*argv[1:]) == code

    @pytest.mark.parametrize("command", ["orient", "hom", "rigid", "witness", "certify"])
    def test_config_holds_declared_settings(self, command, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_json(relstruct_to_json(RelStruct(3, ((0, 1), (1, 2), (2, 0)))), "c3.json")
        argv, declared = SUBCOMMANDS[command]
        assert self.run(*argv.split(), "--out", "r.json") in (0, 2)
        assert set(load_json("r.json")["config"]) == declared

    def test_config_echoes_flags(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_json(relstruct_to_json(RelStruct(3, ((0, 1), (1, 2), (2, 0)))), "c3.json")
        assert self.run("hom", "--src", "c3.json", "--dst", "c3.json",
                        "--hom-limit", "2", "--out", "h.json") == 0
        doc = load_json("h.json")
        assert doc["config"] == {"hom_limit": 2} and doc["count"] == 2
        assert self.run("orient", "--radius", "1", "--mode", "sample",
                        "--seed", "3", "--out", "o.json") == 0
        assert load_json("o.json")["config"] == {"seed": 3, "format": "json"}
        assert self.run("orient", "--radius", "1", "--mode", "sample",
                        "--out", "o.json") == 0
        assert load_json("o.json")["config"] == {"seed": 0, "format": "json"}

    @pytest.mark.parametrize("argv,config", [
        ("witness --kind case1 --x 1,0 --y 5,0", {"branch_limit": 500000}),
        ("witness --kind case1 --x 1,0 --y 5,0 --branch-limit 400000",
         {"branch_limit": 400000}),
        ("witness --kind case2 --radius 1 --s-bits 0 --z-bits 1 --x 0,0", {}),
        ("witness --kind min --input c3.json --x 0 --y 1 --budget 9", {}),
    ])
    def test_witness_config_holds_its_kinds_flags(self, argv, config, tmp_path,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_json(relstruct_to_json(RelStruct(3, ((0, 1), (1, 2), (2, 0)))), "c3.json")
        assert self.run(*argv.split(), "--out", "w.json") in (0, 2)
        assert load_json("w.json")["config"] == config

    def test_lattice_writes_seven_points(self, tmp_path):
        out = str(tmp_path / "ball1.json")
        assert self.run("lattice", "--radius", "1", "--out", out) == 0
        assert len(load_json(out)["points"]) == 7

    def test_rigid_exit_code(self, tmp_path):
        path = str(tmp_path / "c3.json")
        save_json(relstruct_to_json(RelStruct(3, ((0, 1), (1, 2), (2, 0)))), path)
        assert self.run("rigid", "--input", path, "--out",
                        str(tmp_path / "r.json")) == 2
        doc = load_json(str(tmp_path / "r.json"))
        assert doc["rigid"] is False

    def test_rigid_positive(self, tmp_path):
        path = str(tmp_path / "rigid.json")
        save_json(relstruct_to_json(RelStruct(3, ((0, 2), (1, 0)))), path)
        assert self.run("rigid", "--input", path, "--out",
                        str(tmp_path / "r.json")) == 0

    def test_rigid_edgeless(self, tmp_path, capsys):
        # 12^12 endomorphisms, none of them listed: the first element's
        # search finds a second map at once
        path = str(tmp_path / "e12.json")
        save_json(relstruct_to_json(RelStruct(12, ())), path)
        out = str(tmp_path / "r.json")
        assert self.run("rigid", "--input", path, "--out", out) == 2
        assert capsys.readouterr().err == (
            "not rigid: an endomorphism other than the identity\n")
        doc = load_json(out)
        assert doc["rigid"] is False and "endomorphisms" not in doc

    def test_certify_exit_codes(self, tmp_path):
        out = str(tmp_path / "c.json")
        assert self.run("certify", "--gadget", "rhombus", "--x", "A",
                        "--y", "D", "--epsilon", "r3", "--out", out) == 0
        assert self.run("certify", "--gadget", "rhombus", "--x", "A",
                        "--y", "D", "--epsilon", "1", "--out", out) == 2
        # 2*sqrt(3) >= sqrt(3)
        assert self.run("certify", "--gadget", "rhombus", "--x", "A",
                        "--y", "D", "--epsilon", "2*r3", "--out", out) == 0

    def test_certify_exact_spindle(self, tmp_path):
        out = str(tmp_path / "s.json")
        assert self.run("certify", "--gadget", "moser-spindle", "--x", "A",
                        "--y", "D", "--epsilon", "0", "--out", out) == 0
        doc = load_json(out)
        assert doc["certified"] and doc["max_deviation"] == "0"
        assert doc["backend"] == "exact" and doc["map_count"] == 4

    def test_certify_spindle_by_coordinates(self, capsys):
        # D = (sqrt(11)/2, -1/2) given as the coordinates format_scalar prints
        argv = "certify --gadget moser-spindle --x A --y {} --epsilon 0"
        assert self.run(*argv.format("D").split()) == 0
        want = capsys.readouterr().out
        assert self.run(*argv.format("1/2r11,-1/2").split()) == 0
        assert capsys.readouterr().out == want

    def test_certify_refuses_huge_radicand(self, tmp_path):
        path = str(tmp_path / "big.json")
        doc = pointset_to_json(base_triangle())
        doc["points"][0][0]["ext"] = [[10**30 + 57, "1"]]
        save_json(doc, path)
        assert self.run("certify", "--input", path, "--x", "0,0", "--y", "1,0",
                        "--epsilon", "0", "--out", str(tmp_path / "c.json")) == 4

    def test_budget_exit_code(self, tmp_path):
        code = self.run("certify", "--gadget", "rhombus", "--x", "A",
                        "--y", "D", "--epsilon", "1", "--branch-limit", "1",
                        "--out", str(tmp_path / "b.json"))
        assert code == 3

    def test_usage_exit_code(self):
        assert self.run("lattice") == 4
        assert self.run("no-such-command") == 4

    def test_witness_case1(self, tmp_path):
        out = str(tmp_path / "w.json")
        code = self.run("witness", "--kind", "case1", "--x", "1,0",
                        "--y", "5,0", "--out", out)
        assert code == 0
        assert load_json(out)["valid"] is True

    def test_witness_case1_irrational_gap(self, tmp_path):
        # y = (5/2, sqrt(3)/2) is sqrt(7) from the anchor, x is 1 from it
        out = str(tmp_path / "w.json")
        code = self.run("witness", "--kind", "case1", "--x", "1,0",
                        "--y", "5/2,1/2r3", "--out", out)
        assert code == 0
        doc = load_json(out)
        assert doc["valid"] is True and doc["strategy"] == "edge"

    def test_witness_case2(self, tmp_path):
        out = str(tmp_path / "w2.json")
        code = self.run("witness", "--kind", "case2", "--radius", "1",
                        "--s-bits", "0", "--z-bits", "1", "--x", "0,0",
                        "--out", out)
        assert code == 0
        doc = load_json(out)
        assert doc["valid"] is True and doc["whole_fiber"] is True
        assert set(doc) == {"schema", "command", "config", "kind", "valid",
                            "witness_size", "whole_fiber", "conflict"}

    def test_witness_min_no_witness(self, tmp_path):
        path = str(tmp_path / "c3.json")
        save_json(relstruct_to_json(RelStruct(3, ((0, 1), (1, 2), (2, 0)))), path)
        code = self.run("witness", "--kind", "min", "--input", path,
                        "--x", "0", "--y", "1",
                        "--out", str(tmp_path / "m.json"))
        assert code == 2
        assert load_json(str(tmp_path / "m.json"))["exists"] is False

    @pytest.mark.parametrize("x, y, bad", [("5", "0", "x=5"), ("-1", "0", "x=-1"),
                                           ("0", "7", "y=7")])
    def test_witness_min_element_out_of_range(self, x, y, bad, tmp_path, capsys):
        path = str(tmp_path / "c3.json")
        save_json(relstruct_to_json(RelStruct(3, ((0, 1), (1, 2), (2, 0)))), path)
        assert self.run("witness", "--kind", "min", "--input", path,
                        f"--x={x}", f"--y={y}") == 4
        err = capsys.readouterr().err
        assert err == f"usage error: witness element {bad} out of range for n=3\n"

    def test_orient_count(self, tmp_path):
        out = str(tmp_path / "o.json")
        assert self.run("orient", "--radius", "1", "--mode", "count",
                        "--out", out) == 0
        assert load_json(out)["orientations"] == 512

    def test_hom_cycle(self, tmp_path):
        path = str(tmp_path / "c3.json")
        save_json(relstruct_to_json(RelStruct(3, ((0, 1), (1, 2), (2, 0)))), path)
        out = str(tmp_path / "h.json")
        assert self.run("hom", "--src", path, "--dst", path, "--out", out) == 0
        assert load_json(out)["count"] == 3

    def test_product_document(self, tmp_path):
        out = str(tmp_path / "p.json")
        assert self.run("product", "--radius", "1", "--member-bits", "0",
                        "--member-bits", "1", "--out", out) == 0
        doc = load_json(out)
        assert doc["structure"]["n"] == 14
        assert doc["first_conflict"] is not None

    def test_svg_and_dot_formats(self, tmp_path):
        svg = str(tmp_path / "b.svg")
        dot = str(tmp_path / "b.dot")
        assert self.run("lattice", "--radius", "1", "--format", "svg",
                        "--out", svg) == 0
        assert open(svg).read().startswith("<svg")
        assert self.run("lattice", "--radius", "1", "--format", "dot",
                        "--out", dot) == 0
        assert open(dot).read().startswith("graph")

    def test_float_pointset_document_refused(self, tmp_path, capsys):
        path = str(tmp_path / "f.json")
        doc = pointset_to_json(base_triangle())
        doc["points"][1][0] = {"value": 1.0, "tol": 1e-9}
        save_json(doc, path)
        out = str(tmp_path / "o.json")
        assert self.run("orient", "--input", path, "--out", out) == 4
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not os.path.exists(out)

    def test_certify_maps_leaving_the_field(self, spindle_braced_ball1, tmp_path, capsys):
        # no float certificate stands in for the exact one
        path = str(tmp_path / "patch.json")
        save_json(pointset_to_json(spindle_braced_ball1), path)
        out = str(tmp_path / "c.json")
        assert self.run("certify", "--input", path, "--x", "0,0", "--y=-1,0",
                        "--epsilon", "0", "--out", out) == 4
        assert "not in Q(sqrt(3), sqrt(11), sqrt(33))" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_witness_case1_refusal_is_not_a_budget(self, tmp_path, capsys):
        # no strategy yields a report: the braced path is not anchored, and
        # that refusal exits 4, not as a spent budget (3)
        out = str(tmp_path / "w.json")
        assert self.run("witness", "--kind", "case1", "--x", "1+1/2r3,1/2",
                        "--y", "5,0", "--epsilon", "1", "--out", out) == 4
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)

    def test_witness_case1_inexact_gap(self, tmp_path, capsys):
        # x is sqrt(2 + sqrt(3)) from the anchor: the gap has no exact value
        out = str(tmp_path / "w.json")
        assert self.run("witness", "--kind", "case1", "--x", "1+1/2r3,1/2",
                        "--y", "5,0", "--out", out) == 4
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)

