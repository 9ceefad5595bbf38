"""Serialization roundtrips, drawing output, and the CLI surface."""

import json
import os
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from rigidlab.bq import gadget
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
from rigidlab.numeric import Point, QScalar
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
        ps = gadget("moser-spindle", backend="exact").points
        assert pointset_from_json(pointset_to_json(ps)) == ps

    def test_float_scalar_refused(self):
        # files hold exact scalars only; a {"value", "tol"} pair is no number
        with pytest.raises(UsageError):
            scalar_from_json({"value": 0.5, "tol": 1e-9})

    def test_relstruct(self):
        s = RelStruct(3, ((0, 1), (2, 0)), ("a", "b", "c"))
        back = relstruct_from_json(relstruct_to_json(s))
        assert back == s

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

    def test_highlight(self):
        svg = pointset_to_svg(lattice_ball(1), highlight=(0, 4))
        assert svg.count('stroke="#e09f3e"') == 2


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

# each subcommand with its required arguments, and the settings it
# declares besides --out; a report's config echoes exactly these
SUBCOMMANDS = {
    "lattice": ("lattice --radius 1", {"format"}),
    "orient": ("orient --radius 1", {"seed", "format"}),
    "hom": ("hom --src c3.json --dst c3.json", {"hom_limit"}),
    "rigid": ("rigid --input c3.json", set()),
    "witness": ("witness --kind min --input c3.json --x 0 --y 1", {"branch_limit"}),
    "certify": ("certify --gadget rhombus --x A --y D --epsilon r3", {"branch_limit"}),
    "product": ("product --radius 1 --member-bits 0", {"format"}),
    "verify-all": ("verify-all --out va", {"seed"}),
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
    ])
    def test_refused_before_any_output(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        save_json(relstruct_to_json(RelStruct(3, ((0, 1), (1, 2), (2, 0)))), "c3.json")
        assert self.run(*argv.split()) == 4
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: ")
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["c3.json"]

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
        assert doc["endomorphisms"] == 3

    def test_rigid_positive(self, tmp_path):
        path = str(tmp_path / "rigid.json")
        save_json(relstruct_to_json(RelStruct(3, ((0, 2), (1, 0)))), path)
        assert self.run("rigid", "--input", path, "--out",
                        str(tmp_path / "r.json")) == 0

    def test_certify_exit_codes(self, tmp_path):
        out = str(tmp_path / "c.json")
        assert self.run("certify", "--gadget", "rhombus", "--x", "A",
                        "--y", "D", "--epsilon", "r3", "--out", out) == 0
        assert self.run("certify", "--gadget", "rhombus", "--x", "A",
                        "--y", "D", "--epsilon", "1", "--out", out) == 2

    def test_certify_exact_spindle(self, tmp_path):
        out = str(tmp_path / "s.json")
        assert self.run("certify", "--gadget", "moser-spindle", "--x", "A",
                        "--y", "D", "--epsilon", "0", "--out", out) == 0
        doc = load_json(out)
        assert doc["certified"] and doc["max_deviation"] == "0"
        assert doc["backend"] == "exact" and doc["map_count"] == 4

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

