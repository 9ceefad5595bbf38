"""The nine-point verification grid, one pass/fail line per criterion.

Criterion 3 asserts an exact zero-deviation certificate for the seven
point spindle on the exact backend.  The spindle's hinge rotation has
cosine 5/6 and sine sqrt(11)/6, so its coordinates lie in
Q(sqrt(3), sqrt(11)), and its interlocked bracing admits no two-anchor
placement order: the order glues one rigid cluster, the second rhombus,
whose maps pin |AG|^2 to {3, 0}.  Both rhombi stay open in all four maps
(a fold would contradict |DG| = 1), so |AD| = sqrt(3) throughout and the
certificate at epsilon 0 holds.
"""

import hashlib

from rigidlab import acceptance

SEED = 7


def _check(result, bound):
    print(result.line())
    assert result.elapsed < bound, f"runtime bound exceeded: {result.line()}"
    assert result.passed, result.line()


def test_criterion_1_hom_oracle_equivalence():
    _check(acceptance.run_criterion_1(SEED), bound=10)


def test_criterion_2_triangle_and_unit_preservation():
    _check(acceptance.run_criterion_2(SEED), bound=60)


def test_criterion_3_exact_certificates():
    _check(acceptance.run_criterion_3(SEED), bound=1)


def test_criterion_4_enumeration_completeness():
    _check(acceptance.run_criterion_4(SEED), bound=30)


def test_criterion_4_places_the_spindle():
    result = acceptance.run_criterion_4(SEED)
    assert "4 gadgets match the oracle, 1 agreed unplaceable" in result.detail


def test_criterion_5_pair_separation_witnesses():
    _check(acceptance.run_criterion_5(SEED), bound=120)


def test_criterion_6_orientation_separation_witnesses():
    _check(acceptance.run_criterion_6(SEED), bound=120)


def test_criterion_7_witness_implies_rigid():
    _check(acceptance.run_criterion_7(SEED), bound=60)


def test_criterion_8_trilateration_roundtrip():
    _check(acceptance.run_criterion_8(SEED), bound=60)


def test_criterion_9_artifact_determinism(tmp_path):
    _check(acceptance.run_criterion_9(SEED, str(tmp_path)), bound=120)


def test_run_all_writes_summary(tmp_path):
    results = acceptance.run_all(SEED, str(tmp_path))
    assert len(results) == 9
    summary = (tmp_path / "summary.txt").read_text()
    assert summary.count("criterion") == 9
    # the compared artifact trees stay timing-free; the summary lives outside
    assert not (tmp_path / "run" / "summary.txt").exists()


# sha256 of each file of verify-all's artifact tree at seed 7; any byte
# change to an artifact is a change of behaviour and must show here
ARTIFACT_SHA256 = {
    "ball1.json": "9dff375a158596ec83352d9f5a677e0c1225ecd24e443054b411f0939a7404cb",
    "ball1.svg": "4ad7d154717d9369450f81d490d92e59f004e5bddea008a7ee03f81f816963d7",
    "ball2.json": "cc6ad0ffc789f24acdd5baf044e2596e6f9ad32a65f593bda958e11e6752ad2b",
    "case1_witness.json": "34a9c54a4852b819de71c82c302120fcb3171e8f52c46088b6f44ee79f08d619",
    "case2_witness.json": "47fc8635278e2cbe43d0b08bb3f42f1962f6cc5ec2285575325df4d8d53124ca",
    "hom_cycle3.json": "cb73c0cb9c819e096aa5e35b26c41900aa7f3cf07b7d2f59b4ef4a19d452fdc1",
    "orientation0.dot": "4c1e950c72b1d6404b9aa1a4053ad57ae2f6e0cdc272b9e01282a4a346505d76",
    "orientation0.json": "5a50f71713fff85db4bad88e1aadc1b105b3ba34e880cf9f4eee13bbcd63d13e",
    "orientation1.json": "08075557d2d94b489be7e85829fbfac0f56a877b344893d6a17324a9ffa9a1be",
    "orientation2.json": "167a49c7b0d35bc660e606790e17610e1adc05d7d77cce7981a140345c63c714",
    "product.json": "e58de3c0f0c0fd7303aab7742d96eb8c4a63880b09268242515cc3afc27863b7",
    "rhombus_certify.json": "7d3288572d24974f2e517052b2d905b927fa01695b5d41473a07ef2359c52fd7",
    "trilaterate.json": "1b656ac7686d4fc7f08ddf626b297374618291ea0913b01da3d47c548bdcbb5d",
}


def test_artifact_tree_bytes_pinned(tmp_path):
    files = acceptance._write_artifacts(SEED, str(tmp_path))
    assert sorted(files) == sorted(ARTIFACT_SHA256)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(ARTIFACT_SHA256)
    for name, digest in ARTIFACT_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
