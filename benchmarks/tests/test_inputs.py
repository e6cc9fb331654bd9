import json
import math
import os

from conftest import ROOT
from hurwitztau import covers
from inputs import (CLI_COMMANDS, CLUE_DEFECT_INDEX, IDENTITY_INDICES, R_BAND,
                    WORKLOADS, InputStream, probe_inputs)

FIXTURES = os.path.join(ROOT, "fixtures")


def take(workload, seed, n):
    return json.dumps(InputStream(workload, seed, FIXTURES).take(n))


def test_same_seed_same_inputs():
    for w in WORKLOADS:
        assert take(w, 7, 30) == take(w, 7, 30)
        assert take(w, 7, 30) != take(w, 8, 30)


def test_prefix_stable():
    for w in WORKLOADS:
        short = InputStream(w, 3, FIXTURES).take(12)
        long = InputStream(w, 3, FIXTURES).take(40)
        assert json.dumps(short) == json.dumps(long[:12])


def test_identity_branch_indices_come_in_permuted_blocks():
    items = InputStream("identity_sweep", 5, FIXTURES).take(20)
    assert CLUE_DEFECT_INDEX not in IDENTITY_INDICES
    for b in range(4):
        block = [it["branch_index"] for it in items[5 * b: 5 * b + 5]]
        assert sorted(block) == list(IDENTITY_INDICES)


def test_cone_blocks_are_stratified():
    items = InputStream("cone_spectra", 5, FIXTURES).take(64)
    for b in range(2):
        block = items[32 * b: 32 * b + 32]
        cells = []
        for it in block:
            lo, hi = R_BAND[it["k"]]
            cells.append((it["k"], int(8 * math.log(it["R"] / lo, hi / lo))))
        assert sorted(cells) == [(k, j) for k in range(1, 5) for j in range(8)]


def test_cli_rotation_and_valid_covers():
    items = InputStream("cli_cold", 11, FIXTURES).take(9 * 6)
    assert [tuple(it["command"]) for it in items[:9]] == list(CLI_COMMANDS)
    for it in items:
        if tuple(it["command"]) == ("cover", "validate"):
            rep = covers.validate_cover(covers.cover_from_json(it["data"]))
            assert rep.genus == it["expect"]["genus"]


def test_probe_inputs_are_fixed():
    a, b = probe_inputs(FIXTURES), probe_inputs(FIXTURES)
    assert json.dumps(a) == json.dumps(b)
    with open(os.path.join(FIXTURES, "curve_genus2.json")) as fh:
        assert a["clue"][0]["branch_points"] == json.load(fh)["branch_points"]
    assert {c["branch_index"] for c in a["clue"]} == {CLUE_DEFECT_INDEX}


def test_band_edges_pass_the_shift_check():
    from gate import judge
    from ops import shift_probe_op
    for k, band in R_BAND.items():
        for R in band:
            assert judge(shift_probe_op({"k": k, "R": R})).ok, (k, R)
