"""Byte-identical output gate, run in tier-1.

The search and enumeration digests below were recorded from the build
before the counters' per-child merges were shared between the flat folds
and the sweep; the demo digests from the build before the sweep kernel
became one recursion over level slices; the text ``--emit-all`` and the
row-less CSV search digests from the build before ``search`` wrote its
rows through one path; the forest command digests from the build before
every fold combined its components through one driver.  Any change to counts, record
witnesses, tie-breaks, CSV rows, report text, stderr or exit codes shows
up here as a digest mismatch.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from domcount import enumerate_max_independent_sets, enumerate_min_dominating_sets, generate_trees
from domcount.cli import main


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


SEARCH_GOLDEN = {
    ("--min-order", "1", "--max-order", "13", "--emit-all", "--format", "csv"): (
        "70cb800edd4ee3040e0e9fbb87e7ec843031128c9d7257e55aa9306dd99781eb",
        "b8db29fb39a7c2f97b4b553a320959105bc310e362683947acb129d2772d95f2", 0),
    # The text report writes nothing to stderr: that digest is of "".
    ("--max-order", "12"): (
        "ef6f34cc291141014da6493f93092e65212a336a64a91acde7c6778e113d863b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    # Text with every row: the CSV rows, then the report, all on stdout.
    ("--max-order", "12", "--emit-all"): (
        "cfd6966234fd270bedccb1040eedc26f026b007d779a2f240a00bd2ac31b2154",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    # CSV without rows: the header alone on stdout, the report on stderr.
    ("--max-order", "12", "--format", "csv"): (
        "5e52fe2767008c3df5bd6f370992502f44bd7e81588049471e4a04e95a7c754b",
        "ef6f34cc291141014da6493f93092e65212a336a64a91acde7c6778e113d863b", 0),
}

# Both enumerators on every tree of orders 1..11.
ENUMERATION_GOLDEN = "4cb1e9eb39025c8bd3b04a57cb869918cfae1e69e742f9c99f30a33a693c007d"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("argv", list(SEARCH_GOLDEN))
def test_search_output_is_unchanged(capsys, argv, jobs):
    code = main(["search", *argv, "--jobs", jobs])
    captured = capsys.readouterr()
    assert (sha256(captured.out), sha256(captured.err), code) == SEARCH_GOLDEN[argv]


def enumeration_digest(max_order):
    lines = []
    for tree in (t for n in range(1, max_order + 1) for t in generate_trees(n)):
        forest = tree.decode()
        for name, sets in (("mds", enumerate_min_dominating_sets(forest)),
                           ("mis", enumerate_max_independent_sets(forest))):
            lines.append(f"{tree.to_string()} {name} "
                         + ";".join(",".join(map(str, sorted(s))) for s in sets))
    return sha256("\n".join(lines))


def test_enumerators_output_is_unchanged():
    assert enumeration_digest(11) == ENUMERATION_GOLDEN


ROOT = Path(__file__).resolve().parent.parent

# stdout of each script under demos/, run with the package on PYTHONPATH.
DEMO_GOLDEN = {
    "counting_basics": "881d2f0c28a585585de1af42aa53f4e7b58a559850995b86f62b7f8f0c29744d",
    "exhaustive_sweep": "d029464ea401bb12ef58972a7bd1b59fd2ac277f116d549a9ac8b697630909c4",
    "family_table": "ec428448f9b98b6109ab6d01281b9e84bee4248eed9587254ca78f2784b3c8ac",
}


@pytest.mark.parametrize("demo", list(DEMO_GOLDEN))
def test_demo_output_is_unchanged(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          env=env, capture_output=True, text=True, check=True)
    assert sha256(done.stdout) == DEMO_GOLDEN[demo]


# Eight components with interleaved labels: the paths on 5, 2 and 3
# vertices, a star with 4 leaves, the spider (2, 2, 1) and three isolated
# vertices (8, 16, 19).
FOREST = """n 24
0 13
1 11
1 18
2 13
3 11
3 23
4 7
5 21
6 13
9 21
10 22
11 20
12 14
12 17
13 15
14 22
"""

# stdout, stderr and exit code of each command; "FOREST" stands for the
# path of a file holding FOREST.  No command writes to stderr.
FOREST_GOLDEN = {
    ("count", "--input", "FOREST"): (
        "773db88ae6dcbf7e9b73bf95e1291a5ac2c78b2dbf462937c3ee240b21429acc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("count", "--input", "FOREST", "--format", "csv"): (
        "1cd6676bbc1ddbecdd19f01a7c06305689d67c2699b6363f6ade93c42ecf2dd0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("enumerate", "--input", "FOREST", "--set", "mds"): (
        "7d35a2391db27fdfbde12026db3ef66c7922dd642703fdc8944cbdf2bccc4792",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("enumerate", "--input", "FOREST", "--set", "mds", "--limit", "3"): (
        "da2d7a3a0c79690456a955d62ddd6b5d06d8931dd4fb3d66857e8d5fb9e51617",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("enumerate", "--input", "FOREST", "--set", "mds", "--format", "csv"): (
        "8caabd7bfd5b0f70dbdc65bd5f9b5377575ace04ab08e38c52982a34958998fb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("enumerate", "--input", "FOREST", "--set", "mds", "--format", "csv", "--limit", "3"): (
        "3bf43d14a06256fa21c0327d5237a1d5347232a5c5178a9838914a177d07aeab",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("enumerate", "--input", "FOREST", "--set", "mis"): (
        "69c099327077b8d468eb2423b1fee511b1b0aac3be1cc12f9b9c82326075dbad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("enumerate", "--input", "FOREST", "--set", "mis", "--limit", "3"): (
        "ae5c8d1c29879417540aa00a48038e212b7821f27e16909e834682a3e72d7db9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("enumerate", "--input", "FOREST", "--set", "mis", "--format", "csv"): (
        "5ec47ff66594dff30e8921c24cfecfbe7f606652960553a9d13b8bb09c2ab148",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("enumerate", "--input", "FOREST", "--set", "mis", "--format", "csv", "--limit", "3"): (
        "3c41834c54f8d7b7193615010c9d1e4028d502c3316f4d66e98ab3d9c42c6d00",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
    ("family", "--p", "3,2"): (
        "e0681a79e5be0f49e09c30d7a3eb6f32170e151d17a6c37cbae6fabef6d98081",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 0),
}


@pytest.mark.parametrize("argv", list(FOREST_GOLDEN))
def test_forest_commands_output_is_unchanged(capsys, tmp_path, argv):
    source = tmp_path / "forest.txt"
    source.write_text(FOREST, encoding="utf-8")
    code = main([str(source) if a == "FOREST" else a for a in argv])
    captured = capsys.readouterr()
    assert (sha256(captured.out), sha256(captured.err), code) == FOREST_GOLDEN[argv]
