"""Byte-identical output gate, run in tier-1.

The digests below were recorded from the build before the counters'
per-child merges were shared between the flat folds and the sweep.  Any
change to counts, record witnesses, tie-breaks, CSV rows, report text,
stderr or exit codes shows up here as a digest mismatch.
"""

import hashlib

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
