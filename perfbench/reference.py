"""Reference values the benchmark checks outputs against.

The digests were taken from the package as first benchmarked, so a change
that alters any output byte of the checked operations fails the benchmark.
Integers are hashed through ``int.to_bytes``: counts here run to tens of
thousands of digits, past CPython's default int-to-str conversion limit.
"""

# OEIS A000055: free trees with n unlabeled vertices, n = 1..16.
A000055 = (1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320)

# Best count among the trees with domination number 4 (reached at order 9).
GAMMA4_RECORD = 18

# sha256 of `search --min-order 1 --max-order <key> --emit-all --format csv`:
# the CSV on stdout followed by the report on stderr.
SWEEP_SHA256 = {
    9: "1a25cdd292ee9d036092c45edaa25724e45f21495d10461590a84678c8d066e4",
    16: "e3cad26d5759f36f1f5a90bec1a5e23a1510356d6754ae6b8f508a78c31380bb",
}

# sha256 over every set that `enumerate_min_dominating_sets` and then
# `enumerate_max_independent_sets` return for each tree of order <key>, in
# generation order (see workloads.set_lines).
ENUMERATE_SHA256 = {
    9: "2d96254617f189f87b3f704e656848d407d9d80e06ccd04b9edcced878eb47b9",
    15: "70d4c9449801a885427c29d3b72d3a916d86f7126de8fc5c1c68ffb8261275a7",
}

# optimize_k(gamma).best_k, which the `family` operation is run with.
BEST_K = {300: 37, 20000: 1428}

# sha256 over the counts of the big_counts operations at seed 0 in the full
# configuration (see workloads.BigCounts.count_digest).
BIG_COUNTS_SEED0_SHA256 = "a48a8d098305b3304db8559c92df40268360381d159cbdc97380b6962eb732ae"
