"""The benchmark's workloads: seeded inputs, timed passes and output checks.

Each workload drives the package in-process, through its public functions
and through ``domcount.cli.main`` with stdout and stderr captured.

* ``sweep``: ``search --min-order 1 --max-order 16 --jobs 2 --emit-all
  --format csv``, the verification users run.  Nearly all of its time is
  free-tree generation, decoding and the two counting DPs on tiny trees,
  plus search's batching, IPC and merge.  No big integers.  ``--jobs`` is
  fixed at 2, not the core count, so the work is the same on every machine.
* ``big_counts``: ``count`` on 10^5-vertex forests (path, star, random
  recursive tree, forest of 2,000 random 50-vertex trees), then
  ``optimize-family`` and ``family`` at gamma 20,000.  The same counting DPs
  on deep or wide rootings, with integers of thousands of digits; no tree
  generation and no search.
* ``enumerate``: both enumerators on every tree of order 15, and ``enumerate``
  (MDS and MIS, in full and with ``--limit 1``) on random and family trees of
  order 22..25, plus ``--limit 1`` on family trees of order 26..40.  The DP
  layers used to list sets instead of counting them.

Failed operations are recorded with their exit code (or exception) and the
first line of their stderr.  Nothing here raises CPython's int-to-str digit
limit or sets ``DOMCOUNT_MAX_ORDER``: either would hide failures that the
package still has.
"""

from __future__ import annotations

import hashlib
import io
import random
import re
import statistics
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent

# Name, unit and direction of every per-layer metric, as in BENCHMARK.json.
PER_LAYER = (
    ("treegen.trees", "count", "higher"),
    ("treegen.gen_us_per_tree", "us", "lower"),
    ("treegen.decode_us_per_tree", "us", "lower"),
    ("treegen.code_string_us_per_tree", "us", "lower"),
    ("forest.parse_s", "s", "lower"),
    ("forest.root_at_s", "s", "lower"),
    ("forest.vertices", "count", "higher"),
    ("domination.count_us_per_tree", "us", "lower"),
    ("domination.count_s", "s", "lower"),
    ("domination.count_bits", "bits", "higher"),
    ("domination.enumerate_s", "s", "lower"),
    ("domination.sets", "count", "higher"),
    ("independence.count_us_per_tree", "us", "lower"),
    ("independence.count_s", "s", "lower"),
    ("independence.count_bits", "bits", "higher"),
    ("independence.enumerate_s", "s", "lower"),
    ("independence.sets", "count", "higher"),
    ("independence.recognize_us_per_tree", "us", "lower"),
    ("search.checks_us_per_tree", "us", "lower"),
    ("search.jobs1_s", "s", "lower"),
    ("search.speedup_jobs2", "ratio", "higher"),
    ("search.overhead_s", "s", "lower"),
    ("search.diagnostics_s", "s", "lower"),
    ("search.format_s", "s", "lower"),
    ("family.optimize_k_s", "s", "lower"),
    ("family.closed_form_s", "s", "lower"),
    ("family.build_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.sci4_s", "s", "lower"),
    ("cli.exit2", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class PackageMissing(RuntimeError):
    """The checkout holds no package source to benchmark."""


def import_package():
    """Import ``domcount`` from this checkout's ``src``, never from elsewhere."""
    package_dir = ROOT / "src" / "domcount"
    if not (package_dir / "__init__.py").is_file():
        raise PackageMissing(f"no package source at {package_dir}")
    sys.path.insert(0, str(ROOT / "src"))
    import domcount
    import domcount.cli

    if Path(domcount.__file__).resolve().parent != package_dir.resolve():
        raise PackageMissing(f"domcount was imported from {domcount.__file__}, not {package_dir}")
    return domcount


# ---------------------------------------------------------------- helpers

def int_bytes(value: int) -> bytes:
    """Length-prefixed big-endian bytes of a nonnegative integer."""
    raw = value.to_bytes(value.bit_length() // 8 + 1, "big")
    return len(raw).to_bytes(4, "big") + raw


def parse_decimal(text: str) -> int:
    """Read a decimal integer of any length without the int-to-str digit limit."""
    if not text.isdigit():
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    value = 0
    for start in range(0, len(text), 4000):
        chunk = text[start:start + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def sci4_of_digits(digits: str) -> str:
    """Four significant digits, truncated, from a decimal digit string."""
    return f"{digits[0]}.{digits[1:4].ljust(3, '0')}e{len(digits) - 1}"


def random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random recursive tree: vertex i hangs below a uniform earlier vertex."""
    return [(rng.randrange(i), i) for i in range(1, n)]


def forest_text(n: int, edges) -> str:
    return f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def closed_masks(n: int, edges) -> list[int]:
    masks = [1 << v for v in range(n)]
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def set_problem(kind: str, vertices, masks: list[int]) -> str | None:
    """Why a vertex list is not a dominating (mds) or independent (mis) set."""
    chosen = 0
    for v in vertices:
        chosen |= 1 << v
    if kind == "mds":
        covered = 0
        for v in vertices:
            covered |= masks[v]
        return None if covered == (1 << len(masks)) - 1 else "not dominating"
    for v in vertices:
        if masks[v] & chosen & ~(1 << v):
            return "not independent"
    return None


@dataclass
class Op:
    """One operation: a ``cli.main`` call or a library call."""
    label: str
    code: int | None
    reason: str
    seconds: float
    stdout: str = ""
    stderr: str = ""
    trees: int = 0
    vertices: int = 0
    sets: int = 0
    kept: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.code == 0


def run_cli(main, argv: list[str], label: str, tracer: Tracer | None = None) -> Op:
    """Call ``main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    if tracer:
        tracer.request += 1
    start = perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = tracer.call("cli.main", main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed operation, kept with its reason
            code = None
            err.write(f"exception {type(exc).__name__}: {exc}\n")
    seconds = perf_counter() - start
    stderr = err.getvalue()
    reason = "" if code == 0 else (stderr.splitlines() or [f"exit {code}"])[0]
    return Op(label, code, reason, seconds, out.getvalue(), stderr)


def untraced(_name, fn, *args, **kwargs):
    """Stand-in for ``Tracer.call`` when no spans are recorded."""
    return fn(*args, **kwargs)


@contextmanager
def keeping(module, names):
    """Keep (name, return value) of every call to ``module.<name>`` in the block."""
    kept: list = []
    originals = {name: getattr(module, name) for name in names}

    def wrap(name, fn):
        def kept_call(*args, **kwargs):
            value = fn(*args, **kwargs)
            kept.append((name, value))
            return value
        return kept_call

    for name, fn in originals.items():
        setattr(module, name, wrap(name, fn))
    try:
        yield kept
    finally:
        for name, fn in originals.items():
            setattr(module, name, fn)


@dataclass
class Pass:
    wall_s: float
    ops: list[Op]


def layer_values(summary: dict, trees: int, **given) -> dict[str, float]:
    """Per-layer metrics from a span summary; layers with no spans read 0."""
    def self_s(*names):
        return sum(summary.get(name, {}).get("self_s", 0.0) for name in names)

    def per_tree(name):
        return self_s(name) / trees * 1e6 if trees else 0.0

    values = {name: 0.0 for name, _, _ in PER_LAYER}
    values.update({
        "treegen.trees": trees,
        "treegen.gen_us_per_tree": per_tree("treegen.generate"),
        "treegen.decode_us_per_tree": per_tree("treegen.decode"),
        "treegen.code_string_us_per_tree": per_tree("treegen.code_string"),
        "forest.parse_s": self_s("forest.parse"),
        "forest.root_at_s": self_s("forest.root_at"),
        "domination.count_us_per_tree": per_tree("domination.count"),
        "domination.count_s": self_s("domination.count"),
        "domination.enumerate_s": self_s("domination.enumerate"),
        "independence.count_us_per_tree": per_tree("independence.count"),
        "independence.count_s": self_s("independence.count"),
        "independence.enumerate_s": self_s("independence.enumerate"),
        "independence.recognize_us_per_tree": per_tree("independence.recognize"),
        "search.checks_us_per_tree": per_tree("search.checks"),
        "search.diagnostics_s": self_s("search.diagnostics"),
        "search.format_s": self_s("search.format"),
        "family.optimize_k_s": self_s("family.optimize_k"),
        "family.closed_form_s": self_s("family.closed_form"),
        "family.build_s": self_s("family.build"),
        "cli.self_s": self_s("cli.main"),
        "cli.sci4_s": self_s("cli.sci4"),
    })
    values.update(given)
    return values


# Public names search's per-tree pipeline calls, by the span they are recorded under.
SEARCH_SPANS = {
    "count_min_dominating_sets": "domination.count",
    "count_max_independent_sets": "independence.count",
    "is_subdivided_star": "independence.recognize",
    "verify_mds_bound": "search.checks",
    "verify_mis_bound": "search.checks",
    "mis_order_bound": "search.checks",
    "extremal_diagnostics": "search.diagnostics",
}

# Library names ``domcount.cli`` calls, by the span they are recorded under.
CLI_SPANS = {
    "parse_forest": "forest.parse",
    "count_min_dominating_sets": "domination.count",
    "count_max_independent_sets": "independence.count",
    "enumerate_min_dominating_sets": "domination.enumerate",
    "enumerate_max_independent_sets": "independence.enumerate",
    "optimize_k": "family.optimize_k",
    "closed_form_count": "family.closed_form",
    "build_family_tree": "family.build",
    "balanced_partition": "family.build",
    "sci4": "cli.sci4",
}


class Workload:
    name = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.dc = import_package()
        self.files: dict[str, bytes] = {}
        self.problems: list[str] = []

    def problem(self, text: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(text)

    def check(self, fn, *args) -> None:
        """Run an output check; output it cannot even parse is a mismatch too."""
        try:
            fn(*args)
        except (ValueError, IndexError) as exc:
            self.problem(f"unreadable output: {type(exc).__name__}: {exc}")

    def write(self, name: str, text: str) -> str:
        data = text.encode()
        path = self.workdir / name
        path.write_bytes(data)
        self.files[name] = hashlib.sha256(data).digest()
        return str(path)

    def input_digest(self) -> str:
        """sha256 of the input files and of the operations run on them."""
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        for label, argv in self.spec:
            h.update(repr((label, [a.replace(str(self.workdir), "") for a in argv])).encode())
        return h.hexdigest()

    def traced_layers(self, tracer: Tracer) -> None:
        """Patch the names ``cli`` and the counters call to record spans."""
        for attr, span in CLI_SPANS.items():
            tracer.patch(self.dc.cli, attr, span)
        tracer.patch(self.dc.domination, "root_at", "forest.root_at")
        tracer.patch(self.dc.independence, "root_at", "forest.root_at")

    def layer_run(self) -> tuple[list[Op], dict[str, float], dict]:
        """Untraced, traced and untraced pass; per-layer metrics of the traced one.

        Untraced passes on both sides keep a first-pass warm-up out of the
        tracing overhead.
        """
        before = self.run_pass()
        tracer = Tracer()
        self.traced_layers(tracer)
        try:
            traced = self.run_pass(tracer)
        finally:
            tracer.unpatch()
        after = self.run_pass()
        summary = tracer.summary()
        values = layer_values(
            summary, trees=0,
            **{"forest.vertices": self.parsed_vertices(traced),
               "cli.exit2": sum(op.code == 2 for op in traced.ops),
               "trace.overhead_frac": 2 * traced.wall_s / (before.wall_s + after.wall_s) - 1},
            **self.extra_layer_values(traced))
        return before.ops + traced.ops + after.ops, values, summary

    def parsed_vertices(self, p: Pass) -> int:
        return 0

    def extra_layer_values(self, p: Pass) -> dict[str, float]:
        return {}

    def final_checks(self) -> None:
        pass

    def note_pass(self, p: Pass) -> None:
        """Keep what ``extra_e2e`` needs from a timed pass."""

    def extra_e2e(self) -> dict:
        return {}


# ---------------------------------------------------------------- sweep

class Sweep(Workload):
    name = "sweep"

    def setup(self) -> None:
        self.max_order = 9 if self.smoke else 16
        self.argv = ["search", "--min-order", "1", "--max-order", str(self.max_order),
                     "--jobs", "2", "--emit-all", "--format", "csv"]
        self.spec = [("search", self.argv)]

    def run_pass(self) -> Pass:
        start = perf_counter()
        op = run_cli(self.dc.cli.main, self.argv, "search")
        wall = perf_counter() - start
        if op.code != 0:
            self.problem(f"search exited {op.code}: {op.reason}")
        else:
            self.check(self.check_report, op, op.stdout, op.stderr, "jobs=2")
        return Pass(wall, [op])

    def check_report(self, op: Op, stdout: str, stderr: str, what: str) -> None:
        digest = hashlib.sha256((stdout + stderr).encode()).hexdigest()
        if digest != reference.SWEEP_SHA256[self.max_order]:
            self.problem(f"search output ({what}) sha256 {digest} differs from the reference")
        per_order = [0] * (self.max_order + 1)
        for line in stdout.splitlines()[1:]:
            per_order[int(line.split(",", 1)[0])] += 1
        if tuple(per_order[1:]) != reference.A000055[:self.max_order]:
            self.problem(f"trees per order {per_order[1:]} differ from A000055 ({what})")
        record = re.search(r"^  gamma=4 count=(\d+) ", stderr, re.MULTILINE)
        if record is None or int(record.group(1)) != reference.GAMMA4_RECORD:
            self.problem(f"gamma=4 record is not {reference.GAMMA4_RECORD} ({what})")
        op.trees = sum(per_order)
        op.vertices = sum(n * c for n, c in enumerate(per_order))

    def layer_run(self):
        """A jobs=2 pass, then search_extremal(jobs=1) untraced and traced.

        The traced search records a span at every public call it makes per
        tree, so the layers and search's own remainder (batching, records,
        merge) come from one run.
        """
        dc = self.dc
        plain = self.run_pass()
        start = perf_counter()
        report = dc.search_extremal(1, self.max_order, jobs=1, emit_rows=True)
        jobs1_s = perf_counter() - start
        jobs1 = Op("search_extremal jobs=1", 0, "", jobs1_s)
        self.check_jobs1(jobs1, report, None)

        tracer = Tracer()
        for attr, span in SEARCH_SPANS.items():
            tracer.patch(dc.search, attr, span)
        tracer.patch_iter(dc.search, "generate_trees", "treegen.generate")
        tracer.patch(dc.CanonicalCode, "decode", "treegen.decode")
        tracer.patch(dc.CanonicalCode, "to_string", "treegen.code_string")
        tracer.patch(dc.domination, "root_at", "forest.root_at")
        tracer.patch(dc.independence, "root_at", "forest.root_at")
        try:
            start = perf_counter()
            report = tracer.call("search.extremal", dc.search_extremal, 1, self.max_order,
                                 jobs=1, emit_rows=True)
            traced_s = perf_counter() - start
        finally:
            tracer.unpatch()
        traced = Op("search_extremal jobs=1 traced", 0, "", traced_s)
        self.check_jobs1(traced, report, tracer)
        summary = tracer.summary()
        values = layer_values(summary, trees=report.trees_processed, **{
            "domination.count_bits": sum(row.mds_count.bit_length() for row in report.rows),
            "independence.count_bits": sum(row.mis_count.bit_length() for row in report.rows),
            "search.jobs1_s": jobs1_s,
            "search.speedup_jobs2": jobs1_s / plain.wall_s,
            "search.overhead_s": summary["search.extremal"]["self_s"],
            "trace.overhead_frac": traced_s / jobs1_s - 1,
        })
        return plain.ops + [jobs1, traced], values, summary

    def check_jobs1(self, op: Op, report, tracer: Tracer | None) -> None:
        """Format a jobs=1 report as the CLI would and check it like a pass."""
        call = tracer.call if tracer else untraced
        lines = call("search.format", self.dc.report_csv_lines, report)
        text = call("search.format", self.dc.report_text, report)
        self.check(self.check_report, op, "".join(line + "\n" for line in lines), text, op.label)


# ---------------------------------------------------------------- big_counts

class BigCounts(Workload):
    name = "big_counts"
    KEPT = ("count_min_dominating_sets", "count_max_independent_sets", "optimize_k")

    def setup(self) -> None:
        self.n = 3000 if self.smoke else 100_000
        self.part_n = 50
        self.gamma = 300 if self.smoke else 20_000
        self.best_k = reference.BEST_K[self.gamma]
        # label -> (vertex count, component count).  The edge lists are not
        # kept: the passes should not carry the benchmark's own heap.
        self.shapes: dict[str, tuple[int, int]] = {}
        self.spec = []
        for label, (n, edges, components) in self.make_inputs().items():
            path = self.write(f"{label}.forest", forest_text(n, edges))
            self.shapes[label] = (n, components)
            self.spec.append((f"count:{label}", ["count", "--input", path, "--format", "csv"]))
        self.spec.append(("optimize-family",
                          ["optimize-family", "--gamma", str(self.gamma), "--format", "csv"]))
        self.spec.append(("family", ["family", "--gamma", str(self.gamma), "--k", str(self.best_k),
                                     "--format", "csv"]))
        self.first: dict[str, list] = {}

    def make_inputs(self) -> dict[str, tuple[int, list[tuple[int, int]], int]]:
        """label -> (vertex count, edges, component count); fixed by the seed."""
        n, part_n = self.n, self.part_n
        rng = random.Random(f"{self.name}:{self.seed}")
        parts = [random_tree_edges(part_n, rng) for _ in range(n // part_n)]
        return {
            "path": (n, [(i, i + 1) for i in range(n - 1)], 1),
            "star": (n, [(0, i) for i in range(1, n)], 1),
            "random": (n, random_tree_edges(n, rng), 1),
            "forest": (len(parts) * part_n, [(u + i * part_n, v + i * part_n)
                                             for i, edges in enumerate(parts) for u, v in edges], len(parts)),
        }

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        ops = []
        start = perf_counter()
        for label, argv in self.spec:
            with keeping(self.dc.cli, self.KEPT) as kept:
                op = run_cli(self.dc.cli.main, argv, label, tracer)
            op.kept = kept
            ops.append(op)
        wall = perf_counter() - start
        for op in ops:
            self.check(self.check_op, op)
        return Pass(wall, ops)

    def check_op(self, op: Op) -> None:
        values = [value for _, value in op.kept]
        if op.label not in self.first:
            self.first[op.label] = values
        elif values != self.first[op.label]:
            self.problem(f"{op.label}: results differ between passes")
        if op.label.startswith("count:"):
            self.check_count(op, values)
        elif op.label == "optimize-family":
            self.check_optimize(op, values)
        else:
            self.check_family(op, values)

    def check_count(self, op: Op, values) -> None:
        label = op.label.split(":", 1)[1]
        n, components = self.shapes[label]
        if len(values) != 2:
            if op.ok:
                self.problem(f"{op.label}: succeeded without calling both counters")
            return
        dom, ind = values
        if label == "path" and dom.gamma != (n + 2) // 3:
            self.problem(f"path: gamma {dom.gamma} != ceil(n/3)")
        if label == "path" and n % 2 == 0 and (ind.alpha, ind.mis_count) != (n // 2, n // 2 + 1):
            self.problem("path: alpha or MIS count differs from n/2, n/2+1")
        if label == "star" and ((dom.gamma, dom.mds_count) != (1, 1)
                                or (ind.alpha, ind.mis_count) != (n - 1, 1)):
            self.problem("star: counts differ from (1, 1) and (leaves, 1)")
        if not op.ok:
            return
        lines = op.stdout.splitlines()
        if lines[:1] != ["n,components,gamma,mds_count,mds_count_sci,alpha,mis_count,mis_count_sci"] \
                or len(lines) != 2:
            self.problem(f"{op.label}: unexpected CSV layout")
            return
        f = lines[1].split(",")
        if [int(f[0]), int(f[1]), int(f[2]), int(f[5])] != [n, components, dom.gamma, ind.alpha]:
            self.problem(f"{op.label}: n, components, gamma or alpha printed wrongly")
        for digits, sci, value in ((f[3], f[4], dom.mds_count), (f[6], f[7], ind.mis_count)):
            if int_bytes(parse_decimal(digits)) != int_bytes(value) or sci != sci4_of_digits(digits):
                self.problem(f"{op.label}: printed count differs from the computed one")
        op.trees, op.vertices = components, n

    def check_optimize(self, op: Op, values) -> None:
        closed = self.dc.closed_form_count
        g, k = self.gamma, self.best_k
        if not values:
            if op.ok:
                self.problem("optimize-family: succeeded without calling optimize_k")
            return
        row = values[0]
        if row.best_k != k:
            self.problem(f"optimize-family: best_k {row.best_k} != {k}")
        if row.formula_value != closed(g, k) or row.table_interpretation_value != row.formula_value - (1 << (g - 1)):
            self.problem("optimize-family: values differ from the closed form")
        if any(closed(g, j) > row.formula_value for j in (k - 1, k + 1) if 1 <= j < g):
            self.problem("optimize-family: a neighbouring k beats best_k")
        if not op.ok:
            return
        lines = op.stdout.splitlines()
        f = lines[1].split(",") if len(lines) == 2 else []
        if lines[:1] != ["gamma,best_k,formula_value,formula_sci,table_value,table_sci"] or len(f) != 6:
            self.problem("optimize-family: unexpected CSV layout")
            return
        if (int(f[0]), int(f[1])) != (g, row.best_k) \
                or parse_decimal(f[2]) != row.formula_value or f[3] != sci4_of_digits(f[2]) \
                or parse_decimal(f[4]) != row.table_interpretation_value or f[5] != sci4_of_digits(f[4]):
            self.problem("optimize-family: printed row differs from the computed one")

    def check_family(self, op: Op, values) -> None:
        g, k = self.gamma, self.best_k
        order = 1 + k + 2 * (g - 1)
        expected = self.dc.closed_form_count(g, k)
        if not values:
            if op.ok:
                self.problem("family: succeeded without calling the counter")
            return
        dom = values[0]
        if dom.gamma != g or dom.mds_count != expected:
            self.problem("family: DP count differs from closed_form_count")
        if not op.ok:
            return
        lines = op.stdout.splitlines()
        f = lines[1].split(",") if len(lines) == 2 else []
        if lines[:1] != ["order,gamma,k,p,mds_count,mds_count_sci,closed_form"] or len(f) != 7:
            self.problem("family: unexpected CSV layout")
            return
        parts = [int(x) for x in f[3].split()]
        if (int(f[0]), int(f[1]), int(f[2])) != (order, g, k) or len(parts) != k \
                or sum(parts) != g - 1 or parts != sorted(parts, reverse=True) \
                or parts[0] - parts[-1] > 1:
            self.problem("family: order, gamma, k or parts printed wrongly")
        if parse_decimal(f[4]) != expected or f[5] != sci4_of_digits(f[4]) \
                or parse_decimal(f[6]) != expected:
            self.problem("family: printed count differs from the closed form")
        op.trees, op.vertices = 1, order

    def final_checks(self) -> None:
        """Counts unchanged under a seeded relabelling; forest = product of parts."""
        dc = self.dc
        inputs = self.make_inputs()
        rng = random.Random(f"relabel:{self.seed}")
        for label in ("random", "forest"):
            n, edges, _ = inputs[label]
            kept = self.first.get(f"count:{label}", [])
            if len(kept) != 2:
                continue
            perm = list(range(n))
            rng.shuffle(perm)
            relabelled = dc.build_forest(n, [(perm[u], perm[v]) for u, v in edges])
            if [dc.count_min_dominating_sets(relabelled), dc.count_max_independent_sets(relabelled)] != kept:
                self.problem(f"{label}: counts change under relabelling")
        kept = self.first.get("count:forest", [])
        if len(kept) == 2:
            _, edges, parts = inputs["forest"]
            size, per = self.part_n, self.part_n - 1
            gamma, dom, alpha, ind = 0, 1, 0, 1
            for i in range(parts):
                part = dc.build_forest(size, [(u - i * size, v - i * size) for u, v in edges[i * per:(i + 1) * per]])
                d, m = dc.count_min_dominating_sets(part), dc.count_max_independent_sets(part)
                gamma, dom, alpha, ind = gamma + d.gamma, dom * d.mds_count, alpha + m.alpha, ind * m.mis_count
            if (kept[0].gamma, kept[0].mds_count, kept[1].alpha, kept[1].mis_count) != (gamma, dom, alpha, ind):
                self.problem("forest: counts differ from the product over its components")
        if self.seed == 0 and not self.smoke:
            digest = self.count_digest()
            if digest is not None and digest != reference.BIG_COUNTS_SEED0_SHA256:
                self.problem(f"seed-0 count digest {digest} differs from the reference")

    def count_digest(self) -> str | None:
        """sha256 over every count the operations computed; None if one is missing."""
        h = hashlib.sha256()
        for label, _ in self.spec:
            values = self.first.get(label)
            if not values:
                return None
            for value in values:
                if label == "optimize-family":
                    numbers = (value.best_k, value.formula_value, value.table_interpretation_value)
                elif hasattr(value, "mds_count"):
                    numbers = (value.gamma, value.mds_count)
                else:
                    numbers = (value.alpha, value.mis_count)
                for number in numbers:
                    h.update(int_bytes(number))
        return h.hexdigest()

    def parsed_vertices(self, p: Pass) -> int:
        return sum(self.shapes[op.label.split(":", 1)[1]][0] for op in p.ops if op.label.startswith("count:"))

    def extra_layer_values(self, p: Pass) -> dict[str, float]:
        dom_bits = ind_bits = 0
        for op in p.ops:
            for name, value in op.kept:
                if name == "count_min_dominating_sets":
                    dom_bits += value.mds_count.bit_length()
                elif name == "count_max_independent_sets":
                    ind_bits += value.mis_count.bit_length()
        return {"domination.count_bits": dom_bits, "independence.count_bits": ind_bits}


# ---------------------------------------------------------------- enumerate

def set_lines(sets) -> str:
    return "".join(" ".join(map(str, sorted(s))) + "\n" for s in sets) + "--\n"


class Enumerate(Workload):
    name = "enumerate"

    def setup(self) -> None:
        dc = self.dc
        self.order = 9 if self.smoke else 15
        self.trees = [code.decode() for code in dc.generate_trees(self.order)]
        random_orders = (12, 13) if self.smoke else (22, 23, 24, 25)
        small_families = [(3, 3, 3)] if self.smoke else [(3, 3, 3), (5, 5), (4, 3, 3), (3, 3, 2, 2)]
        large_families = [(4, 4, 3)] if self.smoke else [(4, 4, 3), (4, 4, 4), (1,) * 10, (2,) + (1,) * 10, (1,) * 13]
        # label -> (vertex count, edges); order <= 25 get full and --limit 1 runs.
        self.inputs: dict[str, tuple[int, list[tuple[int, int]]]] = {}
        for n in random_orders:
            self.inputs[f"random{n}"] = (n, random_tree_edges(n, self.rng))
        for p in small_families + large_families:
            forest = dc.build_family_tree(p).forest
            self.inputs[f"family{forest.n}"] = (forest.n, forest.edges)
        self.spec = []
        for label, (n, edges) in self.inputs.items():
            path = self.write(f"{label}.forest", forest_text(n, edges))
            for kind in ("mds", "mis"):
                argv = ["enumerate", "--input", path, "--set", kind, "--format", "csv"]
                if n <= 25:
                    self.spec.append((f"{label}:{kind}:all", argv))
                self.spec.append((f"{label}:{kind}:first", argv + ["--limit", "1"]))
        self.reference_outputs: dict[str, str] | None = None
        self.sets_rates: list[float] = []
        self.first_set_latencies: list[float] = []

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        dc = self.dc
        call = tracer.call if tracer else untraced
        ops: list[Op] = []
        results = []
        start = perf_counter()
        for forest in self.trees:
            for kind, span, fn in (("mds", "domination.enumerate", dc.enumerate_min_dominating_sets),
                                   ("mis", "independence.enumerate", dc.enumerate_max_independent_sets)):
                t0 = perf_counter()
                try:
                    sets = call(span, fn, forest)
                except Exception as exc:  # recorded as a failed operation with its reason
                    ops.append(Op(f"library:{kind}", None, f"exception {type(exc).__name__}: {exc}",
                                  perf_counter() - t0))
                    results.append(None)
                    continue
                ops.append(Op(f"library:{kind}", 0, "", perf_counter() - t0,
                              trees=1, vertices=forest.n, sets=len(sets)))
                results.append(sets)
        for label, argv in self.spec:
            ops.append(run_cli(dc.cli.main, argv, label, tracer))
        wall = perf_counter() - start
        self.check(self.check_pass, results, ops)
        return Pass(wall, ops)

    def check_pass(self, results, ops: list[Op]) -> None:
        """Full checks on the first pass; later passes must repeat its output."""
        library = hashlib.sha256("".join(set_lines(r or ()) for r in results).encode()).hexdigest()
        if library != reference.ENUMERATE_SHA256[self.order]:
            self.problem(f"library enumeration sha256 {library} differs from the reference")
        outputs = {op.label: op.stdout for op in ops if not op.label.startswith("library:")}
        first = self.reference_outputs is None
        if first:
            self.reference_outputs = outputs
            self.check_library(results)
        elif outputs != self.reference_outputs:
            self.problem("enumerate CLI output differs between passes")
        rows_of_all = {}
        for op in ops:
            if op.label.startswith("library:") or not op.ok:
                continue
            label, kind, mode = op.label.split(":")
            rows = self.check_cli_rows(op, label, kind, check_sets=first)
            op.trees, op.vertices, op.sets = 1, self.inputs[label][0], len(rows)
            if mode == "all":
                rows_of_all[(label, kind)] = rows
            elif (label, kind) in rows_of_all and rows != rows_of_all[(label, kind)][:1]:
                self.problem(f"{op.label}: --limit 1 output is not the first set of the full list")

    def check_library(self, results) -> None:
        dc = self.dc
        for i, forest in enumerate(self.trees):
            dom = dc.count_min_dominating_sets(forest)
            ind = dc.count_max_independent_sets(forest)
            masks = closed_masks(forest.n, forest.edges)
            for kind, sets, size, count in (("mds", results[2 * i], dom.gamma, dom.mds_count),
                                            ("mis", results[2 * i + 1], ind.alpha, ind.mis_count)):
                if sets is None:
                    continue
                lists = [tuple(sorted(s)) for s in sets]
                where = f"library {kind} on tree {i} of order {self.order}"
                if len(lists) != count:
                    self.problem(f"{where}: {len(lists)} sets, DP count {count}")
                if any(a >= b for a, b in zip(lists, lists[1:])):
                    self.problem(f"{where}: sets not distinct and sorted")
                for vertices in lists:
                    why = set_problem(kind, vertices, masks)
                    if len(vertices) != size or why:
                        self.problem(f"{where}: set {vertices} {why or 'has the wrong size'}")
                        break

    def check_cli_rows(self, op: Op, label: str, kind: str, check_sets: bool) -> list[tuple[int, ...]]:
        lines = op.stdout.splitlines()
        if lines[:1] != ["index,size,vertices"]:
            self.problem(f"{op.label}: unexpected CSV layout")
            return []
        rows = []
        for i, line in enumerate(lines[1:]):
            index, size, vertices = line.split(",")
            row = tuple(int(v) for v in vertices.split())
            if int(index) != i or int(size) != len(row) or list(row) != sorted(row):
                self.problem(f"{op.label}: malformed row {line!r}")
            rows.append(row)
        if not check_sets:
            return rows
        n, edges = self.inputs[label]
        forest = self.dc.build_forest(n, edges)
        if kind == "mds":
            result = self.dc.count_min_dominating_sets(forest)
            size, count = result.gamma, result.mds_count
        else:
            result = self.dc.count_max_independent_sets(forest)
            size, count = result.alpha, result.mis_count
        if len(rows) != (count if op.label.endswith(":all") else min(count, 1)):
            self.problem(f"{op.label}: {len(rows)} sets, DP count {count}")
        if any(a >= b for a, b in zip(rows, rows[1:])):
            self.problem(f"{op.label}: sets not distinct and sorted")
        masks = closed_masks(n, edges)
        for row in rows:
            why = set_problem(kind, row, masks)
            if len(row) != size or why:
                self.problem(f"{op.label}: set {row} {why or 'has the wrong size'}")
                break
        return rows

    def parsed_vertices(self, p: Pass) -> int:
        return sum(self.inputs[op.label.split(":")[0]][0] for op in p.ops if not op.label.startswith("library:"))

    def extra_layer_values(self, p: Pass) -> dict[str, float]:
        sets = {"mds": 0, "mis": 0}
        for op in p.ops:
            if op.ok:
                sets[op.label.split(":")[1]] += op.sets
        return {"domination.sets": sets["mds"], "independence.sets": sets["mis"]}

    def note_pass(self, p: Pass) -> None:
        self.sets_rates.append(sum(op.sets for op in p.ops if op.ok) / p.wall_s)
        self.first_set_latencies.extend(
            op.seconds for op in p.ops
            if op.label.endswith(":first") and self.inputs[op.label.split(":")[0]][0] <= 25)

    def extra_e2e(self) -> dict:
        return {
            "sets_per_s": statistics.median(self.sets_rates),
            "first_set_s": statistics.median(self.first_set_latencies),
            "first_set_samples": len(self.first_set_latencies),
        }


WORKLOADS = {cls.name: cls for cls in (Sweep, BigCounts, Enumerate)}
