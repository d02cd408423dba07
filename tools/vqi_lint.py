#!/usr/bin/env python3
"""Repo lint for conventions the compiler cannot check.

Run from anywhere:  python3 tools/vqi_lint.py [--root REPO] [--self-test]

Rules (each has a stable id used in messages and the self-test):

  metric-name      String literals passed as the name to GetCounter /
                   GetGauge / GetHistogram must match vqi_[a-z_]+ with an
                   optional _total / _ms suffix; counter names must end in
                   _total. Non-literal names (built at runtime) are skipped.
  raw-mutex        std::mutex, std::lock_guard, std::unique_lock,
                   std::scoped_lock, std::condition_variable and the <mutex> /
                   <condition_variable> includes are banned everywhere except
                   src/common/mutex.h — use vqi::Mutex / MutexLock / CondVar
                   so Clang Thread Safety Analysis sees every lock.
  test-determinism rand(), srand(), std::random_device and std::mt19937 are
                   banned under tests/; seeded vqi::Rng keeps failures
                   reproducible.
  metric-label     Label keys in obs::Labels literals ({{"key", value}} ...)
                   must match [a-z][a-z_]* and must not start with "__"
                   (reserved by Prometheus). Keys naming per-request
                   identifiers (request_id, trace_id, uuid, ...) are rejected
                   outright — every distinct value mints a new series, which
                   is unbounded cardinality.
  no-analysis-optout
                   VQLIB_NO_THREAD_SAFETY_ANALYSIS may appear only in
                   src/common/mutex.h (and its definition in
                   thread_annotations.h); the annotated codebase has no other
                   sanctioned opt-outs.
  vf2-csr          src/match/vf2.cc may not call Graph::Neighbors() — the
                   matcher's hot loops run over the CSR mirror
                   (NeighborsBegin/NeighborsEnd); a direct adjacency-map walk
                   there silently forks the engine off the representation the
                   differential harness certifies. CSR construction itself
                   (csr_graph.cc) is the one sanctioned caller in src/match/.

Include layering (common/, net/, shard/ and every other src/ directory) is
enforced by the analyzer's layering pass, tools/vqi_analyze/layering.py.

Exit status: 0 when clean, 1 when any rule fires, 2 on usage errors.
"""

import argparse
import re
import sys
import tempfile
from pathlib import Path

CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}
SCAN_DIRS = ("src", "tests", "tools", "bench", "examples")

METRIC_GETTER_RE = re.compile(
    r"\bGet(Counter|Gauge|Histogram)\s*\(\s*\"([^\"]*)\"")
METRIC_NAME_RE = re.compile(r"vqi_[a-z_]+")

RAW_MUTEX_RES = [
    (re.compile(r"\bstd\s*::\s*mutex\b"), "std::mutex"),
    (re.compile(r"\bstd\s*::\s*lock_guard\b"), "std::lock_guard"),
    (re.compile(r"\bstd\s*::\s*unique_lock\b"), "std::unique_lock"),
    (re.compile(r"\bstd\s*::\s*scoped_lock\b"), "std::scoped_lock"),
    (re.compile(r"\bstd\s*::\s*condition_variable\b"),
     "std::condition_variable"),
    (re.compile(r"#\s*include\s*<mutex>"), "#include <mutex>"),
    (re.compile(r"#\s*include\s*<condition_variable>"),
     "#include <condition_variable>"),
]

NONDETERMINISM_RES = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(_64)?\b"), "std::mt19937"),
]

OPTOUT_RE = re.compile(r"\bVQLIB_NO_THREAD_SAFETY_ANALYSIS\b")

# tools/vqi_analyze waiver grammar: `// vqi-analyze: allow(<rule>) <why>`.
# The justification is mandatory — vqi_analyze rejects it too, but the lint
# fires on ANY file, including ones the analyzer's scanner cannot parse.
ANALYZE_WAIVER_RE = re.compile(
    r"//\s*vqi-analyze:\s*allow\(([a-z][a-z0-9-]*)\)\s*(.*)$")

# Matches `x.Neighbors(` / `x->Neighbors(` but not NeighborsBegin/NeighborsEnd.
ADJACENCY_CALL_RE = re.compile(r"(?:\.|->)\s*Neighbors\s*\(")

# A label literal starts with {{" and each pair starts {"key", — the key is
# always a string literal even when the value is computed.
LABEL_LITERAL_MARKER = '{{"'
LABEL_PAIR_RE = re.compile(r'\{\s*"([^"]*)"\s*,')
LABEL_KEY_RE = re.compile(r"[a-z][a-z_]*")
# Keys whose values are per-request/per-entity: every distinct value becomes
# its own series, which is how a metrics registry melts down.
HIGH_CARDINALITY_KEYS = {
    "id", "request_id", "trace_id", "session_id", "connection_id", "uuid",
    "query_id", "user_id",
}


def strip_line_comment(line):
    """Drops a trailing // comment, respecting string literals."""
    in_string = False
    i = 0
    while i < len(line):
        c = line[i]
        if in_string:
            if c == "\\":
                i += 1
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c == "/" and line[i:i + 2] == "//":
            return line[:i]
        i += 1
    return line


class Linter:
    def __init__(self, root):
        self.root = Path(root)
        self.violations = []

    def report(self, rule, path, lineno, message):
        rel = path.relative_to(self.root)
        self.violations.append(f"{rel}:{lineno}: [{rule}] {message}")

    def files(self):
        for top in SCAN_DIRS:
            base = self.root / top
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*")):
                if path.suffix in CXX_SUFFIXES and path.is_file():
                    yield path

    def lint_file(self, path):
        rel = path.relative_to(self.root).as_posix()
        is_mutex_header = rel == "src/common/mutex.h"
        is_annotations_header = rel == "src/common/thread_annotations.h"
        in_tests = rel.startswith("tests/")
        is_vf2_impl = rel == "src/match/vf2.cc"
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            return
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            line = strip_line_comment(raw_line)

            for match in METRIC_GETTER_RE.finditer(line):
                kind, name = match.group(1), match.group(2)
                if not METRIC_NAME_RE.fullmatch(name):
                    self.report(
                        "metric-name", path, lineno,
                        f"metric name '{name}' must match vqi_[a-z_]+")
                elif kind == "Counter" and not name.endswith("_total"):
                    self.report(
                        "metric-name", path, lineno,
                        f"counter '{name}' must end in _total")
                elif kind != "Counter" and name.endswith("_total"):
                    self.report(
                        "metric-name", path, lineno,
                        f"_total suffix is reserved for counters: '{name}'")

            if not is_mutex_header:
                for pattern, what in RAW_MUTEX_RES:
                    if pattern.search(line):
                        self.report(
                            "raw-mutex", path, lineno,
                            f"{what} is banned outside src/common/mutex.h; "
                            "use vqi::Mutex / MutexLock / CondVar")

            if in_tests:
                for pattern, what in NONDETERMINISM_RES:
                    if pattern.search(line):
                        self.report(
                            "test-determinism", path, lineno,
                            f"{what} makes tests nondeterministic; "
                            "use a seeded vqi::Rng")

            if LABEL_LITERAL_MARKER in line:
                for match in LABEL_PAIR_RE.finditer(line):
                    key = match.group(1)
                    if key.startswith("__"):
                        self.report(
                            "metric-label", path, lineno,
                            f"label key '{key}' uses the __ prefix reserved "
                            "by Prometheus")
                    elif not LABEL_KEY_RE.fullmatch(key):
                        self.report(
                            "metric-label", path, lineno,
                            f"label key '{key}' must match [a-z][a-z_]*")
                    elif key in HIGH_CARDINALITY_KEYS:
                        self.report(
                            "metric-label", path, lineno,
                            f"label key '{key}' names a per-request "
                            "identifier: unbounded series cardinality")

            if is_vf2_impl and ADJACENCY_CALL_RE.search(line):
                self.report(
                    "vf2-csr", path, lineno,
                    "Graph::Neighbors() is banned in src/match/vf2.cc; the "
                    "matcher iterates the CSR mirror via "
                    "NeighborsBegin/NeighborsEnd")

            if not is_mutex_header and not is_annotations_header:
                if OPTOUT_RE.search(line):
                    self.report(
                        "no-analysis-optout", path, lineno,
                        "VQLIB_NO_THREAD_SAFETY_ANALYSIS is only sanctioned "
                        "in src/common/mutex.h")

            waiver = ANALYZE_WAIVER_RE.search(raw_line)
            if waiver and not waiver.group(2).strip():
                self.report(
                    "waiver-grammar", path, lineno,
                    f"vqi-analyze waiver allow({waiver.group(1)}) has no "
                    "justification; write `// vqi-analyze: allow(<rule>) "
                    "<why this site is safe>`")

    def run(self):
        for path in self.files():
            self.lint_file(path)
        return self.violations


def self_test():
    """Writes one violating scratch file per rule and asserts the rule fires."""
    cases = [
        ("metric-name", "src/scratch.cc",
         'void F(R& r) { r.GetCounter("queries_served"); }\n'),
        ("metric-name", "src/scratch.cc",
         'void F(R& r) { r.GetCounter("vqi_queries_served"); }\n'),
        ("metric-name", "src/scratch.cc",
         'void F(R& r) { r.GetGauge("vqi_queue_depth_total"); }\n'),
        ("raw-mutex", "src/scratch.cc",
         "#include <mutex>\nstd::mutex mu;\n"),
        ("raw-mutex", "tests/scratch_test.cc",
         "void F() { std::lock_guard<std::mutex> lock(mu); }\n"),
        ("test-determinism", "tests/scratch_test.cc",
         "int F() { return rand() % 7; }\n"),
        ("test-determinism", "tests/scratch_test.cc",
         "#include <random>\nstd::mt19937 gen{std::random_device{}()};\n"),
        ("metric-label", "src/scratch.cc",
         'obs::Labels labels{{"Pool", "http"}};\n'),
        ("metric-label", "src/scratch.cc",
         'obs::Labels labels{{"__name", "x"}};\n'),
        ("metric-label", "src/scratch.cc",
         'r.GetCounter("vqi_x_total", "", {{"kind", "a"}, {"request_id", id}});\n'),
        ("no-analysis-optout", "src/service/scratch.h",
         "void F() VQLIB_NO_THREAD_SAFETY_ANALYSIS;\n"),
        ("vf2-csr", "src/match/vf2.cc",
         "void F(const Graph& g) {\n"
         "  for (const Neighbor& n : g.Neighbors(0)) { (void)n; }\n"
         "}\n"),
        ("waiver-grammar", "src/scratch.cc",
         "void F() {\n"
         "  // vqi-analyze: allow(sleep-under-lock)\n"
         "  G();\n"
         "}\n"),
    ]
    clean = [
        ("src/scratch_ok.cc",
         'void F(R& r) { r.GetCounter("vqi_queries_served_total"); }\n'
         '// std::mutex in a comment is fine\n'
         '// vqi-analyze: allow(sleep-under-lock) justified waivers lint clean\n'),
        ("tests/scratch_ok_test.cc",
         '#include "common/rng.h"\nvqi::Rng rng(42);\n'),
        ("src/net/scratch_ok.h",
         'obs::Labels labels{{"pool", "http"}};\n'),
        # Replica-labeled series are bounded (R <= 64 replicas per shard), so
        # {shard, replica} must pass the cardinality rule.
        ("src/shard/scratch_replica_ok.h",
         'obs::Labels labels{{"shard", "0"}, {"replica", "1"}};\n'),
        # CSR construction is the sanctioned Graph::Neighbors() caller in
        # src/match/; the matcher itself walks the CSR spans.
        ("src/match/csr_graph.cc",
         "void Build(const Graph& g) {\n"
         "  for (const Neighbor& n : g.Neighbors(0)) { (void)n; }\n"
         "}\n"),
        ("src/match/vf2.cc",
         "void F(const CsrGraph& csr) {\n"
         "  for (const Neighbor* it = csr.NeighborsBegin(0);\n"
         "       it != csr.NeighborsEnd(0); ++it) { (void)it; }\n"
         "}\n"),
    ]
    failures = []
    for rule, rel, content in cases:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content)
            violations = Linter(root).run()
            if not any(f"[{rule}]" in v for v in violations):
                failures.append(
                    f"expected [{rule}] to fire for {rel!r}:\n{content}")
    for rel, content in clean:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            target = root / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(content)
            violations = Linter(root).run()
            if violations:
                failures.append(
                    f"expected no violations for {rel!r}, got: {violations}")
    if failures:
        print("vqi_lint self-test FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"vqi_lint self-test OK ({len(cases)} violating cases, "
          f"{len(clean)} clean cases)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", default=None,
        help="repo root (default: parent of this script's directory)")
    parser.add_argument(
        "--self-test", action="store_true",
        help="verify each rule fires on a known-bad scratch file")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = Path(args.root) if args.root else Path(__file__).resolve().parent.parent
    if not root.is_dir():
        print(f"vqi_lint: no such directory: {root}", file=sys.stderr)
        return 2

    violations = Linter(root).run()
    if violations:
        for violation in violations:
            print(violation, file=sys.stderr)
        print(f"vqi_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("vqi_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
