"""Self-test: plant one violation per rule in a scratch tree and assert the
analyzer catches each — and does NOT flag the adjacent clean constructs.

This is the analyzer's canary: a refactor of the scanner that silently stops
seeing (say) calls inside `if (...)` heads turns every pass green at once,
and only a planted-violation corpus notices. Run with
`python3 -m tools.vqi_analyze --self-test`.
"""

import json
import tempfile
from pathlib import Path

# One violation per rule, each next to a clean twin where that makes sense.
SCRATCH = {
    # lock-cycle: Pair::a_ -> Pair::b_ and Pair::b_ -> Pair::a_.
    # lock-order-baseline: the scratch tree ships no lock_order.expected.
    "src/service/pair.h": """\
#pragma once
namespace vqi {
class Pair {
 public:
  void First() {
    MutexLock a(&a_);
    MutexLock b(&b_);
    ++n_;
  }
  void Second() {
    MutexLock b(&b_);
    MutexLock a(&a_);
    --n_;
  }
 private:
  Mutex a_;
  Mutex b_;
  int n_ = 0;
};
}  // namespace vqi
""",
    # The four blocking rules, plus the waiver grammar corpus: one waived
    # site with a justification (clean), one waiver missing its
    # justification, and one stale waiver suppressing nothing.
    "src/service/blocker.h": """\
#pragma once
namespace vqi {
class ThreadPool {
 public:
  Status Submit(std::function<void()> task);
  void Wait();
};
class MatchIndex {
 public:
  void Build();
};
class CollectionIndex {
 public:
  explicit CollectionIndex(int graphs);
};
class Blocker {
 public:
  void SubmitUnderLock() {
    MutexLock lock(&mu_);
    pool_.Submit([] {});
  }
  void SleepUnderLock() {
    MutexLock lock(&mu_);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  void SocketUnderLock() {
    MutexLock lock(&mu_);
    ::send(fd_, nullptr, 0, 0);
  }
  void IndexUnderLock() {
    MutexLock lock(&mu_);
    index_.Build();
  }
  void CollectionUnderLock() {
    MutexLock lock(&mu_);
    auto collection = CollectionIndex(n_);
  }
  void WaivedSleep() {
    MutexLock lock(&mu_);
    // vqi-analyze: allow(sleep-under-lock) fixture needs a real delay
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  void UnjustifiedWaiverSleep() {
    MutexLock lock(&mu_);
    // vqi-analyze: allow(sleep-under-lock)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  void StaleWaiver() {
    // vqi-analyze: allow(sleep-under-lock) nothing left to waive here
    n_ = 0;
  }
 private:
  Mutex mu_;
  ThreadPool pool_;
  MatchIndex index_;
  int fd_ = -1;
  int n_ = 0;
};
}  // namespace vqi
""",
    # condvar-wait-loop: a predicate-less wait next to the canonical loop.
    "src/service/waiter.h": """\
#pragma once
namespace vqi {
class Waiter {
 public:
  void BadWait() {
    MutexLock lock(&mu_);
    if (!ready_) cv_.Wait(mu_);
  }
  void GoodWait() {
    MutexLock lock(&mu_);
    while (!ready_) cv_.Wait(mu_);
  }
 private:
  Mutex mu_;
  CondVar cv_;
  bool ready_ = false;
};
}  // namespace vqi
""",
    # layer-order: common (rank 0) must not reach up into net.
    "src/common/clock.h": """\
#pragma once
#include "net/socket.h"
""",
    "src/net/socket.h": """\
#pragma once
""",
    # layer-allowlist: net and shard rank above match, so only their
    # explicit lists stop them reaching into the matcher. The clean twins
    # include what those lists allow.
    "src/net/wire.h": """\
#pragma once
#include "match/vf2.h"
""",
    "src/shard/router.h": """\
#pragma once
#include "match/vf2.h"
""",
    "src/net/server.h": """\
#pragma once
#include "service/query_service.h"
#include "shard/router.h"
""",
    "src/shard/replica.h": """\
#pragma once
#include "graph/graph.h"
#include "service/query_service.h"
""",
    # include-cycle: two graph/ headers including each other.
    "src/graph/a.h": """\
#pragma once
#include "graph/b.h"
""",
    "src/graph/b.h": """\
#pragma once
#include "graph/a.h"
""",
    # layer-unknown: a directory absent from LAYER_ORDER, and an include
    # that names no directory at all.
    "src/widgets/widget.h": """\
#pragma once
""",
    "src/common/bare.h": """\
#pragma once
#include "bare_impl.h"
""",
    # metric-catalog: one documented literal, one that drifted, and a name
    # built from a prefix and a suffix literal; in the doc, a stale row that
    # no literal spells.
    "src/service/metrics_user.cc": """\
#include "service/metrics_user.h"
namespace vqi {
void Register(MetricRegistry& r, const std::string& prefix = "vqi_pair") {
  r.GetCounter("vqi_good_total", "documented");
  r.GetCounter("vqi_bogus_total", "not documented");
  r.GetCounter(prefix + "_hits_total", "built from two literals");
}
}  // namespace vqi
""",
    "docs/observability.md": """\
# Instrument catalog

| name | kind |
|------|------|
| `vqi_good_total` | counter |
| `vqi_pair_hits_total{cache_shard=N}` | counter |
| `vqi_stale_total` | counter |
""",
    # sanitizer-gating: foo_test links vqi_service but no preset label
    # regex matches it; service_test is gated by every preset (clean).
    "tests/CMakeLists.txt": """\
vqi_add_test(service_test vqi_service vqi_graph)
vqi_add_test(foo_test vqi_service vqi_graph)
vqi_add_test(pure_test vqi_graph)
""",
    # The conventions pass's per-line rules. Metric and label cases live
    # under bench/, where a vqi_* literal owes the catalog nothing. The bare
    # waiver case is UnjustifiedWaiverSleep in blocker.h above.
    "bench/metric_unprefixed.cc":
        'void F(R& r) { r.GetCounter("queries_served"); }\n',
    "bench/metric_counter_suffix.cc":
        'void F(R& r) { r.GetCounter("vqi_queries_served"); }\n',
    "bench/metric_gauge_total.cc":
        'void F(R& r) { r.GetGauge("vqi_queue_depth_total"); }\n',
    "bench/label_case.cc": 'obs::Labels labels{{"Pool", "http"}};\n',
    "bench/label_reserved.cc": 'obs::Labels labels{{"__name", "x"}};\n',
    "bench/label_request_id.cc":
        'r.GetCounter("vqi_x_total", "", {{"kind", "a"}, {"request_id", id}});\n',
    "src/service/raw_mutex.cc": "#include <mutex>\nstd::mutex mu;\n",
    # Lexer traps: a digit separator and a spliced string literal must not
    # hide or shift the violation after them.
    "src/service/lexer_traps.cc": """\
const int kLimit = 1'000;
const char* kSpliced = "first half \\
second half";
std::mutex after_traps;
""",
    "tests/lock_guard_test.cc":
        "void F() { std::lock_guard<std::mutex> lock(mu); }\n",
    "tests/rand_test.cc": "int F() { return rand() % 7; }\n",
    "tests/mt19937_test.cc":
        "#include <random>\nstd::mt19937 gen{std::random_device{}()};\n",
    "src/service/optout.h": "void F() VQLIB_NO_THREAD_SAFETY_ANALYSIS;\n",
    "src/service/misspelt_waiver.cc": """\
void F() {
  // vqi-analyze: allow(sleep-under-lok) a misspelt rule waives nothing
  G();
}
""",
    # vf2-csr: the CSR loop the matcher must use, then one Graph::Neighbors()
    # walk; only the walk is flagged.
    "src/match/vf2.cc": """\
void F(const CsrGraph& csr) {
  for (const Neighbor* it = csr.NeighborsBegin(0);
       it != csr.NeighborsEnd(0); ++it) { (void)it; }
}
void G(const Graph& g) {
  for (const Neighbor& n : g.Neighbors(0)) { (void)n; }
}
""",
    # Clean twins of the conventions rules: names in comments and strings,
    # bounded label keys, the sanctioned Graph::Neighbors() caller and each
    # rule's exempt files.
    "bench/conventions_ok.cc": """\
void F(R& r) { r.GetCounter("vqi_queries_served_total"); }
// std::mutex in a comment is fine
/* std::mutex */ int unused = 0;
// r.GetCounter("queries_served") in a comment registers nothing
const char* kDoc = R"(r.GetCounter("bad") {{"Bad", x}} in a string)";
""",
    "tests/rng_ok_test.cc": '#include "common/rng.h"\nvqi::Rng rng(42);\n',
    "src/net/labels_ok.h": 'obs::Labels labels{{"pool", "http"}};\n',
    # Replica-labeled series are bounded (R <= 64 replicas per shard).
    "src/shard/replica_labels_ok.h":
        'obs::Labels labels{{"shard", "0"}, {"replica", "1"}};\n',
    "src/match/csr_graph.cc": """\
void Build(const Graph& g) {
  for (const Neighbor& n : g.Neighbors(0)) { (void)n; }
}
""",
    "src/common/mutex.h": """\
#pragma once
#include <mutex>
void Lock(std::mutex& mu) VQLIB_NO_THREAD_SAFETY_ANALYSIS;
""",
    "src/common/thread_annotations.h":
        "#pragma once\n#define VQLIB_NO_THREAD_SAFETY_ANALYSIS\n",
    "bench/rand_ok.cc": "int F() { return rand() % 7; }\n",
    "CMakePresets.json": json.dumps({
        "version": 6,
        "testPresets": [
            {"name": p, "configurePreset": p,
             "filter": {"include": {"label": "^(service_test|chaos_test)$"}}}
            for p in ("tsan", "asan", "ubsan")
        ],
    }, indent=2),
}

# Every rule the analyzer knows, with the files its planted violations live
# in. A rule missing from any of them fails the self-test.
PLANTED = {
    "lock-cycle": ("src/service/pair.h",),
    "lock-order-baseline": ("lock_order.expected",),
    "pool-submit-under-lock": ("src/service/blocker.h",),
    "sleep-under-lock": ("src/service/blocker.h",),
    "socket-under-lock": ("src/service/blocker.h",),
    "index-build-under-lock": ("src/service/blocker.h",),
    "condvar-wait-loop": ("src/service/waiter.h",),
    "layer-order": ("src/common/clock.h",),
    "layer-allowlist": ("src/net/wire.h", "src/shard/router.h"),
    "layer-unknown": ("src/widgets/widget.h", "src/common/bare.h"),
    "include-cycle": ("src/graph/a.h",),
    "metric-catalog": ("src/service/metrics_user.cc",
                       "docs/observability.md"),
    "sanitizer-gating": ("tests/CMakeLists.txt",),
    "unused-waiver": ("src/service/blocker.h",),
    "metric-name": ("bench/metric_unprefixed.cc",
                    "bench/metric_counter_suffix.cc",
                    "bench/metric_gauge_total.cc"),
    "metric-label": ("bench/label_case.cc", "bench/label_reserved.cc",
                     "bench/label_request_id.cc"),
    "raw-mutex": ("src/service/raw_mutex.cc", "tests/lock_guard_test.cc",
                  "src/service/lexer_traps.cc"),
    "test-determinism": ("tests/rand_test.cc", "tests/mt19937_test.cc"),
    "no-analysis-optout": ("src/service/optout.h",),
    "vf2-csr": ("src/match/vf2.cc",),
    "waiver-grammar": ("src/service/blocker.h",
                       "src/service/misspelt_waiver.cc"),
}

# Files no rule may touch.
CLEAN = ("bench/conventions_ok.cc", "tests/rng_ok_test.cc",
         "src/net/labels_ok.h", "src/shard/replica_labels_ok.h",
         "src/match/csr_graph.cc", "src/common/mutex.h",
         "src/common/thread_annotations.h", "bench/rand_ok.cc")


# Token soups for the lexer's shape property: every construct that opens or
# closes a literal or comment, including the two that shift lines when
# mishandled (a digit separator, a backslash-newline inside a string or char
# literal).
SOUP_TOKENS = (
    "1'000", "0xFF'FF", "0b1010'0101", "3.141'59", "'a'", "'\\''", "u8'x'",
    "L'\\n'", '"str"', '"q\\"q"', '"spliced \\\n half"', "'\\\n'",
    "// line comment\n", "/* block\n comment */", 'R"x(raw " \n)x"',
    "std::mutex", "x1", "+", ";", " ", "  ", "\n", "\n",
)


# Exact strips of the lexer traps: separators stay code, literals blank.
STRIP_CASES = (
    ("int n = 1'000'000; char c = 'x';", "int n = 1'000'000; char c = ' ';"),
    ("long h = 0xFF'FF, b = 0b1'0; auto u = u8'a'; float f = 3.1'4;",
     "long h = 0xFF'FF, b = 0b1'0; auto u = u8' '; float f = 3.1'4;"),
    ('const char* s = "a\\\nb"; char d = \'\\\n\';',
     'const char* s = "  \n "; char d = \' \n\';'),
)


def _token_soup(seed):
    """A seeded soup of SOUP_TOKENS ending in a code-only sentinel line."""
    import random
    rng = random.Random(seed)
    body = "".join(rng.choice(SOUP_TOKENS) for _ in range(rng.randint(5, 60)))
    return body + f"\nint sentinel_{seed};\n"


def _strip_keeps_shape(text):
    """Stripping keeps the line count and every line's length."""
    from . import cxx
    stripped = cxx.strip_comments_and_strings(text)
    return ([len(line) for line in stripped.split("\n")] ==
            [len(line) for line in text.split("\n")])


def _line_of(rel, suffix):
    """1-based line of the first line of SCRATCH[rel] ending in suffix."""
    lines = SCRATCH[rel].splitlines()
    return next(i for i, l in enumerate(lines, 1) if l.endswith(suffix))


def run():
    from . import __main__ as cli

    failures = []

    def check(ok, what):
        print(f"  {'ok' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory(prefix="vqi_analyze_selftest.") as td:
        root = Path(td)
        for rel, text in SCRATCH.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text, encoding="utf-8")
        report_path = root / "report.json"
        rc = cli.main(["--root", str(root), "--json", str(report_path)])
        report = json.loads(report_path.read_text(encoding="utf-8"))
        diags = report["diagnostics"]

        check(rc == 1, f"planted tree exits 1 (got {rc})")
        check(not report["unresolved_acquires"],
              "every planted MutexLock resolves "
              f"(unresolved: {report['unresolved_acquires']})")

        by_rule = {}
        for d in diags:
            by_rule.setdefault(d["rule"], []).append(d)
        for rule, rels in sorted(PLANTED.items()):
            hits = by_rule.get(rule, [])
            for rel in rels:
                check(any(rel in d["rel"] for d in hits),
                      f"rule {rule} fires in {rel} "
                      f"(hits: {[d['rel'] for d in hits]})")
        check(set(by_rule) == set(PLANTED),
              "no rule fires outside the planted corpus "
              f"(unexpected: {sorted(set(by_rule) - set(PLANTED))})")
        stray = [d for rule, rels in PLANTED.items()
                 for d in by_rule.get(rule, [])
                 if not any(rel in d["rel"] for rel in rels)]
        check(not stray,
              "every diagnostic lands in its planted file (stray: "
              f"{[(d['rule'], d['rel'], d['line']) for d in stray]})")

        # Clean twins must stay clean.
        blocking = report["passes"]["blocking"]
        check(any(w["justification"] for w in blocking["waived"]),
              "justified waiver suppresses its finding")
        check(any("missing a justification" in d["message"]
                  for d in by_rule.get("sleep-under-lock", [])),
              "waiver without justification still reports the finding")
        condvar_hits = by_rule.get("condvar-wait-loop", [])
        check(len(condvar_hits) == 1 and "BadWait" in
              condvar_hits[0]["message"],
              "only the predicate-less wait is flagged, not the while-loop")
        check(all("vqi_good_total" not in d["message"]
                  for d in by_rule.get("metric-catalog", [])),
              "documented metric literal is not flagged")
        check(any("vqi_stale_total" in d["message"]
                  for d in by_rule.get("metric-catalog", [])),
              "catalog row no literal spells is flagged")
        check(all("vqi_pair" not in d["message"]
                  for d in by_rule.get("metric-catalog", [])),
              "prefix + suffix literal pair resolves its catalog row")
        check(all("`service_test`" not in d["message"]
                  and "`pure_test`" not in d["message"]
                  for d in by_rule.get("sanitizer-gating", [])),
              "gated and non-concurrency tests are not flagged")
        check(not [d for d in diags if d["rel"] in CLEAN],
              f"clean twins stay silent ({', '.join(CLEAN)})")
        index_lines = {d["line"] for d in by_rule.get("index-build-under-lock",
                                                      [])}
        check(_line_of("src/service/blocker.h", "CollectionIndex(n_);")
              in index_lines,
              "a CollectionIndex constructed under a lock is flagged "
              f"(lines: {sorted(index_lines)})")
        vf2_lines = [d["line"] for d in by_rule.get("vf2-csr", [])]
        check(vf2_lines == [_line_of("src/match/vf2.cc", "(void)n; }")],
              f"only the Graph::Neighbors() walk in vf2.cc is flagged "
              f"(lines: {vf2_lines})")
        grammar = {(d["rel"], d["line"])
                   for d in by_rule.get("waiver-grammar", [])}
        check(grammar == {
            ("src/service/blocker.h",
             _line_of("src/service/blocker.h", "allow(sleep-under-lock)")),
            ("src/service/misspelt_waiver.cc",
             _line_of("src/service/misspelt_waiver.cc", "waives nothing"))},
              "waiver-grammar flags the bare and the misspelt waiver only "
              f"({sorted(grammar)})")
        raw_lines = [d["line"] for d in by_rule.get("raw-mutex", [])
                     if d["rel"] == "src/service/lexer_traps.cc"]
        check(raw_lines == [_line_of("src/service/lexer_traps.cc",
                                     "after_traps;")],
              "the raw mutex after a digit separator and a spliced string "
              f"is reported on its own line (lines: {raw_lines})")
        lock = report["passes"]["lock-order"]
        check(any(set(c) == {"Pair::a_", "Pair::b_"} for c in lock["cycles"]),
              f"the a_/b_ inversion is the reported cycle ({lock['cycles']})")

    from . import cxx
    bent = [rel for rel, text in SCRATCH.items()
            if rel.endswith(tuple(cxx.CXX_SUFFIXES))
            and not _strip_keeps_shape(text)]
    check(not bent, "stripping keeps every line and column of the planted "
          f"tree (bent: {bent})")
    wrong = [text for text, expected in STRIP_CASES
             if cxx.strip_comments_and_strings(text) != expected]
    check(not wrong, "digit separators stay code and spliced literals keep "
          f"their newline (wrong: {wrong})")
    bent = []
    for seed in range(300):
        soup = _token_soup(seed)
        sentinel = f"int sentinel_{seed};"
        if (not _strip_keeps_shape(soup) or sentinel not in
                cxx.strip_comments_and_strings(soup).split("\n")):
            bent.append(seed)
    check(not bent, "stripping keeps every line and column of 300 seeded "
          f"token soups, and their code (bent seeds: {bent[:10]})")

    if failures:
        print(f"vqi_analyze --self-test: {len(failures)} check(s) FAILED")
        return 1
    print("vqi_analyze --self-test: all checks passed")
    return 0
