"""Pass: repo conventions the compiler cannot check, one line at a time.

Every rule reads a line twice: raw, and with comment bodies and string
contents blanked (cxx.strip_comments_and_strings keeps every column in
place). Code rules match the blanked line, so a banned name inside a comment
or a string never fires. The two metric rules need a literal's contents, so
they match the raw line and keep a match only where the blanked line still
has code at the match's first column.

  metric-name      String literals passed as the name to GetCounter /
                   GetGauge / GetHistogram must match vqi_[a-z_]+; counter
                   names must end in _total, and _total is reserved for
                   counters. Names built at runtime are skipped.
  metric-label     Label keys in obs::Labels literals ({{"key", value}} ...)
                   must match [a-z][a-z_]* and must not start with "__"
                   (reserved by Prometheus). Keys naming per-request
                   identifiers (request_id, trace_id, uuid, ...) are rejected
                   outright: every distinct value mints a new series.
  raw-mutex        std::mutex, std::lock_guard, std::unique_lock,
                   std::scoped_lock, std::condition_variable and the <mutex> /
                   <condition_variable> includes are banned everywhere except
                   src/common/mutex.h: vqi::Mutex / MutexLock / CondVar keep
                   every lock visible to Clang Thread Safety Analysis.
  no-analysis-optout
                   VQLIB_NO_THREAD_SAFETY_ANALYSIS may appear only in
                   src/common/mutex.h and its definition in
                   src/common/thread_annotations.h.
  test-determinism rand(), srand(), std::random_device and std::mt19937 are
                   banned under tests/; a seeded vqi::Rng keeps failures
                   reproducible.
  vf2-csr          src/match/vf2.cc may not call Graph::Neighbors(): the
                   matcher's hot loops walk the CSR mirror
                   (NeighborsBegin/NeighborsEnd), the representation the
                   differential harness certifies.
  waiver-grammar   `// vqi-analyze: allow(<rule>) <justification>` must name
                   a waivable rule and carry a justification; a misspelt
                   rule would otherwise suppress nothing, silently.
"""

import re

from . import blocking, condvar

WAIVABLE_RULES = (*blocking.RULES, condvar.RULE)

MUTEX_HEADER = "src/common/mutex.h"
ANNOTATIONS_HEADER = "src/common/thread_annotations.h"

METRIC_GETTER_RE = re.compile(
    r"\bGet(Counter|Gauge|Histogram)\s*\(\s*\"([^\"]*)\"")
METRIC_NAME_RE = re.compile(r"vqi_[a-z_]+")

# A label literal starts with {{" and each pair starts {"key", — the key is
# always a string literal even when the value is computed.
LABEL_LITERAL_RE = re.compile(r'\{\{"')
LABEL_PAIR_RE = re.compile(r'\{\s*"([^"]*)"\s*,')
LABEL_KEY_RE = re.compile(r"[a-z][a-z_]*")
# Keys whose values are per-request/per-entity: every distinct value becomes
# its own series, which is how a metrics registry melts down.
HIGH_CARDINALITY_KEYS = {
    "id", "request_id", "trace_id", "session_id", "connection_id", "uuid",
    "query_id", "user_id",
}


def _patterns(*pairs):
    return [(re.compile(pattern), what) for pattern, what in pairs]


# (rule, files it applies to, [(pattern, what)], message) — matched on the
# blanked line, one finding per pattern per line.
CODE_RULES = (
    ("raw-mutex", lambda rel: rel != MUTEX_HEADER, _patterns(
        (r"\bstd\s*::\s*mutex\b", "std::mutex"),
        (r"\bstd\s*::\s*lock_guard\b", "std::lock_guard"),
        (r"\bstd\s*::\s*unique_lock\b", "std::unique_lock"),
        (r"\bstd\s*::\s*scoped_lock\b", "std::scoped_lock"),
        (r"\bstd\s*::\s*condition_variable\b", "std::condition_variable"),
        (r"#\s*include\s*<mutex>", "#include <mutex>"),
        (r"#\s*include\s*<condition_variable>",
         "#include <condition_variable>"),
    ), "{} is banned outside src/common/mutex.h; use vqi::Mutex / MutexLock "
       "/ CondVar"),
    ("test-determinism", lambda rel: rel.startswith("tests/"), _patterns(
        (r"(?<![\w:])s?rand\s*\(", "rand()/srand()"),
        (r"\brandom_device\b", "std::random_device"),
        (r"\bmt19937(_64)?\b", "std::mt19937"),
    ), "{} makes tests nondeterministic; use a seeded vqi::Rng"),
    ("no-analysis-optout",
     lambda rel: rel not in (MUTEX_HEADER, ANNOTATIONS_HEADER), _patterns(
         (r"\bVQLIB_NO_THREAD_SAFETY_ANALYSIS\b",
          "VQLIB_NO_THREAD_SAFETY_ANALYSIS"),
     ), "{} is only sanctioned in src/common/mutex.h"),
    # `x.Neighbors(` / `x->Neighbors(`, not NeighborsBegin/NeighborsEnd.
    ("vf2-csr", lambda rel: rel == "src/match/vf2.cc", _patterns(
        (r"(?:\.|->)\s*Neighbors\s*\(", "Graph::Neighbors()"),
    ), "{} is banned in src/match/vf2.cc; the matcher iterates the CSR "
       "mirror via NeighborsBegin/NeighborsEnd"),
)


def _literal_checks(raw, code):
    """(rule, message) for the metric names and label keys on one line."""
    def in_code(regex):
        return (m for m in regex.finditer(raw)
                if m.start() < len(code) and not code[m.start()].isspace())

    for m in in_code(METRIC_GETTER_RE):
        kind, name = m.group(1), m.group(2)
        if not METRIC_NAME_RE.fullmatch(name):
            yield "metric-name", f"metric name '{name}' must match vqi_[a-z_]+"
        elif kind == "Counter" and not name.endswith("_total"):
            yield "metric-name", f"counter '{name}' must end in _total"
        elif kind != "Counter" and name.endswith("_total"):
            yield ("metric-name",
                   f"_total suffix is reserved for counters: '{name}'")
    if not any(in_code(LABEL_LITERAL_RE)):
        return
    for m in in_code(LABEL_PAIR_RE):
        key = m.group(1)
        if key.startswith("__"):
            yield ("metric-label", f"label key '{key}' uses the __ prefix "
                   "reserved by Prometheus")
        elif not LABEL_KEY_RE.fullmatch(key):
            yield "metric-label", f"label key '{key}' must match [a-z][a-z_]*"
        elif key in HIGH_CARDINALITY_KEYS:
            yield ("metric-label", f"label key '{key}' names a per-request "
                   "identifier: unbounded series cardinality")


def run(files):
    diagnostics = []
    for rel, facts in sorted(files.items()):
        rules = [r for r in CODE_RULES if r[1](rel)]
        for lineno, (raw, code) in enumerate(
                zip(facts.raw_lines, facts.code_lines), start=1):
            found = list(_literal_checks(raw, code))
            for rule, _applies, patterns, message in rules:
                found += [(rule, message.format(what))
                          for pattern, what in patterns
                          if pattern.search(code)]
            diagnostics += [{"rel": rel, "line": lineno, "rule": rule,
                             "message": msg} for rule, msg in found]
        for lineno, (rule, just) in sorted(facts.waivers.items()):
            if rule not in WAIVABLE_RULES:
                msg = (f"waiver allow({rule}) names no waivable rule; one of "
                       f"{', '.join(WAIVABLE_RULES)}")
            elif not just:
                msg = (f"waiver allow({rule}) has no justification; write "
                       "`// vqi-analyze: allow(<rule>) <why this site is "
                       "safe>`")
            else:
                continue
            diagnostics.append({"rel": rel, "line": lineno,
                                "rule": "waiver-grammar", "message": msg})
    return {"diagnostics": diagnostics}
