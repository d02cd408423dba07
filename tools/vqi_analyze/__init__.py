"""vqi_analyze — the repo checker: a whole-repo, cross-translation-unit
static analyzer.

Zero-dependency (stdlib-only). It scans every C++ file under src/, tests/,
tools/, bench/ and examples/, builds a repo-wide model from the
machine-readable facts the codebase already carries — VQLIB_* thread-safety
annotations, vqi::MutexLock scopes, #include edges, vqi_* metric literals,
ctest labels — and checks cross-file properties on top of it, plus the
per-line conventions no compiler flag can:

  lock-order   global lock-acquisition-order graph (an edge for every lock
               acquired while another is held, including through called
               methods); cycles are potential deadlocks, and the full pair
               set is pinned to tools/vqi_analyze/lock_order.expected.
  blocking     blocklisted blocking calls (pool Submit/Wait, sleeps, socket
               I/O, index builds) inside a lock scope, unless waived with
               `// vqi-analyze: allow(<rule>) <justification>`.
  condvar      every CondVar Wait/WaitFor must sit in a loop — the invariant
               src/common/mutex.h documents (no predicate overload).
  layering     one declared layer order for every src/ directory (replacing
               per-directory allowlist rules with a total order) plus
               include-cycle detection.
  catalogs     drift-proofing: every vqi_* metric literal in src/ must appear
               in docs/observability.md, and every concurrency-heavy test
               suite label must be matched by the tsan/asan/ubsan preset
               filter regexes in CMakePresets.json.
  conventions  per-line rules: metric names and label keys, the raw
               std::mutex ban, test determinism, the matcher's CSR-only hot
               loop, and the `// vqi-analyze: allow(<rule>) <why>` waiver
               grammar.

Run as `python3 -m tools.vqi_analyze --help` from the repo root (see
__main__.py).
"""

__all__ = ["cxx", "model", "lock_order", "blocking", "condvar", "layering",
           "catalogs", "conventions", "selftest"]
