"""Pass: drift-proof catalogs.

Two catalogs rot silently today:

  * docs/observability.md promises to list every exported instrument, but
    nothing cross-checks it — a new `vqi_*` literal in src/ ships with no
    documentation, and a deleted instrument's row survives silently. Rule
    `metric-catalog` checks both ways: every `"vqi_..."` string literal in
    src/ must appear (as a substring, so concatenation prefixes like
    "vqi_cache" count against the full names built from them) in the doc,
    and every name in the first cell of a catalog table row (label braces
    stripped) must be spelled in src/, by one literal or by a prefix
    literal plus a suffix literal ("vqi_cache" + "_hits_total").

  * CMakePresets.json gates the tsan/asan/ubsan presets on a label regex;
    a new concurrency-heavy test suite that is not matched by the regex
    silently never runs under sanitizers. Rule `sanitizer-gating`: every
    test in tests/CMakeLists.txt that links vqi_service, vqi_shard, or
    vqi_net must be matched by ALL sanitizer preset label filters.
"""

import json
import re

CONCURRENCY_LIBS = {"vqi_service", "vqi_shard", "vqi_net"}
SANITIZER_PRESETS = ("tsan", "asan", "ubsan")

VQI_ADD_TEST_RE = re.compile(r"vqi_add_test\(\s*(\w+)([^)]*)\)")
ADD_EXECUTABLE_RE = re.compile(r"add_executable\(\s*(\w+)")
LINK_RE = re.compile(r"target_link_libraries\(\s*(\w+)([^)]*)\)")
LABELS_RE = re.compile(r'gtest_discover_tests\(\s*(\w+)[^)]*LABELS\s+"([^"]+)"')
CODE_SPAN_RE = re.compile(r"`([^`]+)`")
CATALOG_NAME_RE = re.compile(r"vqi_[a-z0-9_]+")

RULE_METRIC = "metric-catalog"
RULE_GATING = "sanitizer-gating"


def harvest_tests(cmake_text):
    """test name -> (labels, linked libs)."""
    tests = {}
    for m in VQI_ADD_TEST_RE.finditer(cmake_text):
        name, libs = m.group(1), set(m.group(2).split())
        tests[name] = ({name}, libs)
    links = {m.group(1): set(m.group(2).split())
             for m in LINK_RE.finditer(cmake_text)}
    for m in ADD_EXECUTABLE_RE.finditer(cmake_text):
        name = m.group(1)
        if name not in tests:
            tests[name] = ({name}, links.get(name, set()))
    for m in LABELS_RE.finditer(cmake_text):
        name, labels = m.group(1), set(m.group(2).split(";"))
        if name in tests:
            tests[name] = (tests[name][0] | labels, tests[name][1])
    return tests


def catalog_names(doc_text):
    """(line, name) of every instrument named in a catalog table's first
    cell, label braces stripped."""
    names = []
    for lineno, line in enumerate(doc_text.splitlines(), start=1):
        if not line.startswith("|"):
            continue
        for span in CODE_SPAN_RE.findall(line.split("|")[1]):
            name = re.sub(r"\{[^}]*\}", "", span).strip()
            if CATALOG_NAME_RE.fullmatch(name):
                names.append((lineno, name))
    return names


def sanitizer_filters(presets_json):
    """preset name -> label include regex."""
    out = {}
    for tp in presets_json.get("testPresets", []):
        if tp.get("name") not in SANITIZER_PRESETS:
            continue
        label = (tp.get("filter", {}).get("include", {}) or {}).get("label")
        if label:
            out[tp["name"]] = label
    return out


def run(root, files, doc_rel="docs/observability.md",
        cmake_rel="tests/CMakeLists.txt",
        presets_rel="CMakePresets.json"):
    diagnostics = []

    try:
        doc_text = (root / doc_rel).read_text(encoding="utf-8")
    except OSError:
        doc_text = None
        diagnostics.append({"rel": doc_rel, "line": 1, "rule": RULE_METRIC,
                            "message": "instrument catalog missing"})

    metrics = {}
    if doc_text is not None:
        seen = {}
        suffixes = set()
        for rel, facts in sorted(files.items()):
            if not rel.startswith("src/"):
                continue
            for line, name in facts.metric_literals:
                seen.setdefault(name, (rel, line))
            suffixes.update(facts.suffix_literals)
        for name, (rel, line) in sorted(seen.items()):
            documented = name in doc_text
            metrics[name] = documented
            if not documented:
                diagnostics.append({
                    "rel": rel, "line": line, "rule": RULE_METRIC,
                    "message": f"metric literal \"{name}\" is not documented "
                               f"in {doc_rel}; every exported instrument "
                               "family must appear in the catalog",
                })
        for line, name in catalog_names(doc_text):
            if name in seen or any(name.startswith(prefix) and
                                   name[len(prefix):] in suffixes
                                   for prefix in seen):
                continue
            diagnostics.append({
                "rel": doc_rel, "line": line, "rule": RULE_METRIC,
                "message": f"catalog row `{name}` names no instrument: no "
                           "src/ literal (or prefix + suffix literal pair) "
                           "spells it; delete the row with the instrument",
            })

    gating = {}
    try:
        cmake_text = (root / cmake_rel).read_text(encoding="utf-8")
        presets = json.loads((root / presets_rel).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as err:
        diagnostics.append({"rel": presets_rel, "line": 1,
                            "rule": RULE_GATING,
                            "message": f"cannot load test/preset data: {err}"})
        cmake_text = None
    if cmake_text is not None:
        filters = sanitizer_filters(presets)
        for want in SANITIZER_PRESETS:
            if want not in filters:
                diagnostics.append({
                    "rel": presets_rel, "line": 1, "rule": RULE_GATING,
                    "message": f"sanitizer preset `{want}` has no label "
                               "include filter",
                })
        for name, (labels, libs) in sorted(harvest_tests(cmake_text).items()):
            if not libs & CONCURRENCY_LIBS:
                continue
            missing = [p for p, rx in sorted(filters.items())
                       if not any(re.search(rx, lb) for lb in labels)]
            gating[name] = missing
            if missing:
                diagnostics.append({
                    "rel": cmake_rel, "line": 1, "rule": RULE_GATING,
                    "message": f"test `{name}` links "
                               f"{', '.join(sorted(libs & CONCURRENCY_LIBS))}"
                               f" but is not matched by the label filter of "
                               f"preset(s): {', '.join(missing)} in "
                               f"{presets_rel}; concurrency-heavy suites "
                               "must run under all sanitizers",
                })

    return {"metrics": metrics, "gating": gating,
            "diagnostics": diagnostics}
