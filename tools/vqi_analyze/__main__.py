"""CLI driver for vqi_analyze. See package docstring for the pass list.

Exit codes: 0 clean, 1 diagnostics found, 2 usage/internal error.
"""

import argparse
import json
import sys
from pathlib import Path

from . import blocking, catalogs, condvar, conventions, layering, lock_order
from . import model as model_mod
from .cxx import CXX_SUFFIXES

PASS_NAMES = ("lock-order", "blocking", "condvar", "layering", "catalogs",
              "conventions")
SCAN_DIRS = ("src", "tests", "tools", "bench", "examples")


def discover_files(root):
    rels = []
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in CXX_SUFFIXES:
                rels.append(p.relative_to(root).as_posix())
    return rels


def render(diag):
    return f"{diag['rel']}:{diag['line']}: [{diag['rule']}] {diag['message']}"


def vet_report(path, passes):
    """Prints the findings of `passes` in a report a full run wrote with
    --json, so several per-pass checks share one parse. Exit code as for a
    run of those passes; 2 when the report is unreadable or lacks a pass."""
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        print(f"vqi_analyze: cannot read report {path}: {e}", file=sys.stderr)
        return 2
    diagnostics = []
    for name in passes:
        entry = report.get("passes", {}).get(name)
        if entry is None:
            print(f"vqi_analyze: report {path} holds no {name} pass",
                  file=sys.stderr)
            return 2
        diagnostics += entry["diagnostics"]
    for d in diagnostics:
        print(render(d))
    print(f"vqi_analyze: report {path}, passes: {', '.join(passes)}, "
          f"{len(diagnostics)} finding(s)", file=sys.stderr)
    return 1 if diagnostics else 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="vqi_analyze",
        description="whole-repo concurrency, layering and conventions "
                    "analyzer")
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--pass", dest="passes", action="append",
                    choices=PASS_NAMES, metavar="PASS",
                    help=f"run only the given pass(es); one of {PASS_NAMES}")
    ap.add_argument("--json", dest="json_out",
                    help="write the full machine-readable report here")
    ap.add_argument("--from-report", metavar="JSON",
                    help="report the selected passes' findings from a "
                         "report an earlier run wrote with --json, "
                         "without parsing the sources again")
    ap.add_argument("--write-baseline", action="store_true",
                    help="regenerate tools/vqi_analyze/lock_order.expected "
                         "from the discovered edges")
    ap.add_argument("--self-test", action="store_true",
                    help="plant violations of every rule in a scratch "
                         "tree and assert every pass catches them")
    args = ap.parse_args(argv)

    if args.self_test:
        from . import selftest
        return selftest.run()
    if args.from_report:
        return vet_report(args.from_report, list(args.passes or PASS_NAMES))

    root = Path(args.root)
    if not (root / "src").is_dir():
        print(f"vqi_analyze: no src/ under {root}", file=sys.stderr)
        return 2
    passes = list(args.passes or PASS_NAMES)
    baseline_path = root / "tools" / "vqi_analyze" / "lock_order.expected"

    rels = discover_files(root)
    model = model_mod.build_model(root, rels)

    # Replay once; lock-order and blocking both consume the result. The
    # mutex primitives themselves are exempt (they wrap std primitives).
    edges, locked_calls = [], []
    for facts, fn in model.functions:
        if not facts.rel.startswith("src/"):
            continue
        if facts.rel == "src/common/mutex.h":
            continue
        es, cs = model.replay(facts, fn)
        edges.extend(es)
        locked_calls.extend(cs)

    used_waivers = set()
    report = {"root": str(root), "files_scanned": len(rels),
              "unresolved_acquires": [
                  {"file": r, "line": l, "expr": e}
                  for (r, l, e) in model.unresolved_acquires],
              "unresolved_calls": model.unresolved_calls,
              "passes": {}}
    diagnostics = []

    if "lock-order" in passes:
        r = lock_order.run(edges, baseline_path, write=args.write_baseline)
        report["passes"]["lock-order"] = r
        diagnostics += r["diagnostics"]
    if "blocking" in passes:
        r = blocking.run(model, locked_calls, used_waivers)
        report["passes"]["blocking"] = r
        diagnostics += r["diagnostics"]
    if "condvar" in passes:
        wanted = {rel for rel in rels
                  if (rel.startswith("src/") or rel.startswith("tests/"))
                  and rel != "src/common/mutex.h"}
        r = condvar.run(model, wanted, used_waivers)
        report["passes"]["condvar"] = r
        diagnostics += r["diagnostics"]
    if "layering" in passes:
        r = layering.run(model.files)
        report["passes"]["layering"] = r
        diagnostics += r["diagnostics"]
    if "catalogs" in passes:
        r = catalogs.run(root, model.files)
        report["passes"]["catalogs"] = r
        diagnostics += r["diagnostics"]
    if "conventions" in passes:
        r = conventions.run(model.files)
        report["passes"]["conventions"] = r
        diagnostics += r["diagnostics"]

    # A waiver that suppresses nothing is stale and must go. Judged per
    # rule, so a pass-filtered run only vets the waivers its passes own, and
    # the finding belongs to the pass that owns the waiver's rule.
    waiver_owner = {}
    if "blocking" in passes:
        waiver_owner.update((rule, "blocking") for rule in blocking.RULES)
    if "condvar" in passes:
        waiver_owner[condvar.RULE] = "condvar"
    for rel, facts in sorted(model.files.items()):
        for line, (rule, _just) in sorted(facts.waivers.items()):
            owner = waiver_owner.get(rule)
            if owner is not None and (rel, line) not in used_waivers:
                diag = {
                    "rel": rel, "line": line, "rule": "unused-waiver",
                    "message": f"waiver allow({rule}) suppresses "
                               "nothing; remove it",
                }
                diagnostics.append(diag)
                report["passes"][owner]["diagnostics"].append(diag)

    report["diagnostics"] = diagnostics
    if args.json_out:
        Path(args.json_out).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")

    for d in diagnostics:
        print(render(d))
    n_edges = len(report["passes"].get(
        "lock-order", {}).get("edges", []))
    print(f"vqi_analyze: {len(rels)} files, passes: {', '.join(passes)}, "
          f"{n_edges} lock-order edges, {len(diagnostics)} finding(s)",
          file=sys.stderr)
    return 1 if diagnostics else 0


if __name__ == "__main__":
    sys.exit(main())
