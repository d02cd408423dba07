"""Pass: include-layering DAG for the whole tree.

The one home of the repo's include-layering rules: ONE declared total layer
order covering every src/ directory plus tools/ (the CLI). The rule:

  a file may include headers from its own directory, or from any directory
  of a strictly lower rank.

Same-rank cross-directory includes are violations (the ranks below put
independent subsystems — e.g. graph/ and obs/ — at the same level exactly
because neither may depend on the other). A directory missing from the
table is an error: growing the tree means declaring where the new
subsystem sits, and a quoted include must name its directory (`"x.h"`
alone is reported too). Directories in ALLOWED_INCLUDES are held to an explicit
list on top of the ranks, for layers that the order alone would let reach
too far. On top of the ranks, the pass runs SCC detection over the
file-level include graph, so a header cycle inside one directory is also
reported.
"""

# Rank 0 is the bottom. Every entry in one tuple is mutually independent.
LAYER_ORDER = (
    ("common",),
    ("graph", "obs", "tsquery"),
    ("truss", "layout"),
    ("match",),
    ("mining",),
    ("cluster",),
    ("metrics",),
    ("summary", "catapult"),
    ("midas", "modular"),
    ("tattoo",),
    ("vqi",),
    ("sim", "service"),
    ("shard",),
    ("net",),
    ("cli",),
)

# Directories that may include only their own headers plus the listed ones,
# whatever their rank. common/ needs no entry: rank 0 already allows nothing
# else. net/ and shard/ sit near the top, so the order alone would let them
# reach into the matcher (match/) or the interface model (vqi/): the wire
# layer sees only the serving and sharding APIs, and the router composes
# QueryServices over a partitioned collection without reaching behind them.
ALLOWED_INCLUDES = {
    "net": ("common", "obs", "service", "shard"),
    "shard": ("common", "obs", "graph", "service"),
}

RULE_ORDER = "layer-order"
RULE_ALLOWLIST = "layer-allowlist"
RULE_UNKNOWN = "layer-unknown"
RULE_CYCLE = "include-cycle"


def rank_table():
    table = {}
    for rank, dirs in enumerate(LAYER_ORDER):
        for d in dirs:
            table[d] = rank
    return table


def dir_of(rel):
    """Logical layer directory of a repo-relative path, or None."""
    parts = rel.split("/")
    if parts[0] == "src" and len(parts) >= 3:
        return parts[1]
    if parts[0] == "tools":
        return "cli"
    return None


def resolve_include(rel, target):
    """Maps a quoted include to a repo-relative path (the repo compiles with
    -I src, so `graph/graph.h` means `src/graph/graph.h`)."""
    if target.startswith("src/") or target.startswith("tools/"):
        return target
    return "src/" + target


def find_sccs(graph):
    """Iterative Tarjan; returns SCCs with more than one member."""
    index, low, on_stack = {}, {}, set()
    stack, sccs = [], []
    counter = [0]
    for start in sorted(graph):
        if start in index:
            continue
        work = [(start, iter(sorted(graph.get(start, ()))))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack.add(start)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in graph:
                    continue
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(graph.get(w, ())))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                if len(scc) > 1:
                    sccs.append(sorted(scc))
    return sccs


def run(files):
    table = rank_table()
    diagnostics = []
    include_graph = {}
    edges = []

    for rel, facts in sorted(files.items()):
        d_from = dir_of(rel)
        if d_from is None:
            continue
        if d_from not in table:
            diagnostics.append({
                "rel": rel, "line": 1, "rule": RULE_UNKNOWN,
                "message": f"directory `{d_from}` has no declared layer rank;"
                           " add it to LAYER_ORDER in"
                           " tools/vqi_analyze/layering.py",
            })
            continue
        include_graph.setdefault(rel, set())
        allowed = ALLOWED_INCLUDES.get(d_from)
        for line, target in facts.includes:
            inc_rel = resolve_include(rel, target)
            d_to = dir_of(inc_rel)
            if d_to is None:
                diagnostics.append({
                    "rel": rel, "line": line, "rule": RULE_UNKNOWN,
                    "message": f"include of `{target}` names no layer "
                               "directory; include headers by their "
                               "src/-relative path",
                })
                continue
            if inc_rel in files:
                include_graph[rel].add(inc_rel)
            if d_to == d_from:
                continue
            if allowed is not None and d_to not in allowed:
                diagnostics.append({
                    "rel": rel, "line": line, "rule": RULE_ALLOWLIST,
                    "message": f"`{d_from}` may include only its own headers"
                               " and " + ", ".join(f"`{d}/`" for d in allowed)
                               + f"; `{target}` is outside that list",
                })
            if d_to not in table:
                diagnostics.append({
                    "rel": rel, "line": line, "rule": RULE_UNKNOWN,
                    "message": f"include of `{target}`: directory `{d_to}` "
                               "has no declared layer rank",
                })
                continue
            edges.append((d_from, d_to))
            if table[d_to] >= table[d_from]:
                why = ("same-rank directories are independent by declaration"
                       if table[d_to] == table[d_from]
                       else "that inverts the declared layer order")
                diagnostics.append({
                    "rel": rel, "line": line, "rule": RULE_ORDER,
                    "message": f"layer violation: `{d_from}` (rank "
                               f"{table[d_from]}) includes `{target}` from "
                               f"`{d_to}` (rank {table[d_to]}); {why}",
                })

    for scc in find_sccs(include_graph):
        diagnostics.append({
            "rel": scc[0], "line": 1, "rule": RULE_CYCLE,
            "message": "include cycle: " + " <-> ".join(scc),
        })

    dir_edges = sorted({(a, b) for a, b in edges})
    return {
        "ranks": {d: r for d, r in sorted(table.items())},
        "directory_edges": [{"from": a, "to": b} for a, b in dir_edges],
        "diagnostics": diagnostics,
    }
