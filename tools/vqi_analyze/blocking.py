"""Pass: blocking calls under a lock.

Flags calls from a curated blocklist made while any vqi::Mutex is held:
thread-pool Submit/Wait (can block on a full queue, and a pool that feeds
back into the held lock deadlocks), sleeps, raw socket I/O, and index builds
(seconds of CPU on large graphs): an index class's Build* method, or a
CollectionIndex constructor, which indexes every graph of a collection. A
site can be waived with `// vqi-analyze: allow(<rule>) <justification>` on
the same line or the line above — the justification text is mandatory.
"""

import re

SLEEP_NAMES = {"sleep_for", "sleep_until", "usleep", "nanosleep", "SleepMs"}
SOCKET_NAMES = {"send", "recv", "read", "write", "poll", "accept", "connect",
                "select", "sendmsg", "recvmsg", "recvfrom", "sendto"}
POOL_QUAL_RE = re.compile(r"(?:^|::)ThreadPool::(Submit|Wait)$")
INDEX_QUAL_RE = re.compile(
    r"(?:MatchIndex|CandidateIndex|CollectionIndex|SuggestionIndex)"
    r"::\w*(?:Build|Rebuild)\w*$|(?:^|::)CollectionIndex::CollectionIndex$")
INDEX_NAME_RE = re.compile(r"^(?:Build|Rebuild)\w*Index\w*$")

RULES = ("pool-submit-under-lock", "sleep-under-lock", "socket-under-lock",
         "index-build-under-lock")


def classify(obj, name, qual):
    """→ (rule id, human target) for a blocklisted call, else None."""
    qual = qual or ""
    if POOL_QUAL_RE.search(qual):
        return "pool-submit-under-lock", qual
    if name in SLEEP_NAMES:
        return "sleep-under-lock", (qual or name)
    if obj == "::" and name in SOCKET_NAMES:
        return "socket-under-lock", "::" + name
    if INDEX_QUAL_RE.search(qual) or INDEX_NAME_RE.match(name):
        return "index-build-under-lock", (qual or name)
    return None


def waiver_for(files, rel, line, rule):
    """(kind, justification): kind is 'ok', 'nojust', or None."""
    facts = files.get(rel)
    if facts is None:
        return None, ""
    for at in (line, line - 1):
        w = facts.waivers.get(at)
        if w and w[0] == rule:
            return ("ok" if w[1] else "nojust"), w[1]
    return None, ""


def run(model, locked_calls, used_waivers):
    """Checks every call made under a lock, both directly and through the
    transitive closure of resolved (named) callees."""
    reach = model.compute_reach_summaries(classify)
    files = model.files
    diagnostics = []
    waived = []
    for call in locked_calls:
        hits = []
        direct = classify(call.obj, call.name, call.qual)
        if direct is not None:
            hits.append((direct[0], direct[1], None))
        elif call.qual is not None:
            indirect = set()
            for d in model.callee_definitions(call.qual):
                indirect |= reach.get(id(d), set())
            for rule, target in sorted(indirect):
                hits.append((rule, target, call.qual))
        for rule, target, via in hits:
            kind, just = waiver_for(files, call.rel, call.line, rule)
            if kind == "ok":
                waived.append({"file": call.rel, "line": call.line,
                               "rule": rule, "justification": just})
                used_waivers.add((call.rel, call.line))
                used_waivers.add((call.rel, call.line - 1))
                continue
            held = ", ".join(call.held)
            msg = f"blocking call {target} while holding {held}"
            if via is not None:
                msg += f" (reached through {via})"
            msg += f" in {call.func}"
            if kind == "nojust":
                msg += "; waiver present but missing a justification"
            diagnostics.append({"rel": call.rel, "line": call.line,
                                "rule": rule, "message": msg})
    return {"diagnostics": diagnostics, "waived": waived}
