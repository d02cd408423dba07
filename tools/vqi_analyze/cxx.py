"""Lightweight C++ fact extraction for vqi_analyze.

This is not a compiler. It is a line/brace-level scanner tuned to this
repository's strict conventions (vqi::Mutex members, `MutexLock l(&expr);`
RAII acquisition, VQLIB_* annotations, two-space indent, one statement per
idea), which is what makes a dependency-free cross-TU analysis tractable.
Anything the scanner cannot resolve is skipped and counted, never guessed
into a diagnostic — the passes only report facts they resolved.

Per file it produces a FileFacts with:
  * classes (nesting-qualified), their Mutex/CondVar members, other member
    declarations (for receiver-type resolution), and method declarations
    with any VQLIB_REQUIRES annotations;
  * function definitions (including named lambdas as nested functions) with
    an ordered event stream: block open/close, MutexLock acquisitions,
    calls with receiver text, CondVar waits, local variable declarations;
  * quoted #include edges, vqi_* string literals, and
    `// vqi-analyze: allow(rule) justification` waivers;
  * the file's lines twice over: raw, and with comments and string contents
    blanked column for column (for the per-line conventions pass).
"""

import re
from pathlib import Path

CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}

KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "catch", "new",
    "delete", "throw", "case", "do", "else", "goto", "alignof", "alignas",
    "decltype", "noexcept", "static_assert", "defined", "not", "and", "or",
    "constexpr", "requires", "co_await", "co_return", "co_yield",
}
NON_MEMBER_TYPE_WORDS = {
    "class", "struct", "enum", "union", "friend", "using", "typedef",
    "return", "public", "private", "protected", "template", "typename",
    "operator", "static_assert", "case", "goto", "else",
}
BLOCK_HEAD_KEYWORDS = ("if", "for", "while", "switch", "do", "else", "try",
                       "catch")
LOOP_HEAD_RE = re.compile(r"\b(?:while|for)\s*\(|\bdo\b")

ACQUIRE_RE = re.compile(r"\b(?:vqi\s*::\s*)?MutexLock\s+\w+\s*\(\s*&\s*([^;]+?)\s*\)\s*;")
WAIT_RE = re.compile(r"([A-Za-z_][\w\[\]\(\)\.]*(?:->)?[\w\[\]\(\)\.]*?)\s*(?:\.|->)\s*(Wait|WaitFor)\s*\(")
CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\(")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
METRIC_LITERAL_RE = re.compile(r'"(vqi_[a-z_]+)"')
# Name suffixes appended to a metric prefix literal ("vqi_cache" +
# "_hits_total").
SUFFIX_LITERAL_RE = re.compile(r'"(_[a-z][a-z_]*)"')
# Any rule text is captured: the conventions pass reports one that names no
# waivable rule instead of letting it suppress nothing silently.
WAIVER_RE = re.compile(r"//\s*vqi-analyze:\s*allow\(([^)]*)\)\s*(.*)$")
REQUIRES_RE = re.compile(r"\bVQLIB_REQUIRES\s*\(([^)]*)\)")
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s+)?(?:vqi\s*::\s*)?(Mutex|CondVar)\s+"
    r"(\w+)\s*(?:VQLIB_\w+(?:\([^)]*\))?\s*)*;")
MEMBER_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s+)?(?:const\s+)?"
    r"([A-Za-z_][\w:]*(?:<.*>)?)\s*[&\*]?\s+(\w+)\s*"
    r"(?:=[^;]*|\{[^;]*\})?\s*(?:VQLIB_\w+(?:\([^)]*\))?\s*)*;")
METHOD_DECL_RE = re.compile(
    r"([A-Za-z_~][\w]*)\s*\([^;{}]*\)\s*(?:const)?\s*"
    r"((?:VQLIB_\w+\([^)]*\)\s*)*)\s*;")
LOCAL_DECL_RE = re.compile(
    r"^\s*(?:const\s+)?([A-Za-z_][\w:]*(?:<[^;={]*>)?)\s*[&\*]?\s+"
    r"(\w+)\s*(=|;|\()")
MAKE_SMART_RE = re.compile(r"std\s*::\s*make_(?:shared|unique)\s*<\s*([\w:]+)")
LAMBDA_DECL_RE = re.compile(r"\b(?:const\s+)?auto&?\s+(\w+)\s*=\s*\[")
CLASS_HEAD_RE = re.compile(r"^\s*(?:template\s*<[^;{]*>\s*)?(?:class|struct)\s+"
                           r"(?:VQLIB_\w+(?:\([^)]*\))?\s+)*([\w:]+)")
NAMESPACE_HEAD_RE = re.compile(r"^\s*(?:inline\s+)?namespace\s+([\w:]*)")
FUNC_NAME_RE = re.compile(r"([A-Za-z_~][\w:~]*)\s*\($")

CLASS_TYPE_TOKEN_RE = re.compile(r"[A-Za-z_][\w:]*")


def _blank_escape(text, i):
    """Blanks the escape starting at text[i] (a backslash) inside a literal.
    A backslash-newline is a line continuation: its newline is kept."""
    if i + 1 >= len(text):
        return " "
    return " \n" if text[i + 1] == "\n" else "  "


def _ends_in_number(out):
    """True when the stripped text so far ends inside a numeric literal: a
    run of letters, digits, dots and separators that starts with a digit.
    Literal contents are already blanked, so they never look like one."""
    j = len(out)
    while j > 0:
        ch = out[j - 1]
        if ch.isalnum() or ch == "." or (ch == "'" and j > 1
                                         and out[j - 2].isalnum()):
            j -= 1
        else:
            break
    return j < len(out) and out[j].isdigit()


def strip_comments_and_strings(text):
    """Blanks comment bodies and string/char literal contents with spaces,
    preserving line structure, columns and the enclosing quote characters."""
    out = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW = range(6)
    state = NORMAL
    raw_delim = ""
    while i < n:
        c = text[i]
        if state == NORMAL:
            if c == "/" and text[i:i + 2] == "//":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == "/" and text[i:i + 2] == "/*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal R"delim( ... )delim"
                if i > 0 and text[i - 1] == "R" and (i < 2 or not text[i - 2].isalnum()):
                    m = re.match(r'"([^(\s]*)\(', text[i:])
                    if m:
                        raw_delim = ")" + m.group(1) + '"'
                        state = RAW
                        out.append('"')
                        i += 1
                        continue
                state = STRING
                out.append(c)
                i += 1
                continue
            if c == "'":
                # A digit separator (1'000, 0xFF'FF) continues a number; it
                # does not open a char literal (u8'a' starts with a letter).
                if (i + 1 < n and text[i + 1].isalnum()
                        and _ends_in_number(out)):
                    out.append(c)
                    i += 1
                    continue
                state = CHAR
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and text[i:i + 2] == "*/":
                state = NORMAL
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
            i += 1
        elif state == STRING:
            if c == "\\":
                out.append(_blank_escape(text, i))
                i += 2
                continue
            # A literal cannot span a raw newline: ending it there keeps one
            # stray quote from blanking the lines after it.
            if c == '"' or c == "\n":
                state = NORMAL
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == CHAR:
            if c == "\\":
                out.append(_blank_escape(text, i))
                i += 2
                continue
            if c == "'" or c == "\n":
                state = NORMAL
                out.append(c)
            else:
                out.append(" ")
            i += 1
        else:  # RAW
            if text.startswith(raw_delim, i):
                state = NORMAL
                out.append(" " * (len(raw_delim) - 1) + '"')
                i += len(raw_delim)
                continue
            out.append(c if c == "\n" else " ")
            i += 1
    return "".join(out)


class Scope:
    __slots__ = ("kind", "name", "head", "line", "saved_head", "function")

    def __init__(self, kind, name="", head="", line=0, saved_head="",
                 function=None):
        self.kind = kind      # namespace | class | function | block | expr | other
        self.name = name
        self.head = head
        self.line = line
        self.saved_head = saved_head
        self.function = function  # FunctionFacts for kind == "function"


class FunctionFacts:
    """One function (or named/anonymous lambda) definition."""

    def __init__(self, qualname, class_ctx, params_text, requires_exprs,
                 rel, line, parent=None):
        self.qualname = qualname
        self.class_ctx = class_ctx          # nesting-qualified class or ""
        self.params_text = params_text
        self.requires_exprs = requires_exprs
        self.rel = rel
        self.line = line
        self.parent = parent                # enclosing FunctionFacts or None
        self.events = []                    # ordered (kind, depth, line, *payload)
        self.lambdas = {}                   # name -> FunctionFacts

    def param_types(self):
        out = {}
        depth = 0
        part = []
        parts = []
        for ch in self.params_text:
            if ch in "<([{":
                depth += 1
            elif ch in ">)]}":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append("".join(part))
                part = []
            else:
                part.append(ch)
        parts.append("".join(part))
        for p in parts:
            p = p.strip()
            if not p:
                continue
            m = re.match(r"(?:const\s+)?([A-Za-z_][\w:]*(?:<[^=]*>)?)\s*"
                         r"[&\*]*\s*(\w+)\s*(?:=.*)?$", p)
            if m:
                out[m.group(2)] = m.group(1)
        return out


class ClassFacts:
    def __init__(self, qualname, rel, line):
        self.qualname = qualname
        self.rel = rel
        self.line = line
        self.mutex_members = []    # (name, line)
        self.condvar_members = []  # (name, line)
        self.member_types = {}     # member name -> type text
        self.method_requires = {}  # method name -> [requires expr strings]
        self.method_names = set()


class FileFacts:
    def __init__(self, rel):
        self.rel = rel
        self.classes = []          # ClassFacts in file order
        self.functions = []        # FunctionFacts (top-level and lambdas)
        self.includes = []         # (line, target)
        self.metric_literals = []  # (line, name)
        self.suffix_literals = []  # "_suffix" names
        self.waivers = {}          # line -> (rule, justification)
        self.raw_lines = []        # the file's text, line by line
        self.code_lines = []       # same, comments and strings blanked


def _statement_head(buf):
    """Collapses the statement text accumulated before a `{`."""
    return " ".join(buf.split())[-500:]


def _last_token(head):
    m = re.search(r"([A-Za-z_]\w*)\s*$", head)
    return m.group(1) if m else ""


def _classify_brace(head):
    """Returns scope kind for a `{` given the statement head before it."""
    stripped = head.strip()
    if not stripped:
        return "block"
    if re.match(r"(?:inline\s+)?namespace\b[\w\s:]*$", stripped):
        return "namespace"
    first = re.match(r"[A-Za-z_]\w*", stripped)
    first_word = first.group(0) if first else ""
    if first_word in ("enum", "union"):
        return "other"
    if CLASS_HEAD_RE.match(stripped) and not stripped.rstrip().endswith(")") \
            and "=" not in stripped:
        return "class"
    last = _last_token(stripped)
    if last in ("else", "do", "try"):
        return "block"
    return None  # caller decides via _function_name_of


_TRAILING_QUALIFIER_RE = re.compile(
    r"(?:VQLIB_\w+\s*(?:\([^()]*\))?|const|noexcept(?:\s*\([^()]*\))?|"
    r"override|final|mutable|->\s*[\w:<>&\s]+)\s*$")


def _function_name_of(head):
    """What does this `{` belong to?  Returns (name, is_lambda):
    ("Foo", False) for a function/control head `...Foo(...) {`,
    ("run_leg", True) / ("", True) for a (named/anonymous) lambda body,
    ("", False) when the head is not call-shaped."""
    s = head.strip()
    # Strip trailing qualifiers/annotations until fixpoint: `) const VQLIB_...`
    while True:
        before = s
        m = _TRAILING_QUALIFIER_RE.search(s)
        if m and m.start() > 0:
            s = s[:m.start()].strip()
        if s == before:
            break
    # Lambda body: the brace directly follows `[...]` or `[...] (params)`.
    if s.endswith("]"):
        lam = LAMBDA_DECL_RE.search(head)
        return (lam.group(1) if lam else ""), True
    if s.endswith(")"):
        depth = 0
        i = len(s) - 1
        while i >= 0:
            if s[i] == ")":
                depth += 1
            elif s[i] == "(":
                depth -= 1
                if depth == 0:
                    break
            i -= 1
        if i >= 0 and s[:i].rstrip().endswith("]"):
            lam = LAMBDA_DECL_RE.search(head)
            return (lam.group(1) if lam else ""), True
    if not s.endswith(")"):
        return "", False
    # Function or control head: the identifier owning the FIRST top-level
    # '(' (last-paren logic would misattribute ctor-init members:
    # `Ctor(...) : pool_(n) {`).
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            if depth == 0:
                m = re.search(r"([A-Za-z_~][\w:~]*)\s*$", s[:i])
                return (m.group(1) if m else ""), False
            depth += 1
        elif ch == ")":
            depth -= 1
    return "", False


class FileScanner:
    """Single pass over one preprocessed file producing FileFacts."""

    def __init__(self, rel, raw_text):
        self.rel = rel
        self.facts = FileFacts(rel)
        self.facts.raw_lines = raw_text.splitlines()
        self.facts.code_lines = \
            strip_comments_and_strings(raw_text).splitlines()
        self.stack = []  # Scope stack
        self.head_buf = []
        self.anon_counter = 0

    # -- context helpers ---------------------------------------------------

    def current_function(self):
        for scope in reversed(self.stack):
            if scope.kind == "function":
                return scope.function
        return None

    def current_class(self):
        for scope in reversed(self.stack):
            if scope.kind == "class":
                return scope.name
            if scope.kind == "function":
                # out-of-line method: class from its qualified name
                fn = scope.function
                if fn.class_ctx:
                    return fn.class_ctx
        return ""

    def class_facts_for(self, qualname):
        for c in self.facts.classes:
            if c.qualname == qualname:
                return c
        return None

    def block_depth_in_function(self):
        depth = 0
        for scope in reversed(self.stack):
            if scope.kind == "function":
                return depth
            depth += 1
        return depth

    # -- scanning ----------------------------------------------------------

    def scan(self):
        # Waivers, includes and metric literals come from the raw lines so
        # comments and string literals are visible.
        for lineno, raw in enumerate(self.facts.raw_lines, start=1):
            m = WAIVER_RE.search(raw)
            if m:
                self.facts.waivers[lineno] = (m.group(1), m.group(2).strip())
            m = INCLUDE_RE.match(raw)
            if m:
                self.facts.includes.append((lineno, m.group(1)))
            for lit in METRIC_LITERAL_RE.finditer(raw):
                self.facts.metric_literals.append((lineno, lit.group(1)))
            for lit in SUFFIX_LITERAL_RE.finditer(raw):
                self.facts.suffix_literals.append(lit.group(1))

        in_directive = False
        for lineno, line in enumerate(self.facts.code_lines, start=1):
            if in_directive or re.match(r"\s*#", line):
                in_directive = line.rstrip().endswith("\\")
                continue  # preprocessor (incl. continuation lines)
            self._scan_line(line, lineno)
        return self.facts

    def _scan_line(self, line, lineno):
        i, n = 0, len(line)
        seg_start = 0
        while i < n:
            c = line[i]
            if c == "{":
                self.head_buf.append(line[seg_start:i])
                self._open_brace(lineno)
                seg_start = i + 1
            elif c == "}":
                self._statement(line[seg_start:i], lineno)
                self._close_brace(lineno)
                seg_start = i + 1
            elif c == ";":
                self.head_buf.append(line[seg_start:i + 1])
                stmt = _statement_head("".join(self.head_buf))
                in_expr = any(s.kind == "expr" for s in self.stack)
                # A `;` inside an unclosed control-head paren group is part
                # of the head (`for (init; cond; step)`): keep accumulating.
                if re.match(r"\s*(?:for|while|if|switch)\s*\(", stmt) and \
                        stmt.count("(") > stmt.count(")"):
                    pass
                else:
                    if not in_expr:
                        self._statement(stmt, lineno)
                    self.head_buf = []
                seg_start = i + 1
            i += 1
        if seg_start < n:
            self.head_buf.append(line[seg_start:n] + "\n")

    def _open_brace(self, lineno):
        head = _statement_head("".join(self.head_buf))
        head = re.sub(r"^(?:(?:public|private|protected)\s*:\s*)+", "", head)
        kind = _classify_brace(head)
        fn = self.current_function()
        if kind is None:
            name, is_lambda = _function_name_of(head)
            if is_lambda:
                # The statement containing the lambda continues around it;
                # harvest the events accumulated before the introducer so a
                # call like `pool_.Submit([&] { ... })` still records Submit.
                if fn is not None:
                    intro = head.rfind("[")
                    self._statement(head[:intro] if intro >= 0 else head,
                                    lineno)
                self._push_lambda(name, head, lineno, fn)
                self.head_buf = []
                return
            if name in BLOCK_HEAD_KEYWORDS or name in KEYWORDS:
                kind = "block"
            elif name and fn is not None:
                # Call-shaped head inside a function body: a plain block is
                # the safe classification for scope tracking.
                kind = "block"
            elif name:
                self._push_function(name, head, lineno)
                self.head_buf = []
                return
            elif fn is None and head.strip().endswith(")"):
                # Call-shaped head we could not name (operator overloads):
                # contain the body in an anonymous function.
                self._push_function(f"<unnamed@{lineno}>", head, lineno)
                self.head_buf = []
                return
            else:
                kind = "expr"
        if kind == "namespace":
            m = NAMESPACE_HEAD_RE.match(head.strip())
            self.stack.append(Scope("namespace", m.group(1) if m else "",
                                    head, lineno))
        elif kind == "class":
            m = CLASS_HEAD_RE.match(head.strip())
            name = m.group(1) if m else ""
            name = re.split(r"[:<\s]", name)[0] if "::" not in name else name
            outer = self.current_class()
            qual = f"{outer}::{name}" if outer and "::" not in name else name
            self.stack.append(Scope("class", qual, head, lineno))
            self.facts.classes.append(ClassFacts(qual, self.rel, lineno))
        elif kind == "expr":
            self.stack.append(Scope("expr", "", head, lineno,
                                    saved_head="".join(self.head_buf)))
        else:
            if fn is not None and kind == "block":
                depth = self.block_depth_in_function()
                # Range-for introduces a loop variable the body will use.
                rf = re.search(r"\bfor\s*\(\s*(?:const\s+)?"
                               r"([\w:<>]+)\s*[&\*]*\s+(\w+)\s*:\s*([^)]+)\)",
                               head)
                if rf:
                    t = rf.group(1)
                    t = "=" + rf.group(3).strip() if t == "auto" else t
                    fn.events.append(("local", depth, lineno, t,
                                      rf.group(2)))
                # A control head's condition runs in the enclosing scope:
                # `if (budget_.TryConsume()) {` must record the call just
                # like a freestanding statement would.
                self._harvest_calls(fn, head, lineno, depth)
                fn.events.append(("open", depth, lineno, head))
            self.stack.append(Scope(kind, "", head, lineno))
        self.head_buf = []

    def _push_function(self, name, head, lineno):
        class_ctx = self.current_class()
        if "::" in name:
            cls = name.rsplit("::", 1)[0]
            class_ctx = cls
            qualname = name
        else:
            qualname = f"{class_ctx}::{name}" if class_ctx else name
        params = self._params_from_head(head)
        requires = []
        for m in REQUIRES_RE.finditer(head):
            requires.extend(a.strip() for a in m.group(1).split(",") if a.strip())
        fn = FunctionFacts(qualname, class_ctx, params, requires, self.rel,
                           lineno, parent=None)
        self.facts.functions.append(fn)
        self.stack.append(Scope("function", qualname, head, lineno,
                                function=fn))

    def _push_lambda(self, name, head, lineno, enclosing):
        if not name:
            self.anon_counter += 1
            name = f"<lambda#{self.anon_counter}>"
        base = enclosing.qualname if enclosing else "<file>"
        qualname = f"{base}::{name}"
        params = self._params_from_head(head)
        fn = FunctionFacts(qualname, enclosing.class_ctx if enclosing else "",
                           params, [], self.rel, lineno, parent=enclosing)
        self.facts.functions.append(fn)
        if enclosing is not None and not name.startswith("<"):
            enclosing.lambdas[name] = fn
        self.stack.append(Scope("function", qualname, head, lineno,
                                function=fn))

    @staticmethod
    def _params_from_head(head):
        """Text of the last top-level (...) group in the head."""
        depth = 0
        end = -1
        for i in range(len(head) - 1, -1, -1):
            c = head[i]
            if c == ")":
                if depth == 0:
                    end = i
                depth += 1
            elif c == "(":
                depth -= 1
                if depth == 0 and end >= 0:
                    return head[i + 1:end]
        return ""

    def _close_brace(self, lineno):
        if not self.stack:
            return
        scope = self.stack.pop()
        if scope.kind == "expr":
            self.head_buf = [scope.saved_head + " <expr> "]
            return
        fn = self.current_function()
        if scope.kind == "block" and fn is not None:
            fn.events.append(("close", self.block_depth_in_function() + 1,
                              lineno))
        if scope.kind == "function" and scope.function is not None:
            scope.function.events.append(("end", 0, lineno))
        self.head_buf = []

    # -- statements --------------------------------------------------------

    def _statement(self, stmt, lineno):
        stmt = " ".join(stmt.split())
        if not stmt:
            return
        fn = self.current_function()
        if fn is None:
            cls = self.current_class()
            if cls:
                self._class_member_statement(cls, stmt, lineno)
            return
        depth = self.block_depth_in_function()

        m = ACQUIRE_RE.search(stmt + ";")
        if m:
            fn.events.append(("acquire", depth, lineno, m.group(1).strip()))

        m = LOCAL_DECL_RE.match(stmt)
        if m and m.group(1) not in KEYWORDS:
            type_text = m.group(1)
            if type_text == "auto":
                sm = MAKE_SMART_RE.search(stmt)
                if sm:
                    type_text = sm.group(1)
                else:
                    # `auto& x = <member chain>;` — keep the initializer so
                    # the model can resolve the chain's type lazily.
                    rhs = re.match(r"^[^=]*=\s*([^;]+);?$", stmt)
                    type_text = "=" + rhs.group(1).strip() if rhs else ""
            if type_text:
                fn.events.append(("local", depth, lineno, type_text,
                                  m.group(2)))

        self._harvest_calls(fn, stmt, lineno, depth)

    def _harvest_calls(self, fn, stmt, lineno, depth):
        """Wait and call events from one statement (or control head)."""
        for m in WAIT_RE.finditer(stmt):
            before = stmt[:m.start()]
            same_line_loop = bool(LOOP_HEAD_RE.search(before))
            fn.events.append(("wait", depth, lineno, m.group(1), m.group(2),
                              same_line_loop))
        for m in CALL_RE.finditer(stmt):
            name = m.group(1)
            if name in KEYWORDS or name == "MutexLock":
                continue
            prefix = stmt[:m.start()].rstrip()
            if prefix.endswith("::"):
                qual = re.search(r"([\w:]+)::$", prefix)
                obj = "::" + (qual.group(1) if qual else "")
            elif prefix.endswith(".") or prefix.endswith("->"):
                obj = self._receiver_text(prefix)
            else:
                obj = ""
            fn.events.append(("call", depth, lineno, obj, name))

    @staticmethod
    def _receiver_text(prefix):
        """Walks backward over an `a_[i]->b().c` receiver chain."""
        i = len(prefix)
        while i > 0:
            j = i
            if prefix.endswith("->", 0, i):
                j = i - 2
            elif prefix.endswith(".", 0, i):
                j = i - 1
            if j != i:
                i = j
                continue
            c = prefix[i - 1]
            if c in ")]":
                close, open_ = (")", "(") if c == ")" else ("]", "[")
                depth = 0
                k = i - 1
                while k >= 0:
                    if prefix[k] == close:
                        depth += 1
                    elif prefix[k] == open_:
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                if k < 0:
                    break
                i = k
                continue
            if c.isalnum() or c == "_":
                k = i - 1
                while k >= 0 and (prefix[k].isalnum() or prefix[k] == "_"):
                    k -= 1
                i = k + 1
                if i > 0 and prefix[i - 1] in ".)]" or \
                        prefix.endswith("->", 0, i):
                    continue
                break
            break
        return prefix[i:].strip()

    def _class_member_statement(self, cls, stmt, lineno):
        facts = self.class_facts_for(cls)
        if facts is None:
            return
        stmt = re.sub(r"^(?:(?:public|private|protected)\s*:\s*)+", "", stmt)
        m = MUTEX_MEMBER_RE.match(stmt + ";")
        if m:
            if m.group(1) == "Mutex":
                facts.mutex_members.append((m.group(2), lineno))
            else:
                facts.condvar_members.append((m.group(2), lineno))
            # Also a typed member: calls through it must resolve (or stay
            # unresolved), never fall back to a unique-name guess.
            facts.member_types[m.group(2)] = m.group(1)
            return
        dm = METHOD_DECL_RE.search(stmt + ";")
        if dm:
            name = dm.group(1)
            if name not in KEYWORDS:
                facts.method_names.add(name)
                reqs = []
                for rm in REQUIRES_RE.finditer(dm.group(2) or ""):
                    reqs.extend(a.strip() for a in rm.group(1).split(",")
                                if a.strip())
                if reqs:
                    facts.method_requires[name] = reqs
            return
        mm = MEMBER_DECL_RE.match(stmt + ";")
        if mm and mm.group(1) not in KEYWORDS and \
                mm.group(1) not in NON_MEMBER_TYPE_WORDS:
            facts.member_types[mm.group(2)] = mm.group(1)


def scan_file(root, rel):
    path = Path(root) / rel
    try:
        text = path.read_text(encoding="utf-8")
    except (UnicodeDecodeError, OSError):
        return FileFacts(rel)
    return FileScanner(rel, text).scan()
