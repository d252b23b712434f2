"""Independent oracles for the strat benchmark.

Everything here is plain Python over the benchmark's own copy of each step
table and imports nothing from `strat`. Strategies, accepting conditions and
rational expressions are small tuples that the workload generator also
renders into `.ars` text, so the program and the oracles read the same
document from two independent descriptions of it.

Strategy nodes:   ("universal",) ("fail",) ("greatmost", order) ("maxlen", n)
                  ("restrict", labels) ("alternate", first, second)
                  ("intersect", children) ("unionP", l, r) ("unionC", l, r)
                  ("accept", child, condition)
Condition nodes:  ("word", rexp) ("len", op, n) ("at", obj) ("and", parts)
                  ("or", parts) ("not", part)
Rexp nodes:       ("sym", label) ("cat", parts) ("alt", parts) ("star", x)
                  ("plus", x) ("opt", x)
"""

from __future__ import annotations

import re
from collections import defaultdict, deque


class System:
    """A functional labelled step table: (object, label) -> target."""

    def __init__(self, objects, labels, steps):
        self.objects = tuple(objects)
        self.labels = tuple(labels)
        self.oi = {o: i for i, o in enumerate(self.objects)}
        self.li = {l: i for i, l in enumerate(self.labels)}
        self.delta = {(s, l): t for s, l, t in steps}
        self.out = {o: [] for o in self.objects}
        for (s, l), t in sorted(self.delta.items(), key=lambda kv: (self.oi[kv[0][0]], self.li[kv[0][1]])):
            self.out[s].append((l, t))
        self.code = {l: chr(0x100 + i) for i, l in enumerate(self.labels)}
        self._regex: dict = {}

    def steps(self):
        return [(s, l, t) for s in self.objects for l, t in self.out[s]]

    def walk(self, source, labels):
        """Visited objects of the walk, or None if some step is missing."""
        if source not in self.oi:
            return None
        out = [source]
        for l in labels:
            nxt = self.delta.get((out[-1], l))
            if nxt is None:
                return None
            out.append(nxt)
        return out

    def regex(self, rexp):
        key = repr(rexp)
        if key not in self._regex:
            self._regex[key] = re.compile(rexp_re(rexp, self.code))
        return self._regex[key]


# -- rendering ---------------------------------------------------------------

_MARK = {"star": "*", "plus": "+", "opt": "?"}


def rexp_text(node, prec=0):
    """Surface syntax with the fewest parentheses (alt < cat < postfix)."""
    kind = node[0]
    if kind == "sym":
        return node[1]
    if kind == "alt":
        body = " | ".join(rexp_text(p, 1) for p in node[1])
        return f"({body})" if prec > 0 else body
    if kind == "cat":
        body = " ".join(rexp_text(p, 2) for p in node[1])
        return f"({body})" if prec > 1 else body
    return rexp_text(node[1], 3) + _MARK[kind]


def rexp_re(node, code):
    """The same language as a Python regular expression over one char per label."""
    kind = node[0]
    if kind == "sym":
        return re.escape(code[node[1]])
    if kind == "cat":
        return "".join(f"(?:{rexp_re(p, code)})" for p in node[1])
    if kind == "alt":
        return "(?:" + "|".join(rexp_re(p, code) for p in node[1]) + ")"
    return f"(?:{rexp_re(node[1], code)})" + _MARK[kind]


def cond_text(node):
    kind = node[0]
    if kind == "word":
        return f"word({rexp_text(node[1])})"
    if kind == "len":
        return f"len {node[1]} {node[2]}"
    if kind == "at":
        return f"at({node[1]})"
    if kind in ("and", "or"):
        return f"{kind}({', '.join(cond_text(p) for p in node[1])})"
    return f"not({cond_text(node[1])})"


def strat_text(node):
    kind = node[0]
    if kind in ("universal", "fail"):
        return kind
    if kind == "greatmost":
        return f"greatmost({node[1]})"
    if kind == "maxlen":
        return f"maxlen({node[1]})"
    if kind == "restrict":
        return "restrict({" + ", ".join(node[1]) + "})"
    if kind == "alternate":
        return "alternate({" + ", ".join(node[1]) + "}; {" + ", ".join(node[2]) + "})"
    if kind == "intersect":
        return f"intersect({', '.join(strat_text(c) for c in node[1])})"
    if kind in ("unionP", "unionC"):
        return f"{kind}({strat_text(node[1])}, {strat_text(node[2])})"
    return f"accept({strat_text(node[1])}, {cond_text(node[2])})"


def document(system, orders=(), accepts=(), strategies=()):
    """`.ars` text: the system, then orders and the named accepts and strategies as text."""
    lines = ["ars {", f"  objects: {', '.join(system.objects)};", f"  labels: {', '.join(system.labels)};"]
    steps = system.steps()
    if steps:
        lines.append("  steps:")
        for i, (s, l, t) in enumerate(steps):
            lines.append(f"    ({s}, {l}, {t}){';' if i == len(steps) - 1 else ','}")
    else:
        lines.append("  steps: ;")
    lines.append("}")
    for name, pairs in orders:
        lines.append(f"order {name} {{")
        lines.extend(f"  {a} < {b};" for a, b in pairs)
        lines.append("}")
    for name, text in accepts:
        lines.append(f"accept {name} = {text};")
    for name, text in strategies:
        lines.append(f"strategy {name} = {text};")
    return "\n".join(lines) + "\n"


# -- strategy semantics --------------------------------------------------------


def order_closure(pairs):
    closure = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return frozenset(closure)


def memoryless(node):
    kind = node[0]
    if kind in ("universal", "fail", "greatmost", "restrict"):
        return True
    if kind in ("maxlen", "alternate", "unionC"):
        return False
    if kind == "intersect":
        return all(memoryless(c) for c in node[1])
    if kind == "unionP":
        return memoryless(node[1]) and memoryless(node[2])
    return memoryless(node[1])


def permitted(system, orders, node, labels, visited):
    """(defined, labels permitted next) at the trace `labels` visiting `visited`."""
    kind = node[0]
    outs = [l for l, _ in system.out[visited[-1]]]
    if kind == "universal":
        return True, frozenset(outs)
    if kind == "fail":
        return False, frozenset()
    if kind == "greatmost":
        if not outs:
            return False, frozenset()
        rel = orders[node[1]]
        return True, frozenset(l for l in outs if not any((l, m) in rel for m in outs))
    if kind == "maxlen":
        return True, frozenset(outs) if len(labels) < node[1] - 1 else frozenset()
    if kind == "restrict":
        return True, frozenset(l for l in outs if l in node[1])
    if kind == "alternate":
        first, second = set(node[1]), set(node[2])
        if not labels:
            return True, frozenset(l for l in outs if l in first)
        last = labels[-1]
        if last not in first and last not in second:
            return False, frozenset()
        want = (first if last in second else set()) | (second if last in first else set())
        return True, frozenset(l for l in outs if l in want)
    if kind == "intersect":
        results = [permitted(system, orders, c, labels, visited) for c in node[1]]
        if not all(d for d, _ in results):
            return False, frozenset()
        return True, frozenset.intersection(*(s for _, s in results))
    if kind == "unionP":
        results = [permitted(system, orders, c, labels, visited) for c in node[1:]]
        if not any(d for d, _ in results):
            return False, frozenset()
        return True, frozenset().union(*(s for _, s in results))
    if kind == "unionC":
        defined, merged = False, set()
        for child in node[1:]:
            obeyed = all(
                labels[i] in permitted(system, orders, child, labels[:i], visited[: i + 1])[1]
                for i in range(len(labels))
            )
            if obeyed:
                d, s = permitted(system, orders, child, labels, visited)
                if d:
                    defined = True
                    merged |= s
        return (True, frozenset(merged)) if defined else (False, frozenset())
    return permitted(system, orders, node[1], labels, visited)


def split_accept(node):
    """The base strategy under a top-level chain of accepts, and their conditions."""
    conds = []
    while node[0] == "accept":
        conds.append(node[2])
        node = node[1]
    return node, conds


def accepts(system, cond, labels, visited):
    kind = cond[0]
    if kind == "word":
        return system.regex(cond[1]).fullmatch("".join(system.code[l] for l in labels)) is not None
    if kind == "len":
        n, bound = len(labels), cond[2]
        return {"<": n < bound, "<=": n <= bound, "=": n == bound, ">=": n >= bound, ">": n > bound}[cond[1]]
    if kind == "at":
        return visited[-1] == cond[1]
    if kind == "and":
        return all(accepts(system, p, labels, visited) for p in cond[1])
    if kind == "or":
        return any(accepts(system, p, labels, visited) for p in cond[1])
    return not accepts(system, cond[1], labels, visited)


def support(system, orders, node, sources, depth):
    """Generated derivations of length 1..depth as (labels, visited) pairs."""
    cache = {} if memoryless(node) else None
    out = []
    frontier = [((), (s,)) for s in sources]
    for _ in range(depth):
        grown = []
        for labels, visited in frontier:
            head = visited[-1]
            if cache is not None and head in cache:
                allowed = cache[head]
            else:
                allowed = permitted(system, orders, node, labels, visited)[1]
                if cache is not None:
                    cache[head] = allowed
            for l, t in system.out[head]:
                if l in allowed:
                    grown.append((labels + (l,), visited + (t,)))
        out.extend(grown)
        frontier = grown
    return out


def accepted_set(system, orders, node, sources, depth):
    """{(source, labels): target} of the accepted bounded extension."""
    base, conds = split_accept(node)
    return {
        (v[0], labels): v[-1]
        for labels, v in support(system, orders, base, sources, depth)
        if all(accepts(system, c, labels, v) for c in conds)
    }


def count_walks(system, sources, depth, allowed=None):
    """Walks of length 1..depth from the sources, by DP over (object, length)."""
    ways = defaultdict(int)
    for s in set(sources):
        ways[s] += 1
    total = 0
    for _ in range(depth):
        nxt = defaultdict(int)
        for obj, n in ways.items():
            for l, t in system.out[obj]:
                if allowed is None or l in allowed[obj]:
                    nxt[t] += n
        total += sum(nxt.values())
        ways = nxt
    return total


def induced(system, orders, node):
    """Per object, the labels a memoryless strategy permits there."""
    return {o: permitted(system, orders, node, (), (o,))[1] for o in system.objects}


def cycle_reachable(system, allowed, source):
    """Whether a cycle of the sub-system `allowed` is reachable from source."""
    seen, queue = {source}, deque([source])
    while queue:
        cur = queue.popleft()
        for l, t in system.out[cur]:
            if l in allowed[cur] and t not in seen:
                seen.add(t)
                queue.append(t)
    indeg = {o: 0 for o in seen}
    for o in seen:
        for l, t in system.out[o]:
            if l in allowed[o]:
                indeg[t] += 1
    ready = [o for o, d in indeg.items() if d == 0]
    removed = 0
    while ready:
        o = ready.pop()
        removed += 1
        for l, t in system.out[o]:
            if l in allowed[o]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    ready.append(t)
    return removed < len(seen)


# -- closure laws -----------------------------------------------------------------


def missing_prefix(z):
    """Some strict prefix of a member that is not a member, or None."""
    for src, labels in z:
        for k in range(1, len(labels)):
            if (src, labels[:k]) not in z:
                return src, labels[:k]
    return None


def missing_factor(system, z):
    for src, labels in z:
        visited = system.walk(src, labels)
        for i in range(len(labels)):
            for j in range(i + 1, len(labels) + 1):
                if (i, j) != (0, len(labels)) and (visited[i], labels[i:j]) not in z:
                    return visited[i], labels[i:j]
    return None


def is_prefix_of_member(z, src, labels):
    n = len(labels)
    return any(s == src and len(w) > n and w[:n] == labels for s, w in z)


def is_factor_of_member(system, z, src, labels):
    n = len(labels)
    for s, w in z:
        visited = system.walk(s, w)
        for i in range(len(w) - n + 1):
            if visited[i] == src and w[i : i + n] == labels and (i, n) != (0, len(w)):
                return True
    return False


# -- parsing what the CLI prints ----------------------------------------------------


def parse_derivation(text):
    """'a -l1-> b -l2-> c' -> ('a', ('l1', 'l2'), ['a', 'b', 'c'])."""
    tokens = text.split(" ")
    labels, visited = [], [tokens[0]]
    for i in range(1, len(tokens), 2):
        mark = tokens[i]
        if not (mark.startswith("-") and mark.endswith("->")) or i + 1 >= len(tokens):
            raise ValueError(f"not a derivation: {text!r}")
        labels.append(mark[1:-2])
        visited.append(tokens[i + 1])
    return tokens[0], tuple(labels), visited


def parse_lasso(text):
    """'a -l-> b ( -m-> c -n-> b )^w' -> (source, stem labels, cycle labels)."""
    if not text.endswith(" )^w") or " ( " not in text:
        raise ValueError(f"not a lasso: {text!r}")
    stem_text, loop_text = text[: -len(" )^w")].split(" ( ", 1)
    src, stem, visited = parse_derivation(stem_text)
    _, cycle, _ = parse_derivation(visited[-1] + " " + loop_text)
    return src, stem, cycle


def parse_listing(out):
    """An `enumerate` text listing -> ({(source, labels)}, printed COUNT)."""
    lines = out.splitlines()
    if not lines or not lines[-1].startswith("COUNT="):
        raise ValueError("listing without COUNT line")
    members = set()
    for line in lines[:-1]:
        src, labels, _ = parse_derivation(line)
        members.add((src, labels))
    return members, int(lines[-1][len("COUNT="):])


# -- witness property -----------------------------------------------------------------


def verify_lasso(system, orders, node, horizon, text, sources=None, accept_fn=None):
    """None if `text` is a lasso witnessing non-closedness, else the reason it is not.

    The lasso must use steps the memoryless base permits, fit the horizon, and
    every pumped truncation stem . cycle^i (i = 1..max(1, horizon // |cycle|))
    must be unaccepted yet extend to an accepted derivation within depth
    horizon + |stem| + |cycle|.
    """
    base, conds = split_accept(node)
    if accept_fn is None:
        def accept_fn(labels, visited):
            return all(accepts(system, c, labels, visited) for c in conds)
    src, stem, cycle = parse_lasso(text)
    if sources is not None and src not in sources:
        return f"lasso starts at {src}, outside the searched sources"
    if not cycle or len(stem) + len(cycle) > horizon:
        return "lasso exceeds the horizon"
    allowed = induced(system, orders, base)
    visited = system.walk(src, stem + cycle)
    if visited is None:
        return "lasso uses a step the system lacks"
    if visited[-1] != visited[len(stem)]:
        return "cycle does not return to its start"
    for i, l in enumerate(stem + cycle):
        if l not in allowed[visited[i]]:
            return f"base strategy does not permit {l} at {visited[i]}"
    depth = horizon + len(stem) + len(cycle)

    def extends(labels, walk, room):
        for l, t in system.out[walk[-1]]:
            if l not in allowed[walk[-1]]:
                continue
            nl, nw = labels + (l,), walk + [t]
            if accept_fn(nl, nw) or (room > 1 and extends(nl, nw, room - 1)):
                return True
        return False

    for i in range(1, max(1, horizon // len(cycle)) + 1):
        labels = stem + cycle * i
        walk = system.walk(src, labels)
        if accept_fn(labels, walk):
            return f"truncation with {i} pumps is accepted"
        if len(labels) >= depth or not extends(labels, walk, depth - len(labels)):
            return f"truncation with {i} pumps does not extend to an accepted derivation"
    return None


# -- the traffic intersection -------------------------------------------------------------

TRAFFIC_LABELS = ("car1", "car2", "signal1", "signal2", "cross1", "cross2")
STARVATION_START = "s_1_0_1_1"


def _sym(q1, l1, q2, l2):
    return f"s_{q1}_{l1}_{q2}_{l2}"


def traffic_system(bound):
    states = [(q1, l1, q2, l2) for q1 in range(bound + 1) for l1 in (0, 1) for q2 in range(bound + 1) for l2 in (0, 1)]
    steps = []
    for q1, l1, q2, l2 in states:
        src = _sym(q1, l1, q2, l2)
        if q1 < bound:
            steps.append((src, "car1", _sym(q1 + 1, l1, q2, l2)))
        if q2 < bound:
            steps.append((src, "car2", _sym(q1, l1, q2 + 1, l2)))
        steps.append((src, "signal1", _sym(q1, 1 - l1, q2, l2)))
        steps.append((src, "signal2", _sym(q1, l1, q2, 1 - l2)))
        if l1 == 1 and q1 >= 1:
            steps.append((src, "cross1", _sym(q1 - 1, l1, q2, l2)))
        if l2 == 1 and q2 >= 1:
            steps.append((src, "cross2", _sym(q1, l1, q2 - 1, l2)))
    return System([_sym(*s) for s in states], TRAFFIC_LABELS, steps)


def both_green(obj):
    _, _, l1, _, l2 = obj.split("_")
    return l1 == "1" and l2 == "1"


def good_starts(system):
    return [o for o in system.objects if not both_green(o)]


def safe_controller(system):
    """Per object, the labels left after blocking signal toggles into both-green."""
    return {
        o: frozenset(l for l, t in system.out[o] if not (l.startswith("signal") and both_green(t)))
        for o in system.objects
    }


def bad_state_reachable(system, allowed):
    seen = set(good_starts(system))
    queue = deque(seen)
    while queue:
        cur = queue.popleft()
        for l, t in system.out[cur]:
            if l in allowed[cur] and t not in seen:
                if both_green(t):
                    return True
                seen.add(t)
                queue.append(t)
    return False


def released(trigger, release):
    """Words in which every `trigger` is followed later by a `release`."""
    not_t = ("alt", tuple(("sym", x) for x in TRAFFIC_LABELS if x != trigger))
    not_r = ("alt", tuple(("sym", x) for x in TRAFFIC_LABELS if x != release))
    block = ("cat", (("star", not_t), ("sym", trigger), ("star", not_r), ("sym", release)))
    return ("cat", (("star", block), ("star", not_t)))


FAIRNESS = ("and", (("word", released("car1", "cross1")), ("word", released("car2", "cross2"))))


def fair_by_scan(labels, visited=None):
    """Fairness by a direct scan: no arrival is left without a later crossing."""
    pending = {"car1": False, "car2": False}
    for l in labels:
        if l in pending:
            pending[l] = True
        elif l == "cross1":
            pending["car1"] = False
        elif l == "cross2":
            pending["car2"] = False
    return not any(pending.values())


def traffic_document(bound):
    """The intersection as a `.ars` document with the fairness condition."""
    return document(
        traffic_system(bound),
        accepts=[("fair", cond_text(FAIRNESS))],
        strategies=[("all", "universal"), ("fair_runs", "accept(universal, fair)")],
    ) + "query witness fair_runs horizon 6;\n"
