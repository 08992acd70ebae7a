"""Seeded workload generators and the references their outputs are checked against.

Every reference comes from outside luagc: closed forms computed here from the
generator's own constants, hand-written expectations for corpus programs, and
analyzer verdicts that hold by construction of the generated program.  A
check function takes what the op returned and gives ``None`` when the output
is right, else a one-line "expected ..., got ..." description.

Sizes are fixed per workload; the seed varies constants, identifiers, field
names, which analyzer blocks are unsafe, and the order ops run in.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

STEP_BOUND = 400  # ROADMAP explorer bounds
NODE_BUDGET = 20_000
RUN_FUEL = 1_000_000

# Equally long, so that identifiers do not make one seed's sources longer.
NAMES = ["accu", "vals", "node", "item", "cell", "slot", "boxs", "elem", "unit", "part"]
FIELDS = ["a", "b", "v", "w", "x", "y", "data", "weight", "tag", "load"]

# Sizes per workload (see README.md for why each was chosen).
NEVER_RECURSION_DEPTH = 100
NEVER_LOOP_N = 200
NEVER_LIVE_N = 200
NEVER_LIST_N = 600
EAGER_LIVE_N = 300
EAGER_EPHEMERON_N = 100  # weak-keyed entries; half have a strongly held key
EAGER_CHURN_N = 100
EAGER_SUBSET_CHURN_N = 50
EAGER_FINALIZER_CHAIN_N = 12
EAGER_RECURSION_DEPTH = 50
EXPLORE_SCALED_BOUND = 4
CHECK_BLOCKS = (19, 31, 44, 56)  # 8 lines per block: 152 to 448 lines
CHECK_UNSAFE_BLOCKS = 3
DEFECT_LIST_N = 1_200
DEFECT_SUM_TERMS = 600
DEFECT_PARENS = 400
DEFECT_CHECK_BLOCKS = 160


@dataclass
class Op:
    """One unit of work: a luagc library call with its reference check.

    ``kind`` is ``run`` (``run(config, schedule)``), ``explore``
    (``observations`` with an exhaustive explorer) or ``check``
    (``check_program``).
    """

    name: str
    kind: str
    source: str
    check: Callable[[object], Optional[str]]
    schedule: Tuple = ("never", "simple", "maximal")  # policy, mode, selector[, seed]
    explorer: Tuple = ("simple", "maximal")  # mode, granularity
    config: object = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# Decoding canonical results
# ---------------------------------------------------------------------------


def _decode_value(v):
    """A number, string or boolean as itself, nil as None, else (tag, name)."""
    t = v["t"]
    if t == "nil":
        return None
    if t in ("num", "str", "bool"):
        return v["v"]
    return (t, v["v"])


def decode_key(key: str):
    """Canonical result key -> (kind, values, tables by canonical name)."""
    if key == "empty":
        return "empty", [], {}
    if not key.startswith("{"):
        return key, [], {}  # bottom markers, "stuck"
    d = json.loads(key)
    tables = {
        name: [(_decode_value(k), _decode_value(v)) for k, v in fields]
        for name, fields, _meta, _pos in d["s"]["tables"]
    }
    return d["k"], [_decode_value(v) for v in d["v"]], tables


def _show(kind, values) -> str:
    return f"{kind} {values!r}"


def expect_run(kind: str, values: list, output: Optional[list] = None):
    """Check a RunRecord's result kind, returned values and printed lines."""

    def check(rec) -> Optional[str]:
        got_kind, got_values, _ = decode_key(rec.result.key)
        if (got_kind, got_values) != (kind, values):
            return f"expected {_show(kind, values)}, got {_show(got_kind, got_values)}"
        if output is not None and rec.output != output:
            return f"expected output {output!r}, got {rec.output!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# Corpus expectations (hand-written from the program texts)
# ---------------------------------------------------------------------------

DETERMINISTIC_EXPECTED = {
    "arith": ("return", [44.0, 40.0, 21.0], []),
    "boolean_logic": ("return", [5.0, 6.0, True], []),
    "closure_counter": ("return", [3.0], []),
    "conditionals": ("return", ["b", "a", "c"], []),
    "deep_index": ("return", [42.0], []),
    "early_return": ("return", [8.0], []),
    "error_uncaught": ("error", ["not ready"], []),
    "garbage_churn": ("return", [8.0], []),
    "getmeta": ("return", [True, True], []),
    "global_state": ("return", [3.0], []),
    "index_chain": ("return", [10.0, "test"], []),
    "locals_shadowing": ("return", [1.0], ["2", "1"]),
    "loop_break": ("return", [7.0], []),
    "multi_assign_swap": ("return", [2.0, 1.0], []),
    "multi_return": ("return", [7.0, 3.0], []),
    "nested_calls": ("return", [6.0], []),
    "pcall_catch": ("return", [False, "boom"], ["false\tboom"]),
    "recursion": ("return", [720.0], []),
    "string_compare": ("return", ["apple"], []),
    "table_alias": ("return", [42.0], []),
    "table_fields": ("return", [30.0], []),
    "table_keys": ("return", ["first", "second", "third"], []),
    "tostring_prims": ("return", ["1.5"], ["1.5\ttrue\tnil"]),
    "while_sum": ("return", [55.0], []),
}

# UNSAFE verdicts and flagged (line, access) pairs pinned by the acceptance
# gate; None pins the verdict only.
PINNED_UNSAFE = {
    "weak/weak_cache.lua": [(9, "cache1[2]"), (10, "cache1[3]")],
    "weak/field_tracking.lua": [(6, 't1["method"]')],
    "weak/nondet_weak_loop.lua": None,  # UNSAFE; lines not pinned
    "weak/nondet_weak_loop_bounded.lua": None,
}

LOOP_ROTATION = """local m = {__mode = "v"}
local w = {x = {}}
setmetatable(w, m)
local s1 = {x = {}}
local s2 = {x = {}}
local n = 0
local i = 0
while i < 4 do
  if s2.x then n = n + 1 end
  s2 = s1
  s1 = w
  i = i + 1
end
return n
"""


def corpus_programs(root: Path, group: str) -> List[Tuple[str, str]]:
    return [
        (f"{group}/{p.name}", p.read_text())
        for p in sorted((root / "corpus" / group).glob("*.lua"))
    ]


# ---------------------------------------------------------------------------
# Program generators (closed-form references)
# ---------------------------------------------------------------------------


class Gen:
    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"{workload}:{seed}")
        self.count = 0

    def name(self) -> str:
        """A fresh identifier: never repeats within one workload."""
        self.count += 1
        return f"{self.rng.choice(NAMES)}_{self.count}"

    def fields(self, n: int) -> List[str]:
        return self.rng.sample(FIELDS, n)

    def const(self, lo: int = 1, hi: int = 50) -> int:
        return self.rng.randrange(lo, hi)


def recursion_program(g: Gen, depth: int) -> Tuple[str, float]:
    f, n = g.name(), g.name()
    base, inc = g.const(), g.const(1, 10)
    src = (
        f"local {f} = nil\n"
        f"{f} = function({n})\n"
        f"  if {n} < 1 then return {base} end\n"
        f"  return {f}({n} - 1) + {inc}\n"
        f"end\n"
        f"return {f}({depth})\n"
    )
    return src, float(base + depth * inc)


def flat_loop_program(g: Gen, n: int) -> Tuple[str, float]:
    acc, i, t = g.name(), g.name(), g.name()
    fa, fb = g.fields(2)
    k = g.const()
    src = (
        f"local {acc} = 0\n"
        f"local {i} = 0\n"
        f"while {i} < {n} do\n"
        f"  local {t} = {{{fa} = {i}, {fb} = {k}}}\n"
        f"  {acc} = {acc} + {t}.{fa} + {t}.{fb}\n"
        f"  {i} = {i} + 1\n"
        f"end\n"
        f"return {acc}\n"
    )
    return src, float(sum(range(n)) + n * k)


def live_heap_loop_program(g: Gen, n: int) -> Tuple[str, float]:
    keep, i, s = g.name(), g.name(), g.name()
    fv = g.fields(1)[0]
    k = g.const(1, 10)
    src = (
        f"local {keep} = {{}}\n"
        f"local {i} = 0\n"
        f"while {i} < {n} do\n"
        f"  {keep}[{i}] = {{{fv} = {i} * {k}}}\n"
        f"  {i} = {i} + 1\n"
        f"end\n"
        f"local {s} = 0\n"
        f"{i} = 0\n"
        f"while {i} < {n} do\n"
        f"  {s} = {s} + {keep}[{i}].{fv}\n"
        f"  {i} = {i} + 1\n"
        f"end\n"
        f"return {s}\n"
    )
    return src, float(k * sum(range(n)))


def linked_list_program(g: Gen, n: int) -> Tuple[str, str, str, int]:
    head, i = g.name(), g.name()
    fval, fnext = g.fields(2)
    k = g.const()
    src = (
        f"local {head} = nil\n"
        f"local {i} = 0\n"
        f"while {i} < {n} do\n"
        f"  {head} = {{{fval} = {i} + {k}, {fnext} = {head}}}\n"
        f"  {i} = {i} + 1\n"
        f"end\n"
        f"return {head}\n"
    )
    return src, fval, fnext, k


def expect_linked_list(n: int, fval: str, fnext: str, k: int):
    """The returned list holds n nodes whose values count down from k+n-1."""

    def check(rec) -> Optional[str]:
        kind, values, tables = decode_key(rec.result.key)
        if kind != "return" or len(values) != 1 or not isinstance(values[0], tuple):
            return f"expected one returned table, got {_show(kind, values)}"
        got = []
        node = values[0]
        while node is not None:
            fields = dict(tables[node[1]])
            got.append(fields.get(fval))
            node = fields.get(fnext)
        want = [float(k + i) for i in reversed(range(n))]
        if got != want:
            return f"expected {n} nodes {want[:2]}..{want[-1:]}, got {len(got)} nodes {got[:2]}"
        return None

    return check


def live_heap_ctor_program(g: Gen, n: int) -> Tuple[str, float]:
    """A few hundred live tables built by one constructor, then read back."""
    keep = g.name()
    fv = g.fields(1)[0]
    vals = [g.const(0, 100) for _ in range(n)]
    reads = sorted(g.rng.sample(range(1, n + 1), 4))
    src = (
        f"local {keep} = {{"
        + ", ".join(f"{{{fv} = {v}}}" for v in vals)
        + "}\n"
        + f"return " + " + ".join(f"{keep}[{r}].{fv}" for r in reads) + "\n"
    )
    return src, float(sum(vals[r - 1] for r in reads))


def ephemeron_program(g: Gen, n: int) -> Tuple[str, str, List[float]]:
    """n weak-keyed entries whose values point back at their keys.

    Half the keys are held by a strong table; the others are reachable only
    through their own entry, so ephemeron semantics must clear them.  The
    program returns the ephemeron table and the key table, so the result
    shows exactly the surviving entries.
    """
    eph, keys, i, k, d = g.name(), g.name(), g.name(), g.name(), g.name()
    fw, fown = g.fields(2)
    base = g.const()
    half = n // 2
    src = (
        f"local {keys} = {{" + ", ".join("{}" for _ in range(half)) + "}\n"
        f"local {eph} = {{}}\n"
        f'setmetatable({eph}, {{__mode = "k"}})\n'
        f"local {i} = 1\n"
        f"while {i} <= {half} do\n"
        f"  local {k} = {keys}[{i}]\n"
        f"  {eph}[{k}] = {{{fw} = {i} + {base}, {fown} = {k}}}\n"
        f"  local {d} = {{}}\n"
        f"  {eph}[{d}] = {{{fw} = 0, {fown} = {d}}}\n"
        f"  {i} = {i} + 1\n"
        f"end\n"
        f"return {eph}[{keys}[1]].{fw} + {eph}[{keys}[{half}]].{fw}, {eph}, {keys}\n"
    )
    return src, fw, [float(j + base) for j in range(1, half + 1)]


def expect_ephemeron(fw: str, survivors: List[float]):
    def check(rec) -> Optional[str]:
        kind, values, tables = decode_key(rec.result.key)
        want_sum = survivors[0] + survivors[-1]
        if kind != "return" or len(values) != 3 or values[0] != want_sum:
            return f"expected return {want_sum} plus two tables, got {_show(kind, values)}"
        entries = tables[values[1][1]]
        got = sorted(dict(tables[v[1]]).get(fw) for _k, v in entries)
        if got != survivors:
            return (f"expected {len(survivors)} surviving entries {survivors[:2]}..,"
                    f" got {len(got)}: {got[:3]}")
        return None

    return check


def churn_program(g: Gen, n: int) -> Tuple[str, float]:
    keep, i, scratch = g.name(), g.name(), g.name()
    flast = g.fields(1)[0]
    k = g.const()
    src = (
        f"local {keep} = {{}}\n"
        f"local {i} = 0\n"
        f"while {i} < {n} do\n"
        f"  local {scratch} = {{{i}, {i} + {k}}}\n"
        f"  {keep}.{flast} = {scratch}[2]\n"
        f"  {i} = {i} + 1\n"
        f"end\n"
        f"return {keep}.{flast}\n"
    )
    return src, float(n - 1 + k)


def finalizer_chain_program(g: Gen, n: int) -> Tuple[str, float, List[str]]:
    """n chained objects with a printing finalizer, released at once.

    Finalizers run in reverse order of marking, one at a time, and all of
    them before ``collectgarbage()`` returns.
    """
    total, mt, head, i = g.name(), g.name(), g.name(), g.name()
    fid, fprev = g.fields(2)
    base = g.const()
    src = (
        f"local {total} = 0\n"
        f"local {mt} = {{__gc = function(o)\n"
        f"  {total} = {total} + o.{fid}\n"
        f'  print("fin", o.{fid})\n'
        f"end}}\n"
        f"local {head} = nil\n"
        f"local {i} = 0\n"
        f"while {i} < {n} do\n"
        f"  {head} = {{{fid} = {i} + {base}, {fprev} = {head}}}\n"
        f"  setmetatable({head}, {mt})\n"
        f"  {i} = {i} + 1\n"
        f"end\n"
        f"{head} = nil\n"
        f"collectgarbage()\n"
        f"return {total}\n"
    )
    ids = [j + base for j in range(n)]
    return src, float(sum(ids)), [f"fin\t{j}" for j in reversed(ids)]


def scaled_bounded_loop_program(g: Gen, bound: int) -> Tuple[str, set]:
    """The bounded weak loop with a seeded key and result offset."""
    t, i = g.name(), g.name()
    key, off = g.const(1, 9), g.const(0, 20)
    src = (
        f"local {t} = {{}}\n"
        f"setmetatable({t}, {{__mode = 'v'}})\n"
        f"{t}[{key}] = {{}}\n"
        f"local {i} = 0\n"
        f"while {i} < {bound} do\n"
        f"  {i} = {i} + 1\n"
        f"  if not {t}[{key}] then break end\n"
        f"end\n"
        f"return {i} + {off}\n"
    )
    return src, {("return", (float(off + j),)) for j in range(1, bound + 1)}


def sum_program(terms: int) -> str:
    return "return " + " + ".join(["1"] * terms) + "\n"


def parens_program(depth: int) -> str:
    return "return " + "(" * depth + "1" + ")" * depth + "\n"


# ---------------------------------------------------------------------------
# Explorer expectations
# ---------------------------------------------------------------------------


def _obs_summary(obs) -> set:
    """(kind, values) per observation; a returned table becomes its field count."""
    out = set()
    for key in obs.keys:
        kind, values, tables = decode_key(key)
        out.add((kind, tuple(len(tables[v[1]]) if isinstance(v, tuple) else v for v in values)))
    return out


def expect_observations(expected: set):
    """Every non-⊥(budget) observation is expected; a complete set is exact.

    Returned tables are summarised by their field count.
    """

    def check(obs) -> Optional[str]:
        got = _obs_summary(obs) - {("⊥(budget)", ())}
        extra = got - expected
        if extra or (not obs.truncated and got != expected):
            return f"expected {sorted(expected)}, got {sorted(got)} (truncated={obs.truncated})"
        return None

    return check


EXPLORE_CORPUS = [
    # path, mode, granularity, expected observations
    ("weak/nondet_weak_loop_bounded.lua", "fin_weak", "maximal",
     {("return", (1.0,)), ("return", (2.0,)), ("return", (3.0,))}),
    ("finalizers/finalizer_order.lua", "fin", "maximal", {("empty", ())}),
    ("finalizers/resurrection.lua", "fin", "subsets", {("return", (True,))}),
    ("deterministic/garbage_churn.lua", "fin_weak", "maximal", {("return", (8.0,))}),
    ("weak/ephemeron_self_key.lua", "fin_weak", "subsets", {("return", (0,))}),
    ("weak/weak_cache.lua", "fin_weak", "maximal",
     {("empty", ()), ("error", ("attempt to call a nil value",))}),
]


# ---------------------------------------------------------------------------
# Analyzer programs (verdicts by construction)
# ---------------------------------------------------------------------------

BLOCK_LINES = 8


def _safe_cache_block(g: Gen) -> str:
    c, keep, got, still, nums, s = (g.name() for _ in range(6))
    k = g.const(1, 9)
    return (
        f"local {c} = {{[1] = function() return {k} end}}\n"
        f"local {keep} = {{backup = {c}[1]}}\n"
        f'setmetatable({c}, {{__mode = "v"}})\n'
        f"local {got} = {c}[1]()\n"
        f"local {still} = {keep}.backup\n"
        f"local {nums} = {{[1] = {k}, [2] = {k + 1}}}\n"
        f'setmetatable({nums}, {{__mode = "v"}})\n'
        f"local {s} = {nums}[1] + {nums}[2]\n"
    )


def _safe_retag_block(g: Gen) -> str:
    v, t, x, reg, item, _ = (g.name() for _ in range(6))
    return (
        f"local {v} = {{}}\n"
        f"local {t} = {{[1] = {v}}}\n"
        f'setmetatable({t}, {{__mode = "v"}})\n'
        f"setmetatable({t}, {{}})\n"
        f"local {x} = {t}[1]\n"
        f"local {reg} = {{[1] = {{}}}}\n"
        f'setmetatable({reg}, {{__mode = "k"}})\n'
        f"local {item} = {reg}[1]\n"
    )


def _unsafe_cache_block(g: Gen) -> Tuple[str, int, str]:
    """A weak-values read of a closure nothing else holds: line 4."""
    c, keep, got, still, nums, s = (g.name() for _ in range(6))
    k = g.const(1, 9)
    src = (
        f"local {c} = {{[1] = function() return {k} end}}\n"
        f"local {keep} = {{backup = {k}}}\n"
        f'setmetatable({c}, {{__mode = "v"}})\n'
        f"local {got} = {c}[1]()\n"
        f"local {still} = {keep}.backup\n"
        f"local {nums} = {{[1] = {k}, [2] = {k + 1}}}\n"
        f'setmetatable({nums}, {{__mode = "v"}})\n'
        f"local {s} = {nums}[1] + {nums}[2]\n"
    )
    return src, 4, f"{c}[1]"


def _unsafe_table_block(g: Gen) -> Tuple[str, int, str]:
    """A weak-values read of a table nothing else holds: line 5."""
    v, t, w, x, reg, item = (g.name() for _ in range(6))
    src = (
        f"local {v} = {{}}\n"
        f"local {t} = {{[1] = {{}}}}\n"
        f'setmetatable({t}, {{__mode = "v"}})\n'
        f"local {w} = {v}\n"
        f"local {x} = {t}[1]\n"
        f"local {reg} = {{[1] = {{}}}}\n"
        f'setmetatable({reg}, {{__mode = "k"}})\n'
        f"local {item} = {reg}[1]\n"
    )
    return src, 5, f"{t}[1]"


def analyzer_program(g: Gen, blocks: int, unsafe: int) -> Tuple[str, List[Tuple[int, str]]]:
    """``blocks`` 8-line blocks; ``unsafe`` of them hold one unsafe read.

    Every block declares fresh names, so the program is one chain of
    nested locals.  The seed picks which blocks are unsafe; the kinds of
    block alternate, so every seed gives the analyzer the same amount of
    work.  Returns the text and the (line, access) pairs the analyzer must
    flag, in order.
    """
    bad = set(g.rng.sample(range(blocks), unsafe))
    unsafe_kinds = (_unsafe_cache_block, _unsafe_table_block)
    safe_kinds = (_safe_cache_block, _safe_retag_block)
    parts, flagged = [], []
    for b in range(blocks):
        if b in bad:
            src, line, access = unsafe_kinds[len(flagged) % 2](g)
            flagged.append((b * BLOCK_LINES + line, access))
        else:
            src = safe_kinds[b % 2](g)
        parts.append(src)
    return "".join(parts), flagged


def expect_verdict(verdict: str, flagged: Optional[List[Tuple[int, str]]] = None):
    """``flagged`` None: only the verdict is pinned."""

    def check(report) -> Optional[str]:
        got = [(d.line, d.access) for d in report.unsafe]
        if report.verdict != verdict or (flagged is not None and got != flagged):
            want = verdict if flagged is None else f"{verdict} at {flagged}"
            return f"expected {want}, got {report.verdict} at {got}"
        return None

    return check


def expect_unsafe_line(line: int):
    def check(report) -> Optional[str]:
        got = [d.line for d in report.unsafe]
        if report.verdict != "UNSAFE" or line not in got:
            return f"expected UNSAFE at line {line}, got {report.verdict} at {got}"
        return None

    return check


def expect_not_unsafe(report) -> Optional[str]:
    """Programs with no weak-values read can never be UNSAFE."""
    if report.verdict == "UNSAFE":
        return f"expected SAFE or UNKNOWN, got UNSAFE at {[d.line for d in report.unsafe]}"
    return None


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

EAGER = ("eager", "fin_weak", "maximal")


def run_never(seed: int, root: Path) -> Tuple[List[Op], List[Op]]:
    g = Gen(seed, "run-never")
    ops = []
    src, want = recursion_program(g, NEVER_RECURSION_DEPTH)
    ops.append(Op(f"recursion-d{NEVER_RECURSION_DEPTH}", "run", src, expect_run("return", [want])))
    src, want = flat_loop_program(g, NEVER_LOOP_N)
    ops.append(Op(f"flat-loop-n{NEVER_LOOP_N}", "run", src, expect_run("return", [want])))
    src, want = live_heap_loop_program(g, NEVER_LIVE_N)
    ops.append(Op(f"live-heap-n{NEVER_LIVE_N}", "run", src, expect_run("return", [want])))
    src, fval, fnext, k = linked_list_program(g, NEVER_LIST_N)
    ops.append(Op(f"linked-list-n{NEVER_LIST_N}", "run", src,
                  expect_linked_list(NEVER_LIST_N, fval, fnext, k)))
    for path, text in corpus_programs(root, "deterministic"):
        kind, values, output = DETERMINISTIC_EXPECTED[Path(path).stem]
        ops.append(Op(f"corpus:{path}", "run", text, expect_run(kind, values, output)))

    src, fval, fnext, k = linked_list_program(g, DEFECT_LIST_N)
    defects = [
        Op(f"linked-list-n{DEFECT_LIST_N}", "run", src,
           expect_linked_list(DEFECT_LIST_N, fval, fnext, k)),
        Op(f"sum-{DEFECT_SUM_TERMS}-terms", "run", sum_program(DEFECT_SUM_TERMS),
           expect_run("return", [float(DEFECT_SUM_TERMS)])),
        Op(f"parens-{DEFECT_PARENS}", "run", parens_program(DEFECT_PARENS),
           expect_run("return", [1.0])),
    ]
    return ops, defects


def run_eager(seed: int, root: Path) -> Tuple[List[Op], List[Op]]:
    g = Gen(seed, "run-eager")
    ops = []
    src, want = live_heap_ctor_program(g, EAGER_LIVE_N)
    ops.append(Op(f"live-heap-n{EAGER_LIVE_N}", "run", src, expect_run("return", [want]), EAGER))
    src, fw, survivors = ephemeron_program(g, EAGER_EPHEMERON_N)
    ops.append(Op(f"ephemeron-n{EAGER_EPHEMERON_N}", "run", src,
                  expect_ephemeron(fw, survivors), EAGER))
    src, want = churn_program(g, EAGER_CHURN_N)
    ops.append(Op(f"churn-n{EAGER_CHURN_N}", "run", src, expect_run("return", [want]), EAGER))
    src, want = churn_program(g, EAGER_SUBSET_CHURN_N)
    ops.append(Op(f"churn-n{EAGER_SUBSET_CHURN_N}-random-subset", "run", src,
                  expect_run("return", [want]),
                  ("eager", "fin_weak", "random-subset", g.const(0, 10_000))))
    src, want, lines = finalizer_chain_program(g, EAGER_FINALIZER_CHAIN_N)
    ops.append(Op(f"finalizer-chain-n{EAGER_FINALIZER_CHAIN_N}", "run", src,
                  expect_run("return", [want], lines), EAGER))
    src, want = recursion_program(g, EAGER_RECURSION_DEPTH)
    ops.append(Op(f"recursion-d{EAGER_RECURSION_DEPTH}", "run", src,
                  expect_run("return", [want]), EAGER))
    return ops, []


def explore(seed: int, root: Path) -> Tuple[List[Op], List[Op]]:
    g = Gen(seed, "explore")
    base = root / "corpus"
    ops = []
    for path, mode, gran, expected in EXPLORE_CORPUS:
        label = f"corpus:{path}" + ("/subsets" if gran == "subsets" else "")
        ops.append(Op(label, "explore", (base / path).read_text(),
                      expect_observations(expected), explorer=(mode, gran)))
    src, expected = scaled_bounded_loop_program(g, EXPLORE_SCALED_BOUND)
    ops.append(Op(f"bounded-weak-loop-b{EXPLORE_SCALED_BOUND}", "explore", src,
                  expect_observations(expected), explorer=("fin_weak", "maximal")))
    return ops, []


def check(seed: int, root: Path) -> Tuple[List[Op], List[Op]]:
    g = Gen(seed, "check")
    ops = []
    for i, blocks in enumerate(CHECK_BLOCKS):
        unsafe = CHECK_UNSAFE_BLOCKS if i % 2 else 0
        src, flagged = analyzer_program(g, blocks, unsafe)
        verdict = "UNSAFE" if flagged else "SAFE"
        ops.append(Op(f"generated-{blocks * BLOCK_LINES}-lines-{verdict.lower()}", "check",
                      src, expect_verdict(verdict, flagged)))
    for group in ("deterministic", "finalizers", "weak", "safe"):
        for path, text in corpus_programs(root, group):
            if path in PINNED_UNSAFE:
                want = expect_verdict("UNSAFE", PINNED_UNSAFE[path])
            elif group == "safe":
                want = expect_verdict("SAFE")
            else:
                want = expect_not_unsafe
            ops.append(Op(f"corpus:{path}", "check", text, want))

    src, flagged = analyzer_program(g, DEFECT_CHECK_BLOCKS, CHECK_UNSAFE_BLOCKS)
    defects = [
        Op("loop-rotation", "check", LOOP_ROTATION, expect_unsafe_line(9)),
        Op(f"sum-{DEFECT_SUM_TERMS}-terms", "check", sum_program(DEFECT_SUM_TERMS),
           expect_not_unsafe),
        Op(f"parens-{DEFECT_PARENS}", "check", parens_program(DEFECT_PARENS),
           expect_not_unsafe),
        Op(f"generated-{DEFECT_CHECK_BLOCKS * BLOCK_LINES}-lines", "check", src,
           expect_verdict("UNSAFE", flagged)),
    ]
    return ops, defects


WORKLOADS = {
    "run-never": run_never,
    "run-eager": run_eager,
    "explore": explore,
    "check": check,
}


def build(workload: str, seed: int, root: Path) -> Tuple[List[Op], List[Op]]:
    """The workload's timed ops in seeded order, and its known-defect ops:
    inputs ROADMAP.md lists as crashing or answering wrongly today."""
    ops, defects = WORKLOADS[workload](seed, root)
    random.Random(f"order:{workload}:{seed}").shuffle(ops)
    return ops, defects
