"""Spans around univoque's public functions, recorded from outside.

``Tracer.install`` replaces each traced function by a wrapper under
every name it is bound to inside the package: ``critical`` imports
``pi_eval`` by name, so patching ``sequences.pi_eval`` alone would miss
the calls the root solver makes.  ``uninstall`` puts the originals
back.

A span has a name, start, end, parent and the id of the operation it
belongs to.  Self time, a span's duration minus what its child spans
cover, is summed per name as spans close; spans themselves are kept in
memory only while ``recording`` is set and written out at the end.
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> (module, attribute path) of the function it wraps
TRACED = {
    "sequences.pi_eval": ("sequences", "pi_eval"),
    "sequences.parse_seq": ("sequences", "parse_seq"),
    "critical.r_of_m": ("critical", "r_of_m"),
    "critical.solve_pi_root": ("critical", "solve_pi_root"),
    "cli.curve_rows": ("cli", "curve_rows"),
    "cli.to_csv": ("cli", "CurveRow.to_csv"),
    "uniqueness.scan_forbidden": ("uniqueness", "scan_forbidden"),
    "uniqueness.is_forbidden_block": ("uniqueness", "is_forbidden_block"),
    "uniqueness.check_v_membership": ("uniqueness", "check_v_membership"),
    "uniqueness.check_univoque_general": ("uniqueness", "check_univoque_general"),
    "automata.build_safety_automaton": ("automata", "build_safety_automaton"),
    "automata.classify_growth": ("automata", "classify_growth"),
    "automata.growth_rate": ("automata", "growth_rate"),
    "automata.count_words": ("automata", "count_words"),
}

# (ancestor, descendant) pairs whose nesting is counted: pi_eval calls
# made inside a root solve or inside a verdict.
NESTED = (
    ("critical.solve_pi_root", "sequences.pi_eval"),
    ("uniqueness.check_v_membership", "sequences.pi_eval"),
    ("uniqueness.check_univoque_general", "sequences.pi_eval"),
)

OP = "op"
PACKAGE = "univoque"


class Tracer:
    def __init__(self):
        self.names = [OP] + list(TRACED)
        self.index = {n: i for i, n in enumerate(self.names)}
        n = len(self.names)
        self.self_ns = [0] * n
        self.calls = [0] * n
        self.open = [0] * n
        self.nested = {pair: 0 for pair in NESTED}
        self.stack: list[list[int]] = []   # [span id, start, child ns]
        self.next_id = 0
        self.op_id = 0
        self.recording = False
        self.spans: list[tuple] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, fn):
        idx = self.index[name]
        watched = [(pair, self.index[pair[0]]) for pair in NESTED if pair[1] == name]
        stack, self_ns, calls, open_ = self.stack, self.self_ns, self.calls, self.open
        nested, clock = self.nested, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for pair, anc in watched:
                if open_[anc]:
                    nested[pair] += 1
            open_[idx] += 1
            span_id = self.next_id
            self.next_id += 1
            frame = [span_id, clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_[idx] -= 1
                dur = end - frame[1]
                self_ns[idx] += dur - frame[2]
                calls[idx] += 1
                parent = None
                if stack:
                    stack[-1][2] += dur
                    parent = stack[-1][0]
                if self.recording:
                    self.spans.append((self.op_id, span_id, parent, idx, frame[1], end))

        return wrapper

    def install(self) -> None:
        if not self._patches:
            self._patches = list(self._find())
        for holder, attr, _original, wrapper in self._patches:
            setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original, _wrapper in self._patches:
            setattr(holder, attr, original)

    def _find(self):
        """(holder, attribute, original, wrapper) for every binding."""
        mods = [m for k, m in sys.modules.items()
                if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for name, (mod_name, path) in TRACED.items():
            owner = sys.modules[f"{PACKAGE}.{mod_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original)
            holders = [owner] if outer else [m for m in mods
                                             if getattr(m, attr, None) is original]
            for holder in holders:
                yield holder, attr, original, wrapper

    def snapshot(self) -> dict:
        """Counts so far, by span name and by nested pair."""
        return {"calls": dict(zip(self.names, self.calls)),
                "nested": dict(self.nested)}

    def dump(self) -> dict:
        return {"names": self.names,
                "fields": ["op", "span", "parent", "name", "start_ns", "end_ns"],
                "spans": self.spans}
