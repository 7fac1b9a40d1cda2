"""Trust properties as precedence tables over a protocol trace.

Each property is a set of PCL-style precedence claims (Datta, Derek,
Mitchell and Roy, "Protocol Composition Logic", ENTCS 2007): a step, the
effect, must be preceded by each of its causes, steps of named
principals, on a value the two share. A Step names a principal's step
by the trace's own columns: role, kind, tag, peer and ok. Its shared
column says where its value sits: DIGEST for the digest column, or a
content label for the hex under "label:" in its contents. An effect with
a label is judged once for each content under it; without one, once as
an event, whose causes may share any content under their label. A cause
may have causes of its own, which must precede it on the value it holds:
so the check a signature rests on is bound to the key the signed
certificate certifies, and Lowe's agreement on that key holds ("A
Hierarchy of Authentication Specifications", CSFW 1997).

A PrecedenceTable compiles its rows, as encoding.Spec compiles a layout,
into one forward pass over the events, linear in their number: each
event is judged against an index of earlier causes, then indexed under
each step a cause names. The generated code is a cache of the table, not
a second statement of it: read it as table.source; tracebacks name it
<precedence table>.
"""

from __future__ import annotations

from typing import NamedTuple

ANY, NODE, DIGEST = "*", "<node>", "<digest>"


class Step(NamedTuple):
    """A principal's step: role (a principal, ANY, or NODE: the node of
    the effect it precedes), kind, tag (ANY: any), shared (DIGEST or a
    content label, the column of its value; None: an effect judged as an
    event), the causes that must each precede it on that value, reason
    (the format of its miss, or of an effect taken by another role),
    peer ("-": any) and ok (None: any)."""

    role: str
    kind: str
    tag: str
    shared: str | None
    causes: tuple[Step, ...] = ()
    reason: str = ""
    peer: str = "-"
    ok: bool | None = None


def _scan_source(rows: list[tuple[str, Step]]) -> tuple[str, dict]:
    """Source of scan(events, missed, witnesses): per event kind, judge
    each row whose effect the event is, then index the event under each
    step a cause names, in a dict s<n> from the step's value (or (node,
    value) when the step binds NODE) to its first event. A miss calls
    missed(rank, cause, event, content, index of the cause's cause); a
    pass appends to witnesses[rank]. Also the causes the source names."""
    causes: dict[str, Step] = {}
    steps: dict[tuple, str] = {}
    # kind -> the lines judging its rows by label and by tag, and the
    # lines indexing it; sends and receives, most of a trace, test first
    kinds = {kind: ([], [], []) for kind in (
        "send", "receive", "sign", "decrypt", "verify", "match", "new")}

    def key(step: Step, value: str) -> str:
        return f"(node, {value})" if NODE in (step.role, step.peer) else value

    def index(step: Step) -> str:
        shape = (*step[:3], step.peer, step.ok, step.shared == DIGEST)
        if shape not in steps:
            steps[shape] = name = f"s{len(steps)}"
            tests = [f"{column} == {value!r}" for column, value in (
                ("principal", step.role), ("event.tag", step.tag),
                ("event.peer", step.peer)) if value not in (ANY, NODE, "-")]
            tests += [f"event.ok is {step.ok}"] * (step.ok is not None)
            node = {step.role: "principal", step.peer: "event.peer"}.get(NODE)
            add = f"{name}.setdefault({key(step, '{}')}, event.index)"
            kinds[step.kind][2].extend([
                f"if {' and '.join(tests) or 'True'}:",
                *[f"    node = {node}.partition('/')[0]"] * bool(node),
                "    " + add.format("event.digest") if step.shared == DIGEST
                else f"    for v in event.contents: {add.format('v')}"])
        return steps[shape]

    def judge(rank: int, step: Step, at: str | None, content: str | None,
              then: list[str]) -> list[str]:
        """Lines that look up each cause of step in order, missed on the
        first miss, then on none. step is the effect when at is None, and
        else the cause at index at; content is "content" for an effect
        judged by content."""
        for cause in reversed(step.causes):
            causes[name := f"C{len(causes)}"] = cause
            s, found = index(cause), f"a{len(causes)}"
            if at is None and content and cause.shared in (DIGEST,
                                                           step.shared):
                # a content effect holds one value: its hex, or itself
                value = "value" if cause.shared == DIGEST else "content"
                lookup = [f"{found} = {s}.get({key(cause, value)}, -1)"]
            else:
                source = "event" if at is None else f"events[{at}]"
                label = (f"v.startswith({cause.shared + ':'!r}) and "
                         if cause.shared != DIGEST else "")
                before = f" and {s}[k] < {at}" if at else ""
                lookup = [f"{found} = -1", "for v in " + (
                    f"({source}.digest,)" if cause.shared == DIGEST
                    else f"{source}.contents") + ":",
                    f"    if {label}(k := {key(cause, 'v')}) in {s}{before}"
                    f" and ({found} < 0 or {s}[k] < {found}): "
                    f"{found} = {s}[k]"]
            then = [*lookup, f"if {found} < 0: missed({rank}, {name}, "
                    f"event, {content}, {at})", "else:",
                    *("    " + line for line in judge(rank, cause, found,
                                                      content, then))]
        return then

    def binds(step: Step) -> bool:
        return any(NODE in (c.role, c.peer) or binds(c) for c in step.causes)

    for rank, (_, row) in enumerate(rows):
        lines = judge(rank, row, None, "content" if row.shared else None,
                      [f"witnesses[{rank}].append(event.index)"
                       if row.causes else "pass"])
        if row.role != ANY:
            lines = [f"if principal != {row.role!r}: missed({rank}, None, "
                     "event, None, None)", *["else:"] * bool(row.causes),
                     *("    " + line for line in lines if row.causes)]
        kinds[row.kind][not row.shared].extend([
            f"if {'label' if row.shared else 'event.tag'} == "
            f"{row.shared or row.tag!r}:",
            *["    node = principal.partition('/')[0]"] * binds(row),
            *("    " + line for line in lines)])
    lines = ["def scan(events, missed, witnesses):",
             *(f"    {name} = {{}}" for name in steps.values()),
             "    for event in events:", "        kind = event.kind"]
    branch = "if"
    for kind, (by_label, by_tag, indexed) in kinds.items():
        if not by_label + by_tag + indexed:
            continue
        lines += [f"        {branch} kind == {kind!r}:",
                  "            principal = event.principal"]
        branch = "elif"
        if by_label:
            lines += ["            for content in event.contents:",
                      "                label, colon, value = "
                      "content.partition(':')",
                      "                if not colon: continue",
                      *(f"                {line}" for line in by_label)]
        lines += [f"            {line}" for line in by_tag + indexed]
    return "\n".join(lines) + "\n", causes


class PrecedenceTable:
    """Properties, each (what its witnesses are, its rows), compiled to
    one forward pass. A row without causes records no witness."""

    def __init__(self, properties: dict[str, tuple[str, tuple[Step, ...]]]):
        self.properties = properties
        self.rows = [(name, row) for name, (_, rows) in properties.items()
                     for row in rows]
        self.source, names = _scan_source(self.rows)
        exec(compile(self.source, "<precedence table>", "exec"), names)
        # popped, so the namespace holds only the causes the scan names
        self._scan = names.pop("scan")

    def check(self, events: list) -> dict[str, tuple[bool, str, tuple]]:
        """Per property, (ok, reason, witness) over events whose indices
        equal their positions: the witness of a pass lists its effects,
        and of a failure the first miss in event order, and within one
        event in row order, with the cause its missing cause precedes."""
        justified = {name: [] for name in self.properties}
        misses: list[tuple] = []
        self._scan(events, lambda *miss: misses.append(miss),
                   [justified[name] for name, _ in self.rows])
        verdicts: dict[str, tuple[bool, str, tuple]] = {}
        for rank, cause, event, content, at in sorted(
                misses, key=lambda miss: (miss[2].index, miss[0])):
            name, row = self.rows[rank]
            step, principal = cause or row, event.principal
            values = ([content.partition(":")[2]] if content
                      else event.labeled(cause.shared) if cause else [])
            reason = step.reason.format(
                principal=principal, node=principal.partition("/")[0],
                label=row.shared, role=step.role, tag=step.tag,
                short=(*values, "?")[0][:16])
            verdicts.setdefault(name, (False, reason, (event.index,)
                                       if at is None else (at, event.index)))
        return {name: verdicts.get(name) or (
                    True, f"{len(justified[name])} {noun}",
                    tuple(justified[name]))
                for name, (noun, _) in self.properties.items()}
