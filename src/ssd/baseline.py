"""Checkin/checkout baseline: the uncoordinated workflow SSD is measured
against.

Developers edit private working copies with no admission control and no
locks. A checkin three-way merges the working copy against the central tree
using the common base as ancestor. The merge is element-wise (by element id,
comparing shallow content) plus an order merge of each child sequence; since
elements never move between parents, that is a complete merge. Conflicts are
recorded and auto-resolved in favour of the checking-in developer, so a
checkin always lands; central may even become unbuildable, which is exactly
the failure mode the coordinated kernel rules out.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from difflib import SequenceMatcher

from . import depcore
from . import editops
from . import minilang as ml
from . import semantics

# conflict kinds
CONTENT = "content"  # both sides changed the same element differently
DELETE_MODIFY = "delete-modify"  # theirs deleted, mine modified
MODIFY_DELETE = "modify-delete"  # mine deleted, theirs modified
ORDER = "order"  # both sides reordered/edited the same child sequence
BUILD = "build"  # merge was clean element-wise but the result does not build


@dataclass(frozen=True)
class Conflict:
    kind: str
    eid: int | None
    qname: str
    detail: str = ""

    def to_record(self) -> dict:
        return {"kind": self.kind, "eid": self.eid, "qname": self.qname, "detail": self.detail}


@dataclass
class CheckinResult:
    dev: str
    version: int
    changed: bool
    merged: bool  # False for fast-forward
    conflicts: list[Conflict]
    text: str


@dataclass
class _WorkingCopy:
    dev: str
    base_version: int
    base_tree: ml.Unit  # a central tree, shared and only ever read
    tree: ml.Unit
    table: depcore.ElementTable


def _match_map(a: list, b: list) -> dict[int, int]:
    """index-in-a -> index-in-b for the longest matching alignment."""
    out: dict[int, int] = {}
    for ai, bi, n in SequenceMatcher(None, a, b).get_matching_blocks():
        for k in range(n):
            out[ai + k] = bi + k
    return out


def diff3_seq(a: list, m: list, t: list) -> tuple[list, bool]:
    """Three-way merge of atom sequences, mine-wins on conflicting chunks.
    Returns (merged, had_conflict). In a conflicting chunk mine's run is kept
    and theirs-only additions are appended after it."""
    match_m = _match_map(a, m)
    match_t = _match_map(a, t)
    result: list = []
    conflict = False
    ia = im = it = 0
    while ia < len(a) or im < len(m) or it < len(t):
        if ia < len(a) and match_m.get(ia) == im and match_t.get(ia) == it:
            result.append(a[ia])
            ia, im, it = ia + 1, im + 1, it + 1
            continue
        # unstable chunk: scan ahead for the next index aligned on both sides
        ia2 = ia
        while ia2 < len(a):
            jm = match_m.get(ia2)
            jt = match_t.get(ia2)
            if jm is not None and jt is not None and jm >= im and jt >= it:
                break
            ia2 += 1
        if ia2 < len(a):
            im2, it2 = match_m[ia2], match_t[ia2]
        else:
            im2, it2 = len(m), len(t)
        chunk_a, chunk_m, chunk_t = a[ia:ia2], m[im:im2], t[it:it2]
        if chunk_m == chunk_a:
            result.extend(chunk_t)
        elif chunk_t == chunk_a or chunk_m == chunk_t:
            result.extend(chunk_m)
        else:
            conflict = True
            result.extend(chunk_m)
            seen = set(chunk_a) | set(chunk_m)
            result.extend(e for e in chunk_t if e not in seen)
        ia, im, it = ia2, im2, it2
    return result, conflict


# survival decisions
_DEAD = 0
_MINE = 1
_THEIRS = 2


class _Merge:
    def __init__(self, base: ml.Unit, mine: ml.Unit, theirs: ml.Unit):
        self.a_tab = depcore.build_element_table(base)
        self.m_tab = depcore.build_element_table(mine)
        self.t_tab = depcore.build_element_table(theirs)
        self.conflicts: list[Conflict] = []
        self.fate: dict[int, int] = {}

    def _qname(self, eid: int) -> str:
        for tab in (self.m_tab, self.t_tab, self.a_tab):
            if eid in tab:
                return tab.qname(eid)
        return f"#{eid}"

    def _conflict(self, kind: str, eid: int | None, detail: str = "") -> None:
        qname = self._qname(eid) if eid is not None else "<unit>"
        self.conflicts.append(Conflict(kind, eid, qname, detail))

    def _content(self, tab: depcore.ElementTable, eid: int) -> tuple | None:
        return depcore.element_content(tab.info(eid).node) if eid in tab else None

    def _decide_elements(self) -> None:
        universe = set(self.a_tab.elements) | set(self.m_tab.elements) | set(self.t_tab.elements)
        for eid in sorted(universe):
            ca = self._content(self.a_tab, eid)
            cm = self._content(self.m_tab, eid)
            ct = self._content(self.t_tab, eid)
            if ca is not None:
                if cm is not None and ct is not None:
                    if cm == ca:
                        self.fate[eid] = _THEIRS
                    elif ct == ca or cm == ct:
                        self.fate[eid] = _MINE
                    else:
                        self.fate[eid] = _MINE
                        self._conflict(CONTENT, eid, "both sides changed this element")
                elif cm is not None:
                    if cm == ca:
                        self.fate[eid] = _DEAD
                    else:
                        self.fate[eid] = _MINE
                        self._conflict(DELETE_MODIFY, eid, "deleted centrally, modified locally")
                elif ct is not None:
                    self.fate[eid] = _DEAD
                    if ct != ca:
                        self._conflict(MODIFY_DELETE, eid, "deleted locally, modified centrally")
                else:
                    self.fate[eid] = _DEAD
            elif cm is not None:
                if ct is not None:
                    raise AssertionError(f"element {eid} created on both sides")
                self.fate[eid] = _MINE
            else:
                self.fate[eid] = _THEIRS

    def _fix_survival(self) -> None:
        # resurrect ancestors of survivors (mine-wins keeps a modified child
        # even when the other side deleted its container)
        changed = True
        while changed:
            changed = False
            for eid, fate in list(self.fate.items()):
                if fate == _DEAD:
                    continue
                tab = self.m_tab if eid in self.m_tab else self.t_tab
                parent = tab.info(eid).parent
                if parent is not None and self.fate.get(parent) == _DEAD:
                    self.fate[parent] = _MINE if parent in self.m_tab else _THEIRS
                    changed = True
        # a deliberate deletion on the surviving side kills the subtree
        for eid in sorted(self.fate):
            if self.fate[eid] == _DEAD:
                continue
            tab = self.m_tab if self.fate[eid] == _MINE else self.t_tab
            if eid not in tab:
                self.fate[eid] = _DEAD

    def _chosen_node(self, eid: int):
        tab = self.m_tab if self.fate[eid] == _MINE else self.t_tab
        return tab.info(eid).node

    def _seq(self, tab: depcore.ElementTable, parent: int | None, slot: str) -> list[int]:
        if parent is None:
            return [eid for eid, info in tab.elements.items() if info.parent is None]
        if parent not in tab:
            return []
        node = tab.info(parent).node
        for name, children in depcore.child_slots(node):
            if name == slot:
                return [child.eid for child in children]
        return []

    def _build_element(self, eid: int):
        source = self._chosen_node(eid)
        # copy the node's own content only: each child list copies as a
        # fresh empty list, filled from the merged slot below
        slots = depcore.child_slots(source)
        memo = {id(children): [] for _slot, children in slots}
        node = copy.deepcopy(source, memo)
        for slot, children in slots:
            memo[id(children)].extend(
                self._build_element(child) for child in self._merge_child_slot(eid, slot)
            )
        return node

    def _merge_child_slot(self, parent: int | None, slot: str) -> list[int]:
        """Merged child ids of one slot of `parent`; a `parent` of None
        merges the class list."""
        a = self._seq(self.a_tab, parent, slot)
        m = self._seq(self.m_tab, parent, slot)
        t = self._seq(self.t_tab, parent, slot)
        merged, conflict = diff3_seq(a, m, t)
        if conflict:
            self._conflict(ORDER, parent, f"both sides changed {slot}")
        merged = [e for e in merged if self.fate.get(e, _DEAD) != _DEAD]
        placed = set(merged)
        for side_seq in (m, t):
            for eid in side_seq:
                if eid not in placed and self.fate.get(eid, _DEAD) != _DEAD:
                    merged.append(eid)
                    placed.add(eid)
        return merged

    def run(self) -> tuple[ml.Unit, list[Conflict]]:
        self._decide_elements()
        self._fix_survival()
        classes = self._merge_child_slot(None, "the class list")
        unit = ml.Unit([self._build_element(eid) for eid in classes])
        element_conflicts = list(self.conflicts)
        if not element_conflicts:
            gate = semantics.build_gate(unit)
            if not gate.report.buildable:
                first = gate.report.errors[0]
                self.conflicts.append(
                    Conflict(BUILD, None, "<unit>", f"merged tree does not build: {first.message}")
                )
        ordered = sorted(self.conflicts, key=lambda c: (c.eid if c.eid is not None else -1, c.kind))
        return unit, ordered


def merge_trees(base: ml.Unit, mine: ml.Unit, theirs: ml.Unit) -> tuple[ml.Unit, list[Conflict]]:
    """Element-wise three-way merge; every input must be id-annotated."""
    return _Merge(base, mine, theirs).run()


class BaselineRepo:
    """Central tree plus isolated working copies. No coordination: conflicts
    surface only at checkin time."""

    def __init__(self, initial_text: str = ""):
        tree, diags = ml.parse_unit(ml.SourceText(initial_text, "<initial>"))
        if tree is None:
            raise ValueError(f"initial source does not parse: {diags[0].message}")
        self.alloc = depcore.IdAllocator()
        depcore.annotate(tree, self.alloc)
        self.central = tree
        self.version = 1
        self.devs: dict[str, _WorkingCopy] = {}
        self.checkins = 0
        self.merge_invocations = 0

    def register(self, dev: str) -> None:
        if dev in self.devs:
            raise ValueError(f"developer {dev!r} already registered")
        work = copy.deepcopy(self.central)
        self.devs[dev] = _WorkingCopy(
            dev, self.version, self.central, work, depcore.build_element_table(work)
        )

    def _copy(self, dev: str) -> _WorkingCopy:
        try:
            return self.devs[dev]
        except KeyError:
            raise ValueError(f"unknown developer {dev!r}") from None

    def edit(self, dev: str, request: editops.EditRequest) -> editops.EditOp:
        """Apply an operation to the developer's private working copy. No
        admission, no locks; raises OpError for requests that do not resolve
        against this copy."""
        wc = self._copy(dev)
        op = editops.prepare(wc.tree, wc.table, request, self.alloc)
        editops.apply_op(wc.tree, op)
        wc.table = depcore.build_element_table(wc.tree)
        return op

    def revert(self, dev: str) -> None:
        """Discard the working copy's uncommitted edits, back to its base."""
        wc = self._copy(dev)
        wc.tree = copy.deepcopy(wc.base_tree)
        wc.table = depcore.build_element_table(wc.tree)

    def view_text(self, dev: str) -> str:
        return ml.print_unit(self._copy(dev).tree)

    def central_text(self) -> str:
        return ml.print_unit(self.central)

    def checkin(self, dev: str) -> CheckinResult:
        """Merge the working copy into central (mine-wins on conflicts) and
        resynchronize the developer on the result."""
        wc = self._copy(dev)
        self.checkins += 1
        if wc.base_version == self.version:
            merged_tree = wc.tree  # adopted: the working copy gets a fresh copy below
            conflicts: list[Conflict] = []
            merged = False
        else:
            self.merge_invocations += 1
            merged_tree, conflicts = merge_trees(wc.base_tree, wc.tree, self.central)
            merged = True
        changed = merged_tree != self.central
        if changed:
            self.version += 1
            self.central = merged_tree
        wc.base_version = self.version
        wc.base_tree = self.central
        wc.tree = copy.deepcopy(self.central)
        wc.table = depcore.build_element_table(wc.tree)
        return CheckinResult(dev, self.version, changed, merged, conflicts, self.central_text())
