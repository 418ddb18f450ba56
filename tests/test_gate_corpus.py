"""The build gate pinned over a seeded corpus of small programs.

`program(seed)` builds one MiniJ program from `random.Random(seed)`. The
corpus reaches every error code of the gate, but keeps class names
distinct, method return types known, and call arguments to literals and
plain names. One SHA-256 per seed, over the gate's ordered errors and its
sorted reference sites, is pinned in tests/golden/gate/digests.txt. After a
deliberate change to the gate, rewrite the pins with

    PYTHONPATH=src python tests/test_gate_corpus.py > tests/golden/gate/digests.txt
"""

import hashlib
import json
import random
from pathlib import Path

from ssd import depcore
from ssd import minilang as ml
from ssd import semantics

DIGESTS = Path(__file__).resolve().parent / "golden" / "gate" / "digests.txt"
SEEDS = range(2000)

CLASS_NAMES = ["A", "B", "C", "D"]
NAMES = ["a", "b", "n", "s"]  # fields, parameters and locals share one pool
METHODS = ["f", "g", "h"]
OPERATORS = ["+", "-", "*", "/", "<", "&&", "||", "=="]


def _atom(rng: random.Random):
    pick = rng.randrange(5)
    if pick == 0:
        return ml.IntLit(rng.randrange(10))
    if pick == 1:
        return ml.BoolLit(rng.random() < 0.5)
    if pick == 2:
        return ml.StrLit("s")
    return ml.NameRef(rng.choice(NAMES))


def _call(rng: random.Random):
    return ml.Call(rng.choice(METHODS), [_atom(rng) for _ in range(rng.randrange(3))])


def _expr(rng: random.Random, depth: int = 2):
    pick = rng.random()
    if depth == 0 or pick < 0.45:
        return _atom(rng)
    if pick < 0.6:
        return _call(rng)
    return ml.Binary(rng.choice(OPERATORS), _expr(rng, depth - 1), _expr(rng, depth - 1))


def _block(rng: random.Random, types: list[str], depth: int) -> list:
    return [_stmt(rng, types, depth) for _ in range(rng.randrange(4))]


def _stmt(rng: random.Random, types: list[str], depth: int):
    pick = rng.randrange(7 if depth else 5)
    if pick == 0:
        init = _expr(rng) if rng.random() < 0.7 else None
        return ml.VarDeclStmt(rng.choice(types), rng.choice(NAMES), init)
    if pick == 1:
        return ml.AssignStmt(ml.NameRef(rng.choice(NAMES)), _expr(rng))
    if pick == 2:
        return ml.ReturnStmt(_expr(rng) if rng.random() < 0.7 else None)
    if pick in (3, 4):
        return ml.ExprStmt(_call(rng))
    if pick == 5:
        else_body = _block(rng, types, depth - 1) if rng.random() < 0.5 else None
        return ml.IfStmt(_expr(rng), _block(rng, types, depth - 1), else_body)
    return ml.WhileStmt(_expr(rng), _block(rng, types, depth - 1))


def program(seed: int) -> str:
    rng = random.Random(seed)
    classes = rng.sample(CLASS_NAMES, rng.randint(1, 3))
    types = ["int", "bool", "String", "Q"] + classes  # Q is never declared
    returns = ["void", "int", "bool", "String"] + classes
    unit = ml.Unit([])
    for name in classes:
        members = []
        for _ in range(rng.randrange(4)):
            if rng.random() < 0.4:
                init = _expr(rng) if rng.random() < 0.6 else None
                members.append(ml.FieldDecl(rng.choice(types), rng.choice(NAMES), init))
            else:
                params = [
                    ml.Param(rng.choice(types), rng.choice(NAMES))
                    for _ in range(rng.randrange(3))
                ]
                members.append(
                    ml.MethodDecl(
                        rng.choice(returns), rng.choice(METHODS), params, _block(rng, types, 2)
                    )
                )
        unit.classes.append(ml.ClassDecl(name, members))
    return ml.print_unit(unit)


def gate_digest(text: str) -> str:
    unit, diags = ml.parse_unit(ml.SourceText(text, "<corpus>"))
    assert unit is not None, diags
    depcore.annotate(unit, depcore.IdAllocator())
    result = semantics.build_gate(unit)
    errors = [[e.code, e.message, e.span.line, e.span.col] for e in result.report.errors]
    sites = sorted(
        [s.kind, s.name, s.target, s.owner, s.attr] for s in result.bindings.sites
    )
    return hashlib.sha256(json.dumps([errors, sites]).encode()).hexdigest()


def test_gate_errors_and_sites_match_the_pinned_digests():
    # one `seed sha256` line per seed; a deliberate change to the gate
    # rewrites the file and names the seeds that moved
    pinned = {
        int(seed): digest
        for seed, digest in (line.split() for line in DIGESTS.read_text().splitlines())
    }
    assert sorted(pinned) == list(SEEDS)
    changed = [seed for seed in SEEDS if gate_digest(program(seed)) != pinned[seed]]
    assert not changed, f"corpus seeds whose gate errors or sites changed: {changed}"


if __name__ == "__main__":
    for seed in SEEDS:
        print(seed, gate_digest(program(seed)))
