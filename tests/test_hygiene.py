"""Source hygiene: no module of the package, its tests or its benchmark
imports a name it never uses, the package starts no threads of its own,
reads an instance's oracles one entry at a time outside the model, or
builds an instance outside the three builders or an identity
constituent anywhere, and the runner absorbs every node through the
method the benchmark wraps, reading its operand where an environment's
backward pass does."""

import ast
from pathlib import Path

from liomsim.model import InstanceParams, build_random_instance
from liomsim.simulate import (
    SimulationRequest,
    _cone,
    _cone_move,
    _environment_at,
    _ket,
    conditional_chain,
)
from liomsim.tensor import PlanRunner
from liomsim.truncation import TruncationRadii

ROOT = Path(__file__).resolve().parent.parent
MODULES = [
    *sorted((ROOT / "src" / "liomsim").glob("*.py")),
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def _imports(tree: ast.Module):
    """(bound name, line) for every import, __future__ features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree: ast.Module) -> set[str]:
    """Names the module loads, and the entries of its __all__ (a re-export
    counts as a use)."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return used


def test_no_unused_imports():
    assert len(MODULES) > 10
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used(tree)
        unused += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in _imports(tree)
            if name not in used
        ]
    assert not unused, "imported but never used:\n" + "\n".join(unused)


def test_package_starts_no_threads():
    # The contraction kernel runs on BLAS, and the benchmark's host-speed
    # adjustment cannot see threads the library itself starts.
    banned = {"threading", "multiprocessing", "concurrent"}
    found = []
    for path in sorted((ROOT / "src" / "liomsim").glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [
                f"{path.relative_to(ROOT)}:{node.lineno}: imports {name}"
                for name in names
                if name.split(".")[0] in banned
            ]
        if "NUM_THREADS" in text:
            found.append(f"{path.relative_to(ROOT)}: mentions NUM_THREADS")
    assert not found, "\n".join(found)


def test_package_reads_the_oracles_in_batches():
    # MblInstance.coupling and .constituent are batches of one, kept for
    # callers outside the package; the library reads coupling_values and
    # constituents_at, so one oracle call covers a whole batch.
    single = {"coupling", "constituent"}
    found = []
    for path in sorted((ROOT / "src" / "liomsim").glob("*.py")):
        if path.name == "model.py":
            continue
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}: .{node.func.attr}("
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in single
        ]
    assert not found, "single oracle reads:\n" + "\n".join(found)


def _names(tree: ast.Module):
    """(identifier, line) for every name the module binds, loads or reads
    as an attribute, keyword or argument."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
            if isinstance(node.value, ast.Name):
                yield f"{node.value.id}.{node.attr}", node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.arg):
            yield node.arg, node.lineno
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.value.lineno


def _builds_instance(node: ast.AST) -> bool:
    callee = node.func if isinstance(node, ast.Call) else None
    return getattr(callee, "id", getattr(callee, "attr", None)) == "MblInstance"


def test_instances_are_built_by_the_builders_alone():
    # An instance lists exactly U's factors, so only the builders that
    # know them construct one: no module wraps an instance in a second,
    # truncated or identity-filling one.
    builders = {
        ("model.py", "build_random_instance"),
        ("model.py", "build_explicit_instance"),
        ("hardness.py", "build_iqp_instance"),
    }
    built, found = set(), []
    for path in sorted((ROOT / "src" / "liomsim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and (path.name, func.name) in builders:
                calls = [id(node) for node in ast.walk(func) if _builds_instance(node)]
                built.update([(path.name, func.name)] if calls else [])
                allowed.update(calls)
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}: MblInstance("
            for node in ast.walk(tree)
            if _builds_instance(node) and id(node) not in allowed
        ]
        found += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in _names(tree)
            if name in ("is_identity", "Constituent.identity")
        ]
    assert built == builders
    assert not found, "instances or identity constituents built outside the builders:\n" + "\n".join(
        found
    )


def _is_dataclass(decorator: ast.expr) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr == "dataclass"
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def test_no_unread_dataclass_fields():
    # A field nothing reads is state every instance carries for nothing.
    # Fields are matched by attribute name only, so one read of a name
    # anywhere covers every field of that name.
    read = set()
    fields = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        read.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        )
        if path.parent.name != "liomsim":
            continue
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list)):
                where = f"{path.relative_to(ROOT)}:{{}}: {cls.name}.{{}}"
                fields += [
                    (where.format(item.lineno, item.target.id), item.target.id)
                    for item in cls.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
    assert len(fields) > 20
    unread = [where for where, name in fields if name not in read]
    assert not unread, "dataclass fields never read:\n" + "\n".join(unread)


def _init_false(value: ast.expr | None) -> bool:
    """Whether a field's default is a field(...) call with init=False."""
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "field"
        and any(
            kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in value.keywords
        )
    )


def test_private_dataclass_fields_are_not_constructor_arguments():
    # A private field that __init__ takes is a knob every caller can set,
    # and one that dataclasses.replace copies, so a replaced object would
    # share what the original derived.
    fields, public = [], []
    for path in sorted((ROOT / "src" / "liomsim").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list)):
                for item in cls.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        name = item.target.id
                        where = f"{path.relative_to(ROOT)}:{item.lineno}: {cls.name}.{name}"
                        if name.startswith("_"):
                            fields.append(where)
                            if not _init_false(item.value):
                                public.append(where)
    assert len(fields) >= 2
    assert not public, "private dataclass fields taken by __init__:\n" + "\n".join(public)


def test_einsum_is_called_only_inside_the_labelled_wrapper():
    # numpy's einsum accepts at most 52 labels; tensor._einsum renumbers
    # each call's ids from 0 and ForkTarget checks its move against that
    # cap, so every einsum in the package goes through that wrapper.
    calls = []
    for path in (ROOT / "src" / "liomsim").glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        wrapper = next(
            (node for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name == "_einsum"
             and path.name == "tensor.py"),
            None,
        )
        inside = {id(node) for node in ast.walk(wrapper)} if wrapper else set()
        calls += [
            (path.name, node.lineno, id(node) in inside)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "einsum"
        ]
    assert [inside for *_, inside in calls] == [True], calls


def test_runner_absorbs_every_step_through_step(monkeypatch):
    # The benchmark's per-layer view wraps PlanRunner.step, so run_to,
    # finish and forks must absorb each node through that method.
    inst = build_random_instance(InstanceParams(8, 0.5), seed=8, max_body=2, max_width=2)
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(3, 3))
    network, plan, _ = _cone(req, 8)
    calls = 0
    step = PlanRunner.step

    def counted(self):
        nonlocal calls
        calls += 1
        step(self)

    monkeypatch.setattr(PlanRunner, "step", counted)
    runner = PlanRunner(plan, network)
    half = len(plan.steps) // 2
    runner.run_to(half)
    assert calls == half
    twin = runner.fork()
    runner.finish()
    assert calls == len(plan.steps)
    twin.finish()
    assert calls == 2 * len(plan.steps) - half


def test_steps_and_environments_read_one_operand_path(monkeypatch):
    # A node's operand (override, pick, transpose, reshape) is made in one
    # place, for the runner's steps and for an environment's backward
    # pass alike, and no other code reads a node's legs.
    tree = ast.parse((ROOT / "src" / "liomsim" / "tensor.py").read_text())
    callers, readers = set(), set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_step_operand":
                callers.add(func.name)
            if isinstance(node, ast.Attribute) and node.attr == "legs" and func.name != "legs":
                readers.add(func.name)
    assert callers == {"step", "environment"}
    assert readers == {"_step_operand"}
    # A warm chain absorbs every node through step: the ket half's nodes
    # up to the last mark once, and each site's tail up to its cut once
    # per outcome, the steps from the cut on never.
    inst = build_random_instance(InstanceParams(8, 0.5), seed=8, max_body=2, max_width=2)
    req = SimulationRequest(instance=inst, t=1.0, epsilon=0.5, radii=TruncationRadii(3, 3))
    conditional_chain(req, seed=0, engine="plan")
    ran: dict[int, list[int]] = {}
    step = PlanRunner.step

    def recorded(self):
        ran.setdefault(id(self.plan), []).append(self.position)
        step(self)

    monkeypatch.setattr(PlanRunner, "step", recorded)
    conditional_chain(req, seed=1, engine="plan")
    _, ket, marks = _ket(req)
    assert ran.pop(id(ket)) == list(range(ket.step_of[marks[8]]))
    for site, target in req._state.cone_targets.items():
        at = _environment_at(_cone_move(req, site).tail().plan)
        assert len(target.plan.steps) == at
        assert ran.pop(id(target.plan)) == 2 * list(range(at))
    assert not ran
