"""Records behave as the dataclasses they replace, and importing the package
generates no code."""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import io
import os
import pathlib
import subprocess
import sys
from typing import Any

import pytest

import openarrows
import openarrows.record
from openarrows import laws
from openarrows.arrow import induced_category
from openarrows.base import pair_atoms
from openarrows.cli import main
from openarrows.gamefile import build_game, fixture_path, parse_game_text
from openarrows.lens import lens_arrow
from openarrows.record import FrozenInstanceError, record, replace

PACKAGE = pathlib.Path(openarrows.__file__).parent

# a lift, an observing decision and a declared context: no fixture has them
_LIFTED = (
    "set m a b\nset u 0 1\nlift sw : m -> m\n  a = b\n  b = a\n"
    "decision d : m -> m utility u\ngame g = (seq sw d)\n"
    "context c\n  state a\n  cont a = 1\n  cont b = 0\n"
)


def record_declarations(source: str) -> dict:
    """Class name -> (frozen, eq, omit_repr), read off each ``@record``."""
    out = {}
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            if isinstance(deco, ast.Name) and deco.id == "record":
                out[node.name] = (False, True, ())
            elif isinstance(deco, ast.Call) and getattr(deco.func, "id", None) == "record":
                flags = {k.arg: ast.literal_eval(k.value) for k in deco.keywords}
                out[node.name] = (flags.get("frozen", False), flags.get("eq", True),
                                  tuple(flags.get("omit_repr", ())))
    return out


def _declared_records() -> dict:
    """Every record class of the package -> its flags."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = __import__(f"openarrows.{path.stem}", fromlist=["_"])
        for name, flags in record_declarations(path.read_text()).items():
            found[getattr(module, name)] = flags
    return found


def test_the_declaration_scan_reads_the_flags():
    src = ("@record\nclass A:\n    x: int\n\n"
           "@record(frozen=True, eq=False, omit_repr=('y',))\nclass B:\n    y: int\n\n"
           "class C:\n    pass\n")
    assert record_declarations(src) == {
        "A": (False, True, ()), "B": (True, False, ("y",)),
    }


def _collect_instances(monkeypatch, classes) -> dict:
    """Instances of each class, as the suites, the mutants and the CLI make them."""
    seen: dict = {cls: [] for cls in classes}
    for cls in classes:
        init = cls.__init__

        def counted(self, *args, init=init, store=seen[cls], **kwargs):
            init(self, *args, **kwargs)
            if len(store) < 4:
                store.append(self)

        monkeypatch.setattr(cls, "__init__", counted)
    for suite in ("arrow", "optic", "bimodule", "context", "graded"):
        laws._SUITE_FNS[suite](1, laws.CASE_BUDGET)
    laws.run_mutants()
    with contextlib.redirect_stdout(io.StringIO()):
        for name in ("prisoners_dilemma.game", "matching_pennies_prob.game"):
            main(["solve", fixture_path(name), "--closed"])
            main(["oracle", fixture_path(name)])
    build_game(parse_game_text(_LIFTED))
    induced_category(lens_arrow(pair_atoms((1, 1))))
    for path in PACKAGE.glob("*.py"):  # and the modules' constants
        for value in vars(sys.modules[f"openarrows.{path.stem}"]).values():
            if type(value) in seen:
                seen[type(value)].append(value)
    return seen


def _twin(cls, flags):
    # the dataclass the declaration stands for; a ``__repr__`` the class
    # writes itself it keeps, as a dataclass would, and every other method
    # is generated
    frozen, eq, omit = flags
    own_repr = cls.__repr__.__code__.co_filename != openarrows.record.__file__
    return dataclasses.make_dataclass(
        cls.__qualname__,
        [(f, Any, dataclasses.field(repr=f not in omit)) for f in cls._fields],
        namespace={"__repr__": cls.__repr__} if own_repr else {},
        frozen=frozen, eq=eq,
    )


def _outcome(fn):
    try:
        return fn()
    except TypeError:
        return TypeError


def test_every_record_behaves_as_its_dataclass_twin(monkeypatch):
    declared = _declared_records()
    assert len(declared) >= 40
    seen = _collect_instances(monkeypatch, declared)
    assert [cls.__qualname__ for cls, got in seen.items() if not got] == []
    monkeypatch.undo()
    for cls, flags in declared.items():
        twin = _twin(cls, flags)
        objs = seen[cls]
        twins = [twin(*(getattr(x, f) for f in cls._fields)) for x in objs]
        for x, tx in zip(objs, twins):
            assert repr(x) == repr(tx)
            assert _outcome(lambda: hash(x)) == _outcome(
                lambda: hash(tx) if flags[1] else object.__hash__(x))
            # equal fields, another class: never equal
            assert not x == tx and not tx == x
        # each instance against the next, and against a copy of itself
        for x, tx, y, ty in zip(objs, twins, objs[1:] + objs[:1], twins[1:] + twins[:1]):
            assert (x == y) == (tx == ty if flags[1] else x is y)
            y, ty = replace(x), dataclasses.replace(tx)
            assert (x == y) == (tx == ty if flags[1] else False)
            assert _outcome(lambda: hash(x) == hash(y)) == _outcome(
                lambda: hash(tx) == hash(ty) if flags[1] else False)
        x, tx = objs[0], twins[0]
        field = cls._fields[0]
        for obj in (x, tx):
            value = getattr(obj, field)
            if flags[0]:
                with pytest.raises(AttributeError):
                    setattr(obj, field, None)
                assert getattr(obj, field) is value
            else:
                setattr(obj, field, value)
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*(getattr(x, f) for f in cls._fields), None)


def test_a_record_takes_keywords_and_defaults_and_refuses_the_rest():
    @record(frozen=True)
    class P:
        a: int
        b: tuple = ()

    p = P(1)
    assert p == P(a=1) == P(1, ()) and p.b == ()
    assert repr(P(1, (2,))).endswith(".<locals>.P(a=1, b=(2,))")
    assert replace(p, b=(3,)) == P(1, (3,)) and replace(p) == p
    for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"a": 1}), ((1,), {"c": 0})]:
        with pytest.raises(TypeError):
            P(*args, **kwargs)
    with pytest.raises(TypeError):
        replace(p, c=0)
    with pytest.raises(FrozenInstanceError):
        p.a = 2
    with pytest.raises(FrozenInstanceError):
        del p.a


_NO_GENERATED_CODE = """
import contextlib, io, sys
import openarrows
from openarrows.cli import main
from openarrows.gamefile import fixture_path
with contextlib.redirect_stdout(io.StringIO()):
    main(["solve", fixture_path("prisoners_dilemma.game"), "--closed"])
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_importing_and_solving_load_neither_dataclasses_nor_inspect():
    # a fresh interpreter: this one has imported both
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", _NO_GENERATED_CODE], env=env, capture_output=True,
        text=True, check=True,
    ).stdout
    assert out.split() == ["[]"]
