"""The slotted record classes against the frozen dataclasses they replaced.

Each class is compared with a dataclass of the same name and fields,
made here: ``==``, ``hash``, ``repr``, ``__match_args__``, copying,
pickling and assignment must agree.
"""

import copy
import itertools
import pickle
from dataclasses import field, make_dataclass

import pytest

from ptskit.corpus import Judgement
from ptskit.reduction import StepTrace
from ptskit.syntax import CC, STLC, BVar, Context, Pi, PtsSpec, SortE, Var
from ptskit.translate import CheckEntry, TransEnv
from ptskit.typecheck import GammaConstructor, GammaTerm, Kind

STAR = SortE("*")
CTX = Context((("A", STAR), ("x", Var("A"))))

# (class, frozen, constructor arguments of a few instances, two of them equal)
CASES = [
    (
        PtsSpec,
        True,
        [
            (CC.sorts, CC.axioms, CC.rules),
            (CC.sorts, CC.axioms, CC.rules, True),
            (STLC.sorts, STLC.axioms, STLC.rules, False),
            (frozenset({"*", "#"}), frozenset({("*", "#")}), frozenset({("*", "*", "*")})),
        ],
    ),
    (Context, True, [(), (CTX.bindings,), ((("A", STAR), ("x", Var("A"))),), ((("B", STAR),),)]),
    (
        StepTrace,
        True,
        [(Var("y"), ()), (Var("y"), ()), (Pi("x", STAR, BVar(0)), (("fun", "beta", Var("y")), ("", "beta", STAR)))],
    ),
    (Kind, True, [(), ()]),
    (GammaConstructor, True, [(True,), (False,), (True,)]),
    (GammaTerm, True, [(), ()]),
    (Judgement, True, [("a", CTX, Var("x"), None), ("a", CTX, Var("x"), None), ("b", Context(), STAR, SortE("#"))]),
    (TransEnv, False, [(Context(), [0]), (Context(), [0]), (CTX, [3])]),
    (CheckEntry, True, [(True, "typing", "a: x"), (True, "typing", "a: x"), (False, "simulation", "x ~> y")]),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


DEFAULTS = {"bindings": (), "sigma_enabled": False}


def reference(cls, frozen):
    """The dataclass ``cls`` was before: same name, fields, defaults and frozenness."""
    fields = [(name, object, field(default=DEFAULTS[name])) if name in DEFAULTS else name for name in cls.__match_args__]
    return make_dataclass(cls.__name__, fields, frozen=frozen)


@pytest.mark.parametrize("cls, frozen, arguments", CASES, ids=IDS)
def test_eq_hash_repr_match_the_dataclass(cls, frozen, arguments):
    ref = reference(cls, frozen)
    assert cls.__match_args__ == ref.__match_args__
    news = [cls(*args) for args in arguments]
    refs = [ref(*args) for args in arguments]
    for new, old in zip(news, refs):
        assert repr(new) == repr(old)
        if frozen:
            assert hash(new) == hash(old)
        else:
            with pytest.raises(TypeError):
                hash(new)
        assert new != old and not new == old  # another class is never equal
    for (n1, o1), (n2, o2) in itertools.product(zip(news, refs), repeat=2):
        assert (n1 == n2) == (o1 == o2)
        assert (n1 != n2) == (o1 != o2)


@pytest.mark.parametrize("cls, frozen, arguments", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, frozen, arguments):
    for args in arguments:
        value = cls(*args)
        for twin in (copy.deepcopy(value), pickle.loads(pickle.dumps(value)), copy.copy(value)):
            assert type(twin) is cls
            assert twin == value  # a rebuilt frozenset may print in another order


@pytest.mark.parametrize("cls, frozen, arguments", CASES, ids=IDS)
def test_assignment(cls, frozen, arguments):
    value = cls(*arguments[-1])
    for name in cls.__match_args__ + ("other",):
        if frozen:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
    if not frozen:
        value.cc_context = Context()
        assert value.cc_context == Context()


def test_trans_env_defaults():
    env = TransEnv(Context())
    assert repr(env) == "TransEnv(cc_context=Context(bindings=()), _counter=[0])"
    assert env.fresh_y() == "_y1" and env.fresh_y() == "_y2"
    # an environment made with another's counter shares it
    other = TransEnv(Context((("A", STAR),)), env._counter)
    assert other.fresh_y() == "_y3" and env.fresh_y() == "_y4"


def test_keyword_construction_and_defaults():
    assert PtsSpec(sorts=CC.sorts, axioms=CC.axioms, rules=CC.rules) == CC
    assert Context() == Context(bindings=()) and len(Context()) == 0
    assert GammaConstructor(is_type=False) == GammaConstructor(False)
    assert Judgement(name="j", ctx=CTX, term=STAR, ty=None).ty is None


def test_a_name_bound_twice_answers_with_its_first_binding():
    ctx = Context((("x", STAR), ("A", STAR), ("x", Var("A"))))
    assert ctx.lookup("x") == ctx.index()["x"] == STAR
    assert "x" in ctx and "A" in ctx and "y" not in ctx and ctx.lookup("y") is None


def test_classify_match_patterns():
    # the patterns of ``ptskit classify``
    def label(cls):
        match cls:
            case Kind():
                return "kind"
            case GammaConstructor(is_type=True):
                return "constructor (a type)"
            case GammaConstructor():
                return "constructor"
            case GammaTerm():
                return "term"

    assert [label(c) for c in (Kind(), GammaConstructor(True), GammaConstructor(False), GammaTerm())] == [
        "kind",
        "constructor (a type)",
        "constructor",
        "term",
    ]


def test_spec_validation_messages():
    with pytest.raises(ValueError) as err:
        PtsSpec(frozenset({"*"}), frozenset({("*", "#")}), frozenset({("*", "*", "@")}))
    assert str(err.value) == "axioms/rules mention undeclared sorts: ['#', '@']"
    with pytest.raises(ValueError) as err:
        PtsSpec(frozenset({"*", "#"}), frozenset({("*", "#"), ("*", "*")}), frozenset())
    assert str(err.value) == "not functional: several axioms for sort *"
    with pytest.raises(ValueError) as err:
        PtsSpec(frozenset({"*", "#"}), frozenset(), frozenset({("*", "#", "#"), ("*", "#", "*")}))
    assert str(err.value) == "not functional: several rules for sorts (*,#)"


def test_with_sigma():
    ccs = CC.with_sigma()
    assert ccs.sigma_enabled and (ccs.sorts, ccs.axioms, ccs.rules) == (CC.sorts, CC.axioms, CC.rules)
    assert ccs != CC and ccs.with_sigma(False) == CC
    assert repr(ccs) == repr(CC).replace("sigma_enabled=False", "sigma_enabled=True")
