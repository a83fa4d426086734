"""Term language shared by every system the kernel handles.

One grammar covers terms, types and kinds.  Binding uses a locally
nameless representation: bound variables are de Bruijn indices, free
variables are names.  Binder names are kept only as printing hints and
are excluded from equality, so ``==`` on expressions *is*
alpha-equivalence.

The fully annotated terms of the labeled system (``LabeledExpr``) live
here beside the plain ones.  Every node class of both ASTs declares a
shape table (see ``Node``); free variables, size and one rebuild walk
for shifting, instantiation, closing and substitution are each one
definition over those tables; one grammar and one printer cover both
surface syntaxes.

Each node also records two summaries of itself, fixed at construction:
the range of its dangling indices and a mask of its free names (see
``Node``).  The binder walks return a subterm whose summaries show that
the walk cannot change it, without entering it, so opening or closing a
binder costs the part of the body that mentions the variable, not the
whole body (Charguéraud, "The Locally Nameless Representation", JAR
2012; Lean 4 keeps the same data in its expressions).
"""

from __future__ import annotations

import re

STAR = "*"
BOX = "#"

# Identifiers beginning with "_" are producible only by the tool (the
# translation owns "_0", "_z", "_w$x", "_y1", ...).  parse_expr rejects
# them unless explicitly told otherwise.
RESERVED_PREFIX = "_"


# Leaf roles in a shape table.
CONST = "const"
FREE = "free"
BOUND = "bound"


class Record:
    """Base of the immutable classes with slots: ``==`` (same class, equal fields),
    ``hash``, ``repr``, pickling and copying read the fields ``__match_args__``
    names, and ``__init__`` sets them with ``_set``, as ``__setattr__`` refuses."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"


_set = object.__setattr__


class Node(Record):
    """Base of the plain and the labeled AST; each class is one shape table.

    ``_shape`` lists every field in declaration order as
    ``(name, binders, position)``.  ``binders`` is how many binders the
    field sits under, or None when the field is not a child (``hint``,
    ``name``, ``index``).  ``position`` names the field in reduction
    paths, or is None where reduction never steps (a pair's
    annotation).  Leaf classes set ``_role`` to CONST, FREE or BOUND; a
    free-variable class names its bound-variable class in ``_bound``.

    An elimination form names in ``_head`` the field that holds its
    function or subject, and in ``_intro`` the introduction class that
    field must reach for the node to be a redex.  A class with a root
    redex names its kind in ``_redex`` and defines ``_fires`` (is this
    node a redex?) and ``_contract`` (its contractum).

    The table is the only place a field is named: ``_node`` and
    ``_build_nodes`` make the class's slots, positional ``__init__``,
    ``__match_args__``, ``__eq__`` and ``__hash__`` from it, ``__repr__``
    reads it, and nodes are immutable.  ``free_vars``, ``size``, the
    rebuild walk ``_map`` and the reduction walks read these tables, so
    one definition of each serves every class.

    Next to its hash, each node holds two summaries of its subterm:

    * ``_loose`` is 1 + the largest index that dangles out of it, or 0
      if none does: a walk that changes only indices >= d (shifting,
      instantiating at depth d) returns a node with ``_loose <= d`` as
      it is;
    * ``_fv`` is the OR, over its free names, of two bits per name
      taken from ``hash(name)`` (``_name_bits``): a walk after one name
      (closing, substitution, ``occurs``) returns a node whose mask
      lacks either bit of the name as it is, and enters the others,
      where the name may still be absent.

    Neither takes part in equality or the hash.  The bits follow
    ``PYTHONHASHSEED``, so they may decide only how much is walked,
    never a result.
    """

    __slots__ = ("_hash", "_loose", "_fv")
    _role = None
    _head = None
    _intro = None
    _redex = None

    def __str__(self) -> str:
        return print_expr(self)


_METHODS = """\
def make_{cls}(cls, {setters}):
    def __init__(self, {params}):
{sets}        set_hash(self, hash((cls, {key})))
{summaries}    def _eq(a, b, later):
        if b.__class__ is not cls{leaves}:
            return False
{children}        return True
    return __init__, _eq
"""

_PUSH = """\
        x, y = a.{name}, b.{name}
        if x is not y:
            if x._hash != y._hash:
                return False
            later.append((x, y))
"""


def _summaries(cls) -> str:
    """The lines of ``__init__`` that set ``_loose`` and ``_fv``: a child
    under b binders bounds ``_loose`` by its own minus b."""
    if cls._role == BOUND:
        return "        set_loose(self, index + 1)\n"
    if cls._role == FREE:
        return "        h = hash(name)\n        set_fv(self, 1 << (h & 63) | 1 << (h >> 6 & 63))\n"
    if cls._role == CONST:
        return ""
    # a child under no binder goes first: its range is never negative
    kids = sorted(cls._children, key=lambda kid: kid[1])
    lines = ["        loose = 0\n"] if kids[0][1] else []
    for name, binders in kids:
        loose = f"{name}._loose - {binders}" if binders else f"{name}._loose"
        lines.append(f"        n = {loose}\n        if n > loose:\n            loose = n\n" if lines else f"        loose = {loose}\n")
    lines.append("        set_loose(self, loose)\n")
    lines.append(f"        set_fv(self, {' | '.join(f'{name}._fv' for name, _ in kids)})\n")
    return "".join(lines)


def _eq_hash(cls):
    """``==`` and ``hash`` for the node class ``cls``, with code objects of
    their own named after it, so that profilers tell the classes apart."""
    def __eq__(self, other):
        if other.__class__ is not cls:
            return NotImplemented
        if self is other:
            return True
        if self._hash != other._hash:
            return False
        later = [(self, other)]
        while later:
            a, b = later.pop()
            if not a._eq(b, later):
                return False
        return True

    def __hash__(self):
        return self._hash

    # code objects compare by value: renamed, each class's are its own
    for fn in (__eq__, __hash__):
        fn.__code__ = fn.__code__.replace(co_name=f"{cls.__name__}.{fn.__name__}")
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
    return __eq__, __hash__


_UNBUILT: list[tuple[type, str]] = []  # each node class with the source of its maker, until ``_build_nodes``


def _node(cls):
    """Make a node class from its class statement and its ``_shape``.

    Slots must exist when a class is created, so the class is created
    again with them; a metaclass would slow every ``isinstance`` test
    that misses.  The classes are final, so the hot walks (``_infer``,
    ``_elaborate``, the translation maps, ``_pp``) test ``type(e) is C``
    for what a class pattern tests by ``isinstance`` and ``__match_args__``
    reads, 0.4-1.6 µs more per node (CPython 3.11); ``repr``, pickling
    and erasure still read ``__match_args__``.  A node's hash is fixed at
    construction from its class, leaf values and children's hashes, so
    hashing never recurses and ``==`` rejects on it before descending;
    hints take part in neither.  ``_loose`` and ``_fv`` are set next to
    the hash from the children's, by inline compares and ORs, so they
    never recurse either.  ``a._eq(b, later)`` compares leaf values and
    pushes onto ``later`` each pair of children that differ but hash
    alike; ``==`` works off that stack, so it never recurses, however
    deep the terms.  ``__init__`` and ``_eq`` are generated for each
    class, and ``_build_nodes`` compiles them for all classes at once.
    """
    names = tuple(name for name, _, _ in cls._shape)
    ns = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    cls = type(cls.__name__, cls.__bases__, {**ns, "__slots__": names, "__match_args__": names})
    # a leaf summary that no field sets is a class constant, which hides
    # the slot that would hold it
    if cls._role in (CONST, FREE):
        cls._loose = 0
    if cls._role in (CONST, BOUND):
        cls._fv = 0
    cls._fields = tuple((name, binders) for name, binders, _ in cls._shape)
    cls._children = tuple((name, binders) for name, binders in cls._fields if binders is not None)
    cls._positions = tuple((name, pos) for name, _, pos in cls._shape if pos is not None)
    keys = [(name, binders) for name, binders in cls._fields if name != "hint"]
    source = _METHODS.format(
        cls=cls.__name__,
        setters=", ".join(f"set_{name}" for name in names),
        params=", ".join(names),
        sets="".join(f"        set_{name}(self, {name})\n" for name in names),
        key=", ".join(name if binders is None else f"{name}._hash" for name, binders in keys),
        summaries=_summaries(cls),
        leaves="".join(f" or a.{k} != b.{k}" for k, binders in keys if binders is None),
        children="".join(_PUSH.format(name=k) for k, binders in keys if binders is not None),
    )
    _UNBUILT.append((cls, source))
    return cls


def _build_nodes() -> None:
    """Give every class ``_node`` made its methods, with one ``exec`` for all."""
    env = {"set_hash": Node._hash.__set__, "set_loose": Node._loose.__set__, "set_fv": Node._fv.__set__}
    exec("".join(source for _, source in _UNBUILT), env)
    for cls, _ in _UNBUILT:
        setters = (getattr(cls, name).__set__ for name in cls.__match_args__)
        cls.__init__, cls._eq = env[f"make_{cls.__name__}"](cls, *setters)
        cls.__eq__, cls.__hash__ = _eq_hash(cls)
    _UNBUILT.clear()


class Expr(Node):
    """Base class for expressions; all nodes are immutable."""

    __slots__ = ()


@_node
class SortE(Expr):
    _shape = (("name", None, None),)
    _role = CONST


@_node
class BVar(Expr):
    """A bound variable as an index into the enclosing binders."""

    _shape = (("index", None, None),)
    _role = BOUND


@_node
class Var(Expr):
    """A free variable occurrence."""

    _shape = (("name", None, None),)
    _role = FREE
    _bound = BVar


@_node
class Pi(Expr):
    _shape = (("hint", None, None), ("dom", 0, "dom"), ("cod", 1, "cod"))


@_node
class Lam(Expr):
    _shape = (("hint", None, None), ("annot", 0, "annot"), ("body", 1, "body"))


@_node
class App(Expr):
    _shape = (("fun", 0, "fun"), ("arg", 0, "arg"))
    _head = "fun"
    _intro = Lam
    _redex = "beta"

    def _fires(self) -> bool:
        return isinstance(self.fun, Lam)

    def _contract(self) -> Expr:
        return instantiate(self.fun.body, self.arg)


@_node
class Sigma(Expr):
    _shape = (("hint", None, None), ("first", 0, "fst"), ("second", 1, "snd"))


@_node
class Pair(Expr):
    """A dependent pair.

    Pairs carry their full Sigma type so that checking stays
    syntax-directed: the second component's type is not recoverable
    from the pair alone.
    """

    _shape = (("first", 0, "fst"), ("second", 0, "snd"), ("annot", 0, None))


@_node
class Proj1(Expr):
    _shape = (("pair", 0, "pair"),)
    _head = "pair"
    _intro = Pair
    _redex = "proj1"

    def _fires(self) -> bool:
        return isinstance(self.pair, Pair)

    def _contract(self) -> Expr:
        return self.pair.first


@_node
class Proj2(Expr):
    _shape = (("pair", 0, "pair"),)
    _head = "pair"
    _intro = Pair
    _redex = "proj2"

    def _fires(self) -> bool:
        return isinstance(self.pair, Pair)

    def _contract(self) -> Expr:
        return self.pair.second


SIGMA_NODES = (Sigma, Pair, Proj1, Proj2)


class LabeledExpr(Node):
    """Base class for the fully annotated terms of the labeled system.

    Lambdas and applications carry the complete product type of the
    function involved, and tight beta fires only when the two labels
    agree up to alpha.  Each class names in ``_erasure`` its plain class and
    the fields erasure keeps, each with the plain field it becomes; a hint stays.
    """

    __slots__ = ()


@_node
class LSort(LabeledExpr):
    _shape = (("name", None, None),)
    _role = CONST
    _erasure = (SortE, (("name", "name"),))


@_node
class LBVar(LabeledExpr):
    _shape = (("index", None, None),)
    _role = BOUND
    _erasure = (BVar, (("index", "index"),))


@_node
class LVar(LabeledExpr):
    _shape = (("name", None, None),)
    _role = FREE
    _bound = LBVar
    _erasure = (Var, (("name", "name"),))


@_node
class LPi(LabeledExpr):
    _shape = (("hint", None, None), ("dom", 0, "dom"), ("cod", 1, "cod"))
    _erasure = (Pi, (("dom", "dom"), ("cod", "cod")))


@_node
class LLam(LabeledExpr):
    """Lambda labeled with its full product type (x:dom) -> cod.

    One binder scopes over both the label codomain and the body.
    """

    _shape = (("hint", None, None), ("dom", 0, "dom"), ("cod", 1, "cod"), ("body", 1, "body"))
    _erasure = (Lam, (("dom", "annot"), ("body", "body")))


@_node
class LApp(LabeledExpr):
    """Application labeled with the product type of its function.

    Its root tight-beta step fires only when the function is a lambda
    whose label equals this one.
    """

    _shape = (
        ("hint", None, None),
        ("dom", 0, "dom"),
        ("cod", 1, "cod"),
        ("fun", 0, "fun"),
        ("arg", 0, "arg"),
    )
    _head = "fun"
    _intro = LLam
    _erasure = (App, (("fun", "fun"), ("arg", "arg")))
    _redex = "tight-beta"

    def _fires(self) -> bool:
        fun = self.fun
        return isinstance(fun, LLam) and self.dom == fun.dom and self.cod == fun.cod

    def _contract(self) -> LabeledExpr:
        return instantiate(self.fun.body, self.arg)


_build_nodes()


def alpha_eq(a: Expr, b: Expr) -> bool:
    """Equality up to bound-variable names (structural under the hood)."""
    return a == b


def free_vars(e: Node) -> frozenset[str]:
    out: set[str] = set()
    todo = [e]
    while todo:
        e = todo.pop()
        if e._fv:
            if e._role is None:
                for f, _ in e._children:
                    todo.append(getattr(e, f))
            else:
                out.add(e.name)
    return frozenset(out)


def _name_bits(name: str) -> int:
    """The two bits that stand for ``name`` in a free-name mask, as the
    ``__init__`` of a free-variable class sets them."""
    h = hash(name)
    return 1 << (h & 63) | 1 << (h >> 6 & 63)


def occurs(name: str, *es: Node) -> bool:
    """Whether ``name`` occurs free in any of ``es``; walks only the
    subterms whose free-name mask has both bits of ``name``."""
    bits = _name_bits(name)
    todo = list(es)
    while todo:
        e = todo.pop()
        if e._fv & bits == bits:
            if e._role is None:
                todo.extend(getattr(e, f) for f, _ in e._children)
            elif e.name == name:
                return True
    return False


def size(e: Node) -> int:
    n = 0
    todo = [e]
    while todo:
        e = todo.pop()
        n += 1
        for f, _ in e._children:
            todo.append(getattr(e, f))
    return n


def _map(e: Node, depth: int, bits: int | None, leaf) -> Node:
    """The rebuild walk of shifting, instantiation, closing and substitution.

    Returns as it is each subterm the walk cannot change: one with no
    index dangling past ``depth`` when ``bits`` is None, else one whose
    free-name mask lacks either of ``bits``.  Each leaf reached becomes
    ``leaf(t, d)``, ``d`` being ``depth`` plus the binders above ``t``."""
    if (e._loose <= depth) if bits is None else (e._fv & bits != bits):
        return e
    if e._role is None:
        args = []
        for name, binders in e._fields:
            v = getattr(e, name)
            args.append(v if binders is None else _map(v, depth + binders, bits, leaf))
        return type(e)(*args)
    return leaf(e, depth)


def _shift(e: Node, by: int, cutoff: int) -> Node:
    """Add ``by`` to every dangling index >= cutoff."""
    return _map(e, cutoff, None, lambda t, d: type(t)(t.index + by))


def instantiate(body: Node, arg: Node, depth: int = 0) -> Node:
    """Remove the innermost binder of ``body``, replacing its variable by ``arg``."""
    if body._loose <= depth:
        return body
    return _map(body, depth, None, lambda t, d: (_shift(arg, d, 0) if d else arg) if t.index == d else type(t)(t.index - 1))


def open_binder(body: Node, name: str) -> Node:
    """Instantiate the innermost binder with the free variable ``name`` of ``body``'s AST."""
    return instantiate(body, LVar(name) if isinstance(body, LabeledExpr) else Var(name))


def close_binder(e: Node, name: str, depth: int = 0) -> Node:
    """Abstract free occurrences of ``name`` into the binder being built.

    ``e`` must not contain dangling indices of its own.
    """
    return _map(e, depth, _name_bits(name), lambda t, d: t._bound(d) if t.name == name else t)


def subst(target: Node, name: str, replacement: Node) -> Node:
    """Capture-avoiding substitution of ``replacement`` for free ``name``.

    Capture is impossible by construction: bound variables are indices,
    and the free variables of ``replacement`` stay free.
    """
    return _map(target, 0, _name_bits(name), lambda t, d: replacement if t.name == name else t)


def fresh_name(base: str, avoid, *scopes: Node) -> str:
    """``base`` (``x`` if blank), primed until it is not in ``avoid`` and
    occurs free in none of ``scopes``."""
    name = base if base and base != "_" else "x"
    while name in avoid or occurs(name, *scopes):
        name += "'"
    return name


class Scope:
    """What a walk under binders is under: a context, indexed by name
    (``Context.index``, shared), and the binders entered,
    innermost last, one entry each, led by the binder node.  No body is
    opened: ``BVar i`` refers to entry ``-1 - i``.

    Names are made only to be shown, as ``fresh_name`` made them when
    every binder was opened: from the outermost binder in, avoiding the
    context's names and the outer binders', and the unopened scopes answer
    ``occurs`` for any other name as the opened ones did.  A name is kept
    with its entry, which each push makes anew, so a popped binder's name
    is dropped when a name is next asked for.  A walk that grows the
    context (a context's prefix) gives the scope a ``types`` dict of its
    own, and makes a name only to raise.
    """

    __slots__ = ("types", "binders", "names", "taken")

    def __init__(self, ctx: Context):
        self.types, self.binders, self.names = ctx.index(), [], None

    def name(self, k: int) -> str:
        """The name of binder ``k`` (0 is the outermost)."""
        if self.names is None:
            self.names, self.taken = [], set(self.types)
        names, binders = self.names, self.binders
        while names and (len(names) > len(binders) or names[-1][0] is not binders[len(names) - 1]):
            self.taken.discard(names.pop()[1])
        while len(names) <= k:
            entry = binders[len(names)]
            node = entry[0]
            names.append((entry, fresh_name(node.hint, self.taken, *(getattr(node, f) for f, _ in node._children))))
            self.taken.add(names[-1][1])
        return names[k][1]

    def show(self, t: Node) -> str:
        """``print_expr`` of ``t``, its dangling indices opened to the binders' names."""
        if t._loose:
            for k in reversed(range(len(self.binders))):
                t = open_binder(t, self.name(k))
        return print_expr(t)


# ---------------------------------------------------------------------------
# PTS specifications


class PtsSpec(Record):
    """A pure type system: sorts, axioms over them, and product rules."""

    __match_args__ = ("sorts", "axioms", "rules", "sigma_enabled")
    __slots__ = (*__match_args__, "cod_sorts", "_axiom", "_rule")

    def __init__(self, sorts: frozenset[str], axioms: frozenset[tuple[str, str]], rules: frozenset[tuple[str, str, str]],
                 sigma_enabled: bool = False):
        _set(self, "sorts", sorts)
        _set(self, "axioms", axioms)
        _set(self, "rules", rules)
        _set(self, "sigma_enabled", sigma_enabled)
        mentioned = {s for ax in self.axioms for s in ax}
        mentioned.update(s for r in self.rules for s in r)
        stray = mentioned - self.sorts
        if stray:
            raise ValueError(f"axioms/rules mention undeclared sorts: {sorted(stray)}")
        for what, keys, show in (
            ("axioms for sort", [s for s, _ in self.axioms], str),
            ("rules for sorts", [(s1, s2) for s1, s2, _ in self.rules], "({0[0]},{0[1]})".format),
        ):
            clash = sorted({k for k in keys if keys.count(k) > 1})
            if clash:
                raise ValueError(f"not functional: several {what} {', '.join(map(show, clash))}")
        # a product's sort s3 -> its codomain's sort, where the rules forming s3
        # agree on it, as in every built-in system, where each rule has s2 = s3
        cods = {s3: {r2 for _, r2, r3 in self.rules if r3 == s3} for _, _, s3 in self.rules}
        _set(self, "cod_sorts", {s3: s2s.pop() for s3, s2s in cods.items() if len(s2s) == 1})
        _set(self, "_axiom", dict(self.axioms))
        _set(self, "_rule", {(s1, s2): s3 for s1, s2, s3 in self.rules})

    def axiom_for(self, s: str) -> str | None:
        return self._axiom.get(s)

    def rule_for(self, s1: str, s2: str) -> str | None:
        return self._rule.get((s1, s2))

    def with_sigma(self, enabled: bool = True) -> PtsSpec:
        return PtsSpec(self.sorts, self.axioms, self.rules, enabled)


def _spec(rules) -> PtsSpec:
    return PtsSpec(
        sorts=frozenset({STAR, BOX}),
        axioms=frozenset({(STAR, BOX)}),
        rules=frozenset(rules),
    )


STLC = _spec({(STAR, STAR, STAR)})
SYSTEM_F = _spec({(STAR, STAR, STAR), (BOX, STAR, STAR)})
FOMEGA = _spec({(STAR, STAR, STAR), (BOX, STAR, STAR), (BOX, BOX, BOX)})
CC = _spec({(STAR, STAR, STAR), (BOX, STAR, STAR), (BOX, BOX, BOX), (STAR, BOX, BOX)})

BUILTIN_SPECS = {"stlc": STLC, "f": SYSTEM_F, "fomega": FOMEGA, "cc": CC}


# ---------------------------------------------------------------------------
# Contexts


class Context(Record):
    """An ordered telescope of name : type bindings.

    The types are plain expressions, or labeled ones in the contexts of
    the labeled system.
    """

    __match_args__ = ("bindings",)
    __slots__ = (*__match_args__, "_index")

    def __init__(self, bindings: tuple[tuple[str, Node], ...] = ()):
        _set(self, "bindings", bindings)
        _set(self, "_index", None)

    def index(self) -> dict[str, Node]:
        """Each name's type, the first binding of a name winning as in
        ``lookup``; built on first use and shared by every scope over this
        context, so it is read, never written."""
        if self._index is None:
            _set(self, "_index", dict(reversed(self.bindings)))
        return self._index

    def lookup(self, name: str) -> Node | None:
        for n, ty in self.bindings:
            if n == name:
                return ty
        return None

    def extend(self, name: str, ty: Node) -> Context:
        return Context(self.bindings + ((name, ty),))

    def names(self) -> set[str]:
        return {n for n, _ in self.bindings}

    def __contains__(self, name: str) -> bool:
        for n, _ in self.bindings:
            if n == name:
                return True
        return False

    def __iter__(self):
        return iter(self.bindings)

    def __len__(self):
        return len(self.bindings)

    def __str__(self) -> str:
        return print_context(self)


# ---------------------------------------------------------------------------
# Parsing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<proj>\.[12](?![A-Za-z0-9'$_]))
  | (?P<sig>Sig(?![A-Za-z0-9']))
  | (?P<ident>[A-Za-z][A-Za-z0-9']*)
  | (?P<reserved>_[A-Za-z0-9'$_]*)
  | (?P<punct>[*\#()\\.:<>,@\[\]])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


def _error_at(text: str, offset: int, message: str) -> ParseError:
    """The error at character ``offset`` of ``text``, with its 1-based line and column."""
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, offset)`` tokens, where a punctuation mark is its own
    kind, ended by three ``eof`` tokens so the parser may look two ahead."""
    toks = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind != "ws":
            lexeme = m.group()
            if kind == "punct":
                kind = lexeme
            elif kind == "bad":
                raise _error_at(text, m.start(), f"unexpected character {lexeme!r}")
            toks.append((kind, lexeme, m.start()))
    toks += [("eof", "", len(text))] * 3
    return toks


class _Parser:
    """Recursive descent over the plain grammar.

    Sorts, variables and products are built through the class
    attributes ``sort``, ``var`` and ``pi``, so ``_LabeledParser`` shares
    those productions.  ``sigma_forms`` says whether the grammar has
    pairs and projections at all; ``sigma`` whether they are enabled.
    """

    sort, var, pi = SortE, Var, Pi
    noun = "an expression"
    sigma_forms = True

    def __init__(self, text: str, sigma_enabled: bool, allow_reserved: bool):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.sigma = sigma_enabled
        self.allow_reserved = allow_reserved

    def peek(self, ahead: int = 0) -> str:
        return self.toks[self.pos + ahead][0]

    def next(self) -> str:
        # every caller has checked the kind, so this never steps past an eof
        self.pos += 1
        return self.toks[self.pos - 1][1]

    def found(self) -> str:
        return repr(self.toks[self.pos][1] or "end of input")

    def error(self, message: str):
        raise _error_at(self.text, self.toks[self.pos][2], message)

    def expect(self, kind: str) -> None:
        if self.peek() != kind:
            self.error(f"expected {kind!r}, found {self.found()}")
        self.pos += 1

    def ident(self) -> str:
        kind = self.peek()
        if kind == "ident" or kind == "reserved" and self.allow_reserved:
            return self.next()
        if kind == "reserved":
            self.error("identifiers starting with '_' are reserved for generated names")
        self.error(f"expected an identifier, found {self.found()}")

    def expr(self) -> Expr:
        kind = self.peek()
        if kind == "sig" and not self.sigma:
            self.error("'Sig' requires the sigma extension")
        if kind == "sig" or kind == "\\":
            self.next()
            name = self.ident()
            self.expect(":")
            first = self.expr()
            self.expect(".")
            second = self.expr()
            binder = Sigma if kind == "sig" else Lam
            return binder(name, first, close_binder(second, name))
        return self.arrow()

    def arrow(self) -> Node:
        if self.at_pi_start():
            self.next()
            name = self.ident()
            self.expect(":")
            dom = self.expr()
            self.expect(")")
            self.expect("arrow")
            cod = self.expr()
            return self.pi(name, dom, close_binder(cod, name))
        left = self.app()
        if self.peek() == "arrow":
            self.next()
            return self.pi("_", left, self.expr())
        return left

    def at_pi_start(self) -> bool:
        return self.peek() == "(" and self.peek(1) in ("ident", "reserved") and self.peek(2) == ":"

    def app(self) -> Expr:
        e = self.postfix()
        while self.at_atom_start():
            if self.at_pi_start():
                self.error("parenthesize a dependent function type used as an argument")
            e = App(e, self.postfix())
        return e

    def at_atom_start(self) -> bool:
        return self.peek() in ("ident", "reserved", "*", "#", "(", "<")

    def postfix(self) -> Node:
        e = self.atom()
        while self.sigma_forms and self.peek() == "proj":
            if not self.sigma:
                self.error("projections require the sigma extension")
            e = Proj1(e) if self.next() == ".1" else Proj2(e)
        return e

    def atom(self) -> Node:
        kind = self.peek()
        if kind == "*" or kind == "#":
            return self.sort(self.next())
        if kind == "ident" or kind == "reserved":
            return self.var(self.ident())
        if kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        if kind == "<" and self.sigma_forms:
            if not self.sigma:
                self.error("pair syntax requires the sigma extension")
            self.next()
            first = self.expr()
            self.expect(",")
            second = self.expr()
            self.expect(">")
            self.expect(":")
            annot = self.expr()
            return Pair(first, second, annot)
        self.error(f"expected {self.noun}, found {self.found()}")


class _LabeledParser(_Parser):
    """The labeled grammar: the plain one without the sigma forms, with
    labeled lambdas and applications in place of the plain ones."""

    sort, var, pi = LSort, LVar, LPi
    noun = "a labeled expression"
    sigma_forms = False

    def expr(self) -> LabeledExpr:
        if self.peek() == "\\":
            self.next()
            self.expect("[")
            x, dom, cod = self.label()
            self.expect("]")
            x2 = self.ident()
            if x2 != x:
                self.error(f"binder {x2!r} does not match the label binder {x!r}")
            self.expect(":")
            dom2 = self.app()
            if dom2 != dom:
                self.error("lambda annotation does not match the label domain")
            self.expect(".")
            body = self.expr()
            return LLam(x, dom, close_binder(cod, x), close_binder(body, x))
        return self.arrow()

    def label(self) -> tuple[str, LabeledExpr, LabeledExpr]:
        x = self.ident()
        self.expect(":")
        dom = self.app()
        self.expect("arrow")
        cod = self.expr()
        return x, dom, cod

    def app(self) -> LabeledExpr:
        e = self.postfix()
        while True:
            if self.peek() == "@":
                self.next()
                self.expect("[")
                x, dom, cod = self.label()
                self.expect("]")
                arg = self.postfix()
                e = LApp(x, dom, close_binder(cod, x), e, arg)
            elif self.at_atom_start():
                self.error("labeled application must be written with @[...]")
            else:
                return e


def _parse(parser: _Parser) -> Node:
    e = parser.expr()
    if parser.peek() != "eof":
        parser.error(f"unexpected trailing input {parser.found()}")
    return e


def parse_expr(text: str, sigma_enabled: bool = False, allow_reserved: bool = False) -> Expr:
    """Parse surface syntax into an expression.

    Raises ParseError with line/column on bad input; identifiers in the
    reserved "_" namespace are rejected unless ``allow_reserved``.
    """
    return _parse(_Parser(text, sigma_enabled, allow_reserved))


def parse_labeled(text: str, allow_reserved: bool = True) -> LabeledExpr:
    """Parse labeled surface syntax (the form ``print_labeled`` emits)."""
    return _parse(_LabeledParser(text, False, allow_reserved))


def parse_context(text: str, sigma_enabled: bool = False, allow_reserved: bool = False) -> Context:
    """Parse a context given one "name : type" binding per line.

    A binding name is one identifier token (``Sig`` is a keyword), or a
    reserved one if ``allow_reserved``.  An error is placed at its line:
    a missing name or colon, or a bad name, at the binding's first
    non-blank column, and an error in a binding's type at its column."""
    ctx = Context()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        start = len(raw) - len(raw.lstrip()) + 1
        name_part, sep, ty_part = raw.partition(":")
        name = name_part.strip()
        if not sep or not name:
            raise ParseError("expected 'name : type'", lineno, start)
        m = _TOKEN_RE.fullmatch(name)
        kind = m and m.lastgroup
        if kind != "ident" and not (allow_reserved and kind == "reserved"):
            raise ParseError(f"bad binding name {name!r}", lineno, start)
        try:
            ty = parse_expr(ty_part, sigma_enabled, allow_reserved)
        except ParseError as err:  # ty_part is one line, so err.line is 1
            raise ParseError(f"in binding {name!r}: {err.message}", lineno, len(name_part) + 1 + err.col) from err
        ctx = ctx.extend(name, ty)
    return ctx


# ---------------------------------------------------------------------------
# Printing

_PREC_ARROW = 0
_PREC_APP = 1
_PREC_ARG = 2


def _mentions_bound(e: Node, depth: int = 0) -> bool:
    if e._loose <= depth:
        return False
    if e._role is None:
        for name, binders in e._children:
            if _mentions_bound(getattr(e, name), depth + binders):
                return True
        return False
    return e.index == depth


def _pp(e: Node, names: list[str], prec: int) -> str:
    """One printer for both ASTs; ``names`` holds the binders in scope.

    Leaves of both ASTs print by their role; the other cases are
    disjoint and ordered by how often they occur.
    """
    role = e._role
    if role is not None:
        if role != BOUND:
            return e.name
        i = e.index
        return names[-1 - i] if i < len(names) else f"?{i}"
    cls = type(e)
    if cls is App:
        s = f"{_pp(e.fun, names, _PREC_APP)} {_pp(e.arg, names, _PREC_ARG)}"
        return f"({s})" if prec > _PREC_APP else s
    if cls is Lam or cls is Sigma:
        first, second = (e.annot, e.body) if cls is Lam else (e.first, e.second)
        x = fresh_name(e.hint, names, second)
        names.append(x)
        b = _pp(second, names, _PREC_ARROW)
        names.pop()
        keyword = "\\" if cls is Lam else "Sig "
        s = f"{keyword}{x}:{_pp(first, names, _PREC_ARROW)}. {b}"
        return f"({s})" if prec > _PREC_ARROW else s
    if cls is Pi or cls is LPi:
        dom, cod = e.dom, e.cod
        if _mentions_bound(cod):
            x = fresh_name(e.hint, names, cod)
            names.append(x)
            body = _pp(cod, names, _PREC_ARROW)
            names.pop()
            s = f"({x}:{_pp(dom, names, _PREC_ARROW)}) -> {body}"
        else:
            names.append("")  # placeholder: codomain never looks at it
            body = _pp(cod, names, _PREC_ARROW)
            names.pop()
            s = f"{_pp(dom, names, _PREC_APP)} -> {body}"
        return f"({s})" if prec > _PREC_ARROW else s
    if cls is Pair:
        s = f"<{_pp(e.first, names, _PREC_ARROW)}, {_pp(e.second, names, _PREC_ARROW)}> : {_pp(e.annot, names, _PREC_ARROW)}"
        return f"({s})" if prec > _PREC_ARROW else s
    if cls is Proj1:
        return f"{_pp(e.pair, names, _PREC_ARG)}.1"
    if cls is Proj2:
        return f"{_pp(e.pair, names, _PREC_ARG)}.2"
    if cls is LLam:
        dom, cod, body = e.dom, e.cod, e.body
        x = fresh_name(e.hint, names, cod, body)
        dom_s = _pp(dom, names, _PREC_APP)
        names.append(x)
        cod_s = _pp(cod, names, _PREC_ARROW)
        body_s = _pp(body, names, _PREC_ARROW)
        names.pop()
        s = f"\\[{x} : {dom_s} -> {cod_s}] {x} : {dom_s} . {body_s}"
        return f"({s})" if prec > _PREC_ARROW else s
    if cls is LApp:
        cod = e.cod
        x = fresh_name(e.hint, names, cod)
        dom_s = _pp(e.dom, names, _PREC_APP)
        names.append(x)
        cod_s = _pp(cod, names, _PREC_ARROW)
        names.pop()
        s = f"{_pp(e.fun, names, _PREC_APP)} @[{x} : {dom_s} -> {cod_s}] {_pp(e.arg, names, _PREC_ARG)}"
        return f"({s})" if prec > _PREC_APP else s
    raise TypeError(f"not an expression: {e!r}")


def print_expr(e: Node) -> str:
    """Render a plain or labeled term; the output re-parses to an alpha-equal term."""
    return _pp(e, [], _PREC_ARROW)


def print_labeled(la: LabeledExpr) -> str:
    """Render a labeled term (through ``print_expr``, which serves both ASTs)."""
    return print_expr(la)


def print_context(ctx: Context) -> str:
    return "\n".join(f"{name} : {print_expr(ty)}" for name, ty in ctx)
