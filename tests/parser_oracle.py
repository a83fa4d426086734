"""The recursive-descent parser as it was before parsing became one loop.

``_Parser`` reads the plain grammar and ``_LabeledParser`` the labeled
one, a method per production; each binder's body is parsed with its
variable free and closed afterwards with ``close_binder``.  The code
below is that parser verbatim.  It is kept as a differential oracle:
``ptskit.syntax``'s loop must give the same trees and the same
``ParseError`` messages, lines and columns.  It recurses a few frames
per nesting level, so it handles only inputs well inside the
interpreter's recursion limit.
"""

from __future__ import annotations

from ptskit.syntax import (
    App,
    Context,
    Expr,
    LabeledExpr,
    LApp,
    LLam,
    LPi,
    LSort,
    LVar,
    Lam,
    Node,
    Pair,
    ParseError,
    Pi,
    Proj1,
    Proj2,
    Sigma,
    SortE,
    Var,
    _error_at,
    _tokenize,
    _TOKEN_RE,
    close_binder,
)


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
