"""The one-loop parser against the recursive-descent one it replaced.

``tests/parser_oracle.py`` keeps that parser.  On every input both must
give the same tree, hints included, or the same ``ParseError`` message,
line and column.  The inputs are random token strings; texts made from
the productions of both grammars over a few names, so that binders
shadow each other and labels may disagree with their lambdas; printed
terms of both grammars; and the same printed terms with one token
dropped or added, so that errors also come from deep inside valid terms.
"""

import os
import random

from hypothesis import given, settings, strategies as st

import parser_oracle as oracle
from generators import typed_pool_context, typed_terms, untyped_term
from ptskit.corpus import load_corpus_dir
from ptskit.labeled import label_context, label_term
from ptskit.syntax import (
    CC,
    ParseError,
    _tokenize,
    parse_context,
    parse_expr,
    parse_labeled,
    print_context,
    print_expr,
)

CORPUS = os.path.join(os.path.dirname(__file__), "..", "corpus")

# one spelling or more of each kind _TOKEN_RE tells apart, and a character it rejects
_ALPHABET = (
    "x", "y", "A", "f", "Sig", "Sig'", "x1", "_", "_y", "*", "#", "(", ")", "\\", ".", ":", "->",
    ".1", ".2", "<", ">", ",", "@", "[", "]", "-", "\t",
)


def _outcome(parse, text, *flags):
    try:
        return "tree", repr(parse(text, *flags))
    except ParseError as err:
        return "error", err.message, err.line, err.col


def _agree(text):
    """Both parsers agree on ``text`` in both grammars, with every flag."""
    for sigma in (False, True):
        for allow in (False, True):
            assert _outcome(parse_expr, text, sigma, allow) == _outcome(oracle.parse_expr, text, sigma, allow), (text, sigma, allow)
            assert _outcome(parse_context, text, sigma, allow) == _outcome(oracle.parse_context, text, sigma, allow), (text, sigma, allow)
    for allow in (False, True):
        assert _outcome(parse_labeled, text, allow) == _outcome(oracle.parse_labeled, text, allow), (text, allow)


def _printed():
    """Printed terms: typed and untyped ones, the corpus, and labeled terms and contexts."""
    pool = typed_pool_context()
    typed = typed_terms(27, 40)
    rng = random.Random(27)
    texts = [print_expr(t) for t in typed]
    texts += [print_expr(untyped_term(rng, 24)) for _ in range(40)]
    texts += [print_expr(label_term(CC, pool, t)) for t in typed]
    texts.append(print_context(pool))
    texts.append(print_context(label_context(CC, pool)))
    for sub, sigma in (("cc", False), ("sigma", True)):
        for j in load_corpus_dir(os.path.join(CORPUS, sub), sigma):
            texts += [print_expr(j.term), print_context(j.ctx)]
            if j.ty is not None:
                texts.append(print_expr(j.ty))
    return texts


PRINTED = _printed()

# a binder that ends inside another of the same name, which binds again after it
SHADOWING = (
    r"\x:*. (\x:x. x) x",
    r"(x:*) -> ((x:x) -> x) -> x",
    r"Sig x:*. <(\x:x. x), x> : (Sig x:x. x)",
    r"\[x : * -> x] x : * . (\[x : x -> x] x : x . x) @[y : x -> x] x",
    r"\[x : * -> (\[x : x -> x] x : x . x) @[y : x -> x] x] x : * . x",
)


def test_printed_terms_parse_alike():
    for text in [*PRINTED, *SHADOWING]:
        _agree(text)
        # a context's lines, each read as one term
        for line in text.splitlines():
            _agree(line.partition(":")[2])


@given(st.sampled_from(PRINTED), st.data())
@settings(max_examples=300, deadline=None)
def test_printed_terms_with_one_token_changed_fail_alike(text, data):
    toks = [tok for tok in _tokenize(text) if tok[0] != "eof"]
    i = data.draw(st.integers(0, len(toks)))
    cut = toks[i][2] if i < len(toks) else len(text)
    if data.draw(st.booleans()) and i < len(toks):
        changed = text[:cut] + text[cut + len(toks[i][1]):]
    else:
        changed = text[:cut] + data.draw(st.sampled_from(_ALPHABET)) + " " + text[cut:]
    _agree(changed)


_NAMES = st.sampled_from(("x", "y", "A", "_y"))


def _lambda(x, dom, cod, body, x2, dom2):
    return f"\\[{x} : {dom} -> {cod}] {x2 or x} : {dom2 or dom} . {body}"


def _productions(sub):
    # a second binder or annotation that differs, one time in four
    other = st.sampled_from((None, None, None, "y"))
    return st.one_of(
        st.builds("({})".format, sub),
        st.builds("{} {}".format, sub, sub),
        st.builds("{} -> {}".format, sub, sub),
        st.builds("({}:{}) -> {}".format, _NAMES, sub, sub),
        st.builds("\\{}:{}. {}".format, _NAMES, sub, sub),
        st.builds("Sig {}:{}. {}".format, _NAMES, sub, sub),
        st.builds("<{}, {}> : {}".format, sub, sub, sub),
        st.builds("{}.{}".format, sub, st.sampled_from("12")),
        st.builds("{} @[{}: {} -> {}] {}".format, sub, _NAMES, sub, sub, sub),
        st.builds(_lambda, _NAMES, sub, sub, sub, other, other),
    )


@given(st.recursive(st.one_of(_NAMES, st.sampled_from(("*", "#"))), _productions, max_leaves=10))
@settings(max_examples=400, deadline=None)
def test_texts_from_the_productions_parse_alike(text):
    _agree(text)


@given(st.lists(st.tuples(st.sampled_from(_ALPHABET), st.sampled_from(("", " ", " ", "\n"))), max_size=14))
@settings(max_examples=500, deadline=None)
def test_random_token_strings_parse_alike(tokens):
    _agree("".join(tok + sep for tok, sep in tokens))
