"""Reduction as ``ptskit.reduction`` did it before two rewrites, kept as
their differential oracles.

* ``reference_beta_eq``: conversion as ``beta_eq`` decided it before it
  became lazy: both sides normalized whole, each within the fuel, and the
  normal forms compared.  ``agrees_with_reference`` states the contract
  of lazy conversion against it.
* ``reference_nf``: substituting normalization as ``_nf`` made it before
  it became ``_whnf`` followed by the parts: with a head loop of its own
  that stops at an introduction form of the parent's ``_intro`` class.
  The rewrite makes the same contractions in the same order, so it has
  the same normal form and, at any fuel, the same ``FuelExhausted.last``.
"""

from ptskit.reduction import UNDETERMINED, FuelExhausted, _Budget, _normal_form, _rebuild, beta_eq


def reference_beta_eq(a, b, fuel: int):
    """True, False or UNDETERMINED: ``a == b``, else the normal forms of both
    sides, each made with at most ``fuel`` contractions of its own."""
    if a == b:
        return True
    budget = _Budget(fuel)
    try:
        na = _normal_form(a, budget)
        nb = _normal_form(b, budget)
    except FuelExhausted:
        return UNDETERMINED
    return na == nb


def agrees_with_reference(a, b, fuel: int, ample: int) -> bool:
    """Lazy conversion at ``fuel`` gives the reference's answer where the
    reference decides; where it does not, lazy conversion is UNDETERMINED or
    the reference's answer at ``ample`` fuel.  A lazy True means both sides
    were read to their normal forms, so it is never an answer the reference
    lacks at the same fuel."""
    got, want = beta_eq(a, b, fuel), reference_beta_eq(a, b, fuel)
    if want is not UNDETERMINED:
        return got is want
    return got is UNDETERMINED or got is not True and got is reference_beta_eq(a, b, ample)


def reference_nf(e, budget: _Budget, stop_at: type | None = None):
    """Normal form of ``e`` by substitution, one frame per term level.

    An elimination form first brings its head to normal form, stopping
    at a weak head normal form of its ``_intro`` class (``Lam`` for the
    function of an application, ``Pair`` for the subject of a
    projection), because the redex above it comes next in
    leftmost-outermost order.  With ``stop_at`` such a term is returned
    as it is.  Head redexes are contracted in a loop at this level, so
    successive contractions at the root do not deepen the stack; then
    the other step positions are normalized in table order.  A head that
    stopped at an introduction form that does not fire (tight-beta on
    unequal labels) is normalized with them, and the node is checked
    again, since normal labels may agree.  On fuel exhaustion each frame
    rebuilds its own node around the partial child before re-raising.
    """
    while True:
        if e._role is not None:
            return e
        head = skip = e._head
        if head is None:
            if type(e) is stop_at:
                return e
        else:
            h = getattr(e, head)
            try:
                f = reference_nf(h, budget, e._intro)
            except FuelExhausted as exc:
                exc.last = _rebuild(e, head, exc.last)
                raise
            if f is not h:
                e = _rebuild(e, head, f)
            if e._fires():
                if budget.left <= 0:
                    raise FuelExhausted(e)
                budget.left -= 1
                e = e._contract()
                continue
            if type(f) is e._intro:
                skip = None  # a tight-beta blocked by labels: see below
        for name, _ in e._positions:
            if name == skip:
                continue
            v = getattr(e, name)
            try:
                r = reference_nf(v, budget)
            except FuelExhausted as exc:
                exc.last = _rebuild(e, name, exc.last)
                raise
            if r is not v:
                e = _rebuild(e, name, r)
        if skip is not None or head is None or not e._fires():
            return e
