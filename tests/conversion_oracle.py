"""Conversion as ``reduction.beta_eq`` decided it before it became lazy:
both sides normalized whole, each within the fuel, and the normal forms
compared.  Kept as the differential oracle of lazy conversion, whose
contract against it ``agrees_with_reference`` states."""

from ptskit.reduction import UNDETERMINED, FuelExhausted, _Budget, _normal_form, beta_eq


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
