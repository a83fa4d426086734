"""Spies on the typing rules.

``typecheck._infer`` only looks up a term's rule in ``typecheck._RULES``;
the rules type their subterms through the table directly, the ``LLam``
rule types its label with the ``Pi`` rule, and ``labeled._elaborate`` calls
the rules of sorts and variables.  A spy on ``_infer`` would see only the
entry calls, so a test that watches node visits wraps the rules instead.
"""

from ptskit import labeled, typecheck


def spy_on_rules(monkeypatch, wrap):
    """Put ``wrap(rule)`` in place of every typing rule: in the table and
    under each module name a rule is called by, so every node visit of
    typing and elaboration goes through exactly one wrapper."""
    spies = {rule: wrap(rule) for rule in set(typecheck._RULES.values())}
    for cls, rule in list(typecheck._RULES.items()):
        monkeypatch.setitem(typecheck._RULES, cls, spies[rule])
    for module in (typecheck, labeled):
        for name, value in list(vars(module).items()):
            for rule, spy in spies.items():
                if value is rule:
                    monkeypatch.setattr(module, name, spy)
