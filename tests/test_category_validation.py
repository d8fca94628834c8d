"""validate_category against the all-pairs validator it replaced.

validate_category walks only composable pairs and triples, and looks for
composites on non-composable pairs among compose's keys. The old one
scanned every pair and every triple of morphisms. Both must accept and
reject the same categories; here they are run on mutated categories: a
composite dropped, redirected, or defined on a non-composable pair, and a
broken unit or associativity law.
"""

import random
from dataclasses import replace

import pytest

from maghom import (
    FinCategory,
    ValidationError,
    all_groups_up_to_order_8,
    discrete_category,
    make_category,
    parallel_arrows_category,
    product_category,
    terminal_category,
    two_group_from_normal_subgroup,
    validate_category,
)


def _old_validate_category(X: FinCategory) -> None:
    """The all-pairs validator, as it was."""
    objs = set(X.objects)
    if len(objs) != len(X.objects):
        raise ValidationError("duplicate object labels")
    mors = set(X.morphisms)
    if len(mors) != len(X.morphisms):
        raise ValidationError("duplicate morphism labels")
    for m in X.morphisms:
        if X.source.get(m) not in objs or X.target.get(m) not in objs:
            raise ValidationError(f"morphism {m!r} has a bad endpoint")
    for x in X.objects:
        i = X.identity.get(x)
        if i not in mors or X.source[i] != x or X.target[i] != x:
            raise ValidationError(f"identity of {x!r} is not an endomorphism")
    for g in X.morphisms:
        for f in X.morphisms:
            if X.composable(g, f):
                h = X.compose.get((g, f))
                if h not in mors:
                    raise ValidationError(f"composite of ({g!r}, {f!r}) missing")
                if X.source[h] != X.source[f] or X.target[h] != X.target[g]:
                    raise ValidationError(f"composite of ({g!r}, {f!r}) has bad endpoints")
            elif (g, f) in X.compose:
                raise ValidationError(f"composite defined on non-composable ({g!r}, {f!r})")
    for f in X.morphisms:
        if X.compose[(f, X.identity[X.source[f]])] != f:
            raise ValidationError(f"right unit law fails at {f!r}")
        if X.compose[(X.identity[X.target[f]], f)] != f:
            raise ValidationError(f"left unit law fails at {f!r}")
    for h in X.morphisms:
        for g in X.morphisms:
            if not X.composable(h, g):
                continue
            for f in X.morphisms:
                if not X.composable(g, f):
                    continue
                if X.compose[(X.compose[(h, g)], f)] != X.compose[(h, X.compose[(g, f)])]:
                    raise ValidationError(
                        f"associativity fails on ({h!r}, {g!r}, {f!r})"
                    )


def _verdict(validate, X) -> bool:
    try:
        validate(X)
    except ValidationError:
        return False
    return True


def _one_object(G) -> FinCategory:
    """G as a category with one object, whose morphisms all compose."""
    e = G.elements
    return make_category(["*"], e, dict.fromkeys(e, "*"), dict.fromkeys(e, "*"),
                         {"*": G.identity}, {(g, f): G.mul(g, f) for g in e for f in e})


def _categories():
    cats = [terminal_category(), discrete_category("abc"), parallel_arrows_category(),
            product_category(parallel_arrows_category(), parallel_arrows_category())]
    for G in all_groups_up_to_order_8():
        if len(G.elements) in (2, 4, 6):
            cats.append(_one_object(G))
            for N in G.normal_subgroups():
                cats.append(two_group_from_normal_subgroup(G, N).cells)
    return cats


def _parallel(X, f):
    """The morphisms with f's endpoints."""
    return [m for m in X.morphisms
            if X.source[m] == X.source[f] and X.target[m] == X.target[f]]


def _mutations(X, rng: random.Random):
    """Copies of X with compose mutated, each in one way."""
    pairs = [(g, f) for (g, f) in X.compose]
    non_composable = [(g, f) for g in X.morphisms for f in X.morphisms
                      if not X.composable(g, f)]
    for _ in range(6):
        key = rng.choice(pairs)
        dropped = dict(X.compose)
        del dropped[key]
        yield "dropped", dropped
        yield "redirected", {**X.compose, key: rng.choice(X.morphisms)}
        # redirected to a morphism with the right endpoints, so that only
        # a law can fail
        yield "law", {**X.compose, key: rng.choice(_parallel(X, X.compose[key]))}
        if non_composable:
            extra = rng.choice(non_composable)
            yield "non-composable", {**X.compose, extra: rng.choice(X.morphisms)}
    for f in X.morphisms:
        others = [m for m in _parallel(X, f) if m != f]
        if others:
            ident = X.identity[X.source[f]]
            yield "unit", {**X.compose, (f, ident): others[0]}
            break


@pytest.mark.parametrize("X", _categories(), ids=lambda X: f"{len(X.morphisms)}-morphisms")
def test_new_and_old_category_validators_agree_on_mutations(X):
    rng = random.Random(len(X.morphisms))
    assert _verdict(validate_category, X) and _verdict(_old_validate_category, X)
    kinds = {}
    for kind, compose in _mutations(X, rng):
        Y = replace(X, compose=compose)
        verdict = _verdict(validate_category, Y)
        assert verdict == _verdict(_old_validate_category, Y), (kind, compose)
        kinds.setdefault(kind, set()).add(verdict)
    # every mutation that changes a composite or adds one is caught
    for kind in ("dropped", "non-composable", "unit"):
        assert kinds.get(kind, {False}) == {False}, kind


def test_a_composite_on_a_non_composable_pair_is_rejected():
    X = parallel_arrows_category()
    Y = replace(X, compose={**X.compose, ("f", "g"): "f"})
    with pytest.raises(ValidationError, match="non-composable"):
        validate_category(Y)
    with pytest.raises(ValidationError, match="non-composable"):
        _old_validate_category(Y)


def _error(validate, X):
    try:
        validate(X)
    except ValidationError as e:
        return str(e)
    return None


def test_a_broken_associativity_law_is_rejected_by_both():
    """Redirect a composite of two non-identities to another morphism with
    the same endpoints. The unit laws still hold, so the category is
    rejected for associativity, or accepted when no triple sees the
    change; the two validators agree on which."""
    broken = 0
    for X in _categories():
        identities = set(X.identity.values())
        for (g, f), h in X.compose.items():
            others = [m for m in _parallel(X, h) if m != h]
            if g in identities or f in identities or not others:
                continue
            Y = replace(X, compose={**X.compose, (g, f): others[0]})
            new, old = _error(validate_category, Y), _error(_old_validate_category, Y)
            assert (new is None) == (old is None), (new, old)
            if new is not None:
                assert "associativity" in new and "associativity" in old
                broken += 1
    assert broken >= 5


def test_identities_are_keyed_by_exactly_the_objects():
    X = parallel_arrows_category()
    with pytest.raises(ValidationError, match="non-objects"):
        validate_category(replace(X, identity={**X.identity, "Z": "q"}))
    with pytest.raises(ValidationError, match="non-objects"):
        make_category(X.objects, X.morphisms, X.source, X.target,
                      {**X.identity, "Z": X.identity["A"]}, X.compose)
