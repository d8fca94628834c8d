"""_validate_two_cat against the hand-written walks it replaced.

A 2-category's horizontal composition makes two categories on its objects,
one of 1-cells and one of 2-cells, and validate_category checks their
composites, units and associativity; the functor laws of composition
(2-cell endpoints, identity 2-cells, interchange) stay written out. The
old validator walked every law by hand, once for 1-cells and once for
2-cells (_reference_validate_two_cat below). Both must accept and refuse
the same 2-categories: here they are run on seeded single-entry mutations
of six 2-categories, and on one crafted 2-category per law.
"""

import random
from dataclasses import replace

import pytest

from maghom import (
    Explicit2Cat,
    ValidationError,
    category_from_group,
    codiscrete_cat_group,
    cyclic_group,
    discrete_cat_group,
    discrete_category,
    linear_order_category,
    make_category,
    parallel_arrows_category,
    symmetric_group,
    terminal_category,
    two_cat_from_category,
    two_cat_of_cat_group,
    two_group_from_normal_subgroup,
    validate_category,
    validate_ncat,
)

S3 = symmetric_group(3)
A3 = frozenset({(0, 1, 2), (1, 2, 0), (2, 0, 1)})
C2 = cyclic_group(2)


def _reference_validate_two_cat(X: Explicit2Cat) -> None:
    """The validator as it was before the horizontal categories: every law
    walked by hand."""
    objs = set(X.objects)
    if len(objs) != len(X.objects):
        raise ValidationError("duplicate object labels")
    for x in X.objects:
        for y in X.objects:
            H = X.hom.get((x, y))
            if H is None:
                raise ValidationError(f"hom({x!r}, {y!r}) missing")
            validate_category(H)
    for x in X.objects:
        if X.id_onecell.get(x) not in set(X.hom[(x, x)].objects):
            raise ValidationError(f"identity 1-cell of {x!r} missing")
    for x in X.objects:
        for y in X.objects:
            for z in X.objects:
                A, B, C = X.hom[(x, y)], X.hom[(y, z)], X.hom[(x, z)]
                cobj = X.compose_obj.get((x, y, z))
                cmor = X.compose_mor.get((x, y, z))
                if cobj is None or cmor is None:
                    raise ValidationError(f"composition at ({x!r}, {y!r}, {z!r}) missing")
                cells, arrows = set(C.objects), set(C.morphisms)
                for a in A.objects:
                    for b in B.objects:
                        if cobj.get((a, b)) not in cells:
                            raise ValidationError("composition leaves the hom-category")
                for p in A.morphisms:
                    for q in B.morphisms:
                        r = cmor.get((p, q))
                        if r not in arrows:
                            raise ValidationError("2-cell composition missing")
                        if C.source[r] != cobj[(A.source[p], B.source[q])] or C.target[
                            r
                        ] != cobj[(A.target[p], B.target[q])]:
                            raise ValidationError("2-cell composition has bad endpoints")
                for a in A.objects:
                    for b in B.objects:
                        if cmor[(A.identity[a], B.identity[b])] != C.identity[cobj[(a, b)]]:
                            raise ValidationError("composition does not preserve identity 2-cells")
                for (p2, p1), p in A.compose.items():
                    for (q2, q1), q in B.compose.items():
                        if cmor[(p, q)] != C.compose[(cmor[(p2, q2)], cmor[(p1, q1)])]:
                            raise ValidationError("interchange law fails")
    for x in X.objects:
        for y in X.objects:
            A = X.hom[(x, y)]
            for a in A.objects:
                if X.compose_obj[(x, x, y)][(X.id_onecell[x], a)] != a:
                    raise ValidationError("left unit 1-cell law fails")
                if X.compose_obj[(x, y, y)][(a, X.id_onecell[y])] != a:
                    raise ValidationError("right unit 1-cell law fails")
            idx = X.hom[(x, x)].identity[X.id_onecell[x]]
            idy = X.hom[(y, y)].identity[X.id_onecell[y]]
            for p in A.morphisms:
                if X.compose_mor[(x, x, y)][(idx, p)] != p:
                    raise ValidationError("left unit 2-cell law fails")
                if X.compose_mor[(x, y, y)][(p, idy)] != p:
                    raise ValidationError("right unit 2-cell law fails")
    for w in X.objects:
        for x in X.objects:
            for y in X.objects:
                for z in X.objects:
                    A, B, C = X.hom[(w, x)], X.hom[(x, y)], X.hom[(y, z)]
                    for cells, word, table in (
                        ((A.objects, B.objects, C.objects), "1-cell", X.compose_obj),
                        ((A.morphisms, B.morphisms, C.morphisms), "2-cell", X.compose_mor),
                    ):
                        wxy, xyz = table[(w, x, y)], table[(x, y, z)]
                        wyz, wxz = table[(w, y, z)], table[(w, x, z)]
                        for a in cells[0]:
                            for b in cells[1]:
                                ab = wxy[(a, b)]
                                for c in cells[2]:
                                    if wyz[(ab, c)] != wxz[(a, xyz[(b, c)])]:
                                        raise ValidationError(f"{word} associativity fails")


def _accepts(validate, X) -> bool:
    """Whether validate accepts X; anything but a ValidationError escapes."""
    try:
        validate(X)
    except ValidationError:
        return False
    return True


def _copy(X: Explicit2Cat) -> Explicit2Cat:
    return replace(
        X,
        id_onecell=dict(X.id_onecell),
        compose_obj={k: dict(t) for k, t in X.compose_obj.items()},
        compose_mor={k: dict(t) for k, t in X.compose_mor.items()},
    )


def _mutations(X: Explicit2Cat, rng: random.Random, count: int):
    """count copies of X, each with one entry of compose_obj, compose_mor or
    id_onecell set to a cell of X (or a label that is none), deleted, or
    swapped with another entry of the same table; empty tables are left
    alone."""
    values = sorted({c for H in X.hom.values() for c in (*H.objects, *H.morphisms)},
                    key=repr) + ["junk"]
    tables = [("id_onecell", None)] + [
        (field, xyz) for field in ("compose_obj", "compose_mor")
        for xyz, table in sorted(getattr(X, field).items(), key=repr) if table
    ]
    for _ in range(count):
        Y = _copy(X)
        field, xyz = rng.choice(tables)
        table = getattr(Y, field) if xyz is None else getattr(Y, field)[xyz]
        keys = sorted(table, key=repr)
        k = rng.choice(keys)
        kind = rng.choice(("set", "delete", "swap"))
        if kind == "set":
            table[k] = rng.choice(values)
        elif kind == "delete":
            del table[k]
        else:
            k2 = rng.choice(keys)
            table[k], table[k2] = table[k2], table[k]
        yield Y


TWO_CATEGORIES = {
    "parallel-arrows": two_cat_from_category(parallel_arrows_category()),
    "C3": two_cat_from_category(category_from_group(cyclic_group(3))),
    "linear-order-3": two_cat_from_category(linear_order_category(3)),
    "S3/A3": two_cat_of_cat_group(two_group_from_normal_subgroup(S3, A3)),
    "codiscrete-C2": two_cat_of_cat_group(codiscrete_cat_group(C2)),
    "discrete-C4": two_cat_of_cat_group(discrete_cat_group(cyclic_group(4))),
}


@pytest.mark.parametrize("name", sorted(TWO_CATEGORIES))
def test_both_validators_agree_on_single_entry_mutations(name):
    X = TWO_CATEGORIES[name]
    validate_ncat(X)
    _reference_validate_two_cat(X)
    rng = random.Random(f"two-cat {name}")
    verdicts = []
    for Y in _mutations(X, rng, 350):
        new, old = _accepts(validate_ncat, Y), _accepts(_reference_validate_two_cat, Y)
        assert new == old, (name, Y)
        verdicts.append(new)
    assert not all(verdicts), name


# --- one crafted 2-category per law -------------------------------------------


def _two_cat(objects, hom, id_onecell, cobj, cmor) -> Explicit2Cat:
    """The 2-category whose composition tables cobj(x, y, z, a, b) and
    cmor(x, y, z, p, q) give on every composable pair of cells."""
    compose_obj, compose_mor = {}, {}
    for x in objects:
        for y in objects:
            for z in objects:
                A, B = hom[(x, y)], hom[(y, z)]
                compose_obj[(x, y, z)] = {(a, b): cobj(x, y, z, a, b)
                                          for a in A.objects for b in B.objects}
                compose_mor[(x, y, z)] = {(p, q): cmor(x, y, z, p, q)
                                          for p in A.morphisms for q in B.morphisms}
    return Explicit2Cat(tuple(objects), hom, id_onecell, compose_obj, compose_mor)


def _one_object(hom, unit, cobj, cmor) -> Explicit2Cat:
    return _two_cat(["x"], {("x", "x"): hom}, {"x": unit},
                    lambda x, y, z, a, b: cobj(a, b), lambda x, y, z, p, q: cmor(p, q))


def _chain(hom_above, cobj, cmor) -> Explicit2Cat:
    """Objects 0 < 1 < 2 < 3: hom(i, j) is hom_above for i < j, terminal for
    i = j and empty for i > j, and cobj(i, j, k, a, b), cmor(i, j, k, p, q)
    compose when i < j < k; the terminal homs are strict units."""
    terminal, empty = terminal_category(), discrete_category([])
    hom = {(i, j): hom_above if i < j else terminal if i == j else empty
           for i in range(4) for j in range(4)}

    def unital(f):
        return lambda i, j, k, a, b: b if i == j else a if j == k else f(i, j, k, a, b)

    return _two_cat(range(4), hom, {i: "*" for i in range(4)}, unital(cobj), unital(cmor))


def _idA_then_f(value) -> Explicit2Cat:
    """The parallel arrows with the composite of idA then f set to value,
    or deleted when value is None."""
    X = _copy(two_cat_from_category(parallel_arrows_category()))
    table = X.compose_obj[("A", "A", "B")]
    if value is None:
        del table[("idA", "f")]
    else:
        table[("idA", "f")] = value
    return X


# discrete homs: the 2-cells are the identities of the 1-cells
def _discrete_one_object(cobj) -> Explicit2Cat:
    return _one_object(discrete_category([0, 1]), 0, cobj,
                       lambda p, q: ("id", cobj(p[1], q[1])))


def _discrete_chain(cobj) -> Explicit2Cat:
    return _chain(discrete_category([0, 1]), cobj,
                  lambda i, j, k, p, q: ("id", cobj(i, j, k, p[1], q[1])))


# one 1-cell and the 2-cells C2 above each object pair; cmor is the law
def _c2_one_object(cmor) -> Explicit2Cat:
    return _one_object(category_from_group(C2), "*", lambda a, b: "*", cmor)


def _twisted_sum(i, j, k, a, b):
    """a + b, except a on (0, 1, 3): composing 0 -> 1 -> 2 -> 3 in two ways
    gives a and a + b + c."""
    return a if (i, j, k) == (0, 1, 3) else (a + b) % 2


# hom(x, x) has 1-cells e (the unit) and u, with e u = u e = u u = u; its
# 2-cells are the identities and t: u -> u with t t = id_u; law is the
# horizontal composite of two endo-2-cells of u, as 0 (id_u) and 1 (t)
ENDO_U = make_category(
    ["e", "u"], ["id_e", "id_u", "t"],
    {"id_e": "e", "id_u": "u", "t": "u"}, {"id_e": "e", "id_u": "u", "t": "u"},
    {"e": "id_e", "u": "id_u"},
    {("id_e", "id_e"): "id_e", ("id_u", "id_u"): "id_u", ("t", "id_u"): "t",
     ("id_u", "t"): "t", ("t", "t"): "id_u"},
)


def _endo_u(law) -> Explicit2Cat:
    bit = {"id_u": 0, "t": 1}

    def cmor(p, q):
        if p == "id_e" or q == "id_e":
            return q if p == "id_e" else p
        return ("id_u", "t")[law(bit[p], bit[q])]

    return _one_object(ENDO_U, "e", lambda a, b: b if a == "e" else a, cmor)


def _codiscrete_c2_with(cmor) -> Explicit2Cat:
    X = two_cat_of_cat_group(codiscrete_cat_group(C2))
    return replace(X, compose_mor={("*",) * 3: {(p, q): cmor(p, q)
                                                for p in X.hom[("*", "*")].morphisms
                                                for q in X.hom[("*", "*")].morphisms}})


def test_the_crafted_bases_are_2_categories():
    for X in (_discrete_one_object(lambda a, b: (a + b) % 2),
              _discrete_chain(lambda i, j, k, a, b: (a + b) % 2),
              _c2_one_object(lambda p, q: (p + q) % 2),
              _chain(category_from_group(C2), lambda i, j, k, a, b: "*",
                     lambda i, j, k, p, q: (p + q) % 2),
              _endo_u(lambda p, q: (p + q) % 2),
              _codiscrete_c2_with(lambda p, q: ((p[0] + q[0]) % 2, (p[1] + q[1]) % 2))):
        validate_ncat(X)
        _reference_validate_two_cat(X)


# Each message pins the check that refuses. With discrete homs, a broken
# 1-cell law breaks the same 2-cell law, and the 1-cell category is checked
# first, so the witness is the 1-cell 1, not the 2-cell ('id', 1).
CRAFTED = {
    # idB is a 1-cell of hom(B, B)
    "1-cell composite outside hom(x, z)": (
        _idA_then_f("idB"),
        r"composite of \(\('A', 'B', 'f'\), \('A', 'A', 'idA'\)\) missing"),
    "1-cell composite missing": (
        _idA_then_f(None),
        r"composite of \(\('A', 'B', 'f'\), \('A', 'A', 'idA'\)\) missing"),
    # the unit 0 then a is a, but a then 0 is 0
    "1-cell unit, a then the unit": (
        _discrete_one_object(lambda a, b: b),
        r"left unit law fails at \('x', 'x', 1\)"),
    "1-cell unit, the unit then a": (
        _discrete_one_object(lambda a, b: a),
        r"right unit law fails at \('x', 'x', 1\)"),
    "2-cell unit, p then the unit": (
        _c2_one_object(lambda p, q: q),
        r"left unit law fails at \('x', 'x', 1\)"),
    "2-cell unit, the unit then p": (
        _c2_one_object(lambda p, q: p),
        r"right unit law fails at \('x', 'x', 1\)"),
    "1-cell associativity": (
        _discrete_chain(_twisted_sum),
        r"associativity fails on \(\(2, 3, [01]\), \(1, 2, [01]\), \(0, 1, [01]\)\)"),
    "2-cell associativity": (
        _chain(category_from_group(C2), lambda i, j, k, a, b: "*", _twisted_sum),
        r"associativity fails on \(\(2, 3, [01]\), \(1, 2, [01]\), \(0, 1, [01]\)\)"),
    # a lawful 2-cell category whose composite of (1, g) and (1, g2) starts
    # at g + g2 + 1, not at g + g2
    "2-cell endpoints": (
        _codiscrete_c2_with(lambda p, q: ((p[0] + q[0]) % 2, (p[0] * q[0] + p[1] + q[1]) % 2)),
        "2-cell composition has bad endpoints"),
    # a group on the endo-2-cells of u whose unit is t, not id_u
    "identity 2-cells": (
        _endo_u(lambda p, q: (p + q + 1) % 2),
        "composition does not preserve identity 2-cells"),
    "interchange": (
        _endo_u(lambda p, q: p | q),
        "interchange law fails"),
}


@pytest.mark.parametrize("law", sorted(CRAFTED))
def test_each_law_is_refused_on_its_own_crafted_2_category(law):
    X, message = CRAFTED[law]
    with pytest.raises(ValidationError):
        _reference_validate_two_cat(X)
    with pytest.raises(ValidationError, match=message):
        validate_ncat(X)
