"""The second-order path enumerator, and the rows the streamed top reads.

Every second-order path is listed by iterated._HomNerves.last_legs, in
integer codes. The tabulated nerves decode what it lists
(_tuple_generators), and the streamed top degree indexes its rows from it
(_CodedTop.extend). Here _tuple_generators is compared, generator by
generator and in order, with a recursive enumerator on labels, on every
bidegree and grading the acceptance instances reach; and extend is shown
to refuse chains whose top degree has another number of generators.
"""

from fractions import Fraction

import pytest

from maghom import (
    all_groups_up_to_order_8,
    iterated_complex,
    sphere_ncat,
    two_group_from_normal_subgroup,
)
from maghom.cli import builder_documents, parse_input
from maghom.iterated import _CodedTop, _hom_nerves_for, _NormedNerves, _tuple_generators

DOCS = builder_documents()

# the tot route's bidegrees through total degree 3, and the diagonal (2, 2)
BIDEGREES = [(p, q) for p in range(4) for q in range(4 - p)] + [(2, 2)]


def _extend_paths(H, p, q, xs, legs, budget, out) -> None:
    """Append to out every extension of the path (xs, legs) to p legs of
    degree q whose lengths add up to budget, depth first."""
    if len(legs) == p:
        if budget == 0:
            out.append((xs, legs))
        return
    x = xs[-1]
    for y in H.objects:
        S = H.homs.get((x, y))
        for leg in () if S is None else S.basis[q]:
            n = H.lengths.get(leg, 0)
            if n > budget:
                break
            _extend_paths(H, p, q, xs + (y,), legs + (leg,), budget - n, out)


def _reference_generators(H, p, q, ell) -> tuple:
    if p == 0:
        return tuple(((x,), ()) for x in H.objects) if ell == 0 else ()
    out: list = []
    for x in H.objects:
        _extend_paths(H, p, q, (x,), (), ell, out)
    return tuple(out)


def _assert_same_generators(H, ells, what) -> int:
    """Compare on BIDEGREES and the gradings ells; returns how many
    generators were compared."""
    seen = 0
    for ell in ells:
        for p, q in BIDEGREES:
            want = _reference_generators(H, p, q, ell)
            assert tuple(_tuple_generators(H, p, q, ell)) == want, (what, p, q, ell)
            seen += len(want)
    return seen


def test_tuple_generators_match_on_every_cat_group_to_order_8():
    cases = 0
    for G in all_groups_up_to_order_8():
        for N in G.normal_subgroups():
            H = _hom_nerves_for(two_group_from_normal_subgroup(G, N), 3)
            assert _assert_same_generators(H, [0, 1], (G, N)) > 0
            cases += 1
    assert cases == 64


@pytest.mark.parametrize("X", [sphere_ncat(2), sphere_ncat(3), sphere_ncat(4),
                               parse_input(DOCS["suspension-two-discrete"])],
                         ids=["sphere-2", "sphere-3", "sphere-4", "suspension-two-discrete"])
def test_tuple_generators_match_on_suspensions(X):
    assert _assert_same_generators(_hom_nerves_for(X, 3), [0, 1], X) > 0


@pytest.mark.parametrize("name", ["s3-word-norm", "z4-word-norm", "d4-word-norm"])
def test_tuple_generators_match_on_normed_slices(name):
    N = parse_input(DOCS[name])
    H = _NormedNerves(N, 3)
    values = sorted({Fraction(0), *N.norm.values()})
    ells = [H.units(ell) for ell in values] + [H.units(Fraction(1, 2)), H.units(values[-1] * 3)]
    assert _assert_same_generators(H, ells, name) > 0


@pytest.mark.parametrize("route", ["diag", "tot"])
def test_extend_refuses_a_top_degree_of_another_size(route):
    X = sphere_ncat(2)
    D = 3
    H = _hom_nerves_for(X, D if route == "diag" else D - 1)
    top = _CodedTop(H, D, route)
    C = iterated_complex(X, D - 1, route)
    assert top.extend(C, 0).max_degree == D
    other = iterated_complex(sphere_ncat(3), D - 1, route)
    assert len(other.basis[-1]) != len(C.basis[-1])
    with pytest.raises(ValueError, match=f"generators in degree {D - 1}"):
        top.extend(other, 0)
