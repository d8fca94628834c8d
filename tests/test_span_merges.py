"""The streamed tops' inner merges, filled a length span at a time, against
filling them one pair at a time.

_HomNerves.merged composes, on a miss, every leg of the missed leg's
length; the streamed top reads each merge from the memo it fills. Here a
copy of the pair-at-a-time rule is patched in, and both rules must give
the same homology and the same memo: the same keys, the same codes and so
the same number of entries, that is, no merge is composed that the walk
does not read.
"""

import pytest

from maghom import (
    ValidationError,
    all_groups_up_to_order_8,
    iterated_homology,
    normed_group_homology,
    sphere_ncat,
    two_group_from_normal_subgroup,
)
from maghom import iterated
from maghom.cli import builder_documents, parse_input

DOCS = builder_documents()


def _merged_one_pair_at_a_time(self, q, x, y, z, a, b):
    """The composite of legs a and b alone, as each miss composed it
    before merges were filled a span at a time."""
    key = (q, x, y, z, a)
    memo = self.merges.get(key)
    if memo is None:
        memo = self.merges[key] = {}
    m = memo.get(b)
    if m is None:
        objects, T = self.objects, self.legs(q)
        merged = self.compose(objects[x], objects[y], objects[z], q,
                              T.legs[x][y][a], T.legs[y][z][b])
        if merged is None:
            m = -1
        else:
            m = T.codes[x][z].get(merged)
            if m is None:
                raise ValidationError(
                    f"an h-face in leg degree {q} leaves the basis: {merged!r}")
        memo[b] = m
    return m


def _run(monkeypatch, compute, merged) -> tuple:
    """compute() under the merge rule merged: its homology, and the merge
    memo of each streamed top's hom nerves, in the order they were made."""
    tops = []

    class Recorded(iterated._CodedTop):
        def __init__(self, H, *args):
            tops.append(H)
            super().__init__(H, *args)

    with monkeypatch.context() as patch:
        patch.setattr(iterated, "_CodedTop", Recorded)
        patch.setattr(iterated._HomNerves, "merged", merged)
        table = compute()
    return table, [H.merges for H in tops]


def _assert_same_as_one_pair_at_a_time(monkeypatch, compute) -> None:
    want, want_merges = _run(monkeypatch, compute, _merged_one_pair_at_a_time)
    got, got_merges = _run(monkeypatch, compute, iterated._HomNerves.merged)
    assert got == want
    assert got_merges == want_merges  # so the entry counts are equal too
    assert any(got_merges)


def test_spans_match_pairs_on_every_cat_group_to_order_8(monkeypatch):
    cases = [two_group_from_normal_subgroup(G, N)
             for G in all_groups_up_to_order_8() for N in G.normal_subgroups()]
    assert len(cases) == 64

    def compute():
        return [iterated_homology(C, 2, "tot") for C in cases]

    _assert_same_as_one_pair_at_a_time(monkeypatch, compute)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("route", ["diag", "tot"])
def test_spans_match_pairs_on_spheres(monkeypatch, n, route):
    _assert_same_as_one_pair_at_a_time(
        monkeypatch, lambda: iterated_homology(sphere_ncat(n), n, route))


@pytest.mark.parametrize("name", ["s3-word-norm", "z4-word-norm", "d4-word-norm"])
def test_spans_match_pairs_on_word_norms(monkeypatch, name):
    N = parse_input(DOCS[name])
    _assert_same_as_one_pair_at_a_time(
        monkeypatch, lambda: normed_group_homology(N, "norm-values", 2, "diag"))
