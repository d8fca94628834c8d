"""Outside-in tracing of maghom's layers, for the traced benchmark run.

``install`` wraps the module-level call boundaries listed in ``BOUNDARIES``.
A function is often bound under one name in several modules (for example
``validate_complex`` in ``complexes``, ``simplicial`` and
``magnitude_core``), so every binding in every loaded ``maghom`` module
that is the original function object is replaced; methods are replaced on
their class. Each call records a span (name, start, end, parent span,
solve id) in memory, and counters are read off its arguments and result.
Counting runs in its own ``trace.count`` span so it is not billed to the
layer or to its caller. Nothing here is imported by an untraced run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# boundary -> layer metric that receives the span's self time
BOUNDARIES = {
    "cli.main": "cli.render_s",
    "cli.parse_input": "cli.parse_s",
    "iterated._diagonal_nerve": "iterated.nerve_s",
    "iterated._double_nerve": "iterated.nerve_s",
    "iterated.diag_nerve_normed_group": "iterated.nerve_s",
    "iterated.double_nerve_normed_group": "iterated.nerve_s",
    "magnitude_core._enumerate_tuples": "magnitude_core.enumerate_s",
    "magnitude_core.reachable_gradings": "magnitude_core.enumerate_s",
    "magnitude_core.magnitude_complex_metric": "magnitude_core.complex_s",
    "simplicial.unnormalized_chains": "simplicial.chains_s",
    "simplicial.normalized_chains": "simplicial.chains_s",
    "simplicial.double_chains": "simplicial.chains_s",
    "simplicial.row_normalize": "simplicial.chains_s",
    "complexes.total_complex": "complexes.total_s",
    "complexes.tensor_complex": "complexes.total_s",
    "complexes.validate_complex": "complexes.validate_s",
    "complexes.validate_double_complex": "complexes.validate_s",
    "exact_linalg.IntMatrix.mul": "exact_linalg.ddcheck_s",
    "complexes.homology_table": "complexes.homology_s",
    "complexes.graded_homology_table": "complexes.homology_s",
    "exact_linalg.homology_between": "complexes.homology_s",
    "exact_linalg.column_rank": "exact_linalg.reduce_s",
    "exact_linalg._reduce_columns": "exact_linalg.reduce_s",
    "exact_linalg.smith_normal_form": "exact_linalg.smith_s",
    "exact_linalg._SparseSmith.diagonal": "exact_linalg.smith_s",
    "exact_linalg._invariant_chain": "exact_linalg.invariant_s",
}
COUNT_SPAN = "trace.count"
COUNT_METRIC = "trace.count_s"

# boundaries each workload runs through at this commit; a traced run fails
# when one of them records no call, so a refactor that routes around a
# wrapped binding shows up as a missing span rather than a silent zero
_EVERYWHERE = (
    "cli.main", "cli.parse_input", "complexes.validate_complex",
    "exact_linalg.IntMatrix.mul", "exact_linalg.homology_between",
    "exact_linalg.column_rank", "exact_linalg._reduce_columns",
    "exact_linalg.smith_normal_form", "exact_linalg._SparseSmith.diagonal",
    "exact_linalg._invariant_chain",
)
MUST_FIRE = {
    "normed-diag": _EVERYWHERE + (
        "iterated.diag_nerve_normed_group", "simplicial.unnormalized_chains",
        "complexes.homology_table",
    ),
    "catgroup-tot": _EVERYWHERE + (
        "iterated._double_nerve", "simplicial.double_chains",
        "complexes.validate_double_complex", "complexes.total_complex",
        "complexes.homology_table",
    ),
    "metric-cycle": _EVERYWHERE + (
        "magnitude_core._enumerate_tuples", "magnitude_core.reachable_gradings",
        "magnitude_core.magnitude_complex_metric",
        "complexes.graded_homology_table",
    ),
}

COUNTERS = (
    "iterated.generators", "iterated.face_entries",
    "magnitude_core.enumerate_calls", "magnitude_core.generators",
    "simplicial.nnz", "complexes.validate_calls", "complexes.boundaries",
    "exact_linalg.mul_calls", "exact_linalg.reduce_calls",
    "exact_linalg.reduce_cols_in", "exact_linalg.reduce_nnz_in",
    "exact_linalg.rank", "exact_linalg.smith_pivots",
    "exact_linalg.smith_nonunit", "exact_linalg.invariant_len",
)
# The Smith diagonal before the invariant-factor pass is not unique (diag(2, 3)
# and diag(1, 6) are both reachable), so how many of its entries are not 1
# depends on pivot order, and so on element order: on catgroup-tot seed 2
# gives 83 where seeds 1 and 3-12 give 82. Every other count is a property of
# the input up to relabeling and must agree across seeds.
ORDER_DEPENDENT = ("exact_linalg.smith_nonunit",)


def _nnz(M) -> int:
    return sum(len(col) for col in M.cols)


def _face_entries(maps) -> int:
    return sum(1 for fm in maps for v in fm.values() if v is not None)


def _count_nerve(c, args, S):
    if isinstance(S.basis, dict):  # bisimplicial
        c["iterated.generators"] += sum(len(b) for b in S.basis.values())
        for faces in (S.h_face, S.v_face):
            c["iterated.face_entries"] += sum(_face_entries(m) for m in faces.values())
    else:
        c["iterated.generators"] += sum(len(b) for b in S.basis)
        c["iterated.face_entries"] += sum(_face_entries(m) for m in S.face)


def _count_chains(c, args, C):
    if hasattr(C, "horizontal"):  # double complex
        mats = [*C.horizontal.values(), *C.vertical.values()]
    else:
        mats = C.boundary
    c["simplicial.nnz"] += sum(_nnz(M) for M in mats)


def _count_metric_complex(c, args, G):
    c["magnitude_core.generators"] += sum(
        len(b) for piece in G.pieces.values() for b in piece.basis
    )


def _count_homology_table(c, args, result):
    c["complexes.boundaries"] += len(args[0].boundary) - 1


def _count_graded_table(c, args, result):
    c["complexes.boundaries"] += sum(len(p.boundary) - 1 for p in args[0].pieces.values())


def _count_column_rank(c, args, rank):
    M = args[0]
    c["exact_linalg.reduce_cols_in"] += M.ncols
    c["exact_linalg.reduce_nnz_in"] += _nnz(M)
    c["exact_linalg.rank"] += rank


def _count_smith(c, args, result):
    M = args[0]
    c["exact_linalg.reduce_cols_in"] += M.ncols
    c["exact_linalg.reduce_nnz_in"] += _nnz(M)
    c["exact_linalg.rank"] += result[1]


def _count_diagonal(c, args, diag):
    c["exact_linalg.smith_pivots"] += len(diag)
    c["exact_linalg.smith_nonunit"] += sum(1 for v in diag if v != 1)


def _count_invariant(c, args, chain):
    c["exact_linalg.invariant_len"] += len(chain)


_COUNT = {
    "iterated._diagonal_nerve": _count_nerve,
    "iterated._double_nerve": _count_nerve,
    "iterated.diag_nerve_normed_group": _count_nerve,
    "iterated.double_nerve_normed_group": _count_nerve,
    "magnitude_core.magnitude_complex_metric": _count_metric_complex,
    "simplicial.unnormalized_chains": _count_chains,
    "simplicial.normalized_chains": _count_chains,
    "simplicial.double_chains": _count_chains,
    "simplicial.row_normalize": _count_chains,
    "complexes.homology_table": _count_homology_table,
    "complexes.graded_homology_table": _count_graded_table,
    "exact_linalg.column_rank": _count_column_rank,
    "exact_linalg.smith_normal_form": _count_smith,
    "exact_linalg._SparseSmith.diagonal": _count_diagonal,
    "exact_linalg._invariant_chain": _count_invariant,
}


# boundary -> counter that counts its calls
_CALLS = {
    "magnitude_core._enumerate_tuples": "magnitude_core.enumerate_calls",
    "complexes.validate_complex": "complexes.validate_calls",
    "complexes.validate_double_complex": "complexes.validate_calls",
    "exact_linalg.IntMatrix.mul": "exact_linalg.mul_calls",
    "exact_linalg._reduce_columns": "exact_linalg.reduce_calls",
}


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, solve]
        self.stack: list[int] = []
        self.solve = None
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.solve])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        count = _COUNT.get(name)
        calls = _CALLS.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.calls[name] += 1
            if calls is not None:
                self.counts[calls] += 1
            if count is not None:
                cidx = self._open(COUNT_SPAN)
                count(self.counts, args, result)
                self._close(cidx)
            return result

        return traced

    def install(self):
        """Wrap every boundary; return a function that undoes it."""
        undo = []
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "maghom" or n.startswith("maghom."))]
        for name in BOUNDARIES:
            modname, *path = name.split(".")
            owner = sys.modules[f"maghom.{modname}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            orig = getattr(owner, path[-1])
            wrapper = self.wrap(name, orig)
            if isinstance(owner, type):
                setattr(owner, path[-1], wrapper)
                undo.append((owner, path[-1], orig))
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, orig))

        def uninstall():
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

        return uninstall

    def layer_times(self) -> tuple[Counter, float]:
        """Self time per layer metric, and the time covered by root spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        covered = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            metric = COUNT_METRIC if name == COUNT_SPAN else BOUNDARIES[name]
            out[metric] += (end - start) - child[i]
            if parent is None:
                covered += end - start
        return out, covered
