#!/usr/bin/env python3
"""Fingerprint every chain complex the CLI reads homology from.

Runs ``maghom homology`` (default flags otherwise) on every canned builder
document, on the diag route, the tot route and the tot route with
``--normalize-rows``, and prints one sha256 per chain complex whose
homology is read. A digest covers the complex's bases and every boundary
column, entries in insertion order, so it changes when a generator, its
position or the order a column was filled in changes. Both routes stream
their top boundary (exact_linalg.ColumnStream) and decode their top
generators when they are read; both are hashed in emission order, label
by label, so a streamed complex digests the same as the tabulated one
would. Beside it, a shape line gives the dimension of each degree and
the nonzeros of each boundary, which relabeling or reordering the
generators cannot change; the digest and the shape come from one read
of the boundaries.
Each run also gets one line for its exit status and the sha256 of its
stdout.

    PYTHONPATH=src python3 scripts/digest_builders.py > digests.txt

Run it on two checkouts and diff the outputs: an empty diff means both
build the same complexes, generator for generator, and print the same
answers. A change that only relabels generators leaves the stdout and
shape lines as they were.

scripts/builder_digests.txt is the output at the current commit, and CI
diffs a fresh run against it. A change that alters a complex on purpose
regenerates that file with

    PYTHONPATH=src python3 scripts/digest_builders.py > scripts/builder_digests.txt

and says in CHANGES.md which lines moved and why. The diag route of catgroup-s3-a3 and
preordered-s3-a3 is skipped. Their CLI runs take about 26 s and 26 MB,
but here each streamed top degree (4,251,528 columns) is read twice,
once for the digest and shape and once for the homology, and its
4,251,528 labels are decoded and hashed: 102-111 s and 29 MB per
document (2 vCPU, Python 3.11).
"""

import contextlib
import hashlib
import io
import json
import sys

from maghom import cli, complexes

ROUTES = {
    "diag": ["--route", "diag"],
    "tot": ["--route", "tot"],
    "tot-rows": ["--route", "tot", "--normalize-rows"],
}
SKIP = {("catgroup-s3-a3", "diag"), ("preordered-s3-a3", "diag")}


def _hash_level(h, level) -> None:
    """Feed h the bytes of repr(tuple(level)), one label at a time, so a
    streamed level is never held as one string."""
    h.update(b"(")
    n = 0
    for label in level:
        if n:
            h.update(b", ")
        h.update(repr(label).encode())
        n += 1
    h.update(b",)" if n == 1 else b")")


def complex_digest_and_shape(C) -> tuple[str, str]:
    """The sha256 of the complex and its shape line, from one read of
    every boundary column."""
    h = hashlib.sha256()
    for level in C.basis:
        _hash_level(h, level)
        h.update(b"\n")
    nnz = []
    for M in C.boundary:
        h.update(f"{M.nrows}x{M.ncols}\n".encode())
        count = 0
        for col in M.cols:
            h.update(repr(list(col.items())).encode())
            h.update(b"\n")
            count += len(col)
        nnz.append(str(count))
    dims = ",".join(str(len(level)) for level in C.basis)
    return h.hexdigest(), f"dims {dims} nnz {','.join(nnz)}"


def main() -> int:
    digests: list[tuple[str, str]] = []
    original = complexes._homology_groups

    def recording(C, max_degree):
        digests.append(complex_digest_and_shape(C))
        return original(C, max_degree)

    complexes._homology_groups = recording
    try:
        for name, doc in cli.builder_documents().items():
            for route, flags in ROUTES.items():
                if (name, route) in SKIP:
                    print(f"{name} {route} skipped")
                    continue
                digests.clear()
                out = io.StringIO()
                sys.stdin = io.StringIO(json.dumps(doc))
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    status = cli.main(["homology", "-", *flags])
                stdout = hashlib.sha256(out.getvalue().encode()).hexdigest()
                print(f"{name} {route} exit {status} stdout {stdout}")
                for i, (digest, shape) in enumerate(digests):
                    print(f"{name} {route} complex {i} {digest}")
                    print(f"{name} {route} shape {i} {shape}")
                sys.stdout.flush()
    finally:
        complexes._homology_groups = original
        sys.stdin = sys.__stdin__
    return 0


if __name__ == "__main__":
    sys.exit(main())
