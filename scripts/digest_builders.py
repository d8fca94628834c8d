#!/usr/bin/env python3
"""Fingerprint every chain complex the CLI reads homology from.

Runs ``maghom homology`` (default flags otherwise) on every canned builder
document, on the diag route, the tot route and the tot route with
``--normalize-rows``, and prints one sha256 per chain complex whose
homology is read. A digest covers the complex's bases and every boundary
column, entries in insertion order, so it changes when a generator, its
position or the order a column was filled in changes. The diag route
streams its top boundary (exact_linalg.ColumnStream) and decodes its top
generators when they are read; both are hashed in emission order, so a
streamed complex digests the same as the tabulated one would. Beside it, a shape
line gives the dimension of each degree and the nonzeros of each
boundary, which relabeling or reordering the generators cannot change.
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
preordered-s3-a3 is skipped. Their CLI runs take 28-31 s and 25 MB,
but here each streamed top degree (4,251,528 columns) is read three
times, for the digest, the shape and the homology, and its basis is
hashed as one repr: 155-162 s and 1.6 GB per document (2 vCPU,
Python 3.11).
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


def complex_digest(C) -> str:
    h = hashlib.sha256()
    for level in C.basis:
        h.update(repr(tuple(level)).encode())
        h.update(b"\n")
    for M in C.boundary:
        h.update(f"{M.nrows}x{M.ncols}\n".encode())
        for col in M.cols:
            h.update(repr(list(col.items())).encode())
            h.update(b"\n")
    return h.hexdigest()


def complex_shape(C) -> str:
    dims = ",".join(str(len(level)) for level in C.basis)
    nnz = ",".join(str(sum(len(col) for col in M.cols)) for M in C.boundary)
    return f"dims {dims} nnz {nnz}"


def main() -> int:
    digests: list[tuple[str, str]] = []
    original = complexes._homology_groups

    def recording(C, max_degree):
        digests.append((complex_digest(C), complex_shape(C)))
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
