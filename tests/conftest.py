import os

import pytest

from examples import figure_rank3_7pt
from matcat import enumerate_matroids


def extended_enabled() -> bool:
    return os.environ.get("MATCAT_EXTENDED", "") not in ("", "0")


requires_extended = pytest.mark.skipif(
    not extended_enabled(),
    reason="extended run (minutes); set MATCAT_EXTENDED=1 to enable",
)


@pytest.fixture(scope="session")
def catalogue6():
    """All matroids on up to 6 elements, as records."""
    return enumerate_matroids(6)


@pytest.fixture(scope="session")
def matroids6(catalogue6):
    return [r.matroid() for r in catalogue6]


@pytest.fixture(scope="session")
def catalogue7():
    return enumerate_matroids(7)


@pytest.fixture(scope="session")
def catalogue8():
    return enumerate_matroids(8, jobs=2)


@pytest.fixture(scope="session")
def high_rank8(catalogue8):
    """A fixed spread of 8-element matroids of rank 5, 6 and 7.

    Per rank, the classes are ordered by flat count (the cost driver of the
    property searches) and four are taken at even steps through that order,
    from the fewest flats to the most.
    """
    out = []
    for r in (5, 6, 7):
        sel = sorted(
            (rec.matroid() for rec in catalogue8 if rec.n == 8 and rec.rank == r),
            key=lambda m: (m.flats().count(), m.hyperplanes),
        )
        picks = sorted({0, len(sel) // 3, 2 * len(sel) // 3, len(sel) - 1})
        out.extend(sel[i] for i in picks)
    return out


@pytest.fixture(scope="session")
def fig1():
    return figure_rank3_7pt()
