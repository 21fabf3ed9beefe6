"""The row-by-row ``csv.writer`` version of ``SpectrumList.to_csv``, kept
as the reference that the package's writer, which quotes each distinct tag
and the origin once, must reproduce byte for byte."""

import csv
from types import SimpleNamespace


def spectrum_to_csv(s) -> str:
    """Every row through ``csv.writer``: rows are written with "\\r\\n", so
    that a "\\r" in a field is quoted too, and each row's terminator is cut
    back to "\\n"."""
    rows: list[str] = []
    w = csv.writer(SimpleNamespace(write=rows.append), lineterminator="\r\n")
    w.writerow(["eigenvalue", "multiplicity", "tag", "source"])
    for e in s.entries:
        w.writerow([repr(e.value), e.multiplicity, e.tag, s.origin])
    return "".join(row[:-2] + "\n" for row in rows)
