"""The one CSV dialect of every output file."""

import csv


def write_csv(path, header, rows) -> None:
    """Comma-separated with a header row and LF line endings.  ``csv``
    writes a float as its ``repr`` and ``None`` as an empty field."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
