"""The one CSV dialect of every output file.

Comma-separated, with a header row and LF line endings.  A float is
written as Python's shortest round-trip ``repr`` (``0.1``, ``-0.0``,
``1e-05``, ``1e+16``, ``nan``, ``inf``), ``None`` as an empty field and
any other value as its ``str``.  A field that contains a comma, a double
quote or a line feed is enclosed in double quotes, each of its quotes
doubled, and a row of one empty field is written as ``""``.  These are
the bytes ``csv.writer(fh, lineterminator="\\n")`` writes.  The writer
builds them from columns, so that a float array formats each distinct
value once.
"""

import numpy as np

_BLOCK_ROWS = 1024  # rows formatted and joined per write


def write_csv(path, header, columns) -> None:
    """Write ``header`` and the body whose columns are ``columns``.

    Each column is a sequence of values or a 1-D ndarray, all of one
    length; an ndarray column is written as its ``tolist()`` would be.
    Fields are formatted one block of rows at a time, except that a float
    array's distinct values are formatted up front.
    """
    columns = [_column(column) for column in columns]
    lengths = {len(values) for values, _ in columns}
    if len(lengths) > 1:
        raise ValueError(f"columns differ in length: {sorted(lengths)}")
    with open(path, "w", newline="\n") as fh:
        fh.write(_lines([_texts([name]) for name in header]))
        for start in range(0, max(lengths, default=0), _BLOCK_ROWS):
            fh.write(_lines([texts(values[start:start + _BLOCK_ROWS])
                             for values, texts in columns]))


def _column(column):
    """``(values, texts)``: ``texts`` gives the field texts of a slice of
    ``values``, which is one entry per row."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        # One repr per distinct bit pattern, so -0.0 and 0.0 stay apart;
        # the values are then each row's index into those reprs.
        bits, index = np.unique(column.view(f"i{column.itemsize}"),
                                return_inverse=True)
        reprs = np.array([repr(value) for value in
                          bits.view(column.dtype).tolist()], dtype=object)
        return index, lambda rows: reprs[rows].tolist()
    values = column.tolist() if isinstance(column, np.ndarray) \
        else list(column)
    return values, _texts


def _texts(values) -> list[str]:
    """The field text of each of ``values``."""
    texts = ["" if value is None else value if isinstance(value, str)
             else str(value) for value in values]
    joined = "".join(texts)
    if "," in joined or '"' in joined or "\n" in joined:
        texts = ['"' + text.replace('"', '""') + '"'
                 if "," in text or '"' in text or "\n" in text else text
                 for text in texts]
    return texts


def _lines(fields: list[list[str]]) -> str:
    """The lines of the rows whose columns hold the texts ``fields``."""
    if len(fields) == 1:  # else a row of one empty field is a blank line
        fields = [['""' if text == "" else text for text in fields[0]]]
    return "".join([",".join(row) + "\n" for row in zip(*fields)])
