"""The one CSV dialect of every output file.

Comma-separated, with a header row and LF line endings.  A float is
written as Python's shortest round-trip ``repr`` (``0.1``, ``-0.0``,
``1e-05``, ``1e+16``, ``nan``, ``inf``), ``None`` as an empty field and
any other value as its ``str``.  A field that contains a comma, a double
quote or a line feed is enclosed in double quotes, each of its quotes
doubled, and a row of one empty field is written as ``""``.  These are
the bytes ``csv.writer(fh, lineterminator="\\n")`` writes.

One writer, ``write_csvs``, writes a sequence of tables.  It builds the
bytes from columns, so that a float array formats each distinct value
once: the float array columns of a table, widened to float64, share one
text per distinct value, and a table takes the texts of the values it
shares with the last table before it in the same call that has float
arrays.  ``_reprs`` is the writer's one place that formats a float
array.
"""

from ._numpy import np

_BLOCK_ROWS = 1024  # rows formatted and joined per write


def write_csvs(tables) -> None:
    """Write each ``(path, header, columns)`` of ``tables`` in turn: the
    file ``path`` gets the row ``header`` and then the body whose columns
    are ``columns``.  A table's file is written before the next table is
    drawn, so ``tables`` may be a generator.

    Each column is a sequence of values or a 1-D ndarray, all of one
    length; an ndarray column is written as its ``tolist()`` would be.
    ``columns`` may be an iterator, such as ``zip(*rows)``: it is let go
    before the body is formatted.

    Fields are formatted one block of rows at a time, except that the
    distinct values of a table's float arrays are formatted up front,
    and those that the last table with float arrays had are taken from
    it.
    """
    bits, texts = np.empty(0, np.int64), np.empty(0, object)
    for path, header, columns in tables:
        columns = [_column(column) for column in columns]
        lengths = {len(values) for values, _ in columns}
        if len(lengths) > 1:
            raise ValueError(f"columns differ in length: {sorted(lengths)}")
        # A float column is its float64 bits until the table's distinct
        # bits, sorted, are known; then each row is an index into their
        # texts.
        floats = [i for i, (_, texts_of) in enumerate(columns)
                  if texts_of is None]
        if floats:
            table_bits = _distinct([columns[i][0] for i in floats])
            texts, missed = _reused(table_bits, bits, texts)
            bits = table_bits
            # Only now, with the previous table's texts dropped, format.
            texts[missed] = _reprs(bits[missed].view(np.float64))
        for i in floats:
            columns[i] = (np.searchsorted(bits, columns[i][0]),
                          lambda rows, texts=texts: texts[rows].tolist())
        with open(path, "w", newline="\n") as fh:
            fh.write(_lines([_texts([name]) for name in header]))
            for start in range(0, max(lengths, default=0), _BLOCK_ROWS):
                fh.write(_lines([texts_of(values[start:start + _BLOCK_ROWS])
                                 for values, texts_of in columns]))


def _column(column):
    """``(values, texts)``: ``texts`` gives the field texts of a slice of
    ``values``, which is one entry per row.  A float array of at most 64
    bits is ``(its float64 bits, None)``, formatted by ``write_csvs``
    with the rest of its table."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f" \
            and column.itemsize <= 8:
        # Widening is exact, and tolist() widens each value the same way.
        # Bit patterns, so -0.0 and 0.0 stay apart.
        return column.astype(np.float64, copy=False).view(np.int64), None
    values = column.tolist() if isinstance(column, np.ndarray) \
        else column if isinstance(column, (list, tuple)) else list(column)
    return values, _texts


def _distinct(columns) -> np.ndarray:
    """The sorted distinct values of the int64 arrays ``columns``."""
    values = np.concatenate(columns)  # a copy, so sort it in place
    values.sort()
    keep = np.empty(len(values), bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _reused(bits, prior_bits, prior_texts):
    """``(texts, missed)``: the texts of the sorted distinct ``bits`` that
    the sorted ``prior_bits`` hold, taken from ``prior_texts``, and the
    mask of those left to format."""
    texts = np.empty(len(bits), object)
    if not len(prior_bits):
        return texts, np.ones(len(bits), bool)
    at = np.searchsorted(prior_bits, bits).clip(max=len(prior_bits) - 1)
    found = prior_bits[at] == bits
    texts[found] = prior_texts[at[found]]
    return texts, ~found


def _reprs(values: np.ndarray) -> np.ndarray:
    """The ``repr`` of each of the floats ``values``, as an object array:
    the writer's one place that formats a float array."""
    return np.array([repr(value) for value in values.tolist()], dtype=object)


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
    # A row is never an empty line, so only zero rows join to "".
    lines = "\n".join(map(",".join, zip(*fields)))
    return lines + "\n" if lines else ""
