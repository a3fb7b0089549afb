"""Columnar record sets: named, equal-length numpy columns.

The pipeline reads, transforms and writes whole columns. A table also
reads as a sequence of row mappings, so callers that want one record at
a time can index or iterate it and edit values in place.
"""

from collections.abc import Mapping, MutableMapping

import numpy as np


class Table:
    """Named equal-length 1-D columns, in a fixed order.

    `table["name"]` is a column; `table[i]` and iteration give live row
    views whose edits write through to the columns. Text columns are
    object arrays, so edits are never truncated.
    """

    def __init__(self, columns: Mapping):
        self.columns = {}
        for name, values in columns.items():
            array = np.asarray(values)
            if array.dtype.kind in "US":
                array = array.astype(object)
            self.columns[name] = array
        lengths = {len(c) for c in self.columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns differ in length: {sorted(lengths)}")
        self._length = lengths.pop() if lengths else 0

    @classmethod
    def from_rows(cls, names, rows) -> "Table":
        """Collect row mappings into columns `names`."""
        rows = list(rows)
        return cls({name: [row[name] for row in rows] for name in names})

    def take(self, index) -> "Table":
        """Rows selected by an index array or boolean mask, as a new table."""
        return Table({name: column[index] for name, column in self.columns.items()})

    def __len__(self):
        return self._length

    def __getitem__(self, key):
        if isinstance(key, str):
            return self.columns[key]
        index = range(self._length)[key]  # bounds check, negative indices
        return Row(self, index)

    def __iter__(self):
        for i in range(self._length):
            yield Row(self, i)

    def __eq__(self, other):
        if isinstance(other, Table):
            return list(self.columns) == list(other.columns) and all(
                np.array_equal(self.columns[n], other.columns[n]) for n in self.columns
            )
        try:
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        except TypeError:
            return NotImplemented

    def __repr__(self):
        return f"Table({self._length} rows: {', '.join(self.columns)})"


class Row(MutableMapping):
    """One record of a Table; reads and writes go to the columns."""

    __slots__ = ("_table", "_index")

    def __init__(self, table: Table, index: int):
        self._table = table
        self._index = index

    def __getitem__(self, name):
        value = self._table.columns[name][self._index]
        return value.item() if isinstance(value, np.generic) else value

    def __setitem__(self, name, value):
        self._table.columns[name][self._index] = value

    def __delitem__(self, name):
        raise TypeError("table rows have a fixed set of columns")

    def __iter__(self):
        return iter(self._table.columns)

    def __len__(self):
        return len(self._table.columns)

    def __repr__(self):
        return repr(dict(self))
