"""Columnar record sets: named, equal-length numpy columns.

The pipeline reads, transforms and writes whole columns.
"""

from collections.abc import Mapping

import numpy as np


class Table:
    """Named equal-length 1-D columns, in a fixed order.

    `table["name"]` is a column. Text columns are object arrays, so
    edits are never truncated.
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

    __iter__ = None  # not a sequence of rows: writers take a sequence of tables

    def __len__(self):
        return self._length

    def __getitem__(self, name):
        return self.columns[name]

    def __eq__(self, other):
        if not isinstance(other, Table):
            return NotImplemented
        return list(self.columns) == list(other.columns) and all(
            np.array_equal(self.columns[n], other.columns[n]) for n in self.columns
        )

    def __repr__(self):
        return f"Table({self._length} rows: {', '.join(self.columns)})"
